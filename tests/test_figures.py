import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import analyze_file, make_manifest, make_snapshot
from fluctlab.cli import train_run_to_file
from fluctlab.figures import (
    fluctuation_table,
    hist_svg,
    reconstruct,
    scatter_svg,
    stack_svgs,
)
from fluctlab.net import ArchitectureSpec, NetworkState, forward, mse
from fluctlab.runfile import RunAccessor, write_run
from fluctlab.shapes import ShapeKind, generate
from fluctlab.train import RunConfig


@pytest.fixture(scope="module")
def spiral_run(tmp_path_factory):
    """Short real training run on the full architecture."""
    path = tmp_path_factory.mktemp("figs") / "spiral.nfl"
    cfg = RunConfig(
        shape=ShapeKind.SPIRAL, learning_rate=0.01, epochs=40, data_seed=1, init_seed=101
    )
    loss = train_run_to_file(cfg, path)
    return path, cfg, loss


@pytest.fixture(scope="module")
def frozen_run(tmp_path_factory):
    """Full-architecture run whose snapshots never change."""
    path = tmp_path_factory.mktemp("figs") / "frozen.nfl"
    arch = ArchitectureSpec()
    snaps = [
        make_snapshot(arch, e, 0.5, rng=np.random.default_rng(7)) for e in (1, 2, 3)
    ]
    write_run(make_manifest(arch=arch, epochs=3), snaps, path)
    return path


def assert_well_formed_svg(blob: bytes):
    root = ET.fromstring(blob)
    assert root.tag.endswith("svg")
    assert b"href" not in blob  # self-contained, no external references


class TestReconstruct:
    def test_zero_network_reconstructs_origin(self, tmp_path):
        arch = ArchitectureSpec()
        path = tmp_path / "zero.nfl"
        snaps = [make_snapshot(arch, 1, 0.5, fill=0.0)]
        write_run(make_manifest(arch=arch, shape=ShapeKind.CIRCLE, data_seed=3, epochs=1), snaps, path)
        pts = generate(ShapeKind.CIRCLE, 500, 3)
        acc = RunAccessor(path)
        original, reconstructed = reconstruct(acc.manifest, acc.frames()[-1])
        # the run's own training set, rebuilt from its manifest
        assert original.tobytes() == pts.tobytes()
        assert np.all(reconstructed == 0.0)
        # analytic: mean over components of the squared targets
        assert mse(original, reconstructed) == pytest.approx(
            float(np.mean(pts**2)), abs=1e-15
        )

    def test_deterministic(self, spiral_run):
        path, _, _ = spiral_run
        acc = RunAccessor(path)
        a_original, a_reconstructed = reconstruct(acc.manifest, acc.frames()[-1])
        b_original, b_reconstructed = reconstruct(acc.manifest, acc.frames()[-1])
        assert np.array_equal(a_reconstructed, b_reconstructed)
        assert mse(a_original, a_reconstructed) == mse(b_original, b_reconstructed)

    def test_final_mse_matches_stored_loss(self, spiral_run):
        path, _, stored_loss = spiral_run
        acc = RunAccessor(path)
        original, reconstructed = reconstruct(acc.manifest, acc.frames()[-1])
        assert abs(mse(original, reconstructed) - stored_loss) <= 1e-6

    @pytest.mark.parametrize("complete, index", [(True, 0), (False, -1)], ids=["first", "incomplete"])
    def test_any_frame_is_forward_on_its_weights(self, tmp_path, complete, index):
        """reconstruct builds the network of the frame it is given, also the
        first frame, or one of a run left incomplete: its output is forward on
        that frame's f32 parameters widened to f64."""
        arch = ArchitectureSpec()
        rng = np.random.default_rng(5)
        snaps = [make_snapshot(arch, epoch, 0.5, rng=rng) for epoch in (1, 2)]
        path = tmp_path / "run.nfl"
        write_run(make_manifest(arch=arch, data_seed=4, epochs=2), snaps, path, complete=complete)
        acc = RunAccessor(path)
        points, output = reconstruct(acc.manifest, acc.frames()[index])
        # make_snapshot's values are f32-exact, so they are the widened f32 parameters
        net = NetworkState(arch)
        net.theta[...] = snaps[index].theta
        assert points.tobytes() == generate(ShapeKind.CIRCLE, 500, 4).tobytes()
        assert output.tobytes() == forward(net, points).output.tobytes()


class TestScatterSvg:
    def test_marker_count(self):
        blob = scatter_svg(np.array([[0.5, 0.5]]), np.array([[0.1, -0.2]]), "t")
        assert blob.count(b'class="m-orig"') == 1
        assert blob.count(b'class="m-reco"') == 1
        assert_well_formed_svg(blob)

    def test_byte_determinism(self, spiral_run):
        path, _, _ = spiral_run
        acc = RunAccessor(path)
        points = reconstruct(acc.manifest, acc.frames()[-1])
        assert scatter_svg(*points, "spiral") == scatter_svg(*points, "spiral")

    def test_markers_inside_viewbox(self):
        blob = scatter_svg(
            np.array([[1.0, -1.0], [0.0, 0.0]]),
            np.array([[5.0, 5.0], [-3.0, 0.2]]),  # clipped to the frame
            "t",
        ).decode()
        assert 'width="800" height="600" viewBox="0 0 800 600"' in blob
        coords = re.findall(r'class="m-\w+" cx="([0-9.]+)" cy="([0-9.]+)"', blob)
        assert len(coords) == 4
        for cx, cy in coords:
            assert 0.0 <= float(cx) <= 800.0
            assert 0.0 <= float(cy) <= 600.0

    def test_title_and_axis_labels(self):
        root = ET.fromstring(scatter_svg(np.array([[0.5, 0.5]]), np.array([[0.1, -0.2]]), "a < b"))
        texts = [t.text for t in root.iter() if t.tag.endswith("text")]
        assert texts[0] == "a < b"
        assert texts[-4:-2] == ["x", "y"]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            scatter_svg(np.array([[np.nan, 0.0]]), np.array([[0.0, 0.0]]), "t")

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError) as info:
            scatter_svg(np.zeros((3, 2)), np.zeros((2, 2)), "t")
        assert str(info.value) == "original (3, 2) and reconstructed (2, 2) must have equal shapes"

    def test_empty_point_sets_rejected(self):
        with pytest.raises(ValueError, match="^nothing to plot: empty point sets$"):
            scatter_svg(np.zeros((0, 2)), np.zeros((0, 2)), "t")


class TestHistSvg:
    def test_bar_count_and_label_sums(self, spiral_run):
        path, _, _ = spiral_run
        report = analyze_file(path)
        blob = hist_svg(report, "weights", "w").decode()
        counts = [int(c) for c in re.findall(r'data-count="(\d+)"', blob)]
        assert len(counts) == 2 * report.bins
        assert sum(counts[: report.bins]) == 97  # encoder neurons
        assert sum(counts[report.bins :]) == 98  # decoder neurons
        assert_well_formed_svg(blob.encode())

    def test_all_zero_spreads_single_full_bar(self, frozen_run):
        report = analyze_file(frozen_run)
        blob = hist_svg(report, "biases", "b").decode()
        counts = [int(c) for c in re.findall(r'data-count="(\d+)"', blob)]
        assert counts == [97, 98]

    def test_channel_must_exist(self, frozen_run):
        report = analyze_file(frozen_run)
        with pytest.raises(ValueError):
            hist_svg(report, "momenta", "x")

    def test_byte_determinism(self, frozen_run):
        report = analyze_file(frozen_run)
        assert hist_svg(report, "weights", "b") == hist_svg(report, "weights", "b")

    def test_title_and_axis_label(self, frozen_run):
        report = analyze_file(frozen_run)
        root = ET.fromstring(hist_svg(report, "weights", "spread of w"))
        texts = [t.text for t in root.iter() if t.tag.endswith("text")]
        assert texts[:2] == ["spread of w", "per-neuron spread"]
        assert (root.attrib["width"], root.attrib["height"]) == ("800", "600")


class TestFluctuationTable:
    def test_row_count(self, spiral_run):
        path, _, _ = spiral_run
        md, csv_blob = fluctuation_table(analyze_file(path))
        csv_lines = csv_blob.decode().strip().split("\n")
        assert len(csv_lines) == 1 + 5 * 2  # header + channels x halves
        md_lines = md.decode().strip().split("\n")
        assert len(md_lines) == 2 + 5 * 2  # header + separator + rows

    def test_frozen_run_all_zero_medians(self, frozen_run):
        report = analyze_file(frozen_run)
        _, csv_blob = fluctuation_table(report)
        rows = [line.split(",") for line in csv_blob.decode().strip().split("\n")[1:]]
        for row in rows:
            assert float(row[5]) == 0.0  # median spread
        by_half = {(r[0], r[1]): int(r[3]) for r in rows}
        assert by_half[("weights", "encoder")] == 97
        assert by_half[("weights", "decoder")] == 98

    def test_values_match_report_exactly(self, spiral_run):
        path, _, _ = spiral_run
        report = analyze_file(path)
        _, csv_blob = fluctuation_table(report)
        rows = [line.split(",") for line in csv_blob.decode().strip().split("\n")[1:]]
        split = ArchitectureSpec().encoder_neurons
        for row in rows:
            ch, half = row[0], row[1]
            stats = report.channels[ch]
            vals = stats.spreads[:split] if half == "encoder" else stats.spreads[split:]
            assert float(row[2]) == len(vals)
            assert float(row[4]) == min(vals)
            assert float(row[6]) == max(vals)
            assert float(row[7]) == stats.halves[half].spread_of_spread


class TestStackSvgs:
    def test_composes_vertically(self, frozen_run):
        report = analyze_file(frozen_run)
        a = hist_svg(report, "weights", "a")
        b = hist_svg(report, "biases", "b")
        stacked = stack_svgs([a, b], title="both")
        assert_well_formed_svg(stacked)
        root = ET.fromstring(stacked)
        assert root.attrib["height"] == str(600 + 600 + 34)
        assert [t.text for t in root if t.tag.endswith("text")] == ["both"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_svgs([], title="t")

    def test_places_each_child_below_the_last(self, frozen_run):
        report = analyze_file(frozen_run)
        children = [hist_svg(report, ch, ch) for ch in ("weights", "biases", "activations")]
        stacked = stack_svgs(children, title="three")
        assert stacked.count(b"<?xml") == 1
        root = ET.fromstring(stacked)
        assert (root.attrib["width"], root.attrib["height"]) == ("800", str(34 + 3 * 600))
        nested = [(c.attrib["x"], c.attrib["y"]) for c in root if c.tag.endswith("svg")]
        assert nested == [("0", "34"), ("0", "634"), ("0", "1234")]


TITLE_TO_ESCAPE = 'a & b < c > d "e"'


class TestEscapedTitles:
    def assert_title_escaped(self, blob: bytes):
        assert b"a &amp; b &lt; c &gt; d &quot;e&quot;" in blob
        assert_well_formed_svg(blob)
        root = ET.fromstring(blob)
        assert TITLE_TO_ESCAPE in [t.text for t in root.iter() if t.tag.endswith("text")]

    def test_scatter_svg(self):
        self.assert_title_escaped(scatter_svg(np.array([[0.5, 0.5]]), np.array([[0.1, -0.2]]), TITLE_TO_ESCAPE))

    def test_hist_svg(self, frozen_run):
        self.assert_title_escaped(hist_svg(analyze_file(frozen_run), "weights", TITLE_TO_ESCAPE))

    def test_stack_svgs(self, frozen_run):
        child = hist_svg(analyze_file(frozen_run), "weights", "w")
        self.assert_title_escaped(stack_svgs([child, child], TITLE_TO_ESCAPE))
