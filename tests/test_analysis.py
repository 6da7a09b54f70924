import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    TINY_ARCH,
    analyze_file,
    edit_frame_value,
    make_manifest,
    make_snapshot,
    write_synthetic_run,
)
from fluctlab import analysis
from fluctlab.analysis import (
    ANALYSIS_CHANNELS,
    InsufficientDataError,
    analyze_run,
    calibrate_epsilon,
    detect_inactive,
    half_slices,
    histogram,
    neuron_delta_series,
    spread,
    spread_of_spread,
)
from fluctlab.net import ArchitectureSpec
from fluctlab.runfile import (
    RunAccessor,
    RunManifest,
    RunWriter,
    canonical_json_bytes,
    write_run,
)
from fluctlab.shapes import ShapeKind
from fluctlab.train import RunConfig, channel_views, train


def two_pass_std_oracle(values):
    """Brute-force population std: explicit mean pass, then moment pass."""
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / n)


def neuron_keys(arch):
    """(layer, index) of every neuron, in the order of a spreads array."""
    return [(layer, i) for layer, out_dim in enumerate(arch.out_dims) for i in range(out_dim)]


class TestSpread:
    def test_zero_case(self):
        assert spread([0.0, 0.0, 0.0]) == 0.0

    def test_symmetric_pair(self):
        assert spread([-1.0, 1.0]) == 1.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            vals = rng.normal(0.1, 2.0, size=rng.integers(1, 200)).tolist()
            assert abs(spread(vals) - two_pass_std_oracle(vals)) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spread([])

    @given(
        series=st.lists(st.integers(-(2**20), 2**20), min_size=2, max_size=50),
        shift=st.integers(-(2**10), 2**10),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance_exact(self, series, shift):
        # dyadic values keep the shifted sums exactly representable
        x = np.array(series, dtype=np.float64) * 2.0**-20
        c = shift * 2.0**-10
        assert spread(np.diff(x + c)) == spread(np.diff(x))

    @given(
        series=st.lists(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=50,
        ),
        k=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).filter(
            lambda v: abs(v) > 1e-6
        ),
    )
    @settings(max_examples=200, deadline=None)
    @example(series=[2.0, 0.0, -2.00001], k=21058.0)  # error 1.18e-12, over 1e-12
    def test_scale_equivariance(self, series, k):
        x = np.array(series, dtype=np.float64)
        base = spread(np.diff(x))
        scaled = spread(np.diff(k * x))
        # The bound is the rounding error, to first order, in u = eps / 2,
        # with M = max|x| and n = len(x) - 1 deltas:
        # - each delta of k * x is within 4u|k|M of k times the exact delta,
        #   and k times each delta of x within 2u|k|M of it;
        # - a population std moves by at most the largest change of its
        #   input, so the exact stds differ by at most 6u|k|M;
        # - np.std over n values of size <= V errs by at most (2n + 5)uV
        #   (mean n, deviations 2, sum of squares and sqrt n + 3), and
        #   V <= 2|k|M on either side;
        # - the product |k| * base adds u|k| * base <= 2u|k|M.
        # In all (8n + 28)u|k|M = (4n + 14)eps|k|M; 4n + 16 leaves room for the
        # second-order terms.  Squares that underflow lose up to half a
        # subnormal each, which moves each std by up to sqrt(smallest
        # subnormal), once in scaled and |k| times in |k| * base.
        n, m = len(x) - 1, np.abs(x).max()
        eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
        bound = (4 * n + 16) * eps * abs(k) * m + (1 + abs(k)) * math.sqrt(tiny)
        assert abs(scaled - abs(k) * base) <= bound

    def test_frozen_series_has_zero_spread(self):
        x = np.full(50, 0.7321)
        assert spread(np.diff(x)) == 0.0


class TestSpreadOfSpread:
    def test_equal_spreads_give_zero(self):
        assert spread_of_spread(np.array([0.5] * 17)) == 0.0

    def test_two_point_case(self):
        assert spread_of_spread(np.array([0.0, 2.0])) == 1.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0, 1, size=195).tolist()
        assert abs(spread_of_spread(np.array(vals)) - two_pass_std_oracle(vals)) <= 1e-12

    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=195))
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance_exact(self, vals):
        rng = np.random.default_rng(0)
        shuffled = list(vals)
        rng.shuffle(shuffled)
        assert spread_of_spread(vals) == spread_of_spread(shuffled)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spread_of_spread([])


class TestDetectInactive:
    def test_threshold_straddle(self):
        eps = 1e-4
        flagged = detect_inactive(np.array([0.5 * eps, 2 * eps]), eps)
        assert flagged.tolist() == [True, False]

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            detect_inactive(np.array([0.1]), 0.0)

    @given(
        vals=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=100),
        e1=st.floats(1e-9, 1.0),
        e2=st.floats(1e-9, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_epsilon(self, vals, e1, e2):
        lo, hi = sorted((e1, e2))
        spreads = np.array(vals)
        assert np.all(detect_inactive(spreads, lo) <= detect_inactive(spreads, hi))


class TestHistogram:
    def test_all_zero_collapses_to_one_bin(self):
        edges, counts = histogram(np.array([0.0] * 9), 30)
        assert edges == [0.0, 0.0]
        assert counts == [9]

    def test_even_split(self):
        edges, counts = histogram(np.array([0.0, 1.0, 2.0, 3.0]), 2)
        assert edges == [0.0, 1.5, 3.0]
        assert counts == [2, 2]

    def test_empty_input_is_refused(self):
        with pytest.raises(ValueError, match="histogram of an empty sequence is undefined"):
            histogram(np.array([]), 30)

    def test_range_too_small_to_split_collapses_to_one_bin(self):
        """30 bins over [0, 5e-324], the smallest subnormal, repeat an edge."""
        assert histogram(np.array([0.0, 5e-324]), 30) == ([0.0, 5e-324], [2])

    def test_last_bin_closed(self):
        _, counts = histogram(np.array([1.0, 2.0, 4.0]), 4)
        assert counts == [0, 1, 1, 1]

    @given(
        vals=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=200),
        bins=st.integers(1, 64),
    )
    @settings(max_examples=300, deadline=None)
    def test_counts_always_sum_to_input_size(self, vals, bins):
        _, counts = histogram(np.array(vals), bins)
        assert sum(counts) == len(vals)


class TestCalibrateEpsilon:
    def test_finds_threshold_in_window(self):
        vals = [0.0, 5e-7, 2e-6, 5e-4, 2e-3, 3e-3]
        eps = calibrate_epsilon(np.array(vals), (2, 3), (1e-6, 1e-3))
        assert eps is not None and 1e-6 <= eps <= 1e-3
        assert 2 <= sum(1 for v in vals if v < eps) <= 3

    def test_none_when_counts_jump_over_window(self):
        assert calibrate_epsilon(np.zeros(4), (1, 2), (1e-6, 1e-3)) is None

    def test_none_when_all_above_range(self):
        assert calibrate_epsilon(np.array([0.5, 0.7]), (1, 2), (1e-6, 1e-3)) is None

    @given(
        vals=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2e-3)), max_size=30),
        bounds=st.tuples(st.floats(0.0, 2e-3), st.floats(0.0, 2e-3)).map(sorted),
        low=st.integers(0, 12),
        width=st.integers(0, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_a_scan_of_its_candidates(self, vals, bounds, low, width):
        """The first of lo, hi and each value's next float up inside [lo, hi],
        in ascending order, that leaves between low and low + width values
        below it."""
        lo, hi = bounds
        above = [math.nextafter(v, math.inf) for v in vals]
        candidates = sorted({lo, hi, *(a for a in above if lo <= a <= hi)})
        scan = (eps for eps in candidates if low <= sum(v < eps for v in vals) <= low + width)
        expected = next(scan, None)
        got = calibrate_epsilon(np.array(vals), (low, low + width), (lo, hi))
        assert got == expected and type(got) is type(expected)


def ramp_run(path, count=3):
    """Snapshots whose every stored value equals the epoch number."""
    snaps = [make_snapshot(TINY_ARCH, e, 0.5, fill=float(e)) for e in range(1, count + 1)]
    write_run(make_manifest(epochs=count), snaps, path)


class TestDeltaSeries:
    def test_frozen_neuron_gives_zeros(self, tmp_path):
        path = tmp_path / "f.nfl"
        snaps = [make_snapshot(TINY_ARCH, e, 0.5, fill=0.25) for e in (1, 2, 3)]
        write_run(make_manifest(epochs=3), snaps, path)
        acc = RunAccessor(path)
        deltas = neuron_delta_series(acc, 1, 0, "weights")
        assert np.all(deltas == 0.0)

    def test_single_weight_neuron_consecutive_differences(self, tmp_path):
        # decoder layer 3 is 1 -> 3: one incoming weight per neuron
        path = tmp_path / "sw.nfl"
        snaps = [make_snapshot(TINY_ARCH, e, 0.5, fill=0.0) for e in (1, 2, 3)]
        for snap, value in zip(snaps, (0.0, 1.0, 3.0)):
            channel_views(snap.values, snap.spec)["weights3"][0, 0] = value
        write_run(make_manifest(epochs=3), snaps, path)
        acc = RunAccessor(path)
        deltas = neuron_delta_series(acc, 3, 0, "weights")
        assert deltas.tolist() == [1.0, 2.0]

    def test_two_weight_neuron_pools_four_deltas(self, tmp_path):
        path = tmp_path / "tw.nfl"
        snaps = [make_snapshot(TINY_ARCH, e, 0.5, fill=0.0) for e in (1, 2, 3)]
        for snap, row in zip(snaps, ([0.0, 0.0], [1.0, 2.0], [3.0, 5.0])):
            channel_views(snap.values, snap.spec)["weights0"][1, :] = row
        write_run(make_manifest(epochs=3), snaps, path)
        acc = RunAccessor(path)
        deltas = neuron_delta_series(acc, 0, 1, "weights")
        assert sorted(deltas.tolist()) == [1.0, 2.0, 2.0, 3.0]
        assert deltas.size == 4

    def test_too_few_snapshots(self, tmp_path):
        path = tmp_path / "short.nfl"
        write_synthetic_run(path, count=1)
        acc = RunAccessor(path)
        with pytest.raises(InsufficientDataError):
            neuron_delta_series(acc, 0, 0, "weights")

    def test_unknown_channel_is_refused(self, tmp_path):
        path = tmp_path / "ch.nfl"
        write_synthetic_run(path, count=3)
        acc = RunAccessor(path)
        with pytest.raises(ValueError, match="unknown channel 'weight'"):
            neuron_delta_series(acc, 0, 0, "weight")

    def test_activations_channel_reads_probe_means(self, tmp_path):
        path = tmp_path / "act.nfl"
        snaps = [make_snapshot(TINY_ARCH, e, 0.5, fill=0.0) for e in (1, 2)]
        snaps[1].activations[2][0] = 4.0
        write_run(make_manifest(epochs=2), snaps, path)
        acc = RunAccessor(path)
        deltas = neuron_delta_series(acc, 2, 0, "activations")
        assert deltas.tolist() == [4.0]


class TestAnalyzeRun:
    def test_frozen_run_all_inactive(self, tmp_path):
        path = tmp_path / "fr.nfl"
        snaps = [make_snapshot(TINY_ARCH, e, 0.5, fill=0.125) for e in (1, 2, 3)]
        write_run(make_manifest(epochs=3), snaps, path)
        report = analyze_file(path)
        for ch in ANALYSIS_CHANNELS:
            stats = report.channels[ch]
            assert stats.inactive.sum() == TINY_ARCH.total_neurons
            for half in ("encoder", "decoder"):
                assert stats.halves[half].spread_of_spread == 0.0

    def test_report_structure(self, tmp_path):
        path = tmp_path / "st.nfl"
        write_synthetic_run(path, count=4)
        report = analyze_file(path, bins=10)
        assert len(report.channels) == 5
        for ch in ANALYSIS_CHANNELS:
            stats = report.channels[ch]
            assert len(stats.spreads) == 17
            assert set(stats.halves) == {"encoder", "decoder"}
            assert sum(stats.halves["encoder"].hist_counts) == 8
            assert sum(stats.halves["decoder"].hist_counts) == 9

    def test_spread_matches_delta_series_definition(self, tmp_path):
        path = tmp_path / "match.nfl"
        write_synthetic_run(path, count=5, seed=11)
        # epsilon between the smallest and largest spreads flags some neurons
        acc = RunAccessor(path)
        report = analyze_run(acc, epsilon=0.5)
        for ch in ANALYSIS_CHANNELS:
            stats = report.channels[ch]
            assert stats.spreads.shape == (TINY_ARCH.total_neurons,)
            for (layer, index), s in zip(neuron_keys(TINY_ARCH), stats.spreads):
                deltas = neuron_delta_series(acc, layer, index, ch)
                assert s == spread(deltas)
            assert np.array_equal(stats.inactive, stats.spreads < report.epsilon)
        flagged = sum(int(report.channels[ch].inactive.sum()) for ch in ANALYSIS_CHANNELS)
        assert 0 < flagged < len(ANALYSIS_CHANNELS) * TINY_ARCH.total_neurons

    def test_deterministic(self, tmp_path):
        path = tmp_path / "det.nfl"
        write_synthetic_run(path, count=4, seed=2)
        a = analyze_file(path).to_json_dict()
        b = analyze_file(path).to_json_dict()
        assert a == b

    def test_raw_mode_differs_from_delta_on_ramp(self, tmp_path):
        path = tmp_path / "ramp.nfl"
        ramp_run(path, count=3)
        delta_report = analyze_file(path, mode="delta")
        raw_report = analyze_file(path, mode="raw")
        # constant unit deltas: no fluctuation in delta mode
        assert np.all(delta_report.channels["weights"].spreads == 0.0)
        expected = two_pass_std_oracle([1.0, 2.0, 3.0])
        for s in raw_report.channels["weights"].spreads:
            assert abs(s - expected) <= 1e-12

    def test_incomplete_run_rejected(self, tmp_path):
        path = tmp_path / "inc.nfl"
        rng = np.random.default_rng(0)
        with RunWriter(path, make_manifest()) as writer:
            writer.append(make_snapshot(TINY_ARCH, 1, 0.5, rng=rng))
            writer.append(make_snapshot(TINY_ARCH, 2, 0.5, rng=rng))
        acc = RunAccessor(path)
        with pytest.raises(ValueError, match="incomplete"):
            analyze_run(acc)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("mode", ["delta", "raw"])
    def test_non_finite_value_refused_naming_the_neuron(self, tmp_path, mode, value):
        path = tmp_path / "bad.nfl"
        write_synthetic_run(path, count=4)
        edit_frame_value(path, 2, "weights1", 2 * 4 + 1, value)  # layer 1 is 4 -> 3
        with pytest.raises(ValueError, match="weights spread of layer 1 neuron 2 is nan"):
            analyze_file(path, mode=mode)

    def test_unknown_mode_is_refused(self, tmp_path):
        path = tmp_path / "mode.nfl"
        write_synthetic_run(path, count=3)
        with pytest.raises(ValueError, match="mode must be 'delta' or 'raw', got 'deltas'"):
            analyze_file(path, mode="deltas")

    def test_single_snapshot_insufficient_for_deltas(self, tmp_path):
        path = tmp_path / "one.nfl"
        write_synthetic_run(path, count=1)
        acc = RunAccessor(path)
        with pytest.raises(InsufficientDataError):
            analyze_run(acc)
        analyze_run(acc, mode="raw")  # raw mode accepts a single snapshot

    def test_csv_has_one_row_per_neuron_channel(self, tmp_path):
        path = tmp_path / "csv.nfl"
        write_synthetic_run(path, count=3)
        report = analyze_file(path)
        lines = report.neuron_csv().strip().split("\n")
        assert lines[0] == "layer,index,half,channel,spread,inactive"
        assert len(lines) == 1 + 17 * 5

    def test_csv_and_json_hold_plain_python_numbers(self, tmp_path):
        path = tmp_path / "plain.nfl"
        write_synthetic_run(path, count=4, seed=5)
        report = analyze_file(path, epsilon=0.5)
        keys = neuron_keys(TINY_ARCH)
        rows = [line.split(",") for line in report.neuron_csv().strip().split("\n")[1:]]
        doc = report.to_json_dict()
        canonical_json_bytes(doc)  # json.dumps raises TypeError on numpy integers
        for k, ch in enumerate(ANALYSIS_CHANNELS):
            stats = report.channels[ch]
            channel_rows = rows[k * len(keys) : (k + 1) * len(keys)]
            for row, key, s, flag in zip(channel_rows, keys, stats.spreads, stats.inactive):
                assert (int(row[0]), int(row[1]), row[3]) == (*key, ch)
                assert float(row[4]) == s  # a repr of np.float64 does not parse
                assert row[5] == str(int(flag))
            entry = doc["channels"][ch]
            assert all(type(e["spread"]) is float for e in entry["spreads"])
            assert type(entry["inactive_count"]) is int
            assert [(n["layer"], n["index"]) for n in entry["inactive"]] == [
                keys[i] for i in np.flatnonzero(stats.inactive)
            ]
        assert any(doc["channels"][ch]["inactive"] for ch in ANALYSIS_CHANNELS)


def inexact_run(path, count=6):
    """A TINY_ARCH run of full float64 values, which the writer rounds to f32."""
    rng = np.random.default_rng(13)
    snaps = []
    for epoch in range(1, count + 1):
        snap = make_snapshot(TINY_ARCH, epoch, 0.5, fill=0.0)
        for view in channel_views(snap.values, TINY_ARCH).values():
            view[...] = rng.normal(0, 2, size=view.shape)
        snaps.append(snap)
    write_run(make_manifest(epochs=count), snaps, path)


def spiral_run(path, epochs=30):
    """A trained spiral run of the paper's network, every epoch captured."""
    config = RunConfig(
        shape=ShapeKind.SPIRAL, learning_rate=0.01, epochs=epochs, data_seed=1, init_seed=101
    )
    with RunWriter(path, RunManifest(config=config, architecture=ArchitectureSpec())) as writer:
        train(config, writer.append)
        writer.finalize(complete=True)


def per_neuron_std(series, mode):
    """np.std of each neuron's pooled values in a (T, rows) or (T, rows, cols)
    series: widened to f64, differenced over time in delta mode, then the
    neuron's (steps, cols) values raveled into one flat sequence."""
    data = series.astype(np.float64)
    data = np.diff(data, axis=0) if mode == "delta" else data
    return np.array([np.std(data[:, r].ravel()) for r in range(data.shape[1])])


def per_field_spreads(acc, mode):
    """Spreads by the per-neuron definition: per_neuron_std of each layer's
    series, the {channel}{layer} view of the frames' values."""
    views = channel_views(acc.frames()["values"], acc.manifest.architecture)
    spreads = {}
    for ch in ANALYSIS_CHANNELS:
        per_layer = [
            per_neuron_std(views[f"{ch}{layer}"], mode)
            for layer in range(len(acc.manifest.architecture.layer_shapes))
        ]
        spreads[ch] = np.concatenate(per_layer)
    return spreads


def f64_bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestAnalyzeOracle:
    @pytest.mark.parametrize("mode", ["delta", "raw"])
    @pytest.mark.parametrize("make_run", [inexact_run, spiral_run], ids=["tiny", "spiral"])
    def test_report_equals_per_field_formula_bit_for_bit(
        self, tmp_path, monkeypatch, make_run, mode
    ):
        path = tmp_path / "run.nfl"
        make_run(path)
        acc = RunAccessor(path)
        reference = per_field_spreads(acc, mode)
        # the median spread flags some neurons and leaves others
        epsilon = float(np.median(np.concatenate(list(reference.values()))))
        reports = []
        # one-row chunks and the default buffer, on one thread and on three
        for budget, workers in itertools.product([8, analysis.SPREAD_BUFFER_BYTES], [1, 3]):
            monkeypatch.setattr(analysis, "SPREAD_BUFFER_BYTES", budget)
            monkeypatch.setattr(analysis, "_worker_count", lambda: workers)
            reports.append(analyze_run(acc, epsilon=epsilon, mode=mode))
        arch = acc.manifest.architecture
        for report in reports[1:]:
            for ch, expected in reference.items():
                assert f64_bytes(report.channels[ch].spreads) == f64_bytes(expected)
        report = reports[0]
        flagged = 0
        for ch, expected in reference.items():
            stats = report.channels[ch]
            assert f64_bytes(stats.spreads) == f64_bytes(expected)
            assert np.array_equal(stats.inactive, expected < epsilon)
            flagged += int(stats.inactive.sum())
            for half, part in half_slices(arch).items():
                got = stats.halves[half]
                edges, counts = histogram(expected[part], report.bins)
                assert f64_bytes(got.hist_edges) == f64_bytes(edges)
                assert got.hist_counts == counts
                assert f64_bytes(got.spread_of_spread) == f64_bytes(spread_of_spread(expected[part]))
                assert got.inactive_count == int((expected[part] < epsilon).sum())
        assert 0 < flagged < len(ANALYSIS_CHANNELS) * arch.total_neurons


def f32_series(ndim):
    """Finite f32 arrays (T, rows) or (T, rows, cols); T >= 2, so deltas exist."""
    return hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=1, max_side=9).filter(
            lambda shape: shape[0] >= 2
        ),
        elements=st.floats(-1e6, 1e6, width=32),
    )


def neuron_major(series):
    """A (T, rows[, cols]) series widened to f64 as one row per neuron, each
    neuron's (T, cols) values raveled in order."""
    wide = series.astype(np.float64)
    return np.ascontiguousarray(np.moveaxis(wide, 1, 0)).reshape(wide.shape[1], -1)


class TestSpreadsInPlace:
    @pytest.mark.parametrize("ndim", [2, 3])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_std_in_place_equals_np_std_bit_for_bit(self, ndim, data):
        f = data.draw(f32_series(ndim))
        expected = per_neuron_std(f, "raw")
        assert analysis._std_in_place(neuron_major(f)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", ["delta", "raw"])
    @pytest.mark.parametrize("ndim", [2, 3])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_chunked_spreads_equal_whole_channel_std(self, mode, ndim, data):
        """Whatever the buffer size, every row gets the bits of np.std over the
        neuron's whole pooled series, as spread(neuron_delta_series(...))."""
        f = data.draw(f32_series(ndim))
        work = np.empty(data.draw(st.integers(1, 2 * f.size)))
        expected = per_neuron_std(f, mode)
        assert analysis._channel_spreads(f, mode, work).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", ["delta", "raw"])
    @pytest.mark.parametrize("make_run", [inexact_run, spiral_run], ids=["tiny", "spiral"])
    def test_smallest_chunks_give_the_same_report_bytes(
        self, tmp_path, monkeypatch, make_run, mode
    ):
        path = tmp_path / "run.nfl"
        make_run(path)

        def report_bytes():
            report = analyze_file(path, epsilon=1e-3, mode=mode)
            return canonical_json_bytes(report.to_json_dict()), report.neuron_csv()

        default = report_bytes()
        monkeypatch.setattr(analysis, "SPREAD_BUFFER_BYTES", 8)  # one-row chunks
        assert report_bytes() == default

    @pytest.mark.parametrize("cols", [32, 64, 129, 300])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_row_sums_keep_np_std_bits_at_real_widths(self, rows, cols):
        """The real fields have 32 and 64 cols, and numpy's pairwise sum
        recurses above 128 values: widths f32_series never reaches."""
        rng = np.random.default_rng(rows * 1000 + cols)
        f = rng.normal(0.0, 3.0, size=(41, rows, cols)).astype(np.float32)
        raw = f.astype(np.float64)
        # a row of work holds T values per col in raw mode, T - 1 deltas in delta mode
        for mode, whole, per_col in (("raw", raw, 41), ("delta", np.diff(raw, axis=0), 40)):
            expected = np.array([np.std(whole[:, r].ravel()) for r in range(rows)]).tobytes()
            assert analysis._std_in_place(neuron_major(whole)).tobytes() == expected
            # three-row chunks: a five-row field ends in a two-row chunk
            work = np.empty(3 * per_col * cols)
            assert analysis._channel_spreads(f, mode, work).tobytes() == expected

    @pytest.mark.parametrize("length", [2049, 2050])
    def test_a_row_at_the_default_buffer_size_keeps_np_std_bits(self, length):
        """A 64-col delta row of 2049 snapshots fills the default buffer
        exactly; at 2050 it gets a buffer of its own."""
        rng = np.random.default_rng(length)
        f = rng.normal(0.0, 3.0, size=(length, 1, 64)).astype(np.float32)
        work = np.empty(analysis.SPREAD_BUFFER_BYTES // 8)
        assert ((length - 1) * 64 <= work.size) == (length == 2049)
        expected = np.std(np.diff(f[:, 0].astype(np.float64), axis=0).ravel())
        assert analysis._channel_spreads(f, "delta", work).tobytes() == expected.tobytes()


class TestSpreadWorkers:
    @pytest.mark.parametrize("mode", ["delta", "raw"])
    def test_report_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, mode):
        path = tmp_path / "run.nfl"
        spiral_run(path)

        def report_bytes(workers):
            monkeypatch.setattr(analysis, "_worker_count", lambda: workers)
            report = analyze_file(path, epsilon=1e-3, mode=mode)
            return canonical_json_bytes(report.to_json_dict()), report.neuron_csv()

        assert report_bytes(1) == report_bytes(3)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_no_thread_outlives_the_analysis(self, tmp_path, monkeypatch, workers):
        path = tmp_path / "run.nfl"
        write_synthetic_run(path, count=4)
        monkeypatch.setattr(analysis, "_worker_count", lambda: workers)
        before = threading.active_count()
        analyze_file(path)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 3])
    def test_an_error_in_any_share_is_raised(self, tmp_path, monkeypatch, workers):
        path = tmp_path / "run.nfl"
        write_synthetic_run(path, count=4)
        monkeypatch.setattr(analysis, "_worker_count", lambda: workers)
        channel_spreads = analysis._channel_spreads
        calls = itertools.count(1)  # next() on it is one atomic step

        def failing_on_one_field(f, mode, work):
            if next(calls) == 7:
                raise ArithmeticError("field 7 failed")
            return channel_spreads(f, mode, work)

        monkeypatch.setattr(analysis, "_channel_spreads", failing_on_one_field)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="field 7 failed"):
            analyze_file(path)
        assert threading.active_count() == before
        # no field is handed out after the error; the other threads finish theirs
        assert next(calls) <= 7 + workers

    def test_more_threads_than_cores_take_each_field_once(self, tmp_path, monkeypatch):
        path = tmp_path / "run.nfl"
        inexact_run(path)
        monkeypatch.setattr(analysis, "_worker_count", lambda: 1)
        serial = canonical_json_bytes(analyze_file(path).to_json_dict())
        channel_spreads = analysis._channel_spreads
        lock = threading.Lock()
        taken = []

        def recording(f, mode, work):
            with lock:
                taken.append(f.__array_interface__["data"][0])
            return channel_spreads(f, mode, work)

        monkeypatch.setattr(analysis, "_channel_spreads", recording)
        monkeypatch.setattr(analysis, "_worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = canonical_json_bytes(analyze_file(path).to_json_dict())
        finally:
            sys.setswitchinterval(interval)
        fields = len(ANALYSIS_CHANNELS) * len(TINY_ARCH.layer_shapes)
        assert len(taken) == len(set(taken)) == fields
        assert threaded == serial

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (4, 4), (16, 4)])
    def test_one_worker_per_usable_cpu_up_to_the_cap(self, monkeypatch, cpus, workers):
        monkeypatch.setattr(analysis.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert analysis._worker_count() == workers
