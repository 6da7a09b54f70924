import concurrent.futures
import errno
import importlib
import inspect
import io
import json
import pkgutil
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    edit_frame_value,
    edit_manifest,
    fresh_process_env,
    tree_hashes,
    write_synthetic_run,
)

import fluctlab
import fluctlab.cli as cli
from fluctlab.analysis import REPORT_SCHEMA_VERSION, analyze_run
from fluctlab.cli import SHAPE_NAMES, ExperimentPlan, main, train_run_to_file
from fluctlab.net import ArchitectureSpec
from fluctlab.runfile import FORMAT_VERSION, MAGIC, MANIFEST_REGION, RunAccessor
from fluctlab.shapes import ShapeKind
from fluctlab.train import RunConfig, TrainingDivergedError


def run_cli(argv):
    return main(argv)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("cliruns")
    paths = {}
    for lr in (0.01, 0.001):
        cfg = RunConfig(
            shape=ShapeKind.SPIRAL, learning_rate=lr, epochs=30, data_seed=1, init_seed=101
        )
        p = base / f"spiral_{lr}.nfl"
        train_run_to_file(cfg, p)
        paths[lr] = p
    return paths


# each defect of unanalyzable_run, with the message every command prints after the run's name
UNANALYZABLE = {
    "one_snapshot": "need at least 2 snapshots for mode 'delta', run has 1",
    "incomplete": "run file is incomplete; refusing to analyze",
    "not_a_run_file": f"not a run file: expected magic {MAGIC!r}",
    "manifest_nested_too_deep": "unreadable manifest: maximum recursion depth exceeded "
    "while decoding a JSON array from a unicode string",
    "loss_not_finite": "loss of frame 4 (epoch 5) is nan: the run holds a value that is not finite",
    "version_1": f"format version 1; this reader reads version {FORMAT_VERSION} only: "
    "re-run `fluctlab train` to write the run again",
}
# JSON nested deeper than the interpreter's recursion limit
TOO_DEEP = b"[" * 1500


def unanalyzable_run(path, defect):
    """A file that analyze, report and compare refuse, with one of the UNANALYZABLE defects."""
    if defect == "one_snapshot":
        train_run_to_file(RunConfig(shape=ShapeKind.SPIRAL, learning_rate=0.1, epochs=1), path)
    elif defect == "incomplete":
        cfg = RunConfig(shape=ShapeKind.SPIRAL, learning_rate=1e30, epochs=50)
        with pytest.raises(TrainingDivergedError):
            train_run_to_file(cfg, path)
    elif defect == "loss_not_finite":
        train_run_to_file(RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=5), path)
        edit_frame_value(path, 4, "loss", 0, np.nan)
    elif defect == "version_1":  # any run made before frames held the snapshot vector
        train_run_to_file(RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=5), path)
        edit_manifest(path, "format_version", 1)
    elif defect == "manifest_nested_too_deep":
        header = MAGIC + len(TOO_DEEP).to_bytes(4, "little")
        path.write_bytes(header + TOO_DEEP.ljust(MANIFEST_REGION, b" "))
    else:
        path.write_text("x,y\n0.5,0.5\n")
    return path


class TestGen:
    def test_writes_500_rows(self, tmp_path, capsys):
        out = tmp_path / "circle.csv"
        assert run_cli(["gen", "--shape", "circle", "--seed", "7", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,y"
        assert len(lines) == 501
        assert str(out) in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["gen", "--shape", "square", "--seed", "3", "--out", str(a)])
        run_cli(["gen", "--shape", "square", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_shape_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["gen", "--shape", "nonagon"])
        assert err.value.code == 2

    def test_env_var_names_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLUCTLAB_OUT", str(tmp_path / "envout"))
        assert run_cli(["gen", "--shape", "circle", "--count", "10", "--seed", "1"]) == 0
        assert (tmp_path / "envout" / "circle_10_1.csv").exists()

    def test_failed_write_exits_2_with_the_os_error(self, tmp_path, monkeypatch, capsys):
        """A write that fails after the header ends gen with exit 2 and the
        OS error's own message."""
        error = OSError(errno.ENOSPC, "No space left on device")

        class FullFile(io.StringIO):
            def write(self, text):
                if self.tell() > 0:
                    raise error
                return super().write(text)

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullFile(), raising=False)
        assert run_cli(["gen", "--shape", "circle", "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


class TestTrain:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "c.nfl"
        code = run_cli(
            ["train", "--shape", "circle", "--lr", "0.01", "--epochs", "2", "--out", str(out)]
        )
        assert code == 0
        acc = RunAccessor(out)
        assert acc.manifest.complete is True
        assert len(acc) == 2
        assert "final_loss=" in capsys.readouterr().out

    @pytest.mark.parametrize("lr", ["1e30", "1e6"])
    def test_divergent_run_exits_1_and_flags_incomplete(self, tmp_path, capsys, lr):
        out = tmp_path / "d.nfl"
        code = run_cli(["train", "--shape", "circle", "--lr", lr, "--epochs", "50", "--out", str(out)])
        assert code == 1
        reason = {"1e30": "loss is inf", "1e6": "a captured value does not fit float32"}[lr]
        assert capsys.readouterr().err == f"error: run aborted at epoch 1: {reason}\n"
        acc = RunAccessor(out)
        assert acc.manifest.complete is False

    def test_last_epoch_is_stored_when_capture_every_does_not_divide_epochs(
        self, tmp_path, capsys
    ):
        """train's printed loss, the file's last loss and all's final_loss are
        one value: the last epoch is captured whatever the stride."""
        cell = ["--epochs", "10", "--capture-every", "3"]
        run = tmp_path / "c.nfl"
        assert run_cli(["train", "--shape", "circle", "--lr", "0.01", *cell, "--out", str(run)]) == 0
        printed = float(capsys.readouterr().out.split("final_loss=")[1])
        acc = RunAccessor(run)
        assert acc.frames()["epoch"].tolist() == [1, 3, 6, 9, 10]
        stored = float(acc.frames()["loss"][-1])
        outdir = tmp_path / "all"
        argv = ["all", "--shapes", "circle", "--lrs", "0.01", *cell, "--outdir", str(outdir)]
        assert run_cli(argv) == 0
        (entry,) = json.loads((outdir / "index.json").read_text())["entries"]
        assert printed == stored == entry["final_loss"]


    @pytest.mark.parametrize(
        "flags",
        [["--lr", "nan"], ["--lr", "inf"], ["--init-seed", "-1"], ["--data-seed", str(2**64)]],
    )
    def test_bad_config_exits_2_before_writing(self, tmp_path, flags, capsys):
        outdir = tmp_path / "out"
        argv = ["train", "--shape", "circle", "--lr", "0.01", "--epochs", "2"]
        assert run_cli(argv + flags + ["--outdir", str(outdir)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not outdir.exists()


class TestAnalyze:
    def test_writes_canonical_json_and_csv(self, two_runs, tmp_path, capsys):
        jpath = tmp_path / "r.json"
        cpath = tmp_path / "r.csv"
        code = run_cli(
            [
                "analyze",
                "--run",
                str(two_runs[0.01]),
                "--json",
                str(jpath),
                "--csv",
                str(cpath),
            ]
        )
        assert code == 0
        blob = jpath.read_bytes()
        doc = json.loads(blob)
        recanon = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n"
        assert blob == recanon
        assert doc["shape"] == "spiral"
        assert len(doc["channels"]) == 5
        assert cpath.read_text().startswith("layer,index,half,channel,spread,inactive")
        assert "inactive=" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["delta", "raw"])
    def test_report_header_matches_the_manifest_and_the_flags(self, tmp_path, mode):
        run_path = tmp_path / "run.nfl"
        argv = ["train", "--shape", "circle", "--lr", "0.003", "--epochs", "7", "--capture-every", "3"]
        assert run_cli(argv + ["--out", str(run_path)]) == 0
        jpath = tmp_path / "r.json"
        argv = ["analyze", "--run", str(run_path), "--mode", mode, "--epsilon", "2e-05"]
        argv += ["--bins", "7", "--json", str(jpath), "--csv", str(tmp_path / "r.csv")]
        assert run_cli(argv) == 0
        header = json.loads(jpath.read_bytes())
        del header["channels"]
        run = RunAccessor(run_path)
        cfg = run.manifest.config
        assert (cfg.shape.value, cfg.learning_rate, cfg.epochs, cfg.capture_every) == (
            "circle", 0.003, 7, 3
        )
        assert run.manifest.snapshot_count == len(run.frames()) == 4
        assert header == {
            "schema_version": REPORT_SCHEMA_VERSION,
            "shape": cfg.shape.value,
            "learning_rate": cfg.learning_rate,
            "epochs": cfg.epochs,
            "snapshots": run.manifest.snapshot_count,
            "capture_stride": cfg.capture_every,
            "mode": mode,
            "epsilon": 2e-05,
            "bins": 7,
        }

    def test_default_outputs_never_replace_an_all_tree(self, tmp_path, capsys):
        outdir = tmp_path / "exp"
        argv = ["all", "--shapes", "spiral", "--lrs", "0.01", "--epochs", "4"]
        assert run_cli(argv + ["--outdir", str(outdir)]) == 0
        before = tree_hashes(outdir)
        run = str(outdir / "spiral_0.01_4.nfl")
        assert run_cli(["analyze", "--run", run, "--epsilon", "1e-4"]) == 2
        assert "spiral_0.01_4.report.json" in capsys.readouterr().err
        assert tree_hashes(outdir) == before
        # explicit paths still overwrite
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        jpath.write_text("old")
        cpath.write_text("old")
        assert run_cli(["analyze", "--run", run, "--json", str(jpath), "--csv", str(cpath)]) == 0
        assert jpath.read_bytes() == (outdir / "spiral_0.01_4.report.json").read_bytes()
        assert cpath.read_bytes() == (outdir / "spiral_0.01_4.neurons.csv").read_bytes()

    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    def test_output_naming_the_run_exits_2_before_writing(
        self, two_runs, tmp_path, monkeypatch, flag, capsys
    ):
        run = tmp_path / "x.nfl"
        run.write_bytes(two_runs[0.01].read_bytes())
        monkeypatch.chdir(tmp_path)
        # one file, named relatively for --run and absolutely for the output
        assert run_cli(["analyze", "--run", "x.nfl", flag, str(run)]) == 2
        assert "three different files" in capsys.readouterr().err
        assert run.read_bytes() == two_runs[0.01].read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["x.nfl"]
        assert run_cli(["analyze", "--run", "x.nfl"]) == 0

    def test_json_and_csv_naming_one_file_exits_2_before_writing(self, two_runs, tmp_path, capsys):
        both = tmp_path / "out" / "r.txt"
        argv = ["analyze", "--run", str(two_runs[0.01]), "--json", str(both), "--csv", str(both)]
        assert run_cli(argv) == 2
        assert "three different files" in capsys.readouterr().err
        assert not both.parent.exists()


    def test_unknown_format_version_exits_2_before_writing(self, two_runs, tmp_path, capsys):
        run = tmp_path / "v9.nfl"
        version = f'"format_version":{FORMAT_VERSION}'.encode()
        run.write_bytes(two_runs[0.01].read_bytes().replace(version, b'"format_version":9'))
        jpath = tmp_path / "an" / "r.json"
        assert run_cli(["analyze", "--run", str(run), "--json", str(jpath)]) == 2
        assert "format version 9" in capsys.readouterr().err
        assert not jpath.parent.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("config", "learning_rate", True), ("config", "learning_rate", "0.01"),
         (None, "snapshot_count", "30"), ("architecture", "encoder_dims", [2, 64.9, 32, True]),
         pytest.param("config", "learning_rate", 10**400, id="lr-past-the-float-range")],
    )
    def test_mistyped_manifest_exits_2_before_writing(
        self, two_runs, tmp_path, section, key, value, capsys
    ):
        run = tmp_path / "typed" / "x.nfl"
        run.parent.mkdir()
        run.write_bytes(two_runs[0.01].read_bytes())
        edit_manifest(run, key, value, section)
        assert run_cli(["analyze", "--run", str(run)]) == 2
        assert key in capsys.readouterr().err
        assert [p.name for p in run.parent.iterdir()] == ["x.nfl"]

    def test_manifest_nested_too_deep_exits_2_before_writing(self, tmp_path, capsys):
        run = unanalyzable_run(tmp_path / "deep.nfl", "manifest_nested_too_deep")
        outdir = tmp_path / "an"
        argv = ["analyze", "--run", str(run), "--json", str(outdir / "r.json")]
        assert run_cli(argv + ["--csv", str(outdir / "r.csv")]) == 2
        assert capsys.readouterr().err == f"error: {run}: {UNANALYZABLE['manifest_nested_too_deep']}\n"
        assert not outdir.exists()

    def test_manifest_with_layers_past_a_c_int_exits_2_before_writing(
        self, two_runs, tmp_path, capsys
    ):
        run = tmp_path / "wide" / "x.nfl"
        run.parent.mkdir()
        run.write_bytes(two_runs[0.01].read_bytes())
        edit_manifest(run, "encoder_dims", [2, 2**40, 2**40, 1], "architecture")
        assert run_cli(["analyze", "--run", str(run)]) == 2
        # EpochSnapshot.length of the edited architecture
        message = "its layer sizes need 2417851639242452488950377 values per frame"
        assert capsys.readouterr().err == (
            f"error: {run}: unreadable manifest: {message}, more than a frame record holds\n"
        )
        assert [p.name for p in run.parent.iterdir()] == ["x.nfl"]

    @pytest.mark.parametrize("defect", UNANALYZABLE)
    def test_unanalyzable_run_is_named_before_writing(self, tmp_path, defect, capsys):
        bad = unanalyzable_run(tmp_path / f"{defect}.nfl", defect)
        assert run_cli(["analyze", "--run", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: {UNANALYZABLE[defect]}\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == [bad.name]

    @pytest.mark.parametrize("flags", [["--epsilon", "nan"], ["--epsilon", "0"], ["--bins", "0"]])
    def test_bad_analysis_setting_exits_2_before_writing(self, two_runs, tmp_path, flags, capsys):
        outdir = tmp_path / "an"
        argv = ["analyze", "--run", str(two_runs[0.01]), "--json", str(outdir / "r.json")]
        assert run_cli(argv + ["--csv", str(outdir / "r.csv")] + flags) == 2
        assert flags[0][2:] in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--epsilon", "0"], "epsilon must be positive and finite, got 0.0"),
            (["--bins", "0"], "bins must be an integer >= 1, got 0"),
        ],
    )
    def test_bad_setting_is_refused_before_the_run_is_read(self, tmp_path, flags, message, capsys):
        argv = ["analyze", "--run", str(tmp_path / "nothere.nfl")]
        assert run_cli(argv + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags", [["--epsilon", "0"], ["--bins", "0"]])
    def test_bad_setting_opens_no_run(self, two_runs, tmp_path, monkeypatch, flags):
        opened = []
        monkeypatch.setattr(cli, "RunAccessor", lambda path: opened.append(path) or RunAccessor(path))
        argv = ["analyze", "--run", str(two_runs[0.01]), "--json", str(tmp_path / "r.json")]
        assert run_cli(argv + ["--csv", str(tmp_path / "r.csv")] + flags) == 2
        assert opened == []


class TestReport:
    def test_single_run_artifacts(self, two_runs, tmp_path):
        outdir = tmp_path / "rep"
        code = run_cli(["report", "--runs", str(two_runs[0.01]), "--outdir", str(outdir)])
        assert code == 0
        assert (outdir / "spiral_0.01_30_scatter.svg").exists()
        for ch in ("weights", "biases", "activations", "weight_grads", "bias_grads"):
            assert (outdir / f"spiral_0.01_30_hist_{ch}.svg").exists()
        assert (outdir / "spiral_0.01_30_table.md").exists()
        assert (outdir / "spiral_0.01_30_table.csv").exists()

    def test_multi_run_composites(self, two_runs, tmp_path):
        outdir = tmp_path / "rep2"
        runs = f"{two_runs[0.01]},{two_runs[0.001]}"
        code = run_cli(["report", "--runs", runs, "--outdir", str(outdir)])
        assert code == 0
        for ch in ("weights", "biases", "activations", "weight_grads", "bias_grads"):
            assert (outdir / f"spiral_hist_{ch}_all.svg").exists()

    def test_runs_differing_only_in_seed_usage_error(self, tmp_path, capsys):
        runs = []
        for init_seed in (1, 2):
            cfg = RunConfig(
                shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=2, init_seed=init_seed
            )
            runs.append(tmp_path / f"seed{init_seed}.nfl")
            train_run_to_file(cfg, runs[-1])
        outdir = tmp_path / "rep"
        code = run_cli(["report", "--runs", ",".join(map(str, runs)), "--outdir", str(outdir)])
        assert code == 2
        assert "circle_0.01_2" in capsys.readouterr().err
        assert not outdir.exists()

    def test_same_run_twice_usage_error(self, two_runs, tmp_path):
        outdir = tmp_path / "rep"
        runs = f"{two_runs[0.01]},{two_runs[0.01]}"
        assert run_cli(["report", "--runs", runs, "--outdir", str(outdir)]) == 2
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--runs", ","],
            ["--epsilon", "nan"],
            ["--epsilon", "inf"],
            ["--epsilon", "-0.5"],
            ["--bins", "0"],
        ],
    )
    def test_usage_error_before_creating_outdir(self, two_runs, tmp_path, flags, capsys):
        outdir = tmp_path / "rep"
        argv = ["report", "--runs", str(two_runs[0.01]), "--outdir", str(outdir)]
        assert run_cli(argv + flags) == 2
        assert "error:" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--epsilon", "nan"], "epsilon must be positive and finite, got nan"),
            (["--bins", "0"], "bins must be an integer >= 1, got 0"),
        ],
    )
    def test_bad_setting_error_names_no_file(self, two_runs, tmp_path, flags, message, capsys):
        argv = ["report", "--runs", str(two_runs[0.01]), "--outdir", str(tmp_path / "rep")]
        assert run_cli(argv + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("defect", UNANALYZABLE)
    def test_unanalyzable_run_is_usage_error_before_creating_outdir(
        self, two_runs, tmp_path, defect, capsys
    ):
        bad = unanalyzable_run(tmp_path / f"{defect}.nfl", defect)
        outdir = tmp_path / "rep"
        runs = f"{two_runs[0.01]},{bad}"
        assert run_cli(["report", "--runs", runs, "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {UNANALYZABLE[defect]}\n"
        assert not outdir.exists()

    def test_report_rewrites_the_bytes_of_all(self, tmp_path):
        exp, rep = tmp_path / "exp", tmp_path / "rep"
        args = ["all", "--shapes", "spiral", "--lrs", "0.01,0.001", "--epochs", "4"]
        assert run_cli(args + ["--outdir", str(exp)]) == 0
        runs = ",".join(str(exp / f"spiral_{lr}_4.nfl") for lr in ("0.01", "0.001"))
        assert run_cli(["report", "--runs", runs, "--outdir", str(rep)]) == 0
        written = tree_hashes(rep)
        assert len(written) == 2 * 10 + 5
        assert written == {name: h for name, h in tree_hashes(exp).items() if name in written}

    def test_one_runs_frames_are_held_at_a_time(self, two_runs, tmp_path, monkeypatch):
        """report frees each run's frames before it opens the next, and holds
        none once it returns: it keeps a copy of the last frame, not a view."""
        held = []  # a weak reference to each opened run's frames

        def run_accessor(path):
            assert all(frames() is None for frames in held), "an earlier run's frames are alive"
            run = RunAccessor(path)
            held.append(weakref.ref(run.frames()))
            return run

        monkeypatch.setattr(cli, "RunAccessor", run_accessor)
        runs = f"{two_runs[0.01]},{two_runs[0.001]}"
        assert run_cli(["report", "--runs", runs, "--outdir", str(tmp_path / "rep")]) == 0
        assert len(held) == 2
        assert all(frames() is None for frames in held)


class TestCompare:
    def test_table_and_flags(self, two_runs, capsys):
        code = run_cli(["compare", str(two_runs[0.01]), str(two_runs[0.001])])
        assert code == 0
        out = capsys.readouterr().out
        assert "shape: spiral" in out
        # oracle: read the final losses straight from the run files
        losses = {}
        for lr, path in two_runs.items():
            acc = RunAccessor(path)
            losses[lr] = float(acc.frames()["loss"][-1])
        best = min(losses, key=losses.get)
        assert f"lowest final MSE: lr {best:g}" in out
        assert "fewest inactive activation neurons: lr" in out

    def test_numbers_match_analyze(self, two_runs, tmp_path, capsys):
        lrs = list(two_runs)
        assert run_cli(["compare", *(str(two_runs[lr]) for lr in lrs)]) == 0
        lines = capsys.readouterr().out.split("\n")
        rows = [line.split() for line in lines[2 : 2 + len(lrs)]]
        assert lines[2 + len(lrs)] == "spread_of_spread (encoder/decoder):"
        pairs = lines[3 + len(lrs) : 3 + 2 * len(lrs)]
        # oracle: analyze's JSON and the run file's own losses
        inactive_activations = {}
        for lr, row, pair in zip(lrs, rows, pairs):
            jpath, cpath = tmp_path / f"{lr}.json", tmp_path / f"{lr}.csv"
            argv = ["analyze", "--run", str(two_runs[lr]), "--json", str(jpath)]
            assert run_cli(argv + ["--csv", str(cpath)]) == 0
            channels = json.loads(jpath.read_text())["channels"]
            acc = RunAccessor(two_runs[lr])
            final_mse = acc.frames()["loss"][-1]
            assert row[:2] == [f"{lr:g}", format(final_mse, ".9g")]
            assert row[2:] == [str(channels[ch]["inactive_count"]) for ch in ALL_CHANNELS]
            halves = [channels[ch]["halves"] for ch in ALL_CHANNELS]
            assert pair == f"  lr {lr:g}: " + "  ".join(
                f"{ch}={format(h['encoder']['spread_of_spread'], '.4g')}"
                f"/{format(h['decoder']['spread_of_spread'], '.4g')}"
                for ch, h in zip(ALL_CHANNELS, halves)
            )
            inactive_activations[lr] = channels["activations"]["inactive_count"]
        fewest = min(lrs, key=inactive_activations.get)
        assert lines[-2] == f"fewest inactive activation neurons: lr {fewest:g}"

    @pytest.mark.parametrize("defect", UNANALYZABLE)
    def test_unanalyzable_run_is_named(self, two_runs, tmp_path, defect, capsys):
        bad = unanalyzable_run(tmp_path / f"{defect}.nfl", defect)
        assert run_cli(["compare", str(two_runs[0.01]), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: {UNANALYZABLE[defect]}\n"
        assert captured.out == ""

    def test_identical_runs_identical_columns(self, two_runs, capsys):
        code = run_cli(["compare", str(two_runs[0.01]), str(two_runs[0.01])])
        assert code == 0
        out = capsys.readouterr().out.split("\n")
        rows = [l for l in out if l.strip().startswith("0.01")]
        assert len(rows) == 2 and rows[0] == rows[1]

    def test_ties_go_to_the_first_run_given(self, two_runs, tmp_path, capsys):
        """A copy of a run under another learning rate ties with it on final
        loss and on every inactive count; both verdicts name the first run."""
        copy = tmp_path / "copy.nfl"
        copy.write_bytes(two_runs[0.01].read_bytes())
        edit_manifest(copy, "learning_rate", 0.5, section="config")
        for runs, first in (((two_runs[0.01], copy), "0.01"), ((copy, two_runs[0.01]), "0.5")):
            assert run_cli(["compare", *map(str, runs)]) == 0
            verdicts = capsys.readouterr().out.splitlines()[-2:]
            assert verdicts == [
                f"lowest final MSE: lr {first}",
                f"fewest inactive activation neurons: lr {first}",
            ]

    def test_mixed_shapes_usage_error(self, two_runs, tmp_path, capsys):
        other = tmp_path / "circle.nfl"
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=2)
        train_run_to_file(cfg, other)
        code = run_cli(["compare", str(two_runs[0.01]), str(other)])
        assert code == 2

    def test_single_run_usage_error(self, two_runs):
        assert run_cli(["compare", str(two_runs[0.01])]) == 2

    def test_nan_epsilon_usage_error(self, two_runs, capsys):
        runs = [str(two_runs[0.01]), str(two_runs[0.001])]
        assert run_cli(["compare", *runs, "--epsilon", "nan"]) == 2
        assert capsys.readouterr().err == "error: epsilon must be positive and finite, got nan\n"

    def test_zero_bins_usage_error(self, two_runs, capsys):
        runs = [str(two_runs[0.01]), str(two_runs[0.001])]
        assert run_cli(["compare", *runs, "--bins", "0"]) == 2
        assert capsys.readouterr().err == "error: bins must be an integer >= 1, got 0\n"


class TestWriteSummary:
    """The calibration fields of an index entry."""

    @staticmethod
    def summary(path, out_dir):
        return cli.write_summary(analyze_run(RunAccessor(path)), out_dir)

    def test_large_deltas_flag_the_weights_count_unreproduced(self, tmp_path):
        path = tmp_path / "random.nfl"
        write_synthetic_run(path, arch=ArchitectureSpec(), count=4)  # deltas of order 1
        entry = self.summary(path, tmp_path / "out")
        assert entry["weights_inactive_default"] == entry["inactive_counts"]["weights"] == 0
        assert entry["weights_epsilon_calibrated"] is None
        assert entry["flags"] == ["weights-inactive-count-unreproduced"]

    def test_frozen_run_is_all_inactive_without_a_flag(self, frozen_run, tmp_path):
        # every spread is 0: all 195 neurons count as inactive at any epsilon,
        # past the target range, so there is no epsilon to calibrate
        entry = self.summary(frozen_run, tmp_path / "out")
        assert entry["weights_inactive_default"] == entry["inactive_counts"]["weights"] == 195
        assert entry["weights_epsilon_calibrated"] is None
        assert entry["flags"] == []


ALL_CHANNELS = ("weights", "biases", "activations", "weight_grads", "bias_grads")


class TestAll:
    def test_small_plan_index_and_artifacts(self, tmp_path):
        outdir = tmp_path / "exp"
        code = run_cli(
            [
                "all",
                "--shapes",
                "circle",
                "--lrs",
                "0.01,0.001",
                "--epochs",
                "3",
                "--outdir",
                str(outdir),
            ]
        )
        assert code == 0
        index = json.loads((outdir / "index.json").read_text())
        assert index["schema_version"] == 1
        assert len(index["entries"]) == 2
        for entry in index["entries"]:
            assert entry["status"] == "ok"
            assert (outdir / entry["run_file"]).exists()
            assert (outdir / entry["report_json"]).exists()
            assert (outdir / entry["neurons_csv"]).exists()
            for name in entry["figures"]:
                assert (outdir / name).exists()
            assert set(entry["inactive_counts"]) == set(ALL_CHANNELS)
        for ch in ALL_CHANNELS:
            assert (outdir / f"circle_hist_{ch}_all.svg").exists()
        # the index lists every file written, and nothing else is written
        listed = {"index.json", *index["comparison_figures"]}
        for entry in index["entries"]:
            files = ("run_file", "report_json", "neurons_csv", "table_md", "table_csv")
            listed |= {entry[key] for key in files}
            listed |= set(entry["figures"])
            # index.json sorts hist_figures by channel name; figures are in channel order
            assert [entry["hist_figures"][ch] for ch in ALL_CHANNELS] == entry["figures"][1:]
        assert {p.name for p in outdir.iterdir()} == listed

    def test_rerun_reproduces_bytes(self, tmp_path):
        args = ["all", "--shapes", "spiral", "--lrs", "0.01", "--epochs", "3"]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert run_cli(args + ["--outdir", str(d1)]) == 0
        assert run_cli(args + ["--outdir", str(d2)]) == 0
        assert tree_hashes(d1) == tree_hashes(d2)

    def test_parallelism_does_not_change_artifacts(self, tmp_path):
        base = ["all", "--shapes", "circle,triangle", "--lrs", "0.01", "--epochs", "2"]
        d1, d2 = tmp_path / "p1", tmp_path / "p2"
        assert run_cli(base + ["--outdir", str(d1), "--parallelism", "1"]) == 0
        assert run_cli(base + ["--outdir", str(d2), "--parallelism", "2"]) == 0
        assert tree_hashes(d1) == tree_hashes(d2)

    def test_pool_starts_at_most_one_worker_per_cell(self, tmp_path, monkeypatch):
        # a fork pool starts all max_workers processes at its first submit, so
        # a pool is never asked for more workers than the plan has cells
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        base = ["all", "--lrs", "0.01", "--epochs", "2", "--parallelism", "500"]
        assert run_cli(base + ["--shapes", "circle,triangle", "--outdir", str(tmp_path / "two")]) == 0
        assert sizes == [2]
        # one cell runs in this process, with no pool
        assert run_cli(base + ["--shapes", "circle", "--outdir", str(tmp_path / "one")]) == 0
        assert sizes == [2]
        assert (tmp_path / "one" / "circle_0.01_2.nfl").exists()

    def test_failed_cell_recorded_and_others_continue(self, tmp_path):
        outdir = tmp_path / "fail"
        code = run_cli(
            [
                "all",
                "--shapes",
                "circle",
                "--lrs",
                "1e30,0.01",
                "--epochs",
                "50",
                "--outdir",
                str(outdir),
            ]
        )
        assert code == 1
        index = json.loads((outdir / "index.json").read_text())
        by_lr = {e["learning_rate"]: e for e in index["entries"]}
        assert by_lr[1e30]["status"] == "failed"
        assert by_lr[1e30]["error"] == "TrainingDivergedError: run aborted at epoch 1: loss is inf"
        assert by_lr[0.01]["status"] == "ok"

    def test_failed_cell_under_the_pool_matches_in_process(self, tmp_path, monkeypatch, capsys):
        """The same failing plan at --parallelism 1 and 2: exit 1, the lr 1e30
        cell recorded as failed with the divergence, and the same index.json
        and stdout byte for byte (a relative --outdir keeps the paths equal)."""
        argv = ["all", "--shapes", "circle", "--lrs", "1e30,0.01", "--epochs", "5", "--outdir", "out"]
        results = []
        for parallelism in ("1", "2"):
            workdir = tmp_path / parallelism
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            code = run_cli(argv + ["--parallelism", parallelism])
            index = Path("out/index.json").read_bytes()
            results.append((code, index, capsys.readouterr().out))
        assert results[1] == results[0]
        code, index, _ = results[0]
        assert code == 1
        by_lr = {e["learning_rate"]: e for e in json.loads(index)["entries"]}
        assert by_lr[1e30]["status"] == "failed"
        assert by_lr[1e30]["error"].startswith("TrainingDivergedError: run aborted at epoch 1")
        assert by_lr[0.01]["status"] == "ok"

    def test_each_cell_is_read_once_through_the_loop(self, tmp_path, monkeypatch):
        """all analyses each run it trained through _analyzed_runs, which opens
        it once, as report and compare do."""
        looped, opened = [], []
        real_loop = cli._analyzed_runs

        def loop(paths, *settings):
            looped.extend(paths)
            return real_loop(paths, *settings)

        monkeypatch.setattr(cli, "_analyzed_runs", loop)
        monkeypatch.setattr(cli, "RunAccessor", lambda path: opened.append(path) or RunAccessor(path))
        outdir = tmp_path / "exp"
        argv = ["all", "--shapes", "circle", "--lrs", "0.01,0.001", "--epochs", "2"]
        assert run_cli(argv + ["--outdir", str(outdir)]) == 0
        assert looped == opened == [outdir / "circle_0.01_2.nfl", outdir / "circle_0.001_2.nfl"]

    def test_failed_analysis_is_recorded_with_its_run_file(self, tmp_path, monkeypatch):
        def refuse(acc, **settings):
            raise ValueError("refused")

        monkeypatch.setattr(cli, "analyze_run", refuse)
        outdir = tmp_path / "exp"
        argv = ["all", "--shapes", "circle", "--lrs", "0.01", "--epochs", "2", "--outdir", str(outdir)]
        assert run_cli(argv) == 1
        (entry,) = json.loads((outdir / "index.json").read_text())["entries"]
        assert entry["status"] == "failed"
        assert entry["error"] == f"ValueError: {outdir / 'circle_0.01_2.nfl'}: refused"

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(
            json.dumps({"shapes": ["circle"], "learning_rates": [0.01], "epochs": 2})
        )
        outdir = tmp_path / "cfg"
        code = run_cli(
            ["all", "--config", str(cfg_path), "--epochs", "3", "--outdir", str(outdir)]
        )
        assert code == 0
        acc = RunAccessor(outdir / "circle_0.01_3.nfl")
        assert acc.manifest.config.epochs == 3

    @pytest.mark.parametrize(
        "cells", [["--shapes", "circle,circle"], ["--lrs", "0.01,0.010"]]
    )
    def test_repeated_cell_usage_error(self, tmp_path, cells, capsys):
        argv = ["all", "--shapes", "circle", "--lrs", "0.01", "--epochs", "2"]
        outdir = tmp_path / "dup"
        code = run_cli(argv + cells + ["--outdir", str(outdir)])
        assert code == 2
        assert "plan repeats cells: circle_0.01_2" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--init-seed", "-5"], ["--data-seed", str(2**64)], ["--lrs", "0"], ["--lrs", "0.01,nan"]],
    )
    def test_cell_that_cannot_run_is_usage_error(self, tmp_path, flags, capsys):
        argv = ["all", "--shapes", "circle", "--lrs", "0.01", "--epochs", "2"]
        outdir = tmp_path / "bad"
        assert run_cli(argv + flags + ["--outdir", str(outdir)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not outdir.exists()

    def test_config_file_with_non_integer_seed_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "plan.json"
        plan = {"shapes": ["circle"], "learning_rates": [0.01], "epochs": 1, "init_seed": 1.5}
        cfg_path.write_text(json.dumps(plan))
        outdir = tmp_path / "cfg"
        assert run_cli(["all", "--config", str(cfg_path), "--outdir", str(outdir)]) == 2
        assert "init_seed" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("flags", [["--epochs", "1"]])
    def test_plan_keeping_fewer_than_2_snapshots_is_usage_error(self, tmp_path, flags, capsys):
        argv = ["all", "--shapes", "circle", "--lrs", "0.01", "--epochs", "2"]
        outdir = tmp_path / "few"
        assert run_cli(argv + flags + ["--outdir", str(outdir)]) == 2
        assert "analysis needs at least 2" in capsys.readouterr().err
        assert not outdir.exists()

    def test_capture_rule_matches_frames_written(self, tmp_path):
        for epochs in range(1, 7):
            for capture_every in range(1, 8):
                cfg = RunConfig(
                    shape=ShapeKind.CIRCLE,
                    learning_rate=0.01,
                    epochs=epochs,
                    capture_every=capture_every,
                )
                path = tmp_path / f"{epochs}_{capture_every}.nfl"
                train_run_to_file(cfg, path)
                acc = RunAccessor(path)
                frames = acc.frames()["epoch"].tolist()
                kept = {1, epochs, *range(capture_every, epochs + 1, capture_every)}
                assert frames == sorted(kept)
                settings = {"epochs": epochs, "capture_every": capture_every}
                if len(frames) >= 2:
                    ExperimentPlan(**settings)
                else:
                    with pytest.raises(ValueError, match="snapshot"):
                        ExperimentPlan(**settings)

    def test_config_plan_matches_flag_plan(self, tmp_path):
        d_flags, d_cfg = tmp_path / "flags", tmp_path / "cfg"
        flags = [
            "all", "--shapes", "spiral", "--lrs", "0.01,0.001", "--epochs", "3",
            "--data-seed", "2", "--init-seed", "7", "--capture-every", "1",
            "--epsilon", "1e-4", "--bins", "12", "--parallelism", "1", "--outdir", str(d_flags),
        ]
        plan = {
            "shapes": ["spiral"], "learning_rates": [0.01, 0.001], "epochs": 3, "data_seed": 2,
            "init_seed": 7, "capture_every": 1, "epsilon": 1e-4, "bins": 12, "parallelism": 1,
            "out_dir": str(d_cfg),
        }
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(plan))
        assert run_cli(flags) == 0
        assert run_cli(["all", "--config", str(cfg_path)]) == 0
        assert len(tree_hashes(d_flags)) == 2 * 11 + 5 + 1
        assert tree_hashes(d_cfg) == tree_hashes(d_flags)

    def test_shape_names_match_case_insensitively(self, tmp_path, capsys):
        base = ["all", "--lrs", "0.01", "--epochs", "3"]
        lower, mixed = tmp_path / "lower", tmp_path / "mixed"
        assert run_cli(base + ["--shapes", "spiral", "--outdir", str(lower)]) == 0
        assert run_cli(base + ["--shapes", "Spiral", "--outdir", str(mixed)]) == 0
        assert tree_hashes(mixed) == tree_hashes(lower)
        out = capsys.readouterr().out
        assert out.count("spiral lr=0.01: ok") == 2

    @pytest.mark.parametrize("shapes", ["all", " ALL", "All ", "aLL"])
    def test_all_keyword_matches_like_shape_names(self, shapes):
        plan = ExperimentPlan(shapes=shapes, learning_rates=[0.01], epochs=2)
        assert plan.shapes == list(SHAPE_NAMES) and len(plan.shapes) == 8

    def test_all_keyword_flag_reaches_the_plan_checks(self, tmp_path, capsys):
        # a one-epoch plan is refused after its shapes are read, before training
        argv = ["all", "--shapes", "ALL", "--lrs", "0.01", "--epochs", "1"]
        assert run_cli(argv + ["--outdir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "unknown shape" not in err and "analysis needs at least 2" in err

    def test_all_keyword_inside_a_list_is_an_unknown_shape(self):
        with pytest.raises(ValueError, match="unknown shape 'all'"):
            ExperimentPlan(shapes=["all"])

    def test_cells_are_the_configs_the_plan_trains(self, tmp_path, monkeypatch):
        plan = ExperimentPlan(
            shapes="spiral,circle", learning_rates="0.01,0.001", epochs=3, data_seed=2,
            init_seed=7, capture_every=2, out_dir=str(tmp_path),
        )
        shapes, lrs = (ShapeKind.SPIRAL, ShapeKind.CIRCLE), (0.01, 0.001)
        assert plan.cells == [RunConfig(s, lr, 3, 2, 7, 2) for s in shapes for lr in lrs]
        assert "cells" not in plan.to_json_dict()
        trained = []

        def refuse(config, path, created_utc):
            trained.append(config)
            raise RuntimeError("not trained")

        monkeypatch.setattr(cli, "train_run_to_file", refuse)
        index, code = cli.run_plan(plan)
        assert code == 1
        assert [e["error"] for e in index["entries"]] == ["RuntimeError: not trained"] * 4
        assert len(trained) == 4 and all(t is c for t, c in zip(trained, plan.cells))

    @pytest.mark.parametrize(
        "config",
        [
            {"epoch": 3},
            {"created_utc": 5},
            {"learning_rates": 0.01},
            {"learning_rates": ["fast"]},
            {"learning_rates": [None]},
            {"shapes": [5]},
            {"parallelism": "2"},
            {"parallelism": 0},
            {"out_dir": 5},
            {"epochs": "3"},
            {"epsilon": "1e-5"},
            {"bins": 2.5},
            # JSON true and false are Python bools, which count as integers
            {"capture_every": True},
            {"epochs": True},
            {"data_seed": False},
            {"init_seed": True},
            {"bins": True},
            {"epsilon": True},
            {"parallelism": True},
            {"learning_rates": [True]},
            # integers past the float range are not finite
            {"epsilon": 10**400},
            {"learning_rates": [10**400]},
        ],
    )
    def test_bad_config_key_is_usage_error(self, tmp_path, config, capsys):
        cfg_path = tmp_path / "plan.json"
        outdir = tmp_path / "cfg"
        plan = {"shapes": "circle", "learning_rates": [0.01], "epochs": 2, "out_dir": str(outdir)}
        cfg_path.write_text(json.dumps({**plan, **config}))
        assert run_cli(["all", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        key = next(iter(config))
        assert key in err if key != "shapes" else "unknown shape 5" in err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--epsilon", "nan"],
            ["--epsilon", "inf"],
            ["--epsilon", "0"],
            ["--epsilon", "-0.5"],
            ["--bins", "0"],
            ["--parallelism", "0"],
        ],
    )
    def test_bad_setting_is_usage_error_before_training(self, tmp_path, flags, capsys):
        argv = ["all", "--shapes", "circle", "--lrs", "0.01", "--epochs", "2"]
        outdir = tmp_path / "bad"
        assert run_cli(argv + flags + ["--outdir", str(outdir)]) == 2
        assert flags[0][2:] in capsys.readouterr().err
        assert not outdir.exists()

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        cfg_path, deep_path = tmp_path / "plan.json", tmp_path / "deep.json"
        cfg_path.write_text("[1, 2]")
        deep_path.write_bytes(TOO_DEEP)
        for path in (cfg_path, deep_path, tmp_path / "missing.json"):
            assert run_cli(["all", "--config", str(path), "--outdir", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err.startswith("error: cannot read config: ")
        assert not (tmp_path / "o").exists()

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["frobnicate"])
        assert err.value.code == 2


# setting: (flag, config value, value the flag gives, value the config gives, default)
PRECEDENCE = {
    "shapes": (["--shapes", "circle"], "square", ["circle"], ["square"], list(SHAPE_NAMES)),
    "learning_rates": (["--lrs", "0.01"], [0.001], [0.01], [0.001], [0.01, 0.001, 0.0001]),
    "epochs": (["--epochs", "2"], 3, 2, 3, 1000),
    "data_seed": (["--data-seed", "3"], 4, 3, 4, 0),
    "init_seed": (["--init-seed", "5"], 6, 5, 6, 0),
    "capture_every": (["--capture-every", "3"], 2, 3, 2, 1),
    "out_dir": (["--outdir", "flag"], "config", "flag", "config", "env"),
    "epsilon": (["--epsilon", "1e-4"], 1e-3, 1e-4, 1e-3, 1e-5),
    "bins": (["--bins", "7"], 9, 7, 9, 30),
    "parallelism": (["--parallelism", "1"], 2, 1, 2, 1),
}


@pytest.mark.parametrize("key", sorted(PRECEDENCE))
def test_flag_beats_config_beats_default(key, tmp_path, monkeypatch):
    flag, config_value, from_flag, from_config, default = PRECEDENCE[key]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FLUCTLAB_OUT", "env")
    base = {
        "shapes": ["--shapes", "circle"],
        "learning_rates": ["--lrs", "0.01"],
        "epochs": ["--epochs", "3"],
        "out_dir": ["--outdir", "out"],
    }
    base.pop(key, None)
    argv = ["all"] + [arg for pair in base.values() for arg in pair]
    plans = []
    real_run_plan = cli.run_plan
    monkeypatch.setattr(cli, "run_plan", lambda plan: plans.append(plan) or real_run_plan(plan))

    def setting(extra, config=None):
        if config is not None:
            Path("plan.json").write_text(json.dumps(config))
            extra = extra + ["--config", "plan.json"]
        assert run_cli(argv + extra) == 0
        plan = plans.pop()
        index = json.loads((Path(plan.out_dir) / "index.json").read_text())
        return index["plan"][key] if key in index["plan"] else getattr(plan, key)

    assert setting(flag, {key: config_value}) == from_flag
    assert setting([], {key: config_value}) == from_config
    assert setting([]) == default


@pytest.mark.parametrize("command", ["analyze", "report", "compare"])
def test_non_finite_value_in_a_run_is_refused(command, two_runs, tmp_path, capsys):
    """A value stored as inf (a file damaged, or written before the writer
    refused values past float32) ends each command with exit 2 and a message
    naming the file, the channel, the layer and the neuron."""
    bad = tmp_path / "bad.nfl"
    bad.write_bytes(two_runs[0.001].read_bytes())
    edit_frame_value(bad, 5, "weights1", 3 * 64, np.inf)  # layer 1 is 64 -> 32
    outdir = tmp_path / "rep"
    argv = {
        "analyze": ["analyze", "--run", str(bad)],
        "report": ["report", "--runs", f"{two_runs[0.01]},{bad}", "--outdir", str(outdir)],
        "compare": ["compare", str(two_runs[0.01]), str(bad)],
    }[command]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    message = "weights spread of layer 1 neuron 3 is nan: the run holds a value that is not finite"
    assert captured.err == f"error: {bad}: {message}\n"
    assert captured.out == ""
    assert not outdir.exists()
    assert not bad.with_suffix(".report.json").exists()


ONE_CIRCLE_CELL = {
    "train": ["train", "--shape", "circle", "--lr", "0.01", "--epochs", "2"],
    "all": ["all", "--shapes", "circle", "--lrs", "0.01", "--epochs", "2"],
}


@pytest.mark.parametrize("value", ["", "1e9"])
@pytest.mark.parametrize("command", ["train", "all"])
def test_malformed_source_date_epoch_exits_2_before_writing(
    command, value, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
    outdir = tmp_path / "out"
    assert run_cli(ONE_CIRCLE_CELL[command] + ["--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == f"error: SOURCE_DATE_EPOCH must be an integer, got {value!r}\n"
    assert not outdir.exists()  # no run file and no index.json


def test_source_date_epoch_is_stamped_in_manifest_and_plan(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    for command in ("train", "all"):
        assert run_cli(ONE_CIRCLE_CELL[command] + ["--outdir", str(tmp_path / command)]) == 0
        acc = RunAccessor(tmp_path / command / "circle_0.01_2.nfl")
        assert acc.manifest.created_utc == 1700000000
    index = json.loads((tmp_path / "all" / "index.json").read_text())
    assert index["plan"]["created_utc"] == 1700000000


def test_entry_point_exit_codes_and_stdout(two_runs, tmp_path, capsys):
    env = fresh_process_env()

    def fluctlab_cli(*argv):
        cmd = [sys.executable, "-m", "fluctlab.cli", *map(str, argv)]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)

    usage = fluctlab_cli("report", "--runs", ",", "--outdir", tmp_path / "rep")
    assert usage.returncode == 2
    assert usage.stderr == "error: --runs needs at least one run file\n"
    assert not (tmp_path / "rep").exists()

    argv = ["--shape", "circle", "--lr", "1e30", "--epochs", "50", "--out", tmp_path / "d.nfl"]
    diverged = fluctlab_cli("train", *argv)
    assert diverged.returncode == 1
    assert diverged.stderr == "error: run aborted at epoch 1: loss is inf\n"

    runs = [two_runs[0.01], two_runs[0.001]]
    compared = fluctlab_cli("compare", *runs)
    assert compared.returncode == 0
    assert run_cli(["compare", *map(str, runs)]) == 0
    assert compared.stdout == capsys.readouterr().out


def readme_cli_examples() -> list[str]:
    """The command lines of the sh block under README's "## CLI" heading, with
    backslash continuations joined and # comments stripped."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = (line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line]


def test_readme_cli_examples_parse():
    """Every README example parses with the real parser (nothing runs), so a
    renamed flag or command cannot leave the README stale."""
    examples = readme_cli_examples()
    parser = cli.build_parser()
    commands = set()
    for example in examples:
        program, *argv = shlex.split(example)
        assert program == "fluctlab", example
        try:
            commands.add(parser.parse_args(argv).command)
        except SystemExit:
            pytest.fail(f"README example does not parse: {example}")
    assert commands == {"gen", "train", "analyze", "report", "compare", "all"}


# Runs each command line of the JSON list in argv[1] through fluctlab.cli.main,
# under a profiler set before fluctlab is imported, on this thread and on every
# thread started later; prints the [file, first line] of each Python function
# that ran.
COMMAND_TRAFFIC = """
import contextlib, io, json, sys, threading
import numpy
ran = set()
def profile(frame, event, arg):
    if event == "call":
        ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
threading.setprofile(profile)
from fluctlab.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
sys.setprofile(None)
print(json.dumps(sorted(ran)))
"""

# functions in src/ that no command runs, each with what it is kept for
KEEP = {
    "runfile.standardize_channel": "acceptance criterion 8 checks it",
    "blas.corename": "names the OpenBLAS kernel the forced-kernel tests ask for",
}


def src_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.name of every module-level function and
    every method, property and cached property written in src/fluctlab,
    unwrapped from its decorators.  Exception classes and the methods that
    dataclass generates (their code is not in a src file) are left out."""
    package = Path(fluctlab.__file__).parent
    found = {}
    for info in pkgutil.iter_modules(fluctlab.__path__):
        module = importlib.import_module(f"fluctlab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = {name: obj}
            if isinstance(obj, type):
                if issubclass(obj, BaseException):
                    continue
                members = {f"{name}.{attr}": value for attr, value in vars(obj).items()}
            for qualname, value in members.items():
                # property, cached_property, staticmethod and classmethod hold a function
                for attr in ("fget", "func", "__func__"):
                    value = getattr(value, attr, value)
                code = getattr(inspect.unwrap(value), "__code__", None)
                if code is not None and Path(code.co_filename).parent == package:
                    found[code.co_filename, code.co_firstlineno] = f"{info.name}.{qualname}"
    return found


def test_every_src_function_is_run_by_a_command(tmp_path):
    """src/ holds what the commands run: every function in it but the KEEP set
    runs in a short pass over every command at --parallelism 1.  The pass runs
    in a fresh process, since in this one blas._openblas, behind
    functools.cache, has run already.  An oracle or helper only the tests need
    lives in tests/."""
    runs = [str(tmp_path / f"out/circle_{lr}_4.nfl") for lr in ("0.01", "0.001")]
    plan = {"shapes": ["circle"], "learning_rates": [0.01, 0.001], "epochs": 4, "parallelism": 1}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    commands = [
        ["gen", "--shape", "hexagon", "--out", str(tmp_path / "hexagon.csv")],
        ["train", "--shape", "spiral", "--lr", "0.01", "--epochs", "5", "--capture-every", "2",
         "--out", str(tmp_path / "spiral.nfl")],
        ["all", "--config", str(tmp_path / "plan.json"), "--outdir", str(tmp_path / "out")],
        ["analyze", "--run", runs[0], "--json", str(tmp_path / "d.json"),
         "--csv", str(tmp_path / "d.csv")],
        ["analyze", "--run", runs[0], "--mode", "raw", "--json", str(tmp_path / "r.json"),
         "--csv", str(tmp_path / "r.csv")],
        ["report", "--runs", ",".join(runs), "--outdir", str(tmp_path / "report")],
        ["compare", *runs],
    ]
    env = fresh_process_env()
    cmd = [sys.executable, "-c", COMMAND_TRAFFIC, json.dumps(commands)]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True, env=env, timeout=300)
    ran = {tuple(key) for key in json.loads(done.stdout)}
    defined = src_functions()
    assert set(KEEP) <= set(defined.values())
    unrun = sorted(name for key, name in defined.items() if key not in ran and name not in KEEP)
    assert not unrun, f"no command runs {unrun}: move each to tests/ or delete it"
