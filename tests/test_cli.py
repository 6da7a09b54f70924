import hashlib
import json

import numpy as np
import pytest

from fluctlab.cli import main, train_run_to_file
from fluctlab.runfile import RunAccessor
from fluctlab.shapes import ShapeKind
from fluctlab.train import RunConfig


def run_cli(argv):
    return main(argv)


def tree_hashes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


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


class TestTrain:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "c.nfl"
        code = run_cli(
            ["train", "--shape", "circle", "--lr", "0.01", "--epochs", "2", "--out", str(out)]
        )
        assert code == 0
        with RunAccessor(out) as acc:
            assert acc.manifest.complete is True
            assert len(acc) == 2
        assert "final_loss=" in capsys.readouterr().out

    def test_divergent_run_exits_1_and_flags_incomplete(self, tmp_path, capsys):
        out = tmp_path / "d.nfl"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(
                ["train", "--shape", "circle", "--lr", "1e30", "--epochs", "50", "--out", str(out)]
            )
        assert code == 1
        with RunAccessor(out) as acc:
            assert acc.manifest.complete is False


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

    def test_report_rewrites_the_bytes_of_all(self, tmp_path):
        exp, rep = tmp_path / "exp", tmp_path / "rep"
        args = ["all", "--shapes", "spiral", "--lrs", "0.01,0.001", "--epochs", "4"]
        assert run_cli(args + ["--outdir", str(exp)]) == 0
        runs = ",".join(str(exp / f"spiral_{lr}_4.nfl") for lr in ("0.01", "0.001"))
        assert run_cli(["report", "--runs", runs, "--outdir", str(rep)]) == 0
        written = tree_hashes(rep)
        assert len(written) == 2 * 10 + 5
        assert written == {name: h for name, h in tree_hashes(exp).items() if name in written}


class TestCompare:
    def test_table_and_flags(self, two_runs, capsys):
        code = run_cli(["compare", str(two_runs[0.01]), str(two_runs[0.001])])
        assert code == 0
        out = capsys.readouterr().out
        assert "shape: spiral" in out
        # oracle: read the final losses straight from the run files
        losses = {}
        for lr, path in two_runs.items():
            with RunAccessor(path) as acc:
                losses[lr] = float(acc.losses()[-1])
        best = min(losses, key=losses.get)
        assert f"lowest final MSE: lr {best:g}" in out
        assert "fewest inactive activation neurons: lr" in out

    def test_identical_runs_identical_columns(self, two_runs, capsys):
        code = run_cli(["compare", str(two_runs[0.01]), str(two_runs[0.01])])
        assert code == 0
        out = capsys.readouterr().out.split("\n")
        rows = [l for l in out if l.strip().startswith("0.01")]
        assert len(rows) == 2 and rows[0] == rows[1]

    def test_mixed_shapes_usage_error(self, two_runs, tmp_path, capsys):
        other = tmp_path / "circle.nfl"
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=2)
        train_run_to_file(cfg, other)
        code = run_cli(["compare", str(two_runs[0.01]), str(other)])
        assert code == 2

    def test_single_run_usage_error(self, two_runs):
        assert run_cli(["compare", str(two_runs[0.01])]) == 2


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

    def test_failed_cell_recorded_and_others_continue(self, tmp_path):
        outdir = tmp_path / "fail"
        with np.errstate(over="ignore", invalid="ignore"):
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
        assert "error" in by_lr[1e30]
        assert by_lr[0.01]["status"] == "ok"

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
        with RunAccessor(outdir / "circle_0.01_3.nfl") as acc:
            assert acc.manifest.config.epochs == 3

    @pytest.mark.parametrize(
        "cells", [["--shapes", "circle,circle"], ["--lrs", "0.01,0.010"]]
    )
    def test_repeated_cell_usage_error(self, tmp_path, cells, capsys):
        argv = ["all", "--shapes", "circle", "--lrs", "0.01", "--epochs", "2"]
        outdir = tmp_path / "dup"
        code = run_cli(argv + cells + ["--outdir", str(outdir)])
        assert code == 2
        assert "circle_0.01" in capsys.readouterr().err
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

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["frobnicate"])
        assert err.value.code == 2
