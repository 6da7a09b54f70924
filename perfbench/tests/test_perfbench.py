"""Smoke tests for the benchmark, with a few epochs per workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
EPOCHS = {"sweep": 20, "report": 20, "train_lean": 10}


def _truncate_a_run_file(out: Path) -> None:
    path = sorted(out.glob("*.nfl"))[0]
    path.write_bytes(path.read_bytes()[:-100])


def _drop_a_neuron(out: Path) -> None:
    path = sorted(out.glob("*.report.json"))[0]
    report = json.loads(path.read_text())
    report["channels"]["weights"]["spreads"].pop()
    path.write_text(json.dumps(report))


CORRUPT = {"sweep": _truncate_a_run_file, "report": _drop_a_neuron, "train_lean": _truncate_a_run_file}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(EPOCHS))
def test_every_metric_is_emitted(name, trace, tmp_path):
    record = run.run_benchmark(name, 1, 0, trace, epochs=EPOCHS[name], work_root=tmp_path)
    assert record["failed"] == 0, record["failed_checks"]
    assert record["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in record["metrics"].items()} == expected


@pytest.mark.parametrize("name", sorted(EPOCHS))
def test_corrupted_output_counts_as_failed(name, tmp_path, monkeypatch):
    factory = workloads.WORKLOADS[name]

    def corrupting_factory(*args, **kwargs):
        workload = factory(*args, **kwargs)
        check = workload.check

        def corrupt_then_check(out, stdout):
            CORRUPT[name](out)
            return check(out, stdout)

        workload.check = corrupt_then_check
        return workload

    monkeypatch.setitem(workloads.WORKLOADS, name, corrupting_factory)
    record = run.run_benchmark(name, 1, 0, False, epochs=EPOCHS[name], work_root=tmp_path)
    assert record["failed"] >= 1
    assert len(record["failed_checks"]) == record["failed"]


def test_tracer_restores_every_name():
    import fluctlab.cli  # noqa: F401 - loads every module the tracer patches

    def namespaces():
        out = {}
        for key in sorted(sys.modules):
            if key == "fluctlab" or key.startswith("fluctlab."):
                mod = sys.modules[key]
                out[key] = dict(vars(mod))
                for value in vars(mod).values():
                    if isinstance(value, type) and value.__module__ == key:
                        out[f"{key}.{value.__name__}"] = dict(vars(value))
        return out

    before = namespaces()
    t = tracer.Tracer()
    t.install()
    assert sys.modules["fluctlab.train"].forward is not before["fluctlab.train"]["forward"]
    t.uninstall()
    after = namespaces()
    assert after.keys() == before.keys()
    for space, names in before.items():
        assert after[space].keys() == names.keys(), space
        assert all(after[space][k] is v for k, v in names.items()), space


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
