#!/usr/bin/env python3
"""fluctlab benchmark: one workload, a closed loop with one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

It imports fluctlab from `src/` of the checkout it sits in, sets one BLAS
thread, and runs passes of the workload through `fluctlab.cli.main` until
the passes add up to `--seconds`, checking every pass's outputs.  Set-up is
timed in fresh interpreters, repeated at points spread over the passes.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  A traced run alternates untraced and
traced passes; its layer numbers come from the traced ones only.

Scratch output goes to `.perfbench_work/` at the checkout root; the result
record (environment, passes, checks, metrics) and, for traced runs, the spans
and the layer table stay in `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import machine
import tracer as tr
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread: wall time at 2 threads is no better on a 2-CPU machine,
# CPU time doubles, and run-file bytes depend on the thread count.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SOURCE_DATE_EPOCH": "0",
}

SETUP_CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); from fluctlab.cli import main; "
    "sys.exit(max([main(a) for a in json.loads(sys.argv[2])] or [0]))"
)
SETUP_TIMEOUT_S = 120


@dataclass
class PassResult:
    traced: bool
    wall_s: float
    cpu_s: float
    bytes_written: int
    digest: str
    checks: list[tuple[str, bool]] = field(default_factory=list)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _call(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a crashed command is a failed operation
        traceback.print_exc(file=sys.stderr)
        return -1


def set_up(workload, work: Path) -> tuple[float, str]:
    """Import fluctlab and make the workload's inputs in a fresh interpreter;
    returns the wall time and the digest of the inputs."""
    inputs = work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(workload.setup_argvs)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed with exit code {proc.returncode}:\n{proc.stderr}")
    return elapsed, workloads.tree_digest(inputs)[0]


def warm_up(cli, work: Path) -> None:
    """One tiny train and report, so first-call costs land outside the passes."""
    run_file = work / "warmup" / "w.nfl"
    with redirect_stdout(io.StringIO()):
        codes = [
            _call(cli, ["train", "--shape", "spiral", "--lr", "0.01", "--epochs", "3", "--out", str(run_file)]),
            _call(cli, ["report", "--runs", str(run_file), "--outdir", str(work / "warmup" / "report")]),
        ]
    if codes != [0, 0]:
        raise RuntimeError(f"warm-up commands exited with {codes}")


def run_pass(cli, workload, out: Path, tracer=None) -> PassResult:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    captured = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        with redirect_stdout(captured):
            codes = [_call(cli, argv) for argv in workload.pass_argvs]
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    stdout = captured.getvalue()
    checks = [(f"{argv[0]} exits 0 (got {code})", code == 0) for argv, code in zip(workload.pass_argvs, codes)]
    checks += workload.check(out, stdout)
    digest, total = workloads.tree_digest(out, stdout)
    return PassResult(tracer is not None, wall, cpu, total, digest, checks)


def end_to_end_metrics(workload, setup_times: list[float], passes: list[PassResult]) -> dict:
    pass_s = _median([p.wall_s for p in passes])
    return {
        "setup_s": (_median(setup_times), "s"),
        "pass_s": (pass_s, "s"),
        "epochs_per_s": (workload.epochs_per_pass / pass_s, "1/s"),
        "runs_per_s": (workload.runs_per_pass / pass_s, "1/s"),
        "cpu_s": (_median([p.cpu_s for p in passes]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "bytes_written": (_median([p.bytes_written for p in passes]), "bytes"),
    }


def layer_metrics(workload, tracer, passes: list[PassResult]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, and the layer table behind them."""
    traced = [p for p in passes if p.traced]
    n = len(traced)
    spans = tracer.spans
    table = tr.span_table(spans, n)

    def row(name: str) -> dict:
        return table.get(name, {"calls_per_pass": 0, "total_s_per_pass": 0.0, "self_s_per_pass": 0.0, "mean_us": 0.0})

    def mean_us(selected: list) -> float:
        return sum(s[2] - s[1] for s in selected) / 1e3 / len(selected) if selected else 0.0

    train_forwards = tr.children_of(spans, "train.train", "net.forward")
    train_mse = tr.children_of(spans, "train.train", "net.mse")
    opens, runs = tr.opens_per_run(spans, tracer.io)
    untraced_s = _median([p.wall_s for p in passes if not p.traced])
    traced_s = _median([p.wall_s for p in traced])
    epochs = workload.trained_epochs * n
    modules = tr.module_self_times(table)
    metrics = {
        "train.epochs": (workload.trained_epochs, "count"),
        "net.forward.calls": (len(train_forwards) / n, "count"),
        "net.forward.calls_per_epoch": (len(train_forwards) / epochs if epochs else 0.0, "count"),
        "net.forward.us": (row("net.forward")["mean_us"], "us"),
        "net.backward.us": (row("net.backward")["mean_us"], "us"),
        "train.adam_step.us": (row("train.adam_step")["mean_us"], "us"),
        "train.mse.us": (mean_us(train_mse), "us"),
        "train.self_s": (row("train.train")["self_s_per_pass"], "s"),
        "runfile.append.us": (row("runfile.RunWriter.append")["mean_us"], "us"),
        "runfile.bytes_written": (tracer.io.bytes_written / n, "bytes"),
        "runfile.finalize.ms": (row("runfile.RunWriter.finalize")["mean_us"] / 1e3, "ms"),
        "runfile.open.ms": (row("runfile.RunAccessor.__init__")["mean_us"] / 1e3, "ms"),
        "runfile.runs_read": (runs / n, "count"),
        "runfile.opens_per_run": (opens / runs if runs else 0.0, "count"),
        "runfile.channel_series.calls": (row("runfile.RunAccessor.channel_series")["calls_per_pass"], "count"),
        "runfile.channel_series.s": (row("runfile.RunAccessor.channel_series")["total_s_per_pass"], "s"),
        "runfile.read_calls": (tracer.io.read_calls / n, "count"),
        "runfile.bytes_read": (tracer.io.bytes_read / n, "bytes"),
        "analysis.analyze_run.s": (row("analysis.analyze_run")["total_s_per_pass"], "s"),
        "analysis.self_s": (modules["analysis"], "s"),
        "figures.reconstruct.s": (row("figures.reconstruct")["total_s_per_pass"], "s"),
        "figures.scatter_svg.s": (row("figures.scatter_svg")["total_s_per_pass"], "s"),
        "figures.hist_svg.s": (row("figures.hist_svg")["total_s_per_pass"], "s"),
        "figures.fluctuation_table.s": (row("figures.fluctuation_table")["total_s_per_pass"], "s"),
        "figures.stack_svgs.s": (row("figures.stack_svgs")["total_s_per_pass"], "s"),
        "figures.bytes": (tracer.figure_bytes / n, "bytes"),
        "shapes.generate.calls": (row("shapes.generate")["calls_per_pass"], "count"),
        "shapes.generate.s": (row("shapes.generate")["total_s_per_pass"], "s"),
        "net.init.ms": (row("net.init")["mean_us"] / 1e3, "ms"),
        "cli.self_s": (row("cli.main")["self_s_per_pass"], "s"),
        "trace.untraced_pass_s": (untraced_s, "s"),
        "trace.traced_pass_s": (traced_s, "s"),
        "trace.overhead": (traced_s / untraced_s - 1.0, "ratio"),
    }
    layer_table = {
        "traced_passes": n,
        "module_self_s_per_pass": modules,
        "spans": table,
        "io_per_pass": {
            key: value / n for key, value in vars(tracer.io).items() if key != "read_open_log"
        },
    }
    return metrics, layer_table


def run_benchmark(
    name: str, seed: int, seconds: float, trace: bool, epochs: int | None = None, work_root: Path = WORK
) -> dict:
    """Run one workload and return the full record; `epochs` shrinks it for tests."""
    import fluctlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported fluctlab from {cli.__file__}, not from {SRC}")
    work = work_root / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    kwargs = {} if epochs is None else {"epochs": epochs}
    workload = workloads.WORKLOADS[name](seed, work, **kwargs)
    setups: list[tuple[float, str]] = []
    passes: list[PassResult] = []
    tracer = tr.Tracer() if trace else None
    try:
        setups.append(set_up(workload, work))
        warm_up(cli, work)
        measured = 0.0
        while True:
            traced = trace and len(passes) % 2 == 1
            if tracer is not None:
                tracer.pass_no = len(passes)
            result = run_pass(cli, workload, work / "pass", tracer if traced else None)
            if passes:
                result.checks.append(
                    ("artifact tree identical to the first pass", result.digest == passes[0].digest)
                )
            passes.append(result)
            measured += result.wall_s
            # Set-up repeats are spread over the measured window: the machine's
            # speed drifts over seconds, and back-to-back repeats would all see
            # the same moment.
            while len(setups) < workload.setup_repeats and measured >= seconds * len(setups) / workload.setup_repeats:
                setups.append(set_up(workload, work))
            if measured >= seconds and (not trace or len(passes) >= 2):
                break
        while len(setups) < workload.setup_repeats:
            setups.append(set_up(workload, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_times = [t for t, _ in setups]
    setup_checks = [("set-up inputs identical on every repeat", len({d for _, d in setups}) == 1)]
    checks = setup_checks + [c for p in passes for c in p.checks]
    failed = sum(1 for _, ok in checks if not ok)
    record = {
        "workload": name,
        "seed": seed,
        "seed_pair": workloads.seed_pair(seed),
        "seconds": seconds,
        "trace": trace,
        "env": machine.describe(ROOT, SRC),
        "setup_s": setup_times,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s, "bytes_written": p.bytes_written, "digest": p.digest}
            for p in passes
        ],
        "failed_checks": [label for label, ok in checks if not ok],
        "attempted": len(checks),
        "failed": failed,
    }
    if trace:
        metrics, record["layer_table"] = layer_metrics(workload, tracer, passes)
        record["spans"] = tracer.spans
    else:
        metrics = end_to_end_metrics(workload, setup_times, passes)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def save(record: dict) -> Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(results / f"{stem}.spans.jsonl", "w") as fh:
            for span_name, start, end, parent, pass_no, tag in spans:
                fh.write(json.dumps({"name": span_name, "start_ns": start, "end_ns": end, "parent": parent, "pass": pass_no, "tag": tag}) + "\n")
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def summary_lines(record: dict) -> list[str]:
    lines = ["env " + json.dumps(record["env"], sort_keys=True)]
    for i, s in enumerate(record["setup_s"], 1):
        lines.append(f"setup {i}: {s:.4f} s")
    for i, p in enumerate(record["passes"], 1):
        kind = "traced" if p["traced"] else "untraced"
        lines.append(f"pass {i} ({kind}): {p['wall_s']:.4f} s wall, {p['cpu_s']:.4f} s cpu, {p['bytes_written']} bytes")
    for label in record["failed_checks"]:
        lines.append(f"FAILED check: {label}")
    walls = [p["wall_s"] for p in record["passes"] if not p["traced"]]
    line = f"pass_s: median of {len(walls)} untraced passes"
    if len(walls) >= 11:  # the highest percentile with at least 10 passes beyond it
        q = int(100 * (1 - 10 / len(walls)))
        line += f"; p{q} = {statistics.quantiles(walls, n=100)[q - 1]:.4f} s"
    else:
        line += "; too few for a tail percentile with 10 passes beyond it"
    lines.append(line)
    if "layer_table" in record:
        lines.append("module self time per traced pass:")
        for module, s in record["layer_table"]["module_self_s_per_pass"].items():
            lines.append(f"  {module:<10} {s:.4f} s")
    for key, m in record["metrics"].items():
        lines.append(f"{key:<32} {m['value']:<24.10g} {m['unit']}")
    lines.append(f"failed_ratio = {record['failed']}/{record['attempted']} = {record['failed'] / record['attempted']:.4g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fluctlab" / "cli.py").is_file():
        print(f"error: no fluctlab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy is imported, so OpenBLAS starts one thread
    sys.path.insert(0, str(SRC))

    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    path = save(record)
    for line in summary_lines(record):
        print(line)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
