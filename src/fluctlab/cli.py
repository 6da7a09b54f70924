"""Command-line entry point: gen, train, analyze, report, compare, all.

Exit codes: 0 success, 1 run failure, 2 usage error.  FLUCTLAB_OUT names the
default output directory.  Manifest timestamps honor SOURCE_DATE_EPOCH and
default to 0 so rerunning a plan reproduces artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .analysis import (
    ANALYSIS_CHANNELS,
    DEFAULT_BINS,
    DEFAULT_EPSILON,
    HALVES,
    FluctuationReport,
    analyze_run,
    calibrate_epsilon,
    check_analysis_settings,
)
from .figures import (
    fluctuation_table,
    hist_svg,
    reconstruct,
    scatter_svg,
    stack_svgs,
)
from .net import ArchitectureSpec
from .rng import check_integer
from .runfile import RunAccessor, RunFormatError, RunManifest, RunWriter, canonical_json_bytes
from .shapes import ShapeKind, export_csv, generate
from .train import DEFAULT_LEARNING_RATES, TRAIN_SAMPLE_COUNT, RunConfig, TrainingDivergedError, train

INDEX_SCHEMA_VERSION = 1
SHAPE_NAMES = tuple(k.value for k in ShapeKind)

# Weight-channel inactive-count reproduction window used for index flags.
INACTIVE_TARGET_RANGE = (40, 80)
INACTIVE_EPSILON_RANGE = (1e-6, 1e-3)


def _default_outdir() -> str:
    return os.environ.get("FLUCTLAB_OUT", "runs")


def _default_timestamp() -> int:
    value = os.environ.get("SOURCE_DATE_EPOCH", "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"SOURCE_DATE_EPOCH must be an integer, got {value!r}") from None


def _format_lr(lr: float) -> str:
    return f"{lr:g}"


def _run_stem(config: RunConfig) -> str:
    """Artifact name prefix of a run; seeds are not part of it."""
    return f"{config.shape.value}_{_format_lr(config.learning_rate)}_{config.epochs}"


def _duplicates(names: list[str]) -> list[str]:
    return sorted({n for n in names if names.count(n) > 1})


def _listed(value, key: str, item) -> list:
    """A list setting given as a comma-separated string (a flag) or as a JSON
    list (a config value), with item applied to each entry."""
    entries = value.split(",") if isinstance(value, str) else value
    if not isinstance(entries, list):
        raise ValueError(f"{key} must be a list or a comma-separated string, got {value!r}")
    if any(isinstance(entry, bool) for entry in entries):
        raise ValueError(f"{key} entries must not be true or false, got {value!r}")
    try:
        return [item(entry) for entry in entries]
    # OverflowError: float() of an int past the float range
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{key}: {exc}") from None


@dataclass
class ExperimentPlan:
    """The settings of `all`; the only place that defaults them."""

    shapes: list[str] = field(default_factory=lambda: list(SHAPE_NAMES))
    learning_rates: list[float] = field(default_factory=lambda: list(DEFAULT_LEARNING_RATES))
    epochs: int = RunConfig.epochs
    data_seed: int = RunConfig.data_seed
    init_seed: int = RunConfig.init_seed
    capture_every: int = RunConfig.capture_every
    out_dir: str = field(default_factory=_default_outdir)
    epsilon: float = DEFAULT_EPSILON
    bins: int = DEFAULT_BINS
    parallelism: int = 1
    created_utc: int = 0

    def __post_init__(self):
        if isinstance(self.shapes, str) and self.shapes.strip().lower() == "all":
            self.shapes = list(SHAPE_NAMES)
        self.shapes = _listed(self.shapes, "shapes", lambda name: ShapeKind.from_name(name).value)
        self.learning_rates = _listed(self.learning_rates, "learning_rates", float)
        if not self.shapes or not self.learning_rates:
            raise ValueError("plan needs at least one shape and one learning rate")
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ValueError(f"out_dir must be a path, got {self.out_dir!r}")
        self.parallelism = check_integer(self.parallelism, "parallelism", 1)
        self.epsilon, self.bins = check_analysis_settings(self.epsilon, self.bins)
        # each cell's RunConfig, in run order; a cell that cannot run is a bad
        # plan: reject it before anything is written
        self.cells = [
            RunConfig(ShapeKind(s), lr, self.epochs, self.data_seed, self.init_seed, self.capture_every)
            for s in self.shapes
            for lr in self.learning_rates
        ]
        # the cells' rules passed; record the Python numbers they store
        cell = self.cells[0]
        self.epochs, self.capture_every = cell.epochs, cell.capture_every
        self.data_seed, self.init_seed = cell.data_seed, cell.init_seed
        # two cells with one artifact stem would write the same files
        repeated = _duplicates([_run_stem(cell) for cell in self.cells])
        if repeated:
            raise ValueError(f"plan repeats cells: {', '.join(repeated)}")
        # every cell is analysed in delta mode, which needs two snapshots;
        # train() keeps the first and the last epoch, so two epochs suffice
        if self.epochs < 2:
            raise ValueError(f"epochs {self.epochs} keeps 1 snapshot; analysis needs at least 2")

    def to_json_dict(self) -> dict:
        # parallelism is a scheduling knob, not an experiment parameter, so it
        # stays out of the recorded plan (artifacts must not depend on it);
        # so does out_dir, the directory the plan is recorded in
        recorded = asdict(self)
        del recorded["parallelism"], recorded["out_dir"]
        return recorded


def train_run_to_file(config: RunConfig, path: Path, created_utc: int = 0) -> float:
    """Train one run and persist it; returns the final loss.  A failed run
    leaves the file flagged incomplete."""
    manifest = RunManifest(
        config=config, architecture=ArchitectureSpec(), created_utc=created_utc
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    with RunWriter(path, manifest) as writer:
        _, final_loss = train(config, writer.append)
        writer.finalize(complete=True)
    return final_loss


def _write_bytes(path: Path, blob: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)


def _inactive_counts(report: FluctuationReport) -> dict[str, int]:
    return {ch: int(report.channels[ch].inactive.sum()) for ch in ANALYSIS_CHANNELS}


def _spreads_of_spread(report: FluctuationReport, channel: str) -> list[float]:
    """The encoder's and the decoder's spread of spread of one channel."""
    return [report.channels[channel].halves[h].spread_of_spread for h in HALVES]


def _analyzed_runs(
    paths: list, epsilon: float, bins: int, mode: str = "delta"
) -> list[FluctuationReport]:
    """The CLI's one way into run files: the FluctuationReport of each path,
    analysed in turn, so one run's frames are held at a time.  Bad settings
    are refused before any file is opened, a bad run with its file's name."""
    epsilon, bins = check_analysis_settings(epsilon, bins)
    reports = []
    for path in paths:
        try:
            reports.append(analyze_run(RunAccessor(path), epsilon=epsilon, bins=bins, mode=mode))
        except (RunFormatError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    return reports


def write_summary(report: FluctuationReport, out_dir: Path) -> dict:
    """Analysis JSON/CSV, scatter, per-channel histograms, and tables for one
    analysed run; returns its index entry."""
    cfg = report.manifest.config
    shape = cfg.shape.value
    stem = _run_stem(cfg)
    lr_txt = _format_lr(cfg.learning_rate)

    def emit(suffix: str, blob: bytes) -> str:
        """Write blob as the run's artifact of this suffix; returns its file name."""
        name = f"{stem}{suffix}"
        _write_bytes(out_dir / name, blob)
        return name

    points = reconstruct(report.manifest, report.last)
    report_json = emit(".report.json", canonical_json_bytes(report.to_json_dict()) + b"\n")
    neurons_csv = emit(".neurons.csv", report.neuron_csv().encode("utf-8"))
    scatter = emit("_scatter.svg", scatter_svg(*points, f"{shape}: reconstruction at lr {lr_txt}"))
    hists = {
        ch: emit(f"_hist_{ch}.svg", hist_svg(report, ch, f"{shape}: {ch} spread at lr {lr_txt}"))
        for ch in ANALYSIS_CHANNELS
    }
    md_blob, csv_blob = fluctuation_table(report)
    table_md = emit("_table.md", md_blob)
    table_csv = emit("_table.csv", csv_blob)

    inactive = _inactive_counts(report)
    calibrated = calibrate_epsilon(
        report.channels["weights"].spreads, INACTIVE_TARGET_RANGE, INACTIVE_EPSILON_RANGE
    )
    flags = []
    if inactive["weights"] < INACTIVE_TARGET_RANGE[0] and calibrated is None:
        flags.append("weights-inactive-count-unreproduced")

    return {
        "shape": shape,
        "final_loss": float(report.last["loss"]),
        "inactive_counts": inactive,
        "weights_inactive_default": inactive["weights"],
        "weights_epsilon_calibrated": calibrated,
        "flags": flags,
        "report_json": report_json,
        "neurons_csv": neurons_csv,
        "table_md": table_md,
        "table_csv": table_csv,
        "figures": [scatter, *hists.values()],
        "hist_figures": hists,
    }


def write_comparisons(out_dir: Path, shape: str, entries: list[dict]) -> list[str]:
    """Per channel, stack the histograms of two or more runs of one shape into
    one SVG; returns the file names written."""
    if len(entries) < 2:
        return []
    names = []
    for channel in ANALYSIS_CHANNELS:
        children = [(out_dir / e["hist_figures"][channel]).read_bytes() for e in entries]
        blob = stack_svgs(children, title=f"{shape}: {channel} spread across learning rates")
        name = f"{shape}_hist_{channel}_all.svg"
        _write_bytes(out_dir / name, blob)
        names.append(name)
    return names


def _execute_run(plan: ExperimentPlan, config: RunConfig) -> dict:
    """Worker for one cell of the plan; returns an index entry."""
    entry = {"shape": config.shape.value, "learning_rate": config.learning_rate, "status": "ok"}
    out_dir = Path(plan.out_dir)
    try:
        run_path = out_dir / f"{_run_stem(config)}.nfl"
        train_run_to_file(config, run_path, created_utc=plan.created_utc)
        entry["run_file"] = run_path.name
        [report] = _analyzed_runs([run_path], plan.epsilon, plan.bins)
        entry.update(write_summary(report, out_dir))
    except Exception as exc:  # noqa: BLE001 - a failed cell must not sink the plan
        entry["status"] = "failed"
        entry["error"] = f"{type(exc).__name__}: {exc}"
    return entry


def run_plan(plan: ExperimentPlan) -> tuple[dict, int]:
    """Execute every (shape, lr) cell, emit artifacts and the index; returns
    (index dict, exit code)."""
    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a fork pool starts all its workers at the first submit: one per cell at most
    workers = min(plan.parallelism, len(plan.cells))
    if workers > 1:
        # imported here: it costs about a tenth of the CLI's import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_run, plan, cell) for cell in plan.cells]
            entries = [f.result() for f in futures]
    else:
        entries = [_execute_run(plan, cell) for cell in plan.cells]

    comparison_figures = []
    for shape in plan.shapes:
        ok = [e for e in entries if e["shape"] == shape and e["status"] == "ok"]
        comparison_figures += write_comparisons(out_dir, shape, ok)

    index = {
        "schema_version": INDEX_SCHEMA_VERSION,
        "plan": plan.to_json_dict(),
        "entries": entries,
        "comparison_figures": comparison_figures,
    }
    _write_bytes(out_dir / "index.json", canonical_json_bytes(index) + b"\n")
    failed = sum(1 for e in entries if e["status"] != "ok")
    return index, (1 if failed else 0)


def cmd_gen(args: argparse.Namespace) -> int:
    kind = ShapeKind(args.shape)
    points = generate(kind, args.count, args.seed)
    out = Path(args.out) if args.out else Path(args.outdir) / f"{kind.value}_{args.count}_{args.seed}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="\n") as fh:
        export_csv(points, fh)
    print(out)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = RunConfig(
        shape=ShapeKind(args.shape),
        learning_rate=args.lr,
        epochs=args.epochs,
        data_seed=args.data_seed,
        init_seed=args.init_seed,
        capture_every=args.capture_every,
    )
    out = Path(args.out) if args.out else Path(args.outdir) / f"{_run_stem(config)}.nfl"
    final_loss = train_run_to_file(config, out, created_utc=_default_timestamp())
    print(f"{out} final_loss={final_loss!r}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    run_path = Path(args.run)
    json_path = Path(args.json) if args.json else run_path.with_suffix(".report.json")
    csv_path = Path(args.csv) if args.csv else run_path.with_suffix(".neurons.csv")
    if len({run_path.resolve(), json_path.resolve(), csv_path.resolve()}) < 3:
        raise ValueError("--run, --json and --csv must name three different files")
    # beside a run file of `all` or `report`, the default names are the
    # report files of those commands: only an explicit path may replace one
    defaults = [p for p, given in ((json_path, args.json), (csv_path, args.csv)) if not given]
    taken = [str(p) for p in defaults if p.exists()]
    if taken:
        raise ValueError(f"{', '.join(taken)} exists; name the outputs with --json and --csv")
    [report] = _analyzed_runs([run_path], args.epsilon, args.bins, args.mode)
    _write_bytes(json_path, canonical_json_bytes(report.to_json_dict()) + b"\n")
    _write_bytes(csv_path, report.neuron_csv().encode("utf-8"))
    print(json_path)
    print(csv_path)
    inactive = _inactive_counts(report)
    for ch in ANALYSIS_CHANNELS:
        encoder, decoder = _spreads_of_spread(report, ch)
        print(
            f"{ch}: inactive={inactive[ch]} "
            f"spread_of_spread encoder={encoder:.6g} decoder={decoder:.6g}"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = Path(args.outdir)
    run_paths = [Path(p) for p in args.runs.split(",") if p]
    if not run_paths:
        raise ValueError("--runs needs at least one run file")
    reports = _analyzed_runs(run_paths, args.epsilon, args.bins)
    shared = _duplicates([_run_stem(report.manifest.config) for report in reports])
    if shared:
        raise ValueError(f"runs share artifact names: {', '.join(shared)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for report in reports:
        entry = write_summary(report, out_dir)
        entries.append(entry)
        for name in entry["figures"] + [entry["table_md"], entry["table_csv"]]:
            print(out_dir / name)
    shapes = {e["shape"] for e in entries}
    if len(shapes) == 1:
        for name in write_comparisons(out_dir, shapes.pop(), entries):
            print(out_dir / name)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.runs) < 2:
        raise ValueError("compare needs at least 2 run files")
    reports = _analyzed_runs(args.runs, args.epsilon, args.bins)
    shapes = {report.manifest.config.shape.value for report in reports}
    if len(shapes) > 1:
        raise ValueError(f"runs mix shapes {sorted(shapes)}")
    # min keeps the first of equal runs: a tie goes to the run given first
    best_mse = min(reports, key=lambda report: float(report.last["loss"]))
    most_engaged = min(reports, key=lambda report: _inactive_counts(report)["activations"])
    print(f"shape: {shapes.pop()}")
    header = ["lr", "final_mse"] + [f"inactive_{ch}" for ch in ANALYSIS_CHANNELS]
    print("  ".join(f"{h:>22}" for h in header))
    for report in reports:
        inactive = _inactive_counts(report)
        lr = _format_lr(report.manifest.config.learning_rate)
        cells = [f"{lr:>22}", f"{float(report.last['loss']):>22.9g}"]
        cells += [f"{inactive[ch]:>22d}" for ch in ANALYSIS_CHANNELS]
        print("  ".join(cells))
    print("spread_of_spread (encoder/decoder):")
    for report in reports:
        parts = [
            "{}={:.4g}/{:.4g}".format(ch, *_spreads_of_spread(report, ch))
            for ch in ANALYSIS_CHANNELS
        ]
        print(f"  lr {_format_lr(report.manifest.config.learning_rate)}: " + "  ".join(parts))
    print(f"lowest final MSE: lr {_format_lr(best_mse.manifest.config.learning_rate)}")
    lr_text = _format_lr(most_engaged.manifest.config.learning_rate)
    print(f"fewest inactive activation neurons: lr {lr_text}")
    return 0


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"cannot read config: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("cannot read config: config file must hold a JSON object")
    return data


def cmd_all(args: argparse.Namespace) -> int:
    # the config keys and the dests of the flags are the plan's setting names;
    # created_utc comes from SOURCE_DATE_EPOCH only
    names = {f.name for f in fields(ExperimentPlan)} - {"created_utc"}
    settings = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(settings) - names)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; expected keys {sorted(names)}")
    settings.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    plan = ExperimentPlan(**settings, created_utc=_default_timestamp())
    index, code = run_plan(plan)
    for entry in index["entries"]:
        status = entry["status"]
        line = f"{entry['shape']} lr={_format_lr(entry['learning_rate'])}: {status}"
        if status == "ok":
            line += f" final_loss={entry['final_loss']:.6g}"
        else:
            line += f" ({entry['error']})"
        print(line)
    print(Path(plan.out_dir) / "index.json")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluctlab",
        description="Train small autoencoders on synthetic 2D shapes and "
        "analyze per-neuron fluctuation dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a shape dataset CSV")
    p.add_argument("--shape", required=True, choices=SHAPE_NAMES)
    p.add_argument("--count", type=int, default=TRAIN_SAMPLE_COUNT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--outdir", default=_default_outdir())
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one run and write its run file")
    p.add_argument("--shape", required=True, choices=SHAPE_NAMES)
    p.add_argument("--lr", type=float, required=True)
    p.add_argument("--epochs", type=int, default=RunConfig.epochs)
    p.add_argument("--data-seed", type=int, default=RunConfig.data_seed)
    p.add_argument("--init-seed", type=int, default=RunConfig.init_seed)
    p.add_argument("--capture-every", type=int, default=RunConfig.capture_every)
    p.add_argument("--out", default=None, help="run file path")
    p.add_argument("--outdir", default=_default_outdir())
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="fluctuation report for one run file")
    p.add_argument("--run", required=True)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--mode", choices=("delta", "raw"), default="delta")
    p.add_argument("--json", default=None, help="report JSON path")
    p.add_argument("--csv", default=None, help="per-neuron CSV path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="figures and tables for run files")
    p.add_argument("--runs", required=True, help="comma-separated run files")
    p.add_argument("--outdir", default=_default_outdir())
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare", help="side-by-side table for runs of one shape")
    p.add_argument("runs", nargs="+", help="run files (same shape)")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.set_defaults(func=cmd_compare)

    # dests are ExperimentPlan fields; a flag not given is None and leaves its
    # setting to the config file or the ExperimentPlan default
    p = sub.add_parser("all", help="full pipeline over shapes x learning rates")
    p.add_argument("--shapes", help='comma-separated shapes or "all"')
    p.add_argument("--lrs", dest="learning_rates", help="comma-separated learning rates")
    p.add_argument("--epochs", type=int)
    p.add_argument("--data-seed", type=int)
    p.add_argument("--init-seed", type=int)
    p.add_argument("--capture-every", type=int)
    p.add_argument("--outdir", dest="out_dir")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--bins", type=int)
    p.add_argument("--parallelism", type=int)
    p.add_argument("--config", default=None, help="JSON config file (flags override it)")
    p.set_defaults(func=cmd_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RunFormatError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, TrainingDivergedError) else 2


if __name__ == "__main__":
    sys.exit(main())
