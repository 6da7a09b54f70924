"""The benchmark's workloads: the CLI commands each pass runs, the set-up
that makes their inputs, and the checks on every pass's outputs.

All workloads are closed loops with one client: one process issuing the
next CLI command only after the previous one returned, with
`--parallelism 1` and one BLAS thread.

Checks parse outputs without fluctlab's own reader, so a reader defect
cannot hide a writer defect.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The paper documents criterion 3 (MSE(0.01) < MSE(0.001) < MSE(0.0001)) for
# these (data_seed, init_seed) pairs; on other pairs the ordering of the two
# larger rates can flip (data 12 / init 112 gives 0.01967 vs 0.01921), so the
# workload seed picks one of these pairs.
SEED_PAIRS = ((1, 101), (2, 102), (3, 103), (4, 104), (5, 105))
SWEEP_LRS = (0.01, 0.001, 0.0001)
LEAN_SHAPES = ("circle", "square", "hexagon")
LEAN_LRS = (0.01, 0.001)
CHANNELS = ("weights", "biases", "activations", "weight_grads", "bias_grads")
NEURONS = 195

RUN_MAGIC = b"NFL1"
RUN_DATA_START = 8 + 4096


def seed_pair(seed: int) -> tuple[int, int]:
    return SEED_PAIRS[seed % len(SEED_PAIRS)]


def _lr_text(lr: float) -> str:
    return f"{lr:g}"


@dataclass
class Workload:
    setup_argvs: list[list[str]]  # run in a fresh interpreter, timed as set-up
    pass_argvs: list[list[str]]  # run in-process through fluctlab.cli.main, timed
    check: Callable[[Path, str], list[tuple[str, bool]]]  # (pass dir, captured stdout)
    epochs_per_pass: int  # epochs trained (sweep, train_lean) or read (report)
    runs_per_pass: int  # run files trained or reported
    trained_epochs: int  # epochs trained per pass, the base of forward calls per epoch
    setup_repeats: int


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def inspect_run_file(path: Path) -> tuple[dict, list[tuple[int, float]]]:
    """Manifest and (epoch, loss) per frame, after checking the file holds a
    complete manifest region and whole frames of the declared size."""
    with open(path, "rb") as fh:
        head = fh.read(RUN_DATA_START)
        _require(len(head) == RUN_DATA_START and head[:4] == RUN_MAGIC, f"{path.name}: bad header")
        (length,) = struct.unpack("<I", head[4:8])
        manifest = json.loads(head[8 : 8 + length])
        arch = manifest["architecture"]
        dims = list(zip(arch["encoder_dims"][:-1], arch["encoder_dims"][1:]))
        dims += list(zip(arch["decoder_dims"][:-1], arch["decoder_dims"][1:]))
        frame = 4 + 12 + 4 * sum(2 * i * o + 3 * o for i, o in dims)
        size = fh.seek(0, 2)
        count, rest = divmod(size - RUN_DATA_START, frame)
        _require(rest == 0, f"{path.name}: {rest} trailing bytes after {count} frames")
        frames = []
        for k in range(count):
            fh.seek(RUN_DATA_START + k * frame)
            payload_len, epoch, loss = struct.unpack("<IId", fh.read(16))
            _require(payload_len == frame - 4, f"{path.name}: frame {k} declares {payload_len} bytes")
            frames.append((epoch, loss))
    return manifest, frames


def check_run_file(path: Path, epochs: list[int]) -> list[tuple[int, float]]:
    """The file is flagged complete and holds exactly the given epochs."""
    manifest, frames = inspect_run_file(path)
    _require(manifest["complete"] is True, f"{path.name}: not flagged complete")
    _require(manifest["snapshot_count"] == len(epochs), f"{path.name}: manifest count")
    _require([e for e, _ in frames] == epochs, f"{path.name}: epochs differ from {len(epochs)} expected")
    _require(all(math.isfinite(loss) for _, loss in frames), f"{path.name}: non-finite loss")
    return frames


def _checked(label: str, fn: Callable[[], None]) -> tuple[str, bool]:
    try:
        fn()
    except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError, struct.error) as exc:
        return (f"{label}: {type(exc).__name__}: {exc}", False)
    return (label, True)


def tree_digest(root: Path, extra: str = "") -> tuple[str, int]:
    """sha256 over every file's relative path and content, plus `extra`;
    returns (digest, total bytes)."""
    h = hashlib.sha256(extra.encode())
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        total += len(blob)
        h.update(str(path.relative_to(root)).encode() + b"\0" + hashlib.sha256(blob).digest())
    return h.hexdigest(), total


# ---------------------------------------------------------------------------


def sweep(seed: int, work: Path, epochs: int = 1000) -> Workload:
    """`fluctlab all` on the spiral at three learning rates, every epoch
    captured: the canonical end-to-end job.  Mostly net and train; the only
    workload that writes full run files."""
    data_seed, init_seed = seed_pair(seed)
    out = work / "pass"
    argv = [
        "all", "--shapes", "spiral", "--lrs", ",".join(_lr_text(lr) for lr in SWEEP_LRS),
        "--epochs", str(epochs), "--capture-every", "1", "--parallelism", "1",
        "--data-seed", str(data_seed), "--init-seed", str(init_seed), "--outdir", str(out),
    ]

    def check(out: Path, stdout: str) -> list[tuple[str, bool]]:
        checks = []
        entries = {}

        def load_index():
            index = json.loads((out / "index.json").read_text())
            entries.update({e["learning_rate"]: e for e in index["entries"]})
            _require(len(index["entries"]) == len(SWEEP_LRS), "index entry count")

        checks.append(_checked("index.json lists one entry per learning rate", load_index))
        for lr in SWEEP_LRS:
            checks.append(_checked(
                f"lr {_lr_text(lr)}: index status ok",
                lambda lr=lr: _require(entries[lr]["status"] == "ok", entries[lr].get("error", "")),
            ))

        def ordering():
            losses = [entries[lr]["final_loss"] for lr in SWEEP_LRS]
            _require(losses[0] < losses[1] < losses[2], f"final losses {losses}")

        checks.append(_checked("MSE(0.01) < MSE(0.001) < MSE(0.0001)", ordering))
        for lr in SWEEP_LRS:
            checks.append(_checked(
                f"lr {_lr_text(lr)}: run file complete with {epochs} frames",
                lambda lr=lr: check_run_file(out / entries[lr]["run_file"], list(range(1, epochs + 1))),
            ))
        return checks

    return Workload(
        setup_argvs=[],
        pass_argvs=[argv],
        check=check,
        epochs_per_pass=epochs * len(SWEEP_LRS),
        runs_per_pass=len(SWEEP_LRS),
        trained_epochs=epochs * len(SWEEP_LRS),
        setup_repeats=5,
    )


def report(seed: int, work: Path, epochs: int = 1000) -> Workload:
    """`fluctlab report` then `fluctlab compare` on three 1000-epoch run files
    made in set-up: runfile reads, analysis and figures, one forward per run
    and no training."""
    data_seed, init_seed = seed_pair(seed)
    inputs = [work / "inputs" / f"spiral_{_lr_text(lr)}.nfl" for lr in SWEEP_LRS]
    setup = [
        [
            "train", "--shape", "spiral", "--lr", _lr_text(lr), "--epochs", str(epochs),
            "--data-seed", str(data_seed), "--init-seed", str(init_seed), "--out", str(path),
        ]
        for lr, path in zip(SWEEP_LRS, inputs)
    ]
    out = work / "pass"
    argvs = [
        ["report", "--runs", ",".join(str(p) for p in inputs), "--outdir", str(out)],
        ["compare"] + [str(p) for p in inputs],
    ]

    def check(out: Path, stdout: str) -> list[tuple[str, bool]]:
        checks = []
        for lr in SWEEP_LRS:
            path = out / f"spiral_{_lr_text(lr)}_{epochs}.report.json"

            def neurons(path=path):
                report = json.loads(path.read_text())
                for ch in CHANNELS:
                    n = len(report["channels"][ch]["spreads"])
                    _require(n == NEURONS, f"{ch} has {n} neurons")

            checks.append(_checked(f"{path.name}: {NEURONS} neurons per channel", neurons))

        def compare_rows():
            lines = stdout.splitlines()
            for lr in SWEEP_LRS:
                _require(any(line.split()[:1] == [_lr_text(lr)] for line in lines), f"no row for lr {lr}")
            _require(any(line.startswith("lowest final MSE: lr ") for line in lines), "no verdict line")

        checks.append(_checked("compare prints a row per run and a verdict", compare_rows))
        return checks

    return Workload(
        setup_argvs=setup,
        pass_argvs=argvs,
        check=check,
        epochs_per_pass=epochs * len(inputs),
        runs_per_pass=len(inputs),
        trained_epochs=0,
        setup_repeats=3,
    )


def train_lean(seed: int, work: Path, epochs: int = 300) -> Workload:
    """`fluctlab train` on three shapes at two learning rates, capturing only
    the first and last epoch: net and train compute with almost no capture,
    write or analysis.  It bypasses every capture, write and read change."""
    data_seed, init_seed = seed_pair(seed)
    out = work / "pass"
    cells = [(shape, lr) for shape in LEAN_SHAPES for lr in LEAN_LRS]
    argvs = [
        [
            "train", "--shape", shape, "--lr", _lr_text(lr), "--epochs", str(epochs),
            "--capture-every", str(epochs), "--data-seed", str(data_seed),
            "--init-seed", str(init_seed), "--out", str(out / f"{shape}_{_lr_text(lr)}.nfl"),
        ]
        for shape, lr in cells
    ]
    frame_epochs = sorted({1, epochs})

    def check(out: Path, stdout: str) -> list[tuple[str, bool]]:
        checks = []
        for shape, lr in cells:
            path = out / f"{shape}_{_lr_text(lr)}.nfl"

            def lean(path=path):
                frames = check_run_file(path, frame_epochs)
                _require(frames[-1][1] < frames[0][1], f"loss did not fall: {frames[0][1]} -> {frames[-1][1]}")

            checks.append(_checked(f"{path.name}: complete, {len(frame_epochs)} frames, loss falls", lean))
        return checks

    return Workload(
        setup_argvs=[],
        pass_argvs=argvs,
        check=check,
        epochs_per_pass=epochs * len(cells),
        runs_per_pass=len(cells),
        trained_epochs=epochs * len(cells),
        setup_repeats=5,
    )


WORKLOADS = {"sweep": sweep, "report": report, "train_lean": train_lean}
