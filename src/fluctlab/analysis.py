"""Per-neuron fluctuation statistics over a captured run.

A neuron's fluctuation ("spread") is the population standard deviation of
its per-epoch delta multiset: for weight channels the deltas of every
incoming weight across all consecutive captured epochs pooled together,
for bias/activation/gradient channels the deltas of the neuron's scalar.
The network-level scalar is the spread of the spread: the population
standard deviation of the per-neuron spreads, reported separately for the
encoder and decoder halves.  Neurons whose spread falls below a threshold
epsilon are counted as inactive (no observable learning).

Each channel holds its spreads as one float64 array over every neuron in
(layer, index) order, so the encoder and decoder halves are the slices
before and after arch.encoder_neurons, and the inactive neurons are a
boolean mask in the same order.  (layer, index, half) rows are built only
when a report is written out.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .net import ArchitectureSpec
from .rng import check_integer, check_positive
from .runfile import RunAccessor
from .train import channel_views

ANALYSIS_CHANNELS = ("weights", "biases", "activations", "weight_grads", "bias_grads")

HALVES = ("encoder", "decoder")

DEFAULT_EPSILON = 1e-5
DEFAULT_BINS = 30
REPORT_SCHEMA_VERSION = 1
# Bytes of the float64 buffer that spreads are computed in, a few neuron rows
# at a time.  A buffer the size of the largest channel (16 MB for a 1000-epoch
# run) was no faster, and the allocator keeps it after it is freed, which
# raised peak RSS by 14%.
SPREAD_BUFFER_BYTES = 1 << 20
# At most this many threads, the calling one included, share a run's spread
# computations.  The four largest views (weights and weight_grads of layers
# 1 and 4) take about a fifth of the analysis each, and the rest is small.
MAX_SPREAD_WORKERS = 4


class InsufficientDataError(ValueError):
    """The run holds too few snapshots to form deltas."""


@dataclass
class HalfStats:
    spread_of_spread: float
    inactive_count: int
    hist_edges: list[float]
    hist_counts: list[int]


@dataclass
class ChannelStats:
    spreads: np.ndarray  # (total_neurons,) float64, (layer, index) order
    inactive: np.ndarray  # bool mask, same order
    halves: dict[str, HalfStats]


@dataclass
class FluctuationReport:
    shape: str
    learning_rate: float
    epochs: int
    snapshots: int
    capture_stride: int
    mode: str
    epsilon: float
    bins: int
    channels: dict[str, ChannelStats]
    architecture: ArchitectureSpec

    def to_json_dict(self) -> dict:
        # tolist() and int() keep numpy scalars out: json.dumps rejects them
        rows = _neuron_rows(self.architecture)
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "shape": self.shape,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "snapshots": self.snapshots,
            "capture_stride": self.capture_stride,
            "mode": self.mode,
            "epsilon": self.epsilon,
            "bins": self.bins,
            "channels": {
                ch: {
                    "spreads": [
                        {**row, "spread": s} for row, s in zip(rows, stats.spreads.tolist())
                    ],
                    "inactive": [
                        dict(row) for row, flag in zip(rows, stats.inactive.tolist()) if flag
                    ],
                    "inactive_count": int(stats.inactive.sum()),
                    "halves": {half: dict(vars(hs)) for half, hs in stats.halves.items()},
                }
                for ch, stats in self.channels.items()
            },
        }

    def neuron_csv(self) -> str:
        """One row per (neuron, channel): layer, index, half, channel, spread, inactive."""
        rows = _neuron_rows(self.architecture)
        lines = ["layer,index,half,channel,spread,inactive"]
        for ch in ANALYSIS_CHANNELS:
            stats = self.channels[ch]
            # repr of a Python float, not of np.float64, which prints its type
            for row, s, flag in zip(rows, stats.spreads.tolist(), stats.inactive.tolist()):
                lines.append(
                    f"{row['layer']},{row['index']},{row['half']},{ch},{s!r},{int(flag)}"
                )
        return "\n".join(lines) + "\n"


def spread(deltas) -> float:
    """Population standard deviation of a delta multiset."""
    arr = np.asarray(deltas, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("spread of an empty sequence is undefined")
    return float(np.std(arr))


def _neuron_rows(arch: ArchitectureSpec) -> list[dict]:
    """{layer, index, half} of every neuron, in (layer, index) order."""
    split = arch.encoder_layer_count
    return [
        {"layer": layer, "index": index, "half": "encoder" if layer < split else "decoder"}
        for layer, out_dim in enumerate(arch.out_dims)
        for index in range(out_dim)
    ]


def half_slices(arch: ArchitectureSpec) -> dict[str, slice]:
    """The encoder and decoder neurons of a (layer, index)-ordered array."""
    split = arch.encoder_neurons
    return {"encoder": slice(None, split), "decoder": slice(split, None)}


def spread_of_spread(spreads: np.ndarray) -> float:
    """Population standard deviation across neurons of the per-neuron spreads.

    Values are sorted before the reduction so the result does not depend on
    neuron order, bit for bit.
    """
    vals = np.asarray(spreads, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("spread_of_spread of an empty sequence is undefined")
    return float(np.std(np.sort(vals)))


def check_analysis_settings(epsilon: float, bins: int = DEFAULT_BINS) -> tuple[float, int]:
    """Reject an inactivity threshold that is not positive and finite (NaN
    would flag no neuron and write invalid JSON) or a bin count below 1;
    return both as Python numbers."""
    return check_positive(epsilon, "epsilon"), check_integer(bins, "bins", 1)


def check_analyzable(run: RunAccessor, mode: str = "delta") -> None:
    """Reject a run that is incomplete, that holds too few snapshots for
    mode (deltas need two, raw values one) or a loss that is not finite."""
    if not run.manifest.complete:
        raise ValueError("run file is incomplete; refusing to analyze")
    needed = 2 if mode == "delta" else 1
    if len(run) < needed:
        raise InsufficientDataError(
            f"need at least {needed} snapshots for mode {mode!r}, run has {len(run)}"
        )
    bad = np.flatnonzero(~np.isfinite(run.frames()["loss"]))
    if bad.size:
        frame = run.frames()[bad[0]]
        message = f"loss of frame {bad[0]} (epoch {frame['epoch']}) is {frame['loss']}"
        raise ValueError(f"{message}: the run holds a value that is not finite")


def detect_inactive(spreads: np.ndarray, epsilon: float) -> np.ndarray:
    """Mask of the neurons with spread < epsilon, in the order of spreads."""
    check_analysis_settings(epsilon)
    return np.asarray(spreads, dtype=np.float64) < epsilon


def histogram(spreads: np.ndarray, bins: int) -> tuple[list[float], list[int]]:
    """Uniform bins over [0, max spread]; bins are left-closed, right-open,
    with the last bin closed.  All-zero spreads collapse to one degenerate
    bin, as does a range too small to subdivide on the float64 grid."""
    check_integer(bins, "bins", 1)
    vals = np.asarray(spreads, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("histogram of an empty sequence is undefined")
    top = float(vals.max())
    if top == 0.0:
        return [0.0, 0.0], [int(vals.size)]
    edges = np.linspace(0.0, top, bins + 1)
    if np.any(np.diff(edges) <= 0.0):
        return [0.0, top], [int(vals.size)]
    counts, edges = np.histogram(vals, bins=bins, range=(0.0, top))
    return [float(e) for e in edges], [int(c) for c in counts]


def neuron_delta_series(run: RunAccessor, layer: int, index: int, channel: str) -> np.ndarray:
    """Consecutive-epoch deltas for one neuron and channel, pooled flat.

    Weight channels pool the neuron's incoming row, so with k incoming
    weights and T snapshots the result has k*(T-1) entries.
    """
    if channel not in ANALYSIS_CHANNELS:
        raise ValueError(f"unknown channel {channel!r}; expected one of {ANALYSIS_CHANNELS}")
    check_analyzable(run)
    layers = len(run.manifest.architecture.layer_shapes)
    if not 0 <= layer < layers:
        raise ValueError(f"layer {layer} out of range [0, {layers})")
    series = channel_views(run.frames()["values"], run.manifest.architecture)[f"{channel}{layer}"]
    rows = series.shape[1]
    if not 0 <= index < rows:
        raise ValueError(f"neuron index {index} out of range [0, {rows})")
    return np.diff(series[:, index].astype(np.float64), axis=0).ravel()


def calibrate_epsilon(
    spread_values: np.ndarray,
    count_range: tuple[int, int],
    epsilon_range: tuple[float, float],
) -> float | None:
    """Smallest threshold inside epsilon_range whose inactive count lands in
    count_range, or None if no such threshold exists."""
    vals = np.sort(np.asarray(spread_values, dtype=np.float64))
    lo, hi = epsilon_range
    # the count below eps changes only just above a spread value
    above = np.nextafter(vals, np.inf)
    candidates = np.unique(np.concatenate(([lo], above[(lo <= above) & (above <= hi)], [hi])))
    counts = np.searchsorted(vals, candidates, side="left")
    hits = np.flatnonzero((count_range[0] <= counts) & (counts <= count_range[1]))
    return float(candidates[hits[0]]) if hits.size else None


def _std_in_place(data: np.ndarray) -> np.ndarray:
    """np.std of each row of a 2-D data, computed in data's own memory, which
    it overwrites.  The steps are numpy's own (_methods._var, then sqrt),
    ufunc for ufunc, and each row is one contiguous run of values, so each
    gets the bits of np.std(row), without its temporary copy of row - mean."""
    count = data.shape[1]
    mean = np.add.reduce(data, axis=1)
    mean /= count
    np.subtract(data, mean[:, None], out=data)
    np.square(data, out=data)
    var = np.add.reduce(data, axis=1)
    var /= count
    return np.sqrt(var, out=var)


@np.errstate(invalid="ignore")  # a value that is not finite gives a nan spread
def _channel_spreads(f: np.ndarray, mode: str, work: np.ndarray) -> np.ndarray:
    """Spread of each neuron row of one f32 channel series f, (T, rows) or
    (T, rows, cols), computed in work a few rows at a time.

    A chunk of rows is differenced (delta mode) or copied (raw mode) from f
    into work, widened exactly to f64 and neuron-major.  So each neuron's
    pooled values are one contiguous row, and its spread has the bits of
    spread(neuron_delta_series(...)), or in raw mode of np.std of its widened
    values, at any chunk size.  One row that outgrows work gets its own buffer.
    """
    length, rows = f.shape[:2]
    steps = length - 1 if mode == "delta" else length
    row_items = steps * math.prod(f.shape[2:])
    chunk = min(rows, max(1, work.size // row_items))
    if chunk * row_items > work.size:
        work = np.empty(chunk * row_items)
    spreads = np.empty(rows)
    for start in range(0, rows, chunk):
        stop = min(start + chunk, rows)
        n = stop - start
        data = work[: n * row_items].reshape((n, steps) + f.shape[2:])
        part = np.moveaxis(f[:, start:stop], 1, 0)
        if mode == "delta":
            np.subtract(part[:, 1:], part[:, :-1], out=data, dtype=np.float64)
        else:
            np.copyto(data, part)
        spreads[start:stop] = _std_in_place(data.reshape(n, row_items))
    return spreads


def _worker_count() -> int:
    """Threads for a run's spreads: one per CPU this process may run on, at
    most MAX_SPREAD_WORKERS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, MAX_SPREAD_WORKERS)


def _field_spreads(fields: list[np.ndarray], mode: str) -> list[np.ndarray]:
    """_channel_spreads of each field, computed by _worker_count() threads.

    The calling thread takes a share too, so on one CPU no thread starts.
    Fields are handed out one at a time, largest first, and each is computed
    whole by one thread, so the bits do not depend on the thread count or on
    scheduling.  numpy releases the GIL in the widening subtract or copy
    and in the reductions.  An error in any share is raised here once every
    thread has stopped, and no thread outlives the call.  Threads run nothing
    but _channel_spreads: a traced function must not run off the calling
    thread.
    """
    pending = iter(sorted(range(len(fields)), key=lambda i: fields[i].size, reverse=True))
    lock = threading.Lock()
    spreads: list = [None] * len(fields)
    errors: list[BaseException] = []

    def share(work: np.ndarray) -> None:
        try:
            while True:
                with lock:
                    i = None if errors else next(pending, None)
                if i is None:
                    return
                spreads[i] = _channel_spreads(fields[i], mode, work)
        except BaseException as exc:  # raised again by the calling thread
            with lock:
                errors.append(exc)

    # The caller allocates every thread's buffer: buffers a thread allocates
    # itself come from its own malloc arena and raise peak RSS further.
    count = min(_worker_count(), len(fields))
    works = [np.empty(SPREAD_BUFFER_BYTES // 8) for _ in range(count)]
    started: list[threading.Thread] = []
    try:
        for work in works[1:]:
            thread = threading.Thread(target=share, args=(work,))
            thread.start()
            started.append(thread)
        share(works[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return spreads


def analyze_run(
    run: RunAccessor,
    epsilon: float = DEFAULT_EPSILON,
    bins: int = DEFAULT_BINS,
    mode: str = "delta",
) -> FluctuationReport:
    """Full fluctuation report for one complete run file.

    mode "delta" (default) measures spreads of consecutive-epoch deltas;
    mode "raw" measures spreads of the raw per-epoch values instead.  A run
    value that is not finite makes its neuron's spread nan, which is refused
    with a ValueError naming the channel, layer and neuron.
    """
    if mode not in ("delta", "raw"):
        raise ValueError(f"mode must be 'delta' or 'raw', got {mode!r}")
    epsilon, bins = check_analysis_settings(epsilon, bins)
    check_analyzable(run, mode)
    arch = run.manifest.architecture
    views = channel_views(run.frames()["values"], arch)
    layers = range(len(arch.layer_shapes))
    names = [f"{ch}{layer}" for ch in ANALYSIS_CHANNELS for layer in layers]
    field_spreads = dict(zip(names, _field_spreads([views[name] for name in names], mode)))
    channels: dict[str, ChannelStats] = {}
    for ch in ANALYSIS_CHANNELS:
        spreads = np.concatenate([field_spreads[f"{ch}{layer}"] for layer in layers])
        bad = np.flatnonzero(~np.isfinite(spreads))
        if bad.size:
            row = _neuron_rows(arch)[bad[0]]
            raise ValueError(
                f"{ch} spread of layer {row['layer']} neuron {row['index']} is "
                f"{spreads[bad[0]]}: the run holds a value that is not finite"
            )
        inactive = detect_inactive(spreads, epsilon)
        halves: dict[str, HalfStats] = {}
        for half, part in half_slices(arch).items():
            edges, counts = histogram(spreads[part], bins)
            halves[half] = HalfStats(
                spread_of_spread=spread_of_spread(spreads[part]),
                inactive_count=int(inactive[part].sum()),
                hist_edges=edges,
                hist_counts=counts,
            )
        channels[ch] = ChannelStats(spreads=spreads, inactive=inactive, halves=halves)
    cfg = run.manifest.config
    return FluctuationReport(
        shape=cfg.shape.value,
        learning_rate=cfg.learning_rate,
        epochs=cfg.epochs,
        snapshots=len(run),
        capture_stride=cfg.capture_every,
        mode=mode,
        epsilon=epsilon,
        bins=bins,
        channels=channels,
        architecture=arch,
    )
