import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import fluctlab
from fluctlab import blas
from fluctlab.analysis import ANALYSIS_CHANNELS, analyze_run, check_analyzable
from fluctlab.net import ArchitectureSpec
from fluctlab.runfile import (
    DATA_START,
    MANIFEST_REGION,
    RunAccessor,
    RunManifest,
    RunWriter,
    canonical_json_bytes,
)
from fluctlab.shapes import ShapeKind
from fluctlab.train import EpochSnapshot, RunConfig, channel_views


TINY_ARCH = ArchitectureSpec(encoder_dims=(2, 4, 3, 1), decoder_dims=(1, 3, 4, 2))

# filled in by tests/test_acceptance.py, echoed after the run
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def fresh_process_env(**overrides) -> dict:
    """The environment of a fresh process that imports the fluctlab under
    test: this one, with that fluctlab first on PYTHONPATH, and overrides set."""
    paths = [str(Path(fluctlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **overrides}


def tree_hashes(root) -> dict[str, str]:
    """sha256 of every file under root, keyed by its path relative to root."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


needs_openblas = pytest.mark.skipif(blas._openblas() is None, reason="numpy has loaded no OpenBLAS")


@pytest.fixture
def two_threads():
    """OpenBLAS set to 2 threads, so a restored count differs from the pinned
    one; the count the test found is set back afterwards."""
    set_threads, get_threads, _ = blas._openblas()
    found = get_threads()
    set_threads(2)
    yield get_threads()
    set_threads(found)


def make_snapshot(arch, epoch, loss, rng=None, fill=None):
    """Random (or constant-filled) snapshot with f32-representable values."""
    size = EpochSnapshot.length(arch)
    if fill is not None:
        values = np.full(size, fill, dtype=np.float64)
    else:
        values = rng.uniform(-1, 1, size=size).astype(np.float32).astype(np.float64)
    return EpochSnapshot(epoch, loss, arch, values)


def make_manifest(arch=TINY_ARCH, shape=ShapeKind.CIRCLE, lr=0.01, epochs=3,
                  data_seed=1, init_seed=2, capture_every=1):
    config = RunConfig(
        shape=shape,
        learning_rate=lr,
        epochs=epochs,
        data_seed=data_seed,
        init_seed=init_seed,
        capture_every=capture_every,
    )
    return RunManifest(config=config, architecture=arch)


def write_run(manifest, snapshots, destination, complete=True) -> int:
    """Write snapshots as one run file; returns the file's size."""
    with RunWriter(destination, manifest) as writer:
        for snap in snapshots:
            writer.append(snap)
        return writer.finalize(complete=complete)


def write_synthetic_run(path, arch=TINY_ARCH, snapshots=None, seed=0, count=3, **manifest_kw):
    """Small hand-built run file; returns the snapshots written."""
    if snapshots is None:
        rng = np.random.default_rng(seed)
        snapshots = [make_snapshot(arch, e + 1, 1.0 / (e + 1), rng=rng) for e in range(count)]
    manifest = make_manifest(arch=arch, epochs=len(snapshots), **manifest_kw)
    write_run(manifest, snapshots, path)
    return snapshots


def spread(deltas) -> float:
    """Population standard deviation of a delta multiset: a neuron's
    fluctuation, the naive definition analyze_run is checked against."""
    arr = np.asarray(deltas, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("spread of an empty sequence is undefined")
    return float(np.std(arr))


def neuron_delta_series(run, layer: int, index: int, channel: str) -> np.ndarray:
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


@pytest.fixture(scope="module")
def frozen_run(tmp_path_factory):
    """Full-architecture run whose snapshots never change."""
    path = tmp_path_factory.mktemp("frozen") / "frozen.nfl"
    arch = ArchitectureSpec()
    snaps = [
        make_snapshot(arch, e, 0.5, rng=np.random.default_rng(7)) for e in (1, 2, 3)
    ]
    write_run(make_manifest(arch=arch, epochs=3), snaps, path)
    return path


def analyze_file(path, **kwargs):
    """analyze_run over a run file opened for the one call."""
    return analyze_run(RunAccessor(path), **kwargs)


def edit_manifest(path, key, value, section=None):
    """Set one manifest key (inside `section`, e.g. "config", when given) of a
    run file, rewriting the manifest's length and keeping every frame."""
    blob = bytearray(Path(path).read_bytes())
    manifest = json.loads(blob[8 : 8 + int.from_bytes(blob[4:8], "little")])
    (manifest[section] if section else manifest)[key] = value
    text = canonical_json_bytes(manifest)
    blob[4:8] = len(text).to_bytes(4, "little")
    blob[8 : 8 + MANIFEST_REGION] = text.ljust(MANIFEST_REGION, b" ")
    Path(path).write_bytes(bytes(blob))


def edit_frame_value(path, frame, name, index, value):
    """Set the value at flat position index of channel view name (e.g.
    "weights1"), or of "loss" at index 0, in one frame of a run file, keeping
    every other byte."""
    run = RunAccessor(path)
    layout, arch = run.frames().dtype, run.manifest.architecture
    if name != "loss":
        positions = np.arange(EpochSnapshot.length(arch))
        index, name = int(channel_views(positions, arch)[name].ravel()[index]), "values"
    field, offset = layout.fields[name][:2]
    item = np.array(value, dtype=field.base).tobytes()
    start = DATA_START + frame * layout.itemsize + offset + len(item) * index
    blob = bytearray(Path(path).read_bytes())
    blob[start : start + len(item)] = item
    Path(path).write_bytes(bytes(blob))
