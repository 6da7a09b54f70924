"""Bit-exact binary run files: one file holds a manifest plus every captured
epoch of one training run.

Layout (all integers little-endian, no padding between fields):

    offset 0   magic bytes b"NFL1"
    offset 4   u32   manifest JSON length in bytes (<= 4096)
    offset 8   manifest as canonical JSON (sorted keys, compact separators),
               space-padded to a fixed 4096-byte region
    offset 4104  snapshot frames, back to back

    frame      one packed record of frame_layout(architecture): u32 payload
               length, u32 epoch, f64 loss, then per layer the raw f32
               weights, biases, weight_grads, bias_grads and
               activation_means, matrices row-major

All frames of a run have that record's size, so frame i starts at
DATA_START + i * itemsize and is read by index, by writer and reader alike.
The reader takes every frame of a run in one read of the frame region, and
each channel's series is a field of that record array.  Writer and reader
map a snapshot's flat values to a frame's f32 payload by one gather index.

The manifest region is rewritten on finalize to set the actual snapshot
count and the complete flag, so a crashed run is detectable.  Values are
stored as f32; readers widen back to f64.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .net import ArchitectureSpec
from .train import EpochSnapshot, RunConfig

MAGIC = b"NFL1"
MANIFEST_REGION = 4096
DATA_START = 8 + MANIFEST_REGION
FORMAT_VERSION = 1
# The fields that open every frame, read by the scan at open.  A frame needs
# its two u32 fields (HEADER_BYTES) to be parsed at all.
FRAME_HEAD = np.dtype([("length", "<u4"), ("epoch", "<u4"), ("loss", "<f8")])
HEADER_BYTES = FRAME_HEAD.fields["loss"][1]

STORAGE_CHANNELS = ("weights", "biases", "weight_grads", "bias_grads", "activation_means")


class RunFormatError(Exception):
    """The file does not follow the run-file layout."""


class RunCorruptionError(RunFormatError):
    """A frame is truncated or inconsistent; carries the last readable index."""

    def __init__(self, message: str, last_valid_index: int):
        super().__init__(f"{message} (last complete snapshot index: {last_valid_index})")
        self.last_valid_index = last_valid_index


@dataclass
class RunManifest:
    config: RunConfig
    architecture: ArchitectureSpec
    snapshot_count: int = 0
    complete: bool = False
    created_utc: int = 0

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "config": self.config.to_json_dict(),
            "architecture": self.architecture.to_json_dict(),
            "snapshot_count": self.snapshot_count,
            "complete": self.complete,
            "created_utc": self.created_utc,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunManifest":
        if d["format_version"] != FORMAT_VERSION:
            raise ValueError(
                f"format version {d['format_version']!r}; this reader reads version {FORMAT_VERSION}"
            )
        count, complete, created = d["snapshot_count"], d["complete"], d["created_utc"]
        # a JSON true or false is not a number, and a string is neither
        if isinstance(count, bool) or not (isinstance(count, int) and count >= 0):
            raise ValueError(f"snapshot_count must be an integer >= 0, got {count!r}")
        if not isinstance(complete, bool):
            raise ValueError(f"complete must be true or false, got {complete!r}")
        if isinstance(created, bool) or not isinstance(created, int):
            raise ValueError(f"created_utc must be an integer, got {created!r}")
        return cls(
            config=RunConfig.from_json_dict(d["config"]),
            architecture=ArchitectureSpec.from_json_dict(d["architecture"]),
            snapshot_count=count,
            complete=complete,
            created_utc=created,
        )


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def frame_layout(arch: ArchitectureSpec) -> tuple[np.dtype, np.ndarray]:
    """One frame as a packed record: FRAME_HEAD, then per layer k the f32 fields
    {channel}{k} in STORAGE_CHANNELS order, shaped like the EpochSnapshot views.
    Its itemsize is the frame size.  The f32 payload after the head holds
    snapshot.values[index], where index is those views of value positions."""
    positions = EpochSnapshot(0, 0.0, arch, np.arange(EpochSnapshot.length(arch)))
    fields, index = FRAME_HEAD.descr, []
    for k in range(len(arch.layer_shapes)):
        for name in STORAGE_CHANNELS:
            view = getattr(positions, name)[k]
            fields.append((f"{name}{k}", "<f4", view.shape))
            index.append(view.ravel())
    return np.dtype(fields), np.concatenate(index)


class RunWriter:
    """Exclusive writer for one run file.  Use as a context manager; call
    finalize(complete=True) once training has finished, otherwise the file
    stays flagged incomplete."""

    def __init__(self, destination: str | Path, manifest: RunManifest):
        self._manifest = manifest
        frame, self._index = frame_layout(manifest.architecture)
        # One record, refilled by every append; its f32 payload follows the head.
        self._record = np.zeros(1, dtype=frame)
        self._payload = self._record.view(np.uint8)[FRAME_HEAD.itemsize :].view("<f4")
        self._record["length"] = self._record.itemsize - 4
        self._count = 0
        self._last_epoch = 0
        self._finalized = False
        self._stream = open(destination, "wb")
        try:
            self._write_manifest(snapshot_count=0, complete=False)
            self._stream.seek(DATA_START)
        except BaseException:
            self._stream.close()
            raise

    def _write_manifest(self, snapshot_count: int, complete: bool) -> None:
        manifest = replace(self._manifest, snapshot_count=snapshot_count, complete=complete)
        blob = canonical_json_bytes(manifest.to_json_dict())
        if len(blob) > MANIFEST_REGION:
            raise RunFormatError(
                f"manifest is {len(blob)} bytes; the reserved region holds {MANIFEST_REGION}"
            )
        self._stream.seek(0)
        self._stream.write(MAGIC)
        self._stream.write(len(blob).to_bytes(4, "little"))
        self._stream.write(blob.ljust(MANIFEST_REGION, b" "))

    def append(self, snapshot: EpochSnapshot) -> None:
        if self._finalized:
            raise RunFormatError("writer already finalized")
        if snapshot.epoch <= self._last_epoch:
            raise RunFormatError(
                f"epochs must strictly increase: {snapshot.epoch} after {self._last_epoch}"
            )
        if snapshot.spec != self._manifest.architecture:
            raise RunFormatError(f"snapshot architecture {snapshot.spec} differs from the run's")
        # Assigning casts f64 to f32 with the same rounding as astype.
        self._payload[...] = snapshot.values[self._index]
        self._record["epoch"] = snapshot.epoch
        self._record["loss"] = snapshot.loss
        self._stream.write(self._record.tobytes())
        self._count += 1
        self._last_epoch = snapshot.epoch

    def finalize(self, complete: bool) -> int:
        """Rewrite the manifest with the real snapshot count; returns file size."""
        if not self._finalized:
            self._write_manifest(snapshot_count=self._count, complete=complete)
            self._stream.flush()
            self._finalized = True
            self._stream.close()
        return DATA_START + self._count * self._record.itemsize

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._finalized:
            self.finalize(complete=False)


def write_run(
    manifest: RunManifest,
    snapshots: Iterable[EpochSnapshot],
    destination: str | Path,
    complete: bool = True,
) -> int:
    with RunWriter(destination, manifest) as writer:
        for snap in snapshots:
            writer.append(snap)
        return writer.finalize(complete=complete)


class RunAccessor:
    """Random-access reader over a finished (or partial) run file.

    Opening scans every frame's head once, keeping the epochs and losses.
    Snapshots are read by index.  frames() reads the whole frame region at
    once, and the channel and neuron series are its fields widened to f64.
    """

    def __init__(self, source: str | Path):
        # Unbuffered, so every read sees the file as it is now.
        self._stream = open(source, "rb", buffering=0)
        try:
            self.manifest = self._read_manifest()
            self._frame, self._index = frame_layout(self.manifest.architecture)
            self._layers = len(self.manifest.architecture.layer_shapes)
            self.epochs, self._losses = self._scan_frames()
        except BaseException:
            self.close()
            raise

    def _read_manifest(self) -> RunManifest:
        self._stream.seek(0)
        head = self._stream.read(8)
        if len(head) < 8 or head[:4] != MAGIC:
            raise RunFormatError(f"not a run file: expected magic {MAGIC!r}")
        length = int.from_bytes(head[4:8], "little")
        if length > MANIFEST_REGION:
            raise RunFormatError(f"manifest length {length} exceeds region {MANIFEST_REGION}")
        region = self._stream.read(MANIFEST_REGION)
        if len(region) < MANIFEST_REGION:
            raise RunFormatError("truncated manifest region")
        try:
            return RunManifest.from_json_dict(json.loads(region[:length]))
        except (ValueError, KeyError) as exc:
            raise RunFormatError(f"unreadable manifest: {exc}") from exc

    def _scan_frames(self) -> tuple[list[int], np.ndarray]:
        size = self._stream.seek(0, io.SEEK_END)
        frame_size = self._frame.itemsize
        epochs: list[int] = []
        losses: list[float] = []
        pos = DATA_START
        while pos < size:
            idx = len(epochs)
            if size - pos < HEADER_BYTES:
                raise RunCorruptionError("truncated frame header", idx - 1)
            self._stream.seek(pos)
            # A frame cut inside its loss still parses; it is reported cut short below.
            head = self._stream.read(FRAME_HEAD.itemsize).ljust(FRAME_HEAD.itemsize, b"\0")
            length, epoch, loss = np.frombuffer(head, FRAME_HEAD)[0].item()
            if length != frame_size - 4:
                raise RunCorruptionError(
                    f"frame {idx} declares {length} payload bytes, architecture needs "
                    f"{frame_size - 4}",
                    idx - 1,
                )
            if size - pos < frame_size:
                raise RunCorruptionError(f"frame {idx} is cut short", idx - 1)
            if epochs and epoch <= epochs[-1]:
                raise RunCorruptionError(
                    f"epoch {epoch} at frame {idx} does not increase", idx - 1
                )
            epochs.append(epoch)
            losses.append(loss)
            pos += frame_size
        if self.manifest.complete and len(epochs) != self.manifest.snapshot_count:
            raise RunCorruptionError(
                f"manifest promises {self.manifest.snapshot_count} snapshots, "
                f"found {len(epochs)}",
                len(epochs) - 1,
            )
        return epochs, np.array(losses, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.epochs)

    def _read(self, start: int, count: int) -> np.ndarray:
        """Frames start .. start + count - 1 as a (count,) record array, in one
        seek and readinto; a frame that ends early (the file cut after open)
        raises RunCorruptionError."""
        out = np.empty(count, dtype=self._frame)
        self._stream.seek(DATA_START + start * self._frame.itemsize)
        got = self._stream.readinto(out.view(np.uint8))
        if got != out.nbytes:
            i = start + got // self._frame.itemsize
            raise RunCorruptionError(f"frame {i} ended while reading", i - 1)
        return out

    def snapshot(self, index: int) -> EpochSnapshot:
        if not 0 <= index < len(self):
            raise IndexError(f"snapshot index {index} out of range [0, {len(self)})")
        frame = self._read(index, 1)
        values = np.empty(self._index.size, dtype=np.float64)
        values[self._index] = frame.view(np.uint8)[FRAME_HEAD.itemsize :].view("<f4")
        arch = self.manifest.architecture
        return EpochSnapshot(int(frame["epoch"][0]), float(frame["loss"][0]), arch, values)

    def __iter__(self) -> Iterator[EpochSnapshot]:
        return map(self.snapshot, range(len(self)))

    def losses(self) -> np.ndarray:
        """Every snapshot's loss, kept by the scan at open."""
        return self._losses.copy()

    def frames(self) -> np.ndarray:
        """Every frame as one (T,) array of frame_layout's record, read with
        one readinto of the whole frame region; frames()[f"{channel}{k}"] is
        a channel's f32 series, time-major."""
        return self._read(0, len(self))

    def channel_series(self, layer: int, channel: str) -> np.ndarray:
        """All snapshots of one layer channel, time-major: (T, out, in) or (T, out)."""
        if channel not in STORAGE_CHANNELS:
            raise ValueError(f"unknown channel {channel!r}; expected one of {STORAGE_CHANNELS}")
        if not 0 <= layer < self._layers:
            raise ValueError(f"layer {layer} out of range [0, {self._layers})")
        return self.frames()[f"{channel}{layer}"].astype(np.float64)

    def neuron_series(self, layer: int, channel: str, index: int) -> np.ndarray:
        """One neuron's values over time: (T, in_dim) for weight channels
        (the neuron's incoming row), (T,) for vector channels."""
        series = self.channel_series(layer, channel)
        rows = series.shape[1]
        if not 0 <= index < rows:
            raise ValueError(f"neuron index {index} out of range [0, {rows})")
        return series[:, index]

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "RunAccessor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def standardize_channel(values) -> np.ndarray:
    """(x - mean) / std with the population std; all zeros if std < 1e-12."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot standardize an empty vector")
    std = float(np.std(arr))
    if std < 1e-12:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / std
