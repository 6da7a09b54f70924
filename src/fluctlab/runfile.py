"""Bit-exact binary run files: one file holds a manifest plus every captured
epoch of one training run.

Layout (all integers little-endian, no padding between fields):

    offset 0   magic bytes b"NFL1"
    offset 4   u32   manifest JSON length in bytes (<= 4096)
    offset 8   manifest as canonical JSON (sorted keys, compact separators),
               space-padded to a fixed 4096-byte region
    offset 4104  snapshot frames, back to back

    frame      one packed record of frame_dtype(architecture): u32 payload
               length, u32 epoch, f64 loss, then per layer the raw f32
               weights, biases, weight_grads, bias_grads and
               activation_means, matrices row-major

All frames of a run have that record's size, so frame i starts at
DATA_START + i * itemsize and is read by index, by writer and reader alike.

The manifest region is rewritten on finalize to set the actual snapshot
count and the complete flag, so a crashed run is detectable.  Values are
stored as f32; readers widen back to f64.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .net import ArchitectureSpec
from .train import EpochSnapshot, RunConfig

MAGIC = b"NFL1"
MANIFEST_REGION = 4096
DATA_START = 8 + MANIFEST_REGION
FORMAT_VERSION = 1
# The two u32 fields that open every frame: the scan reads them alone.
FRAME_HEAD = np.dtype([("length", "<u4"), ("epoch", "<u4")])

STORAGE_CHANNELS = ("weights", "biases", "weight_grads", "bias_grads", "activation_means")


class RunFormatError(Exception):
    """The byte stream does not follow the run-file layout."""


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
    format_version: int = FORMAT_VERSION

    def to_json_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "config": self.config.to_json_dict(),
            "architecture": self.architecture.to_json_dict(),
            "snapshot_count": self.snapshot_count,
            "complete": self.complete,
            "created_utc": self.created_utc,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunManifest":
        return cls(
            config=RunConfig.from_json_dict(d["config"]),
            architecture=ArchitectureSpec.from_json_dict(d["architecture"]),
            snapshot_count=d["snapshot_count"],
            complete=d["complete"],
            created_utc=d["created_utc"],
            format_version=d["format_version"],
        )


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def _open(target: str | Path | IO[bytes], mode: str) -> tuple[IO[bytes], bool]:
    """The stream for target, and whether it was opened here (and so must be closed here)."""
    if isinstance(target, (str, Path)):
        return open(target, mode), True
    return target, False


def frame_dtype(arch: ArchitectureSpec) -> np.dtype:
    """One frame as a packed record: the head, the f64 loss, then per layer k the
    f32 fields {channel}{k} in STORAGE_CHANNELS order.  Its itemsize is the frame size."""
    fields = FRAME_HEAD.descr + [("loss", "<f8")]
    for k, (in_dim, out_dim) in enumerate(arch.layer_shapes):
        matrix, vector = (out_dim, in_dim), (out_dim,)
        shapes = (matrix, vector, matrix, vector, vector)  # in STORAGE_CHANNELS order
        fields += [(f"{name}{k}", "<f4", shape) for name, shape in zip(STORAGE_CHANNELS, shapes)]
    return np.dtype(fields)


class RunWriter:
    """Exclusive writer for one run file.  Use as a context manager; call
    finalize(complete=True) once training has finished, otherwise the file
    stays flagged incomplete."""

    def __init__(self, destination: str | Path | IO[bytes], manifest: RunManifest):
        self._manifest = manifest
        self._layers = len(manifest.architecture.layer_shapes)
        # One record, refilled by every append.
        self._record = np.zeros((), dtype=frame_dtype(manifest.architecture))
        self._record["length"] = self._record.itemsize - 4
        self._count = 0
        self._last_epoch = 0
        self._finalized = False
        self._stream, self._owns_stream = _open(destination, "wb")
        try:
            self._write_manifest(snapshot_count=0, complete=False)
            self._stream.seek(DATA_START)
        except BaseException:
            if self._owns_stream:
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
        for k in range(self._layers):
            for name in STORAGE_CHANNELS:
                arr = np.asarray(getattr(snapshot, name)[k])
                field = self._record[f"{name}{k}"]
                if arr.shape != field.shape:
                    raise RunFormatError(
                        f"snapshot {name} shape {arr.shape} does not match "
                        f"architecture {field.shape} at layer {k}"
                    )
                # Assigning casts f64 to f32 with the same rounding as astype.
                field[...] = arr
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
            if self._owns_stream:
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
    destination: str | Path | IO[bytes],
    complete: bool = True,
) -> int:
    with RunWriter(destination, manifest) as writer:
        for snap in snapshots:
            writer.append(snap)
        return writer.finalize(complete=complete)


class RunAccessor:
    """Random-access reader over a finished (or partial) run file.

    Supports sequential iteration, access to any frame by index, and
    whole-channel or single-neuron time series without loading the rest of
    the file.
    """

    def __init__(self, source: str | Path | IO[bytes]):
        self._stream, self._owns_stream = _open(source, "rb")
        try:
            self.manifest = self._read_manifest()
            self._frame = frame_dtype(self.manifest.architecture)
            self._layers = len(self.manifest.architecture.layer_shapes)
            self.epochs = self._scan_frames()
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

    def _scan_frames(self) -> list[int]:
        size = self._stream.seek(0, io.SEEK_END)
        frame_size = self._frame.itemsize
        epochs: list[int] = []
        pos = DATA_START
        while pos < size:
            idx = len(epochs)
            if size - pos < FRAME_HEAD.itemsize:
                raise RunCorruptionError("truncated frame header", idx - 1)
            self._stream.seek(pos)
            head = self._stream.read(FRAME_HEAD.itemsize)
            length, epoch = np.frombuffer(head, FRAME_HEAD)[0].item()
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
            pos += frame_size
        if self.manifest.complete and len(epochs) != self.manifest.snapshot_count:
            raise RunCorruptionError(
                f"manifest promises {self.manifest.snapshot_count} snapshots, "
                f"found {len(epochs)}",
                len(epochs) - 1,
            )
        return epochs

    def __len__(self) -> int:
        return len(self.epochs)

    def snapshot(self, index: int) -> EpochSnapshot:
        if not 0 <= index < len(self):
            raise IndexError(f"snapshot index {index} out of range [0, {len(self)})")
        self._stream.seek(DATA_START + index * self._frame.itemsize)
        frame = np.frombuffer(self._stream.read(self._frame.itemsize), self._frame)[0]
        channels = {
            name: [frame[f"{name}{k}"].astype(np.float64) for k in range(self._layers)]
            for name in STORAGE_CHANNELS
        }
        return EpochSnapshot(epoch=int(frame["epoch"]), loss=float(frame["loss"]), **channels)

    def __iter__(self) -> Iterator[EpochSnapshot]:
        return map(self.snapshot, range(len(self)))

    def _field(self, name: str) -> np.ndarray:
        """One frame field over all snapshots, time-major and widened to f64:
        one positioned read per frame, each cast straight into the result."""
        field, offset = self._frame.fields[name][:2]
        out = np.empty((len(self), int(np.prod(field.shape))), dtype=np.float64)
        for i in range(len(self)):
            self._stream.seek(DATA_START + i * self._frame.itemsize + offset)
            out[i] = np.frombuffer(self._stream.read(field.itemsize), field.base)
        return out.reshape((len(self),) + field.shape)

    def losses(self) -> np.ndarray:
        return self._field("loss")

    def _channel_field(self, layer: int, channel: str) -> str:
        if channel not in STORAGE_CHANNELS:
            raise ValueError(f"unknown channel {channel!r}; expected one of {STORAGE_CHANNELS}")
        if not 0 <= layer < self._layers:
            raise ValueError(f"layer {layer} out of range [0, {self._layers})")
        return f"{channel}{layer}"

    def channel_series(self, layer: int, channel: str) -> np.ndarray:
        """All snapshots of one layer channel, time-major: (T, out, in) or (T, out)."""
        return self._field(self._channel_field(layer, channel))

    def neuron_series(self, layer: int, channel: str, index: int) -> np.ndarray:
        """One neuron's values over time: (T, in_dim) for weight channels
        (the neuron's incoming row), (T,) for vector channels."""
        name = self._channel_field(layer, channel)
        rows = self._frame[name].shape[0]
        if not 0 <= index < rows:
            raise ValueError(f"neuron index {index} out of range [0, {rows})")
        return self._field(name)[:, index]

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "RunAccessor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_run(source: str | Path | IO[bytes]) -> tuple[RunManifest, RunAccessor]:
    accessor = RunAccessor(source)
    return accessor.manifest, accessor


def standardize_channel(values) -> np.ndarray:
    """(x - mean) / std with the population std; all zeros if std < 1e-12."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot standardize an empty vector")
    std = float(np.std(arr))
    if std < 1e-12:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / std
