"""Bit-exact binary run files: one file holds a manifest plus every captured
epoch of one training run.

Layout (all integers little-endian, no padding between fields):

    offset 0   magic bytes b"NFL1"
    offset 4   u32   manifest JSON length in bytes (<= 4096)
    offset 8   manifest as canonical JSON (sorted keys, compact separators),
               space-padded to a fixed 4096-byte region
    offset 4104  snapshot frames, back to back

    frame      u32 payload length, then the payload:
                 u32   epoch number
                 f64   loss
                 per layer, in order: weights, biases, weight_grads,
                 bias_grads, activation_means - each as raw f32 values,
                 matrices row-major

The manifest region is rewritten on finalize to set the actual snapshot
count and the complete flag, so a crashed run is detectable.  Values are
stored as f32; readers widen back to f64.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .net import ArchitectureSpec
from .train import EpochSnapshot, RunConfig

MAGIC = b"NFL1"
MANIFEST_REGION = 4096
DATA_START = 8 + MANIFEST_REGION
FORMAT_VERSION = 1

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


def _channel_layout(arch: ArchitectureSpec) -> list[dict[str, tuple[int, tuple[int, ...]]]]:
    """Per layer: channel name -> (byte offset within the payload, array shape)."""
    layout = []
    offset = 12  # u32 epoch + f64 loss come first
    for in_dim, out_dim in arch.layer_shapes:
        per_layer = {}
        for name, shape in (
            ("weights", (out_dim, in_dim)),
            ("biases", (out_dim,)),
            ("weight_grads", (out_dim, in_dim)),
            ("bias_grads", (out_dim,)),
            ("activation_means", (out_dim,)),
        ):
            per_layer[name] = (offset, shape)
            offset += 4 * int(np.prod(shape))
        layout.append(per_layer)
    return layout


def frame_payload_bytes(arch: ArchitectureSpec) -> int:
    total_floats = sum(2 * (o * i) + 3 * o for i, o in arch.layer_shapes)
    return 12 + 4 * total_floats


class RunWriter:
    """Exclusive writer for one run file.  Use as a context manager; call
    finalize(complete=True) once training has finished, otherwise the file
    stays flagged incomplete."""

    def __init__(self, destination: str | Path | IO[bytes], manifest: RunManifest):
        if isinstance(destination, (str, Path)):
            self._stream: IO[bytes] = open(destination, "wb")
            self._owns_stream = True
        else:
            self._stream = destination
            self._owns_stream = False
        self._manifest = manifest
        self._arch = manifest.architecture
        self._layout = _channel_layout(self._arch)
        self._payload_len = frame_payload_bytes(self._arch)
        self._count = 0
        self._last_epoch = 0
        self._frame_bytes = 0
        self._finalized = False
        self._write_manifest(snapshot_count=0, complete=False)
        self._stream.seek(DATA_START)

    def _write_manifest(self, snapshot_count: int, complete: bool) -> None:
        d = self._manifest.to_json_dict()
        d["snapshot_count"] = snapshot_count
        d["complete"] = complete
        blob = canonical_json_bytes(d)
        if len(blob) > MANIFEST_REGION:
            raise RunFormatError(
                f"manifest is {len(blob)} bytes; the reserved region holds {MANIFEST_REGION}"
            )
        self._stream.seek(0)
        self._stream.write(MAGIC)
        self._stream.write(struct.pack("<I", len(blob)))
        self._stream.write(blob.ljust(MANIFEST_REGION, b" "))

    def append(self, snapshot: EpochSnapshot) -> None:
        if self._finalized:
            raise RunFormatError("writer already finalized")
        if snapshot.epoch <= self._last_epoch:
            raise RunFormatError(
                f"epochs must strictly increase: {snapshot.epoch} after {self._last_epoch}"
            )
        parts = [struct.pack("<Id", snapshot.epoch, snapshot.loss)]
        for k, per_layer in enumerate(self._layout):
            for name in STORAGE_CHANNELS:
                arr = np.asarray(getattr(snapshot, name)[k])
                if arr.shape != per_layer[name][1]:
                    raise RunFormatError(
                        f"snapshot {name} shape {arr.shape} does not match "
                        f"architecture {per_layer[name][1]} at layer {k}"
                    )
                parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        payload = b"".join(parts)
        assert len(payload) == self._payload_len
        self._stream.write(struct.pack("<I", len(payload)))
        self._stream.write(payload)
        self._frame_bytes += 4 + len(payload)
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
        return DATA_START + self._frame_bytes

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
    writer = RunWriter(destination, manifest)
    try:
        for snap in snapshots:
            writer.append(snap)
    except BaseException:
        writer.finalize(complete=False)
        raise
    return writer.finalize(complete=complete)


class RunAccessor:
    """Random-access reader over a finished (or partial) run file.

    Supports sequential iteration, index access via frame-length skipping,
    and whole-channel or single-neuron time series without loading the rest
    of the file.
    """

    def __init__(self, source: str | Path | IO[bytes]):
        if isinstance(source, (str, Path)):
            self._stream: IO[bytes] = open(source, "rb")
            self._owns_stream = True
        else:
            self._stream = source
            self._owns_stream = False
        self.manifest = self._read_manifest()
        self._arch = self.manifest.architecture
        self._layout = _channel_layout(self._arch)
        self._payload_len = frame_payload_bytes(self._arch)
        self._offsets, self.epochs = self._scan_frames()

    def _read_manifest(self) -> RunManifest:
        self._stream.seek(0)
        head = self._stream.read(8)
        if len(head) < 8 or head[:4] != MAGIC:
            raise RunFormatError(f"not a run file: expected magic {MAGIC!r}")
        (length,) = struct.unpack("<I", head[4:8])
        if length > MANIFEST_REGION:
            raise RunFormatError(f"manifest length {length} exceeds region {MANIFEST_REGION}")
        region = self._stream.read(MANIFEST_REGION)
        if len(region) < MANIFEST_REGION:
            raise RunFormatError("truncated manifest region")
        try:
            return RunManifest.from_json_dict(json.loads(region[:length]))
        except (ValueError, KeyError) as exc:
            raise RunFormatError(f"unreadable manifest: {exc}") from exc

    def _scan_frames(self) -> tuple[list[int], list[int]]:
        size = self._stream.seek(0, io.SEEK_END)
        offsets: list[int] = []
        epochs: list[int] = []
        pos = DATA_START
        while pos < size:
            idx = len(offsets)
            if size - pos < 8:
                raise RunCorruptionError("truncated frame header", idx - 1)
            self._stream.seek(pos)
            length, epoch = struct.unpack("<II", self._stream.read(8))
            if length != self._payload_len:
                raise RunCorruptionError(
                    f"frame {idx} declares {length} payload bytes, architecture needs "
                    f"{self._payload_len}",
                    idx - 1,
                )
            if size - pos - 4 < length:
                raise RunCorruptionError(f"frame {idx} is cut short", idx - 1)
            if epochs and epoch <= epochs[-1]:
                raise RunCorruptionError(
                    f"epoch {epoch} at frame {idx} does not increase", idx - 1
                )
            offsets.append(pos)
            epochs.append(epoch)
            pos += 4 + length
        if self.manifest.complete and len(offsets) != self.manifest.snapshot_count:
            raise RunCorruptionError(
                f"manifest promises {self.manifest.snapshot_count} snapshots, "
                f"found {len(offsets)}",
                len(offsets) - 1,
            )
        return offsets, epochs

    def __len__(self) -> int:
        return len(self._offsets)

    def snapshot(self, index: int) -> EpochSnapshot:
        if not 0 <= index < len(self._offsets):
            raise IndexError(f"snapshot index {index} out of range [0, {len(self._offsets)})")
        self._stream.seek(self._offsets[index] + 4)
        payload = self._stream.read(self._payload_len)
        epoch, loss = struct.unpack_from("<Id", payload, 0)
        channels: dict[str, list[np.ndarray]] = {name: [] for name in STORAGE_CHANNELS}
        for per_layer in self._layout:
            for name in STORAGE_CHANNELS:
                offset, shape = per_layer[name]
                count = int(np.prod(shape))
                arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
                channels[name].append(arr.astype(np.float64).reshape(shape))
        return EpochSnapshot(
            epoch=epoch,
            loss=loss,
            weights=channels["weights"],
            biases=channels["biases"],
            weight_grads=channels["weight_grads"],
            bias_grads=channels["bias_grads"],
            activation_means=channels["activation_means"],
        )

    def __iter__(self) -> Iterator[EpochSnapshot]:
        for i in range(len(self._offsets)):
            yield self.snapshot(i)

    def losses(self) -> np.ndarray:
        out = np.empty(len(self._offsets), dtype=np.float64)
        for i, pos in enumerate(self._offsets):
            self._stream.seek(pos + 8)
            (out[i],) = struct.unpack("<d", self._stream.read(8))
        return out

    def _channel_info(self, layer: int, channel: str) -> tuple[int, tuple[int, ...]]:
        if channel not in STORAGE_CHANNELS:
            raise ValueError(f"unknown channel {channel!r}; expected one of {STORAGE_CHANNELS}")
        if not 0 <= layer < len(self._layout):
            raise ValueError(f"layer {layer} out of range [0, {len(self._layout)})")
        return self._layout[layer][channel]

    def channel_series(self, layer: int, channel: str) -> np.ndarray:
        """All snapshots of one layer channel, time-major: (T, out, in) or (T, out)."""
        offset, shape = self._channel_info(layer, channel)
        count = int(np.prod(shape))
        out = np.empty((len(self._offsets), count), dtype=np.float64)
        for i, pos in enumerate(self._offsets):
            self._stream.seek(pos + 4 + offset)
            out[i] = np.frombuffer(self._stream.read(4 * count), dtype="<f4")
        return out.reshape((len(self._offsets),) + shape)

    def neuron_series(self, layer: int, channel: str, index: int) -> np.ndarray:
        """One neuron's values over time: (T, in_dim) for weight channels
        (the neuron's incoming row), (T,) for vector channels."""
        _, shape = self._channel_info(layer, channel)
        if not 0 <= index < shape[0]:
            raise ValueError(f"neuron index {index} out of range [0, {shape[0]})")
        return self.channel_series(layer, channel)[:, index]

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
