"""Bit-exact binary run files: one file holds a manifest plus every captured
epoch of one training run.

Layout (all integers little-endian, no padding between fields):

    offset 0   magic bytes b"NFL1"
    offset 4   u32   manifest JSON length in bytes (<= 4096)
    offset 8   manifest as canonical JSON (sorted keys, compact separators),
               space-padded to a fixed 4096-byte region
    offset 4104  snapshot frames, back to back

    frame      one packed record of frame_layout(architecture): u32 payload
               length, u32 epoch, f64 loss, then `values`, the snapshot's
               flat vector as f32: theta's [W_k | b_k] blocks, grad's, then
               the mean activations

All frames of a run have that record's size, so frame i starts at
DATA_START + i * itemsize.  The reader reads every frame of a run at open,
in one read of the frame region, into one record array; `channel_views` of
its `values` field are the channels' series.

The manifest region is rewritten on finalize to set the actual snapshot
count and the complete flag, so a crashed run is detectable.  Values are
stored as f32; a reader widens a frame field to f64 where it needs to.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .net import ArchitectureSpec
from .rng import check_integer
from .train import EpochSnapshot, RunConfig

MAGIC = b"NFL1"
MANIFEST_REGION = 4096
DATA_START = 8 + MANIFEST_REGION
FORMAT_VERSION = 2
# The fields that open every frame.  A frame cut short still declares its
# length when it holds the two u32 fields (HEADER_BYTES).
FRAME_HEAD = np.dtype([("length", "<u4"), ("epoch", "<u4"), ("loss", "<f8")])
HEADER_BYTES = FRAME_HEAD.fields["loss"][1]


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
        version = d["format_version"]
        check_integer(version, "format_version")  # 2.0 equals 2, but is no version
        if version != FORMAT_VERSION:
            raise RunFormatError(
                f"format version {version}; this reader reads version {FORMAT_VERSION} only: "
                "re-run `fluctlab train` to write the run again"
            )
        for section in ("config", "architecture"):
            if not isinstance(d[section], dict):
                raise ValueError(f"{section} must be a JSON object, got {d[section]!r}")
        count, complete, created = d["snapshot_count"], d["complete"], d["created_utc"]
        check_integer(count, "snapshot_count", 0)
        if not isinstance(complete, bool):
            raise ValueError(f"complete must be true or false, got {complete!r}")
        check_integer(created, "created_utc")
        return cls(
            config=RunConfig.from_json_dict(d["config"]),
            architecture=ArchitectureSpec.from_json_dict(d["architecture"]),
            snapshot_count=count,
            complete=complete,
            created_utc=created,
        )


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def frame_layout(arch: ArchitectureSpec) -> np.dtype:
    """One frame as a packed record: FRAME_HEAD, then `values`, the f32 cast of
    a snapshot's flat vector.  Its itemsize is the frame size."""
    return np.dtype(FRAME_HEAD.descr + [("values", "<f4", (EpochSnapshot.length(arch),))])


class RunWriter:
    """Exclusive writer for one run file.  Use as a context manager; call
    finalize(complete=True) once training has finished, otherwise the file
    stays flagged incomplete."""

    def __init__(self, destination: str | Path, manifest: RunManifest):
        self._manifest = manifest
        # One record, refilled by every append.
        self._record = np.zeros(1, dtype=frame_layout(manifest.architecture))
        self._record["length"] = self._record.itemsize - 4
        self._count = 0
        self._last_epoch = 0
        self._finalized = False
        # built, and so checked, before opening truncates the destination
        head = self._head(snapshot_count=0, complete=False)
        self._stream = open(destination, "wb")
        try:
            self._stream.write(head)
        except BaseException:
            self._stream.close()
            raise

    def _head(self, snapshot_count: int, complete: bool) -> bytes:
        """The file's first DATA_START bytes: magic, manifest length and the
        manifest padded to its region."""
        manifest = replace(self._manifest, snapshot_count=snapshot_count, complete=complete)
        blob = canonical_json_bytes(manifest.to_json_dict())
        if len(blob) > MANIFEST_REGION:
            raise RunFormatError(
                f"manifest is {len(blob)} bytes; the reserved region holds {MANIFEST_REGION}"
            )
        return MAGIC + len(blob).to_bytes(4, "little") + blob.ljust(MANIFEST_REGION, b" ")

    def append(self, snapshot: EpochSnapshot) -> None:
        if self._finalized:
            raise RunFormatError("writer already finalized")
        if snapshot.epoch <= self._last_epoch:
            raise RunFormatError(
                f"epochs must strictly increase: {snapshot.epoch} after {self._last_epoch}"
            )
        if snapshot.spec != self._manifest.architecture:
            raise RunFormatError(f"snapshot architecture {snapshot.spec} differs from the run's")
        # Assigning casts f64 to f32 with the same rounding as astype; a value
        # past the f32 range raises instead of being stored as inf.
        try:
            with np.errstate(over="raise"):
                self._record["values"] = snapshot.values
        except FloatingPointError:
            raise FloatingPointError("a captured value does not fit float32") from None
        self._record["epoch"] = snapshot.epoch
        self._record["loss"] = snapshot.loss
        self._stream.write(self._record.tobytes())
        self._count += 1
        self._last_epoch = snapshot.epoch

    def finalize(self, complete: bool) -> int:
        """Rewrite the manifest with the real snapshot count; returns file size."""
        if not self._finalized:
            head = self._head(snapshot_count=self._count, complete=complete)
            self._stream.seek(0)
            self._stream.write(head)
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
    """Reader over a finished (or partial) run file.

    Opening reads the whole file in three reads (the magic and manifest
    length, the manifest region, every frame) and checks the frames as one
    record array.  The accessor then holds its manifest and that array,
    read-only, and no file: every epoch and loss of the run is a field of
    frames(), and every channel series a view of its values.
    """

    def __init__(self, source: str | Path):
        with open(source, "rb", buffering=0) as stream:
            self.manifest, self._frame = _read_manifest(stream)
            size = os.fstat(stream.fileno()).st_size - DATA_START
            region = np.empty(size, dtype=np.uint8)
            got = stream.readinto(region)
        if got < size:
            message = f"file shrank while opening: read {got} of {size} frame bytes"
            raise RunCorruptionError(message, got // self._frame.itemsize - 1)
        whole = size - size % self._frame.itemsize
        frames = region[:whole].view(self._frame)
        self._check(frames, region[whole:])
        frames.flags.writeable = False
        self._frames = frames

    def _check(self, frames: np.ndarray, tail: np.ndarray) -> None:
        """Raise RunCorruptionError at the lowest faulty frame, the cut tail
        last; at one frame a wrong length comes first, then a cut tail, then
        an epoch that does not increase.  Then check the manifest's count."""
        count = len(frames)
        need = self._frame.itemsize - 4
        # a cut tail that holds the two u32 fields still declares its length
        lengths = frames["length"]
        if tail.size >= HEADER_BYTES:
            lengths = np.append(lengths, tail[:4].view("<u4"))
        epochs = frames["epoch"]
        wrong = np.flatnonzero(lengths != need)
        repeats = np.flatnonzero(epochs[1:] <= epochs[:-1]) + 1
        i = int(min([*wrong[:1], *repeats[:1], count]))
        if wrong.size and wrong[0] == i:
            message = f"frame {i} declares {lengths[i]} payload bytes, architecture needs {need}"
            raise RunCorruptionError(message, i - 1)
        if i == count and tail.size:
            cut = "truncated frame header" if tail.size < HEADER_BYTES else f"frame {i} is cut short"
            raise RunCorruptionError(cut, i - 1)
        if i < count:
            raise RunCorruptionError(f"epoch {epochs[i]} at frame {i} does not increase", i - 1)
        if self.manifest.complete and count != self.manifest.snapshot_count:
            raise RunCorruptionError(
                f"manifest promises {self.manifest.snapshot_count} snapshots, found {count}",
                count - 1,
            )

    def __len__(self) -> int:
        return len(self._frames)

    def frames(self) -> np.ndarray:
        """Every frame as one read-only (T,) array of frame_layout's record;
        channel_views(frames()["values"], arch)[f"{channel}{k}"] is a
        channel's f32 series, time-major."""
        return self._frames


def _read_manifest(stream) -> tuple[RunManifest, np.dtype]:
    """The manifest and its frame_layout; a fault in either is a RunFormatError."""
    head = stream.read(8)
    if len(head) < 8 or head[:4] != MAGIC:
        raise RunFormatError(f"not a run file: expected magic {MAGIC!r}")
    length = int.from_bytes(head[4:8], "little")
    if length > MANIFEST_REGION:
        raise RunFormatError(f"manifest length {length} exceeds region {MANIFEST_REGION}")
    region = stream.read(MANIFEST_REGION)
    if len(region) < MANIFEST_REGION:
        raise RunFormatError("truncated manifest region")
    try:
        manifest = RunManifest.from_json_dict(json.loads(region[:length]))
        # numpy refuses a frame past a C int or its index range with a ValueError
        return manifest, frame_layout(manifest.architecture)
    # TypeError: not a JSON object; RecursionError: nested too deep to parse
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise RunFormatError(f"unreadable manifest: {exc}") from exc


def standardize_channel(values) -> np.ndarray:
    """(x - mean) / std with the population std; all zeros if std < 1e-12."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot standardize an empty vector")
    std = float(np.std(arr))
    if std < 1e-12:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / std
