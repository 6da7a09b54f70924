import errno
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    TINY_ARCH,
    edit_manifest,
    make_manifest,
    make_snapshot,
    neuron_delta_series,
    write_run,
    write_synthetic_run,
)
from fluctlab import runfile
from fluctlab.analysis import analyze_run
from fluctlab.figures import reconstruct
from fluctlab.net import ArchitectureSpec
from fluctlab.runfile import (
    DATA_START,
    FORMAT_VERSION,
    HEADER_BYTES,
    MANIFEST_REGION,
    RunCorruptionError,
    RunAccessor,
    RunFormatError,
    RunWriter,
    standardize_channel,
)
from fluctlab.train import EpochSnapshot, channel_views, train


class ReadCountingFile:
    """A file whose read and readinto calls are counted."""

    def __init__(self, raw):
        self._raw = raw
        self.reads = 0

    def read(self, *args):
        self.reads += 1
        return self._raw.read(*args)

    def readinto(self, buffer):
        self.reads += 1
        return self._raw.readinto(buffer)

    def __getattr__(self, name):
        return getattr(self._raw, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._raw.close()


def frame_bytes_oracle(snaps):
    """Frames rebuilt by hand: u32 payload length, u32 epoch, f64 loss, then
    the snapshot's flat vector as little-endian f32."""
    expected = b""
    for snap in snaps:
        payload = snap.values.astype("<f4").tobytes()
        expected += struct.pack("<IId", 12 + len(payload), snap.epoch, snap.loss) + payload
    return expected


@st.composite
def small_runs(draw):
    """An architecture of 1-3 layers per half and widths 1-5, with 1-3
    snapshots of full float64 values that stay finite in f32."""
    widths = st.integers(1, 5)
    encoder = draw(st.lists(widths, min_size=2, max_size=4))
    decoder = encoder[-1:] + draw(st.lists(widths, min_size=1, max_size=3))
    arch = ArchitectureSpec(tuple(encoder), tuple(decoder))
    values = hnp.arrays(
        np.float64, EpochSnapshot.length(arch), elements=st.floats(-3e38, 3e38)
    )
    losses = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=3))
    return arch, [
        EpochSnapshot(epoch, loss, arch, draw(values))
        for epoch, loss in enumerate(losses, start=1)
    ]


def paper_arch_payload_oracle():
    """Byte count built straight from the layer dimensions: epoch + loss header
    plus f32 channels (weights, biases, weight_grads, bias_grads,
    activations) for each of the six layers."""
    per_layer = (
        2 * (64 * 2 + 64)
        + 2 * (32 * 64 + 32)
        + 2 * (1 * 32 + 1)
        + 2 * (32 * 1 + 32)
        + 2 * (64 * 32 + 64)
        + 2 * (2 * 64 + 2)
        + 195
    )
    return 4 + 8 + 4 * per_layer


class TestLayout:
    def test_empty_run_is_header_plus_manifest_region(self, tmp_path):
        path = tmp_path / "empty.nfl"
        size = write_run(make_manifest(), [], path, complete=False)
        assert size == 8 + MANIFEST_REGION
        assert path.stat().st_size == 8 + MANIFEST_REGION
        acc = RunAccessor(path)
        assert acc.manifest.snapshot_count == 0
        assert len(acc) == 0

    def test_single_snapshot_frame_bytes(self, tmp_path):
        arch = ArchitectureSpec()
        path = tmp_path / "one.nfl"
        snap = make_snapshot(arch, 1, 0.5, rng=np.random.default_rng(0))
        manifest = make_manifest(arch=arch, epochs=1)
        size = write_run(manifest, [snap], path)
        payload = paper_arch_payload_oracle()
        assert size == DATA_START + 4 + payload
        assert path.stat().st_size == size

    def test_magic_and_manifest_length_prefix(self, tmp_path):
        path = tmp_path / "m.nfl"
        write_run(make_manifest(), [], path, complete=False)
        blob = path.read_bytes()
        assert blob[:4] == b"NFL1"
        length = int.from_bytes(blob[4:8], "little")
        manifest = json.loads(blob[8 : 8 + length])
        assert manifest["format_version"] == FORMAT_VERSION
        assert blob[8 + length : DATA_START] == b" " * (MANIFEST_REGION - length)

    def test_frame_bytes_match_struct_oracle(self, tmp_path):
        """The on-disk frame spec, byte for byte: the <IId head, then
        snapshot.values as <f4, in a frame whose size follows from the layer
        sizes alone.  The values are full float64, so the f32 rounding is
        pinned."""
        itemsize = runfile.frame_layout(TINY_ARCH).itemsize
        assert itemsize == 16 + 4 * (2 * TINY_ARCH.parameter_count + TINY_ARCH.total_neurons)
        assert itemsize == 16 + 4 * sum(2 * i * o + 3 * o for i, o in TINY_ARCH.layer_shapes)
        rng = np.random.default_rng(11)
        snaps = []
        for epoch, loss in ((2, 0.123456789012345), (7, 3.0e-5)):
            snap = make_snapshot(TINY_ARCH, epoch, loss, rng=rng)
            snap.values[...] = rng.normal(0, 2, size=snap.values.shape)
            snaps.append(snap)
        path = tmp_path / "oracle.nfl"
        write_run(make_manifest(epochs=7), snaps, path)
        assert path.read_bytes()[DATA_START:] == frame_bytes_oracle(snaps)

    @given(run=small_runs())
    @settings(max_examples=60, deadline=None)
    def test_frames_match_oracle_on_small_architectures(self, run, tmp_path_factory):
        arch, snaps = run
        path = tmp_path_factory.mktemp("frames") / "run.nfl"
        write_run(make_manifest(arch=arch, epochs=len(snaps)), snaps, path)
        assert path.read_bytes()[DATA_START:] == frame_bytes_oracle(snaps)
        acc = RunAccessor(path)
        views = channel_views(acc.frames()["values"], arch)
        for i, snap in enumerate(snaps):
            for name, view in channel_views(snap.values, arch).items():
                assert views[name][i].tobytes() == view.astype(np.float32).tobytes()

    def test_frames_hold_the_trained_layers(self, tmp_path):
        """A frame's values follow theta's layout: the weights{k} and
        biases{k} views are the trained network's arrays rounded to f32, and
        the paper's frame keeps the size it had in version 1."""
        frame = runfile.frame_layout(ArchitectureSpec())
        assert frame.itemsize == 37_684
        assert frame.names == ("length", "epoch", "loss", "values")
        manifest = make_manifest(arch=ArchitectureSpec(), epochs=3)
        path = tmp_path / "trained.nfl"
        with RunWriter(path, manifest) as writer:
            net, _ = train(manifest.config, writer.append)
            writer.finalize(complete=True)
        acc = RunAccessor(path)
        last = channel_views(acc.frames()[-1]["values"], net.spec)
        for k, block in enumerate(net.blocks):
            assert last[f"weights{k}"].tobytes() == block[:, :-1].astype(np.float32).tobytes()
            assert last[f"biases{k}"].tobytes() == block[:, -1].astype(np.float32).tobytes()

    def test_byte_determinism(self, tmp_path):
        blobs = []
        for name in ("a.nfl", "b.nfl"):
            rng = np.random.default_rng(42)
            snaps = [make_snapshot(TINY_ARCH, e + 1, 0.1 * e, rng=rng) for e in range(3)]
            path = tmp_path / name
            write_run(make_manifest(), snaps, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestRoundTrip:
    def test_snapshots_identical(self, tmp_path):
        path = tmp_path / "rt.nfl"
        written = write_synthetic_run(path, count=4)
        acc = RunAccessor(path)
        assert len(acc) == 4
        for frame, snap in zip(acc.frames(), written, strict=True):
            assert frame["epoch"] == snap.epoch
            assert frame["loss"] == snap.loss
            views = channel_views(frame["values"], snap.spec)
            for name, view in channel_views(snap.values, snap.spec).items():
                assert np.array_equal(views[name], view)

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "man.nfl"
        write_synthetic_run(path, count=2, lr=0.0001, data_seed=9, init_seed=8)
        acc = RunAccessor(path)
        manifest = acc.manifest
        assert manifest.complete is True
        assert manifest.snapshot_count == 2
        assert manifest.config.learning_rate == 0.0001
        assert manifest.config.data_seed == 9
        assert manifest.architecture == TINY_ARCH


class TestAccess:
    def test_neuron_series_matches_full_load_oracle(self, tmp_path):
        """A neuron's delta series, read from the frames, is np.diff of its
        values in the snapshots written."""
        path = tmp_path / "ns.nfl"
        full = write_synthetic_run(path, count=6, seed=3)  # f32-exact values
        acc = RunAccessor(path)
        cases = ((0, "weights", 3), (4, "weight_grads", 1), (1, "biases", 2), (3, "activations", 0))
        for layer, channel, idx in cases:
            naive = np.stack([channel_views(s.values, s.spec)[f"{channel}{layer}"][idx] for s in full])
            deltas = neuron_delta_series(acc, layer, idx, channel)
            assert deltas.dtype == np.float64
            assert deltas.tobytes() == np.diff(naive, axis=0).ravel().tobytes()
        for idx in (-1, 4):  # layer 0 has 4 neurons
            with pytest.raises(ValueError, match="neuron index"):
                neuron_delta_series(acc, 0, idx, "weights")
        for layer in (-1, len(TINY_ARCH.layer_shapes)):
            with pytest.raises(ValueError, match="layer"):
                neuron_delta_series(acc, layer, 0, "weights")

    def test_losses(self, tmp_path):
        path = tmp_path / "ls.nfl"
        written = write_synthetic_run(path, count=4)
        acc = RunAccessor(path)
        assert acc.frames()["loss"].tolist() == [s.loss for s in written]

    def test_frames_fields_equal_snapshot_values(self, tmp_path):
        path = tmp_path / "fr.nfl"
        written = write_synthetic_run(path, count=4, seed=7)
        acc = RunAccessor(path)
        frames = acc.frames()
        assert frames.shape == (4,)
        assert frames.dtype == runfile.frame_layout(TINY_ARCH)
        assert frames["epoch"].tolist() == [s.epoch for s in written]
        assert frames["loss"].tolist() == [s.loss for s in written]
        views = channel_views(frames["values"], TINY_ARCH)
        for i, snap in enumerate(written):
            assert frames["values"][i].tobytes() == snap.values.astype(np.float32).tobytes()
            for name, expected in channel_views(snap.values, TINY_ARCH).items():
                view = views[name][i]
                assert view.dtype == np.float32
                assert view.tobytes() == expected.astype(np.float32).tobytes()

    def test_reads_per_frame(self, tmp_path, monkeypatch):
        """Opening makes three reads: the magic and manifest length, the
        manifest region and the frame region; nothing after it reads."""
        frames = 5
        path = tmp_path / "reads.nfl"
        write_synthetic_run(path, count=frames, seed=4)
        files = []

        def counting_open(*args, **kwargs):
            files.append(ReadCountingFile(open(*args, **kwargs)))
            return files[-1]

        monkeypatch.setattr(runfile, "open", counting_open, raising=False)
        acc = RunAccessor(path)
        (counted,) = files
        assert counted.reads == 3
        assert counted.closed
        acc.frames()
        analyze_run(acc)
        reconstruct(acc.manifest, acc.frames()[-1])
        assert counted.reads == 3

    def test_open_allocates_for_the_file_not_the_claimed_architecture(self, tmp_path):
        """A manifest-only file that claims two 3000-wide layers opens in under
        1 MB: a frame of the claimed widths (about 72 MB here) is allocated
        only by writing a snapshot."""
        path = tmp_path / "wide.nfl"
        write_run(make_manifest(), [], path)
        wide = {"encoder_dims": [2, 3000, 3000, 1], "decoder_dims": [1, 2]}
        edit_manifest(path, "architecture", wide)
        assert path.stat().st_size == DATA_START
        tracemalloc.start()
        try:
            acc = RunAccessor(path)
            assert len(acc) == 0 and acc.manifest.complete
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_open_of_a_cut_tail_allocates_for_the_file(self, tmp_path):
        """The same file with 10 bytes after the manifest: the cut tail's
        length is read from its own bytes, not from a frame of the claimed
        size (about 72 MB here), and is refused in under 1 MB."""
        path = tmp_path / "wide_tail.nfl"
        write_run(make_manifest(), [], path)
        wide = {"encoder_dims": [2, 3000, 3000, 1], "decoder_dims": [1, 2]}
        edit_manifest(path, "architecture", wide)
        with open(path, "ab") as fh:
            fh.write(bytes(10))
        tracemalloc.start()
        try:
            with pytest.raises(RunCorruptionError, match="frame 0 declares 0 payload bytes") as err:
                RunAccessor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.last_valid_index == -1
        assert peak < 1 << 20, peak

    def test_frames_are_read_only(self, tmp_path):
        path = tmp_path / "ro.nfl"
        written = write_synthetic_run(path, count=3)
        acc = RunAccessor(path)
        with pytest.raises(ValueError, match="read-only"):
            acc.frames()["loss"][0] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            channel_views(acc.frames()["values"], TINY_ARCH)["weights0"][...] = 0.0
        assert acc.frames()["loss"].tolist() == [s.loss for s in written]

    def test_epoch_values_preserved(self, tmp_path):
        rng = np.random.default_rng(0)
        snaps = [make_snapshot(TINY_ARCH, e, 0.5, rng=rng) for e in (1, 3, 6, 9)]
        path = tmp_path / "ep.nfl"
        write_run(make_manifest(epochs=9, capture_every=3), snaps, path)
        acc = RunAccessor(path)
        assert acc.frames()["epoch"].tolist() == [1, 3, 6, 9]


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nfl"
        path.write_bytes(b"ROOT" + b"\0" * 100)
        with pytest.raises(RunFormatError):
            RunAccessor(path)

    def test_manifest_length_beyond_its_region(self, tmp_path):
        path = tmp_path / "long.nfl"
        write_synthetic_run(path, count=1)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (MANIFEST_REGION + 1).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(RunFormatError, match=f"manifest length {MANIFEST_REGION + 1} exceeds"):
            RunAccessor(path)

    def test_file_cut_inside_the_manifest_region(self, tmp_path):
        path = tmp_path / "cut.nfl"
        write_synthetic_run(path, count=1)
        path.write_bytes(path.read_bytes()[: DATA_START - 1])
        with pytest.raises(RunFormatError, match="truncated manifest region"):
            RunAccessor(path)

    def test_truncated_frame_names_last_snapshot(self, tmp_path):
        path = tmp_path / "trunc.nfl"
        write_synthetic_run(path, count=3)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])  # cut into the third frame
        with pytest.raises(RunCorruptionError) as err:
            RunAccessor(path)
        assert err.value.last_valid_index == 1
        assert "1" in str(err.value)

    @pytest.mark.parametrize(
        "damage, fragment, last_valid",
        [
            ("short_header", "truncated frame header", 1),
            ("wrong_length", "frame 1 declares", 0),
            ("cut_short", "frame 2 is cut short", 1),
            ("cut_in_loss", "frame 2 is cut short", 1),
            ("repeated_epoch", "epoch 2 at frame 2 does not increase", 1),
            ("missing_frame", "manifest promises 3 snapshots, found 2", 1),
        ],
    )
    def test_scan_rejects_damaged_frames(self, tmp_path, damage, fragment, last_valid):
        path = tmp_path / "damaged.nfl"
        write_synthetic_run(path, count=3)  # epochs 1, 2, 3; manifest complete
        blob = bytearray(path.read_bytes())
        frame = (len(blob) - DATA_START) // 3
        if damage == "short_header":
            blob = blob[: DATA_START + 2 * frame + 5]
        elif damage == "wrong_length":
            blob[DATA_START + frame : DATA_START + frame + 4] = (frame - 8).to_bytes(4, "little")
        elif damage == "cut_short":
            blob = blob[:-10]
        elif damage == "cut_in_loss":  # the head's u32 fields and 4 of the loss's 8 bytes
            blob = blob[: DATA_START + 2 * frame + 12]
        elif damage == "repeated_epoch":
            blob[DATA_START + 2 * frame + 4 : DATA_START + 2 * frame + 8] = (2).to_bytes(4, "little")
        else:
            blob = blob[:-frame]
        path.write_bytes(bytes(blob))
        with pytest.raises(RunCorruptionError, match=fragment) as err:
            RunAccessor(path)
        assert err.value.last_valid_index == last_valid

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_damage_names_the_frame_before_the_first_fault(self, data, tmp_path_factory):
        """A cut anywhere in the frame region, a wrong length or a repeated
        epoch, alone or together: the lowest damaged frame is the fault, and
        at one frame a wrong length comes before a cut, a cut before an epoch."""
        count = data.draw(st.integers(1, 6), label="frames")
        path = tmp_path_factory.mktemp("damage") / "run.nfl"
        write_synthetic_run(path, count=count)  # epochs 1 .. count; manifest complete
        blob = bytearray(path.read_bytes())
        frame = (len(blob) - DATA_START) // count
        faults = []  # (frame, rank at that frame, message fragment)
        if data.draw(st.booleans(), label="wrong length"):
            i = data.draw(st.integers(0, count - 1), label="length frame")
            length = data.draw(st.integers(0, 2**32 - 1).filter(lambda n: n != frame - 4))
            blob[DATA_START + i * frame : DATA_START + i * frame + 4] = length.to_bytes(4, "little")
            faults.append((i, 0, f"frame {i} declares {length} payload bytes"))
        if count > 1 and data.draw(st.booleans(), label="repeated epoch"):
            i = data.draw(st.integers(1, count - 1), label="epoch frame")
            epoch = data.draw(st.integers(0, i), label="epoch")  # frame i - 1 holds epoch i
            blob[DATA_START + i * frame + 4 : DATA_START + i * frame + 8] = epoch.to_bytes(4, "little")
            faults.append((i, 2, f"epoch {epoch} at frame {i} does not increase"))
        if not faults or data.draw(st.booleans(), label="cut"):
            k = data.draw(st.integers(0, count - 1), label="cut frame")
            # any byte of the frame, the head's bytes more often
            tail = data.draw(st.one_of(st.integers(0, 16), st.integers(0, frame - 1)), label="kept")
            blob = blob[: DATA_START + k * frame + tail]
            if tail < HEADER_BYTES:  # frame k's length is gone or not read
                faults = [f for f in faults if f[0] != k]
            if tail == 0:  # a cut on a boundary loses frame k whole
                faults.append((k, 1, f"manifest promises {count} snapshots, found {k}"))
            else:
                cut = "truncated frame header" if tail < HEADER_BYTES else f"frame {k} is cut short"
                faults.append((k, 1, cut))
        path.write_bytes(bytes(blob))
        first, _, fragment = min(faults)
        with pytest.raises(RunCorruptionError, match=fragment) as err:
            RunAccessor(path)
        assert err.value.last_valid_index == first - 1

    def test_file_that_shrinks_while_opening(self, tmp_path, monkeypatch):
        """A frame region read short raises, naming the last whole frame read,
        and hands out no zero-filled frames."""
        path = tmp_path / "shrink.nfl"
        write_synthetic_run(path, count=3)
        frame = (path.stat().st_size - DATA_START) // 3

        class ShortRead(ReadCountingFile):
            def readinto(self, buffer):
                return self._raw.readinto(memoryview(buffer)[: frame + frame // 2])

        monkeypatch.setattr(
            runfile, "open", lambda *a, **kw: ShortRead(open(*a, **kw)), raising=False
        )
        with pytest.raises(RunCorruptionError, match="shrank") as err:
            RunAccessor(path)
        assert err.value.last_valid_index == 0

    def test_failed_constructors_close_their_files(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(runfile, "open", recording_open, raising=False)
        huge = ArchitectureSpec(encoder_dims=(2,) + (3,) * 2000 + (1,), decoder_dims=(1, 3, 2))
        bad = tmp_path / "bad.nfl"
        bad.write_bytes(b"ROOT" + b"\0" * 100)
        with pytest.raises(RunFormatError):
            runfile.RunAccessor(bad)
        with pytest.raises(RunFormatError):
            RunWriter(tmp_path / "huge.nfl", make_manifest(arch=huge))
        # the writer refuses its manifest before it opens anything
        assert len(opened) == 1
        assert all(f.closed for f in opened)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (f'"format_version":{FORMAT_VERSION}'.encode(), b'"format_version":9', "format version 9"),
            (b'"beta1":0.9', b'"beta1":0.8', "adam settings"),
        ],
    )
    def test_manifest_the_reader_cannot_honour(self, tmp_path, field, value, message):
        path = tmp_path / "other.nfl"
        write_synthetic_run(path, count=2)
        blob = path.read_bytes()
        assert blob.count(field) == 1
        path.write_bytes(blob.replace(field, value))
        with pytest.raises(RunFormatError, match=message):
            RunAccessor(path)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("config", "learning_rate", True),
            ("config", "learning_rate", "0.01"),
            (None, "snapshot_count", "3"),
            (None, "snapshot_count", True),
            (None, "snapshot_count", -1),
            (None, "complete", 1),
            (None, "created_utc", False),
            (None, "created_utc", "0"),
            # each but the last read as the run's own 2-4-3-1 / 1-3-4-2 net before
            ("architecture", "encoder_dims", [2, 4.9, 3, True]),
            ("architecture", "encoder_dims", "2431"),
            ("architecture", "encoder_dims", [2.0, 4, 3, 1]),
            ("architecture", "decoder_dims", [1, 3, "4", 2]),
            ("architecture", "decoder_dims", [True, 3, 4, 2]),
            ("architecture", "decoder_dims", 2),
            # a section that is not a JSON object
            (None, "config", 5),
            (None, "architecture", []),
            # a bool, and a float that equals the one version read
            (None, "format_version", True),
            (None, "format_version", float(FORMAT_VERSION)),
            # an int past the float range is not finite
            pytest.param("config", "learning_rate", 10**400, id="lr-past-the-float-range"),
        ],
    )
    def test_manifest_value_of_the_wrong_type(self, tmp_path, section, key, value):
        path = tmp_path / "typed.nfl"
        write_synthetic_run(path, count=3)
        edit_manifest(path, "created_utc", 7)  # the helper alone keeps a readable file
        acc = RunAccessor(path)
        assert acc.manifest.created_utc == 7 and len(acc) == 3
        edit_manifest(path, key, value, section)
        with pytest.raises(RunFormatError, match=key):
            RunAccessor(path)

    def test_layer_sizes_past_a_c_int(self, tmp_path):
        # numpy cannot build the frame record, whose length is past its index
        # range here; opening says so as a format error naming the frame size
        path = tmp_path / "wide.nfl"
        write_synthetic_run(path, count=3)
        edit_manifest(path, "encoder_dims", [2, 2**40, 2**40, 1], "architecture")
        values = EpochSnapshot.length(ArchitectureSpec((2, 2**40, 2**40, 1), TINY_ARCH.decoder_dims))
        with pytest.raises(RunFormatError) as info:
            RunAccessor(path)
        assert str(info.value) == (
            f"unreadable manifest: its layer sizes need {values} values per frame, "
            "more than a frame record holds"
        )

    def test_manifest_that_is_not_a_json_object(self, tmp_path):
        path = tmp_path / "listed.nfl"
        write_synthetic_run(path, count=3)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (3).to_bytes(4, "little")
        blob[8 : 8 + MANIFEST_REGION] = b"[1]".ljust(MANIFEST_REGION, b" ")
        path.write_bytes(bytes(blob))
        with pytest.raises(RunFormatError, match="unreadable manifest"):
            RunAccessor(path)

    def test_nonincreasing_epoch_rejected_by_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        writer = RunWriter(tmp_path / "inc.nfl", make_manifest())
        writer.append(make_snapshot(TINY_ARCH, 5, 0.1, rng=rng))
        with pytest.raises(RunFormatError):
            writer.append(make_snapshot(TINY_ARCH, 5, 0.1, rng=rng))
        writer.finalize(complete=False)

    def test_manifest_overflow(self, tmp_path):
        huge = ArchitectureSpec(
            encoder_dims=(2,) + (3,) * 2000 + (1,), decoder_dims=(1, 3, 2)
        )
        with pytest.raises(RunFormatError):
            RunWriter(tmp_path / "huge.nfl", make_manifest(arch=huge))

    def test_failed_header_write_closes_the_file(self, tmp_path, monkeypatch):
        class FullDisk:
            closed = False

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

            def close(self):
                self.closed = True

        stream = FullDisk()
        monkeypatch.setattr(runfile, "open", lambda path, mode: stream, raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            RunWriter(tmp_path / "full.nfl", make_manifest())
        assert stream.closed

    def test_refused_writer_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "kept.nfl"
        write_synthetic_run(path, count=3)
        before = path.read_bytes()
        huge = ArchitectureSpec(encoder_dims=(2,) + (3,) * 2000 + (1,), decoder_dims=(1, 3, 2))
        with pytest.raises(RunFormatError, match="manifest is"):
            RunWriter(path, make_manifest(arch=huge))
        assert path.read_bytes() == before

    def test_snapshot_shape_mismatch(self, tmp_path):
        writer = RunWriter(tmp_path / "mm.nfl", make_manifest())
        # the second holds as many values as a TINY_ARCH snapshot, laid out otherwise
        same_count = ArchitectureSpec(encoder_dims=(2, 4, 4, 1), decoder_dims=(1, 3, 3, 2))
        assert EpochSnapshot.length(same_count) == EpochSnapshot.length(TINY_ARCH)
        for arch in (ArchitectureSpec(), same_count):
            wrong = make_snapshot(arch, 1, 0.1, rng=np.random.default_rng(0))
            with pytest.raises(RunFormatError, match="architecture"):
                writer.append(wrong)
        writer.finalize(complete=False)

    def test_append_after_finalize_is_refused(self, tmp_path):
        path = tmp_path / "done.nfl"
        rng = np.random.default_rng(0)
        writer = RunWriter(path, make_manifest())
        writer.append(make_snapshot(TINY_ARCH, 1, 0.5, rng=rng))
        size = writer.finalize(complete=True)
        with pytest.raises(RunFormatError, match="writer already finalized"):
            writer.append(make_snapshot(TINY_ARCH, 2, 0.4, rng=rng))
        assert path.stat().st_size == size

    def test_unfinalized_writer_leaves_incomplete_flag(self, tmp_path):
        path = tmp_path / "crash.nfl"
        rng = np.random.default_rng(0)
        with RunWriter(path, make_manifest()) as writer:
            writer.append(make_snapshot(TINY_ARCH, 1, 0.5, rng=rng))
        acc = RunAccessor(path)
        assert acc.manifest.complete is False
        assert acc.manifest.snapshot_count == 1


class TestStandardize:
    def test_constant_vector_maps_to_zero(self):
        assert standardize_channel([1.0, 1.0, 1.0]).tolist() == [0.0, 0.0, 0.0]

    def test_two_point_example(self):
        assert standardize_channel([0.0, 2.0]).tolist() == [-1.0, 1.0]

    def test_random_vector_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.normal(3.0, 2.5, size=rng.integers(2, 400))
            out = standardize_channel(v)
            # oracle: recompute the moments directly
            assert abs(out.mean()) <= 1e-9
            assert abs(np.sqrt(np.mean((out - out.mean()) ** 2)) - 1.0) <= 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            standardize_channel([])
