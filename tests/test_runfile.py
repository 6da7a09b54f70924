import io
import json
import struct

import numpy as np
import pytest

from conftest import TINY_ARCH, make_manifest, make_snapshot, write_synthetic_run
from fluctlab import runfile
from fluctlab.net import ArchitectureSpec
from fluctlab.runfile import (
    DATA_START,
    MANIFEST_REGION,
    RunCorruptionError,
    RunFormatError,
    RunWriter,
    read_run,
    standardize_channel,
    write_run,
)


def paper_arch_payload_oracle():
    """Byte count built straight from the layer dimensions: epoch + loss header
    plus f32 channels (weights, biases, weight_grads, bias_grads,
    activation_means) for each of the six layers."""
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
        manifest, acc = read_run(path)
        with acc:
            assert manifest.snapshot_count == 0
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
        assert manifest["format_version"] == 1
        assert blob[8 + length : DATA_START] == b" " * (MANIFEST_REGION - length)

    def test_frame_bytes_match_struct_oracle(self, tmp_path):
        """Each frame rebuilt by hand: u32 payload length, u32 epoch, f64 loss,
        then every channel of every layer as little-endian f32 in storage
        order.  The values are full float64, so the f32 rounding is pinned."""
        rng = np.random.default_rng(11)
        snaps = []
        for epoch, loss in ((2, 0.123456789012345), (7, 3.0e-5)):
            snap = make_snapshot(TINY_ARCH, epoch, loss, rng=rng)
            for channel in ("weights", "biases", "weight_grads", "bias_grads", "activation_means"):
                setattr(snap, channel, [rng.normal(0, 2, size=a.shape) for a in getattr(snap, channel)])
            snaps.append(snap)
        path = tmp_path / "oracle.nfl"
        write_run(make_manifest(epochs=7), snaps, path)
        expected = b""
        for snap in snaps:
            channels = b"".join(
                getattr(snap, channel)[k].astype("<f4").tobytes()
                for k in range(len(TINY_ARCH.layer_shapes))
                for channel in ("weights", "biases", "weight_grads", "bias_grads", "activation_means")
            )
            expected += struct.pack("<IId", 12 + len(channels), snap.epoch, snap.loss) + channels
        assert path.read_bytes()[DATA_START:] == expected

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
        _, acc = read_run(path)
        with acc:
            assert len(acc) == 4
            for i, snap in enumerate(written):
                got = acc.snapshot(i)
                assert got.epoch == snap.epoch
                assert got.loss == snap.loss
                for channel in ("weights", "biases", "weight_grads", "bias_grads", "activation_means"):
                    for a, b in zip(getattr(got, channel), getattr(snap, channel)):
                        assert np.array_equal(a, b)

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "man.nfl"
        write_synthetic_run(path, count=2, lr=0.0001, data_seed=9, init_seed=8)
        manifest, acc = read_run(path)
        acc.close()
        assert manifest.complete is True
        assert manifest.snapshot_count == 2
        assert manifest.config.learning_rate == 0.0001
        assert manifest.config.data_seed == 9
        assert manifest.architecture == TINY_ARCH

    def test_works_on_byte_streams(self):
        buf = io.BytesIO()
        rng = np.random.default_rng(1)
        snaps = [make_snapshot(TINY_ARCH, 1, 0.25, rng=rng)]
        write_run(make_manifest(epochs=1), snaps, buf)
        buf.seek(0)
        manifest, acc = read_run(buf)
        assert len(acc) == 1
        assert acc.snapshot(0).loss == 0.25


class TestAccess:
    def test_random_access_equals_sequential(self, tmp_path):
        path = tmp_path / "ra.nfl"
        write_synthetic_run(path, count=5)
        _, acc = read_run(path)
        with acc:
            sequential = list(acc)
            for i in (4, 0, 2, 3, 1):
                got = acc.snapshot(i)
                assert got.epoch == sequential[i].epoch
                for a, b in zip(got.weights, sequential[i].weights):
                    assert np.array_equal(a, b)

    def test_neuron_series_matches_full_load_oracle(self, tmp_path):
        path = tmp_path / "ns.nfl"
        write_synthetic_run(path, count=6, seed=3)
        _, acc = read_run(path)
        with acc:
            full = list(acc)  # naive oracle: load everything sequentially
            for layer, channel, idx in ((0, "weights", 3), (4, "weight_grads", 1)):
                series = acc.neuron_series(layer, channel, idx)
                naive = np.stack([getattr(s, channel)[layer][idx, :] for s in full])
                assert np.array_equal(series, naive)
            for layer, channel, idx in ((1, "biases", 2), (3, "activation_means", 0)):
                series = acc.neuron_series(layer, channel, idx)
                naive = np.array([getattr(s, channel)[layer][idx] for s in full])
                assert np.array_equal(series, naive)
            for idx in (-1, 4):  # layer 0 has 4 neurons
                with pytest.raises(ValueError, match="neuron index"):
                    acc.neuron_series(0, "weights", idx)

    def test_channel_series_shape(self, tmp_path):
        path = tmp_path / "cs.nfl"
        write_synthetic_run(path, count=3)
        _, acc = read_run(path)
        with acc:
            assert acc.channel_series(0, "weights").shape == (3, 4, 2)
            assert acc.channel_series(5, "bias_grads").shape == (3, 2)

    def test_losses(self, tmp_path):
        path = tmp_path / "ls.nfl"
        written = write_synthetic_run(path, count=4)
        _, acc = read_run(path)
        with acc:
            assert acc.losses().tolist() == [s.loss for s in written]

    def test_epoch_values_preserved(self, tmp_path):
        rng = np.random.default_rng(0)
        snaps = [make_snapshot(TINY_ARCH, e, 0.5, rng=rng) for e in (1, 3, 6, 9)]
        path = tmp_path / "ep.nfl"
        write_run(make_manifest(epochs=9, capture_every=3), snaps, path)
        _, acc = read_run(path)
        with acc:
            assert acc.epochs == [1, 3, 6, 9]

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "ior.nfl"
        write_synthetic_run(path, count=2)
        _, acc = read_run(path)
        with acc:
            with pytest.raises(IndexError):
                acc.snapshot(2)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nfl"
        path.write_bytes(b"ROOT" + b"\0" * 100)
        with pytest.raises(RunFormatError):
            read_run(path)

    def test_truncated_frame_names_last_snapshot(self, tmp_path):
        path = tmp_path / "trunc.nfl"
        write_synthetic_run(path, count=3)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])  # cut into the third frame
        with pytest.raises(RunCorruptionError) as err:
            read_run(path)
        assert err.value.last_valid_index == 1
        assert "1" in str(err.value)

    @pytest.mark.parametrize(
        "damage, fragment, last_valid",
        [
            ("short_header", "truncated frame header", 1),
            ("wrong_length", "frame 1 declares", 0),
            ("cut_short", "frame 2 is cut short", 1),
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
        elif damage == "repeated_epoch":
            blob[DATA_START + 2 * frame + 4 : DATA_START + 2 * frame + 8] = (2).to_bytes(4, "little")
        else:
            blob = blob[:-frame]
        path.write_bytes(bytes(blob))
        with pytest.raises(RunCorruptionError, match=fragment) as err:
            read_run(path)
        assert err.value.last_valid_index == last_valid

    @pytest.mark.parametrize("owned", [True, False])
    def test_failed_constructors_close_only_their_own_files(self, tmp_path, monkeypatch, owned):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(runfile, "open", recording_open, raising=False)
        huge = ArchitectureSpec(encoder_dims=(2,) + (3,) * 2000 + (1,), decoder_dims=(1, 3, 2))
        bad = tmp_path / "bad.nfl"
        bad.write_bytes(b"ROOT" + b"\0" * 100)
        if owned:
            with pytest.raises(RunFormatError):
                runfile.RunAccessor(bad)
            with pytest.raises(RunFormatError):
                RunWriter(tmp_path / "huge.nfl", make_manifest(arch=huge))
            assert len(opened) == 2
            assert all(f.closed for f in opened)
        else:
            with bad.open("rb") as source, open(tmp_path / "huge.nfl", "wb") as destination:
                with pytest.raises(RunFormatError):
                    runfile.RunAccessor(source)
                with pytest.raises(RunFormatError):
                    RunWriter(destination, make_manifest(arch=huge))
                assert not source.closed and not destination.closed
            assert opened == []

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

    def test_snapshot_shape_mismatch(self, tmp_path):
        writer = RunWriter(tmp_path / "mm.nfl", make_manifest())
        wrong = make_snapshot(ArchitectureSpec(), 1, 0.1, rng=np.random.default_rng(0))
        with pytest.raises(RunFormatError):
            writer.append(wrong)
        writer.finalize(complete=False)

    def test_unfinalized_writer_leaves_incomplete_flag(self, tmp_path):
        path = tmp_path / "crash.nfl"
        rng = np.random.default_rng(0)
        with RunWriter(path, make_manifest()) as writer:
            writer.append(make_snapshot(TINY_ARCH, 1, 0.5, rng=rng))
        manifest, acc = read_run(path)
        with acc:
            assert manifest.complete is False
            assert manifest.snapshot_count == 1


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
