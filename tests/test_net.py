import copy
import dataclasses
import hashlib
import math
import os
import pickle
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import needs_openblas

import fluctlab
from fluctlab import blas
from fluctlab.blas import corename
from fluctlab.net import (
    GRADIENT_BLOCK_ROWS,
    ArchitectureSpec,
    NetworkState,
    NumericOverflowError,
    backward,
    forward,
    init,
    layer_blocks,
    layer_views,
    mse,
)

GRADCHECK_ARCH = ArchitectureSpec(encoder_dims=(2, 4, 3, 1), decoder_dims=(1, 3, 4, 2))


def forced_kernels():
    """OpenBLAS kernels this host can be made to run with OPENBLAS_CORETYPE,
    each with the names OpenBLAS reports for it: Prescott on any x86-64 CPU
    (OpenBLAS names it Katmai), Haswell where the CPU has AVX2.  A kernel the
    CPU cannot execute would crash the process."""
    if corename() is None or platform.machine().lower() not in ("x86_64", "amd64"):
        return {}
    kernels = {"Prescott": ("Prescott", "Katmai")}
    try:
        flags = Path("/proc/cpuinfo").read_text()
    except OSError:
        flags = ""
    if re.search(r"\bavx2\b", flags):
        kernels["Haswell"] = ("Haswell",)
    return kernels


FORCED_KERNELS = forced_kernels()


def subprocess_pythonpath():
    paths = [str(Path(fluctlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return os.pathsep.join(filter(None, paths))


def blas_thread_digests(tmp_path, thread_counts, coretype=None):
    """sha256 of a 40-epoch spiral run file trained in a fresh process at each
    BLAS thread count, optionally under a forced OpenBLAS kernel."""
    digests = {}
    for threads in thread_counts:
        env = {
            **os.environ,
            "PYTHONPATH": subprocess_pythonpath(),
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
        }
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / f"threads{threads}.nfl"
        argv = ["train", "--shape", "spiral", "--lr", "0.01", "--epochs", "40",
                "--data-seed", "1", "--init-seed", "101", "--out", str(out)]
        cmd = [sys.executable, "-m", "fluctlab.cli", *argv]
        subprocess.run(cmd, check=True, capture_output=True, env=env, timeout=300)
        digests[threads] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


# prints the loaded OpenBLAS kernel and the sha256 of one backward on a spiral
# network whose parameters are perturbed off their seeded start
BACKWARD_DIGEST = """
import hashlib
import numpy as np
from fluctlab.blas import corename
from fluctlab.net import ArchitectureSpec, backward, forward, init
from fluctlab.shapes import ShapeKind, generate
points = generate(ShapeKind.SPIRAL, 500, 1)
net = init(ArchitectureSpec(), 101)
net.theta += np.random.default_rng(5).uniform(-0.1, 0.1, net.theta.shape)
print(corename(), hashlib.sha256(backward(net, points, forward(net, points)).tobytes()).hexdigest())
"""


def zero_net(arch):
    return NetworkState(arch)


class TestArchitecture:
    def test_default_layer_shapes(self):
        arch = ArchitectureSpec()
        assert arch.layer_shapes == ((2, 64), (64, 32), (32, 1), (1, 32), (32, 64), (64, 2))
        assert arch.relu_flags == (True, True, False, True, True, False)

    def test_neuron_counts(self):
        arch = ArchitectureSpec()
        assert arch.total_neurons == 195
        assert arch.encoder_neurons == 97
        assert arch.total_neurons - arch.encoder_neurons == 98

    def test_spec_with_derived_sizes_read_behaves_like_a_fresh_one(self):
        derived = (
            "encoder_layer_count",
            "layer_shapes",
            "relu_flags",
            "parameter_count",
            "out_dims",
            "total_neurons",
            "encoder_neurons",
        )
        used = ArchitectureSpec()
        sizes = [getattr(used, name) for name in derived]
        fresh = ArchitectureSpec()
        other = ArchitectureSpec(encoder_dims=(2, 8, 1), decoder_dims=(1, 8, 2))
        assert [getattr(other, name) for name in derived] != sizes
        assert used != other and hash(used) != hash(other)
        assert used.to_json_dict() == fresh.to_json_dict()
        for same in (used, pickle.loads(pickle.dumps(used)), copy.deepcopy(used)):
            assert same == fresh and hash(same) == hash(fresh) and repr(same) == repr(fresh)
            assert same.to_json_dict() == fresh.to_json_dict()
            assert [getattr(same, name) for name in derived] == sizes
        for name in ("encoder_dims", "parameter_count"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(used, name, (2, 8, 1))
        assert used.encoder_dims == (2, 64, 32, 1) and used.parameter_count == 4611

    def test_latent_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(encoder_dims=(2, 8, 1), decoder_dims=(2, 8, 2))


class TestInit:
    def test_first_layer_shape(self):
        net = init(ArchitectureSpec(), 1)
        assert net.blocks[0][:, :-1].shape == (64, 2)

    def test_biases_zero(self):
        net = init(ArchitectureSpec(), 1)
        assert all(np.all(b[:, -1] == 0.0) for b in net.blocks)

    def test_bounds(self):
        net = init(ArchitectureSpec(), 5)
        for block, (in_dim, _) in zip(net.blocks, net.spec.layer_shapes):
            assert np.abs(block[:, :-1]).max() <= math.sqrt(1.0 / in_dim)

    def test_determinism(self):
        a = init(ArchitectureSpec(), 77)
        b = init(ArchitectureSpec(), 77)
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba[:, :-1], bb[:, :-1])

    def test_seeds_differ(self):
        a = init(ArchitectureSpec(), 1)
        b = init(ArchitectureSpec(), 2)
        assert not np.array_equal(a.blocks[0][:, :-1], b.blocks[0][:, :-1])


class TestForward:
    def test_zero_network_maps_to_zero(self):
        net = zero_net(ArchitectureSpec())
        trace = forward(net, np.array([[0.3, -0.8]]))
        assert np.all(trace.output == 0.0)
        assert np.all(trace.post[net.spec.encoder_layer_count - 1] == 0.0)

    def test_unit_path_routes_first_component(self):
        # weights zero except a chain of 1.0 through neuron 0 of every layer;
        # a positive first component must pass through unchanged
        net = zero_net(ArchitectureSpec())
        for block in net.blocks:
            block[0, 0] = 1.0
        trace = forward(net, np.array([[0.7, -0.3]]))
        # oracle: explicit matrix arithmetic, layer by layer
        arch = net.spec
        v = np.array([0.7, -0.3])
        for k, block in enumerate(net.blocks):
            v = block[:, :-1] @ v + block[:, -1]
            if arch.relu_flags[k]:
                v = np.maximum(v, 0.0)
        assert np.allclose(trace.output[0], v)
        assert trace.output[0].tolist() == [0.7, 0.0]

    def test_negative_component_clipped_by_relu(self):
        net = zero_net(ArchitectureSpec())
        for block in net.blocks:
            block[0, 0] = 1.0
        trace = forward(net, np.array([[-0.5, 0.2]]))
        assert trace.output[0].tolist() == [0.0, 0.0]

    def test_relu_layers_nonnegative(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            net = init(GRADCHECK_ARCH, trial)
            trace = forward(net, rng.uniform(-1, 1, size=(4, 2)))
            for k, is_relu in enumerate(net.spec.relu_flags):
                if is_relu:
                    assert np.all(trace.post[k] >= 0.0)

    def test_purity(self):
        net = init(ArchitectureSpec(), 3)
        x = np.array([[0.1, 0.9], [-0.4, 0.2]])
        t1 = forward(net, x)
        t2 = forward(net, x)
        assert np.array_equal(t1.output, t2.output)
        assert all(np.array_equal(a, b) for a, b in zip(t1.buffers, t2.buffers))

    def test_overflow_names_layer(self):
        net = init(ArchitectureSpec(), 3)
        net.blocks[2][0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericOverflowError) as err:
            forward(net, np.array([[0.5, 0.5]]))
        assert err.value.layer == 2
        assert "layer 2" in str(err.value)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_parameter_not_finite_on_entry_names_its_layer(self, value):
        """No product flags a nan operand, and a -inf bias in a ReLU layer
        becomes 0 without a flag: only the entry check sees either."""
        net = init(ArchitectureSpec(), 3)
        net.blocks[2][0, -1] = value
        with pytest.raises(NumericOverflowError) as err:
            forward(net, np.array([[0.5, 0.5]]))
        assert err.value.layer == 2

    @needs_openblas
    def test_overflow_in_the_last_rows_names_its_layer_at_two_threads(self, two_threads):
        """Only the last five rows overflow, in layer 1's product.  At two
        OpenBLAS threads those rows can fall to the second thread, whose
        overflow flag numpy never reads, and layer 2 would be named for the
        nan that the inf rows make there; forward runs on one thread."""
        net = init(ArchitectureSpec(), 3)
        net.blocks[1][:, :-1] = 1e306
        x = np.zeros((500, 2))
        x[-5:] = 1e3
        with np.errstate(all="ignore"), pytest.raises(NumericOverflowError) as err:
            forward(net, x)
        assert err.value.layer == 1

    @needs_openblas
    def test_leaves_the_callers_error_state_and_thread_count(self, two_threads):
        get_threads = blas._openblas()[1]
        net = init(ArchitectureSpec(), 3)
        x = np.full((500, 2), 1e3)
        with np.errstate(over="warn", invalid="ignore", divide="raise", under="ignore"):
            caller = np.geterr()
            forward(net, x)
            assert (np.geterr(), get_threads()) == (caller, two_threads)
            net.blocks[1][:, :-1] = 1e306
            with pytest.raises(NumericOverflowError):
                forward(net, x)
            assert (np.geterr(), get_threads()) == (caller, two_threads)

    def test_matches_per_layer_oracle(self):
        rng = np.random.default_rng(7)
        for arch in (GRADCHECK_ARCH, ArchitectureSpec()):
            net = init(arch, 7)
            for biases in layer_views(net.theta, arch)[1]:
                biases[:] = rng.uniform(-0.5, 0.5, size=biases.shape)
            batch = rng.uniform(-1, 1, size=(37, 2))
            trace = forward(net, batch)
            a = batch
            for k, (w, b) in enumerate(zip(*layer_weights_and_biases(net))):
                a = a @ w.T + b
                if arch.relu_flags[k]:
                    a = np.maximum(a, 0.0)
                assert trace.post[k].shape == (37, arch.out_dims[k])
                np.testing.assert_allclose(trace.post[k], a, rtol=1e-12, atol=1e-300)

    def test_ones_columns_stay_exactly_one(self):
        net = init(ArchitectureSpec(), 8)
        rng = np.random.default_rng(8)
        first, second = rng.uniform(-1, 1, size=(2, 20, 2))
        trace = forward(net, first)
        assert all(np.all(b[:, -1] == 1.0) for b in trace.buffers)
        assert forward(net, second, out=trace) is trace
        assert all(np.all(b[:, -1] == 1.0) for b in trace.buffers)
        net.blocks[3][:, :-1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericOverflowError):
            forward(net, second, out=trace)
        assert all(np.all(b[:, -1] == 1.0) for b in trace.buffers)

    def test_post_keeps_layer_shapes(self):
        arch = ArchitectureSpec()
        trace = forward(init(arch, 9), np.zeros((11, 2)))
        assert [p.shape for p in trace.post] == [(11, d) for d in arch.out_dims]
        assert trace.post[arch.encoder_layer_count - 1].shape == (11, 1)
        assert trace.output.shape == (11, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_are_refused(self, bad):
        net = init(ArchitectureSpec(), 9)
        with pytest.raises(ValueError, match="inputs must be finite"):
            forward(net, np.array([[0.5, 0.5], [bad, 0.1]]))

    def test_single_point_is_refused(self):
        """A (2,) point is not a batch: a (1, 2) array is."""
        net = init(ArchitectureSpec(), 9)
        with pytest.raises(ValueError, match=r"shape \(n, 2\), got \(2,\)"):
            forward(net, np.zeros(2))


class TestMse:
    def test_identity_is_zero(self):
        pts = np.random.default_rng(1).uniform(-1, 1, size=(20, 2))
        assert mse(pts, pts) == 0.0

    def test_unit_example(self):
        assert mse([(0.0, 0.0)], [(1.0, 1.0)]) == 1.0

    def test_matches_component_loop_oracle(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(-1, 1, size=(10, 2))
        o = rng.uniform(-1, 1, size=(10, 2))
        total = 0.0
        count = 0
        for i in range(10):
            for c in range(2):
                total += (t[i, c] - o[i, c]) ** 2
                count += 1
        assert abs(mse(t, o) - total / count) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            mse(np.zeros((0, 2)), np.zeros((0, 2)))


def gradcheck_case(seed=13, n_points=10):
    """Net and batch in generic position: positive random biases keep every
    pre-activation far from the ReLU kink, where subgradient and central
    differences legitimately disagree."""
    net = init(GRADCHECK_ARCH, seed)
    rng = np.random.default_rng(seed)
    for biases in layer_views(net.theta, net.spec)[1]:
        biases[:] = rng.uniform(0.05, 0.25, size=biases.shape)
    batch = rng.uniform(-1, 1, size=(n_points, 2))
    trace = forward(net, batch)
    inputs = [batch, *trace.post[:-1]]
    margin = min(np.abs(a @ b[:, :-1].T + b[:, -1]).min() for a, b in zip(inputs, net.blocks))
    assert margin > 1e-3  # >> h, so no kink crossings in the FD stencil
    return net, batch


def finite_difference_grads(net, batch, h=1e-5):
    """Oracle: central differences of the batch loss for every parameter."""

    def loss_at(n):
        return mse(batch, forward(n, batch).output)

    w_grads, b_grads = [], []
    for k in range(len(net.blocks)):
        # the weight columns [W_k] and the bias column b_k of block k
        for cols, sink in ((np.s_[:, :-1], w_grads), (np.s_[:, -1], b_grads)):
            param = net.blocks[k][cols]
            g = np.zeros_like(param)
            for idx in np.ndindex(param.shape):
                probe = copy.deepcopy(net)
                probe.blocks[k][cols][idx] += h
                up = loss_at(probe)
                probe.blocks[k][cols][idx] -= 2 * h
                down = loss_at(probe)
                g[idx] = (up - down) / (2 * h)
            sink.append(g)
    return w_grads, b_grads


class TestBackward:
    def test_zero_at_minimum(self):
        net = init(GRADCHECK_ARCH, 4)
        batch = np.random.default_rng(4).uniform(-1, 1, size=(6, 2))
        trace = forward(net, batch)
        weight_grads, bias_grads = layer_views(backward(net, trace.output.copy(), trace), net.spec)
        assert all(np.all(g == 0.0) for g in weight_grads)
        assert all(np.all(g == 0.0) for g in bias_grads)

    def test_matches_finite_differences(self):
        net, batch = gradcheck_case()
        trace = forward(net, batch)
        grads = backward(net, batch, trace)
        fd_w, fd_b = finite_difference_grads(net, batch)
        worst = 0.0
        for a, n in zip(weights_then_biases(grads, net.spec), fd_w + fd_b):
            rel = np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-6)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_duplication_invariance(self):
        net = init(GRADCHECK_ARCH, 9)
        batch = np.random.default_rng(9).uniform(-1, 1, size=(5, 2))
        doubled = np.repeat(batch, 2, axis=0)
        g1 = backward(net, batch, forward(net, batch))
        g2 = backward(net, doubled, forward(net, doubled))
        for a, b in zip(layer_views(g1, net.spec)[0], layer_views(g2, net.spec)[0]):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_duplication_invariance_across_gradient_blocks(self):
        """60 and 62 copies of 5 points make 300 and 310 rows: two full blocks
        and 50 or 60 remainder rows."""
        assert 2 * GRADIENT_BLOCK_ROWS < 5 * 60 < 5 * 62 < 3 * GRADIENT_BLOCK_ROWS
        net = init(GRADCHECK_ARCH, 9)
        rng = np.random.default_rng(9)
        batch = rng.uniform(-1, 1, size=(5, 2))
        for biases in layer_views(net.theta, net.spec)[1]:
            biases[:] = rng.uniform(-0.2, 0.2, size=biases.shape)
        g1 = backward(net, batch, forward(net, batch))
        for copies in (60, 62):
            repeated = np.repeat(batch, copies, axis=0)
            g2 = backward(net, repeated, forward(net, repeated))
            pairs = zip(weights_then_biases(g1, net.spec), weights_then_biases(g2, net.spec))
            for a, b in pairs:
                assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_run_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """A spiral run trained at 1, 2 and 4 BLAS threads is one file, byte for
        byte, under the host's own OpenBLAS kernel."""
        digests = blas_thread_digests(tmp_path, ("1", "2", "4"))
        assert len(set(digests.values())) == 1, digests

    @pytest.mark.parametrize("kernel", FORCED_KERNELS)
    def test_run_bytes_do_not_depend_on_blas_threads_under_forced_kernel(self, tmp_path, kernel):
        """Under these kernels OpenBLAS threads the forward products too, and
        unpinned the files differ at 1 and 2 threads; training runs on one."""
        env = {**os.environ, "PYTHONPATH": subprocess_pythonpath(), "OPENBLAS_CORETYPE": kernel}
        probe = [sys.executable, "-c", "from fluctlab.blas import corename; print(corename())"]
        loaded = subprocess.run(probe, check=True, capture_output=True, text=True, env=env, timeout=60)
        assert loaded.stdout.strip() in FORCED_KERNELS[kernel]
        digests = blas_thread_digests(tmp_path, ("1", "2"), coretype=kernel)
        assert len(set(digests.values())) == 1, digests

    @pytest.mark.parametrize("kernel", FORCED_KERNELS)
    def test_backward_bytes_do_not_depend_on_blas_threads_under_forced_kernel(self, kernel):
        """backward called directly, outside train(), gives the same gradient
        bytes at 1 and 2 BLAS threads under kernels that thread its products."""
        printed = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": subprocess_pythonpath(), "OPENBLAS_CORETYPE": kernel}
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
            cmd = [sys.executable, "-c", BACKWARD_DIGEST]
            done = subprocess.run(cmd, check=True, capture_output=True, text=True, env=env, timeout=60)
            loaded, printed[threads] = done.stdout.split()
            assert loaded in FORCED_KERNELS[kernel]
        assert printed["1"] == printed["2"], printed

    def test_trace_mismatch_rejected(self):
        net = init(GRADCHECK_ARCH, 1)
        other = init(ArchitectureSpec(), 1)
        batch = np.zeros((3, 2))
        trace = forward(other, batch)
        with pytest.raises(ValueError):
            backward(net, batch, trace)

    def test_single_target_is_refused(self):
        """(2,) targets do not match the trace of a (1, 2) batch."""
        net = init(ArchitectureSpec(), 1)
        trace = forward(net, np.zeros((1, 2)))
        with pytest.raises(ValueError, match=r"targets \(2,\)"):
            backward(net, np.zeros(2), trace)

    def test_shape_congruence(self):
        for arch in (GRADCHECK_ARCH, ArchitectureSpec()):
            net = init(arch, 2)
            batch = np.random.default_rng(2).uniform(-1, 1, size=(4, 2))
            grads = backward(net, batch, forward(net, batch))
            assert grads.shape == net.theta.shape and grads.dtype == np.float64
            weights, biases = layer_views(net.theta, arch)
            weight_grads, bias_grads = layer_views(grads, arch)
            for k in range(len(net.blocks)):
                assert weight_grads[k].shape == weights[k].shape
                assert bias_grads[k].shape == biases[k].shape


class TestOutBuffers:
    def test_reused_trace_equals_fresh_and_keeps_arrays(self):
        net = init(ArchitectureSpec(), 21)
        rng = np.random.default_rng(21)
        first, second = rng.uniform(-1, 1, size=(2, 50, 2))
        trace = forward(net, first)

        def arrays(t):
            return [*t.buffers, *t.post, *t.row_grads, *t.parts]

        kept = arrays(trace)
        backward(net, first, trace)
        got = forward(net, second, out=trace)
        fresh = forward(net, second)
        assert got is trace
        assert all(a is b for a, b in zip(kept, arrays(got)))
        for a, b in zip(got.buffers, fresh.buffers):
            assert np.array_equal(a, b)
        assert np.array_equal(got.buffers[0][:, :-1], second)

    def test_reused_gradients_equal_fresh_and_keep_arrays(self):
        net = init(ArchitectureSpec(), 22)
        rng = np.random.default_rng(22)
        first, second = rng.uniform(-1, 1, size=(2, 50, 2))
        grads = backward(net, first, forward(net, first))
        got = backward(net, second, forward(net, second), out=grads)
        fresh = backward(net, second, forward(net, second))
        assert got is grads
        pairs = zip(weights_then_biases(got, net.spec), weights_then_biases(fresh, net.spec))
        for a, b in pairs:
            assert np.array_equal(a, b)

    def test_backward_keeps_activations_and_repeats_exactly(self):
        net = init(ArchitectureSpec(), 26)
        batch = np.random.default_rng(26).uniform(-1, 1, size=(300, 2))
        trace = forward(net, batch)
        saved = [b.copy() for b in trace.buffers]
        first = backward(net, batch, trace).copy()
        assert backward(net, batch, trace).tobytes() == first.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(saved, trace.buffers))

    def test_other_batch_size_gets_new_trace(self):
        net = init(ArchitectureSpec(), 23)
        rng = np.random.default_rng(23)
        small = forward(net, rng.uniform(-1, 1, size=(5, 2)))
        saved = [a.copy() for a in small.buffers]
        batch = rng.uniform(-1, 1, size=(8, 2))
        got = forward(net, batch, out=small)
        assert got is not small
        assert got.output.shape == (8, 2)
        assert np.array_equal(got.output, forward(net, batch).output)
        for before, after in zip(saved, small.buffers):
            assert np.array_equal(before, after)

    def test_other_geometry_gets_new_buffers(self):
        net = init(GRADCHECK_ARCH, 24)
        other = init(ArchitectureSpec(), 24)
        batch = np.random.default_rng(24).uniform(-1, 1, size=(4, 2))
        trace = forward(other, batch)
        assert forward(net, batch, out=trace) is not trace
        grads = backward(other, batch, trace)
        own = forward(net, batch)
        got = backward(net, batch, own, out=grads)
        assert got is not grads
        fresh = backward(net, batch, own)
        for a, b in zip(layer_views(got, net.spec)[0], layer_views(fresh, net.spec)[0]):
            assert np.array_equal(a, b)

    def test_other_relu_layout_gets_new_trace(self):
        # equal layer widths, but ReLU follows layer 1 in one and not the other
        net = init(ArchitectureSpec(encoder_dims=(2, 3, 1), decoder_dims=(1, 3, 2)), 25)
        other = init(ArchitectureSpec(encoder_dims=(2, 3, 1, 3), decoder_dims=(3, 2)), 25)
        assert net.spec.out_dims == other.spec.out_dims
        assert net.spec.relu_flags != other.spec.relu_flags
        batch = np.random.default_rng(25).uniform(-1, 1, size=(6, 2))
        trace = forward(other, batch)
        got = forward(net, batch, out=trace)
        assert got is not trace
        fresh = forward(net, batch)
        for a, b in zip(got.buffers, fresh.buffers):
            assert np.array_equal(a, b)

    def test_backward_returns_out_itself(self):
        net = init(ArchitectureSpec(), 27)
        batch = np.random.default_rng(27).uniform(-1, 1, size=(260, 2))
        trace = forward(net, batch)
        out = np.full(net.theta.shape, np.nan)
        assert backward(net, batch, trace, out=out) is out
        assert out.tobytes() == backward(net, batch, trace).tobytes()

    def test_unfit_out_gets_a_new_vector_and_stays_unwritten(self):
        net = init(GRADCHECK_ARCH, 28)
        batch = np.random.default_rng(28).uniform(-1, 1, size=(9, 2))
        trace = forward(net, batch)
        fresh = backward(net, batch, trace)
        n = net.theta.size
        unfit = (
            np.full(n - 1, 7.0),
            np.full(n + 1, 7.0),
            np.full((1, n), 7.0),
            np.full(n, 7.0, dtype=np.float32),
            np.full(n, 7, dtype=np.int64),
        )
        for out in unfit:
            saved = out.copy()
            got = backward(net, batch, trace, out=out)
            assert got is not out and not np.shares_memory(got, out)
            assert got.shape == net.theta.shape and got.dtype == np.float64
            assert got.tobytes() == fresh.tobytes()
            assert out.dtype == saved.dtype and out.tobytes() == saved.tobytes()

    def test_overflow_names_layer_with_reused_trace(self):
        net = init(ArchitectureSpec(), 3)
        batch = np.array([[0.5, 0.5]])
        trace = forward(net, batch)
        net.blocks[2][0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericOverflowError) as err:
            forward(net, batch, out=trace)
        assert err.value.layer == 2


def layer_order(weights, biases):
    """Oracle for the flat layout: per layer the row-major block [W_k | b_k]."""
    return np.concatenate([np.column_stack([w, b]).ravel() for w, b in zip(weights, biases)])


def layer_weights_and_biases(net):
    weights, biases = layer_views(net.theta, net.spec)
    return [w.copy() for w in weights], [b.copy() for b in biases]


def weights_then_biases(flat, spec):
    """Every layer's weight view of a flat vector, then every bias view."""
    weights, biases = layer_views(flat, spec)
    return weights + biases


class TestFlatParameters:
    def test_parameter_count(self):
        assert ArchitectureSpec().parameter_count == 4611
        assert init(ArchitectureSpec(), 1).theta.shape == (4611,)

    def test_blocks_refuse_a_vector_of_another_length(self):
        with pytest.raises(ValueError, match=r"expected 4611 flat values, got shape \(4610,\)"):
            layer_blocks(np.zeros(4610), ArchitectureSpec())

    def test_blocks_hold_weights_then_bias(self):
        net = init(ArchitectureSpec(), 30)
        net.theta[:] = np.arange(net.theta.size)
        start = 0
        layers = zip(net.blocks, *layer_views(net.theta, net.spec), net.spec.layer_shapes)
        for block, weights, biases, (in_dim, out_dim) in layers:
            assert block.shape == (out_dim, in_dim + 1)
            assert np.array_equal(block.ravel(), np.arange(start, start + block.size))
            assert np.array_equal(weights, block[:, :-1])
            assert np.array_equal(biases, block[:, -1])
            start += block.size
        assert start == net.theta.size

    def test_init_draws_the_frozen_weight_values(self):
        """The values drawn before the bias moved into the blocks: the same
        sequence, layer by layer and row-major, at new positions in theta."""
        weights = np.concatenate([b[:, :-1].ravel() for b in init(ArchitectureSpec(), 101).blocks])
        digest = "d8bef236742eac5ec033af207c8d148f2b1b60feb516bbfa6c174bbe35bc773a"
        assert hashlib.sha256(weights.tobytes()).hexdigest() == digest
        assert weights[:2].tolist() == [0.4475154375799536, -0.6827944715297778]

    def test_layers_view_theta_after_init_deepcopy_and_packing(self):
        net = init(GRADCHECK_ARCH, 31)
        rng = np.random.default_rng(31)
        for biases in layer_views(net.theta, net.spec)[1]:
            biases[:] = rng.uniform(-1, 1, size=biases.shape)
        weights, biases = layer_weights_and_biases(net)
        copied = copy.deepcopy(net)
        packed = NetworkState(GRADCHECK_ARCH)
        packed.theta[...] = layer_order(weights, biases)
        for n in (net, copied, packed):
            for block in n.blocks:
                assert np.shares_memory(block[:, :-1], n.theta)
                assert np.shares_memory(block[:, -1], n.theta)
            assert np.array_equal(n.theta, layer_order(weights, biases))
        assert not np.shares_memory(copied.theta, net.theta)
        assert not any(np.shares_memory(packed.theta, a) for a in weights + biases)

    def test_backward_fills_views_of_one_flat_gradient(self):
        net = init(ArchitectureSpec(), 33)
        rng = np.random.default_rng(33)
        first, second = rng.uniform(-1, 1, size=(2, 40, 2))
        grads = backward(net, first, forward(net, first))
        got = backward(net, second, forward(net, second), out=grads)
        assert got is grads
        for g in weights_then_biases(got, net.spec):
            assert np.shares_memory(g, got)
        fresh = backward(net, second, forward(net, second))
        assert np.array_equal(got, layer_order(*layer_views(fresh, net.spec)))

    def test_blocks_and_forward_read_a_rebound_or_copied_theta(self):
        """After `theta` is rebound to a copy, and in a deepcopy, `blocks` views
        the network's current vector and forward gives an untouched twin's bits."""
        twin = init(GRADCHECK_ARCH, 34)
        batch = np.random.default_rng(34).uniform(-1, 1, size=(7, 2))
        rebound = init(GRADCHECK_ARCH, 34)
        old = rebound.theta
        rebound.theta = old.copy()
        copied = copy.deepcopy(twin)
        for n in (rebound, copied):
            assert all(np.shares_memory(b, n.theta) for b in n.blocks)
            assert [b.tobytes() for b in n.blocks] == [b.tobytes() for b in twin.blocks]
            assert forward(n, batch).output.tobytes() == forward(twin, batch).output.tobytes()
        assert not any(np.shares_memory(b, old) for b in rebound.blocks)
        assert not any(np.shares_memory(b, twin.theta) for b in copied.blocks)
        rebound.blocks[0][0, 0] += 1.0
        assert rebound.theta[0] == old[0] + 1.0

    def test_edit_through_theta_reaches_forward(self):
        net = init(ArchitectureSpec(), 35)
        net.theta[:] = 0.0
        net.theta[[-66, -1]] = (0.25, -0.5)  # b_5: the last column of the (2, 65) output block
        out = forward(net, np.random.default_rng(35).uniform(-1, 1, size=(3, 2))).output
        assert out.tolist() == [[0.25, -0.5]] * 3
