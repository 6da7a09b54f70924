import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluctlab.train as train_module
from fluctlab.blas import one_thread
from fluctlab.net import (
    ArchitectureSpec,
    NetworkState,
    NumericOverflowError,
    backward,
    forward,
    init,
    layer_views,
    mse,
)
from fluctlab.shapes import ShapeKind, generate
from fluctlab.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    EpochSnapshot,
    RunConfig,
    TrainingDivergedError,
    adam_step,
    channel_views,
    init_optimizer,
    train,
)

TINY = ArchitectureSpec(encoder_dims=(2, 4, 3, 1), decoder_dims=(1, 3, 4, 2))


def unit_gradients(net, value=1.0):
    return np.full(net.theta.shape, value)


def weights_of(net):
    return [block[:, :-1] for block in net.blocks]


def adam_delta_oracle(steps, lr=0.001, b1=0.9, b2=0.999, eps=1e-8, g=1.0):
    """Closed-form per-step parameter changes under a constant gradient."""
    m = v = 0.0
    deltas = []
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        deltas.append(lr * m_hat / (math.sqrt(v_hat) + eps))
    return deltas


class TestParams:
    def test_adam_defaults(self):
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01).to_json_dict()
        assert cfg["adam"] == {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}
        assert RunConfig.from_json_dict(cfg) == RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01)

    def test_adam_validation(self):
        # Adam's settings are fixed: a manifest that records others is rejected
        for key, value in (("beta1", 1.0), ("beta2", 0.0), ("epsilon", 0.0), ("beta1", 0.95)):
            cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01).to_json_dict()
            cfg["adam"][key] = value
            with pytest.raises(ValueError, match="adam settings"):
                RunConfig.from_json_dict(cfg)
        cfg["adam"] = {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8, "amsgrad": True}
        with pytest.raises(ValueError, match="adam settings"):
            RunConfig.from_json_dict(cfg)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1e-8])
    def test_adam_rejects_bad_epsilon(self, epsilon):
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01).to_json_dict()
        cfg["adam"]["epsilon"] = epsilon
        with pytest.raises(ValueError, match="epsilon"):
            RunConfig.from_json_dict(cfg)

    @pytest.mark.parametrize(
        "lr", [float("nan"), float("inf"), float("-inf"), -0.01, True, "0.01", None]
    )
    def test_run_config_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            RunConfig(shape=ShapeKind.CIRCLE, learning_rate=lr)

    @pytest.mark.parametrize("name", ["data_seed", "init_seed"])
    def test_run_config_seeds_are_u64(self, name):
        for seed in (0, 2**64 - 1):
            RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, **{name: seed})
        for seed in (-1, 2**64, 1.5, 2.0, True):
            with pytest.raises(ValueError, match=name):
                RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, **{name: seed})

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.0)
        with pytest.raises(ValueError):
            RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=0)
        with pytest.raises(ValueError):
            RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, capture_every=0)

    @pytest.mark.parametrize("name", ["epochs", "capture_every"])
    def test_run_config_counts_are_integers(self, name):
        RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, **{name: np.int64(3)})
        for value in (2.5, True):  # a JSON true is no count
            with pytest.raises(ValueError, match=name):
                RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, **{name: value})


def per_layer_adam_step(weights, biases, grads, spec, m, v, t, lr):
    """Reference: Adam as a loop over each layer's arrays, in place.  m and v
    hold the weight moments of every layer, then the bias moments."""
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    mc = 1.0 - b1**t
    vc = 1.0 - b2**t
    weight_grads, bias_grads = layer_views(grads, spec)
    for p, g, mk, vk in zip(weights + biases, weight_grads + bias_grads, m, v):
        mk *= b1
        mk += (1.0 - b1) * g
        vk *= b2
        vk += (1.0 - b2) * g * g
        p -= lr * (mk / mc) / (np.sqrt(vk / vc) + eps)


def layer_order(per_layer, layers):
    """Flat vector of row-major blocks [W_k | b_k] from weight-then-bias lists."""
    return np.concatenate(
        [np.column_stack([per_layer[k], per_layer[layers + k]]).ravel() for k in range(layers)]
    )


class TestAdamStep:
    def test_zero_gradient_is_noop(self):
        net = init(TINY, 1)
        before = [w.copy() for w in weights_of(net)]
        opt = init_optimizer(net)
        adam_step(net, unit_gradients(net, 0.0), opt, 0.01)
        assert opt.t == 1
        for b, weights in zip(before, weights_of(net)):
            assert np.abs(weights - b).max() <= 1e-15

    def test_first_step_magnitude(self):
        # fresh state, unit gradient: the bias-corrected step is lr/(1+eps)
        net = init(TINY, 2)
        before = [w.copy() for w in weights_of(net)]
        opt = init_optimizer(net)
        lr = 0.001
        adam_step(net, unit_gradients(net), opt, lr)
        (expected,) = adam_delta_oracle(1, lr=lr)
        assert abs(expected - 0.000999999990) < 1e-12
        for b, weights in zip(before, weights_of(net)):
            assert np.abs((b - weights) - expected).max() <= 1e-15

    def test_second_step_stays_near_lr(self):
        net = init(TINY, 3)
        opt = init_optimizer(net)
        lr = 0.001
        snapshots = [[w.copy() for w in weights_of(net)]]
        for _ in range(2):
            adam_step(net, unit_gradients(net), opt, lr)
            snapshots.append([w.copy() for w in weights_of(net)])
        deltas = adam_delta_oracle(2, lr=lr)
        step2 = snapshots[1][0][0, 0] - snapshots[2][0][0, 0]
        assert abs(step2 - deltas[1]) <= 1e-15
        assert 0.0009 < step2 <= 0.001

    def test_moment_invariants(self):
        net = init(TINY, 4)
        opt = init_optimizer(net)
        rng = np.random.default_rng(0)
        grads = np.zeros_like(net.theta)
        for t in range(1, 6):
            grads[:] = rng.normal(size=grads.shape)
            adam_step(net, grads, opt, 0.01)
            assert opt.t == t
            assert np.all(opt.v >= 0.0)  # every weight and bias moment

    @pytest.mark.parametrize("lr", [0.01, 0.0001])
    def test_flat_step_matches_per_layer_oracle(self, lr):
        net = init(ArchitectureSpec(), 40)
        weights, biases = layer_views(net.theta, net.spec)
        oracle = [w.copy() for w in weights] + [b.copy() for b in biases]
        m = [np.zeros_like(a) for a in oracle]
        v = [np.zeros_like(a) for a in oracle]
        opt = init_optimizer(net)
        grads = np.zeros_like(net.theta)
        rng = np.random.default_rng(41)
        n = grads.size
        layers = len(net.blocks)
        for t in range(1, 2001):
            # magnitudes from 1e-9 to 10, so eps matters for some entries
            grads[:] = rng.normal(size=n) * 10.0 ** rng.uniform(-9, 1, size=n)
            adam_step(net, grads, opt, lr)
            per_layer_adam_step(oracle[:layers], oracle[layers:], grads, net.spec, m, v, t, lr)
        assert opt.t == 2000
        assert net.theta.tobytes() == layer_order(oracle, layers).tobytes()
        assert opt.m.tobytes() == layer_order(m, layers).tobytes()
        assert opt.v.tobytes() == layer_order(v, layers).tobytes()

    def test_nonfinite_gradient_names_first_bad_layer(self):
        net = init(ArchitectureSpec(), 11)
        grads = unit_gradients(net)
        weight_grads, bias_grads = layer_views(grads, net.spec)
        bias_grads[3][0] = np.nan
        weight_grads[5][1, 0] = np.inf
        opt = init_optimizer(net)
        before = net.theta.copy()
        with pytest.raises(FloatingPointError, match="layer 3"):
            adam_step(net, grads, opt, 0.01)
        assert opt.t == 0
        assert np.array_equal(net.theta, before)

    def test_rebound_and_copied_theta_step_like_an_untouched_twin(self):
        """adam_step moves the network's current theta: a network whose theta
        was rebound to a copy, and a deepcopy, train bit for bit like the
        network they came from, and the old vector stays where it was."""
        twin = init(TINY, 12)
        rebound = init(TINY, 12)
        old = rebound.theta
        rebound.theta = old.copy()
        copied = copy.deepcopy(twin)
        assert not np.shares_memory(copied.theta, twin.theta)
        nets = (twin, rebound, copied)
        opts = [init_optimizer(n) for n in nets]
        pts = np.random.default_rng(12).uniform(-1, 1, size=(20, 2))
        for _ in range(3):
            for n, opt in zip(nets, opts):
                adam_step(n, backward(n, pts, forward(n, pts)), opt, 0.01)
            for n in (rebound, copied):
                assert n.theta.tobytes() == twin.theta.tobytes()
                assert [b.tobytes() for b in n.blocks] == [b.tobytes() for b in twin.blocks]
        assert old.tobytes() == init(TINY, 12).theta.tobytes()
        assert twin.theta.tobytes() != old.tobytes()

    def test_nonfinite_gradient_rejected(self):
        net = init(TINY, 5)
        grads = unit_gradients(net)
        layer_views(grads, net.spec)[0][0][0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            adam_step(net, grads, init_optimizer(net), 0.01)

    def test_shape_mismatch_rejected(self):
        net = init(TINY, 6)
        other = init(ArchitectureSpec(), 6)
        with pytest.raises(ValueError):
            adam_step(net, unit_gradients(other), init_optimizer(net), 0.01)


def mean_activations(net, pts):
    """Per-layer mean activations as capture computes them: one product of a
    ones vector with the activations, divided by the point count."""
    return [np.ones(len(pts)) @ p / len(pts) for p in forward(net, pts).post]


def snapshot_network(snap):
    net = NetworkState(snap.spec)
    net.theta[...] = snap.theta
    return net


class TestProbe:
    def test_zero_network_probes_zero(self):
        net = NetworkState(TINY)
        means = mean_activations(net, generate(ShapeKind.CIRCLE, 50, 1))
        assert all(np.all(m == 0.0) for m in means)

    def test_single_point_equals_trace(self):
        net = init(TINY, 7)
        pts = np.array([[0.25, -0.5]])
        means = mean_activations(net, pts)
        trace = forward(net, pts)
        for m, p in zip(means, trace.post):
            assert np.array_equal(m, p[0])

    def test_duplication_invariance(self):
        net = init(TINY, 8)
        pts = np.random.default_rng(8).uniform(-1, 1, size=(20, 2))
        doubled = np.repeat(pts, 2, axis=0)
        for a, b in zip(mean_activations(net, pts), mean_activations(net, doubled)):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_snapshot_means_match_fresh_forward(self):
        got = []
        cfg = RunConfig(shape=ShapeKind.HEXAGON, learning_rate=0.01, epochs=6, data_seed=4)
        train(cfg, got.append)
        pts = generate(ShapeKind.HEXAGON, 500, 4)
        for snap in got:
            net = snapshot_network(snap)
            with one_thread():  # as train() runs, so the bits match on every kernel
                means = zip(snap.activations, mean_activations(net, pts), forward(net, pts).post)
            for a, b, p in means:
                assert np.array_equal(a, b)
                assert np.allclose(a, p.mean(axis=0), rtol=1e-12, atol=1e-15)


class TestTrain:
    def test_single_epoch_single_snapshot(self):
        got = []
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=1, data_seed=1)
        train(cfg, got.append)
        assert [s.epoch for s in got] == [1]

    def test_capture_policy_includes_first_epoch(self):
        got = []
        cfg = RunConfig(
            shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=10, capture_every=3
        )
        train(cfg, got.append)
        assert [s.epoch for s in got] == [1, 3, 6, 9, 10]

    def test_every_epoch_captured(self):
        got = []
        cfg = RunConfig(shape=ShapeKind.SQUARE, learning_rate=0.01, epochs=25)
        train(cfg, got.append)
        assert [s.epoch for s in got] == list(range(1, 26))

    def test_determinism(self):
        cfg = RunConfig(
            shape=ShapeKind.SPIRAL, learning_rate=0.01, epochs=20, data_seed=3, init_seed=4
        )
        net1, loss1 = train(cfg, None)
        net2, loss2 = train(cfg, None)
        assert loss1 == loss2
        for a, b in zip(net1.blocks, net2.blocks):
            assert np.array_equal(a[:, :-1], b[:, :-1])
            assert np.array_equal(a[:, -1], b[:, -1])

    def test_loss_decreases(self):
        cfg = RunConfig(
            shape=ShapeKind.SPIRAL, learning_rate=0.01, epochs=120, data_seed=1, init_seed=101
        )
        pts = generate(ShapeKind.SPIRAL, 500, 1)
        initial = mse(pts, forward(init(ArchitectureSpec(), 101), pts).output)
        _, final = train(cfg, None)
        assert final < initial

    def test_snapshot_loss_matches_snapshot_parameters(self):
        # stored loss is the post-step loss of the stored network state
        got = []
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=5, data_seed=2)
        train(cfg, got.append)
        pts = generate(ShapeKind.CIRCLE, 500, 2)
        snap = got[-1]
        net = snapshot_network(snap)
        replay = mse(pts, forward(net, pts).output)
        assert abs(replay - snap.loss) <= 1e-15

    def test_divergence_aborts_with_epoch(self):
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=1e30, epochs=50, data_seed=1)
        with pytest.raises(TrainingDivergedError) as err:
            train(cfg, None)
        assert err.value.epoch == 1
        assert "loss is inf" in str(err.value)

    def test_overflow_in_the_probe_forward_names_epoch_and_cause(self):
        """At lr 1e60 the first step's weights overflow the post-step forward
        pass, before any loss is computed."""
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=1e60, epochs=50, data_seed=1)
        with pytest.raises(TrainingDivergedError) as err:
            train(cfg, None)
        assert err.value.epoch == 1
        assert isinstance(err.value.__cause__, NumericOverflowError)
        assert str(err.value) == f"run aborted at epoch 1: {err.value.__cause__}"

    def test_divergence_before_first_step_names_epoch_one(self, monkeypatch):
        def overflowing_init(spec, seed):
            net = init(spec, seed)
            net.blocks[0][:, :-1] = np.inf
            return net

        monkeypatch.setattr(train_module, "init", overflowing_init)
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=5)
        with pytest.raises(TrainingDivergedError) as err:
            train(cfg, None)
        assert err.value.epoch == 1
        assert "layer 0" in str(err.value)

    def test_sink_floating_point_error_names_its_epoch(self):
        def sink(snapshot):
            if snapshot.epoch == 3:
                raise FloatingPointError("a captured value does not fit float32")

        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=6)
        with pytest.raises(TrainingDivergedError) as err:
            train(cfg, sink)
        assert err.value.epoch == 3
        assert str(err.value) == "run aborted at epoch 3: a captured value does not fit float32"

    def test_backward_floating_point_error_names_its_epoch(self, monkeypatch):
        calls = []

        def failing_backward(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise FloatingPointError("backward failed")
            return backward(*args, **kwargs)

        monkeypatch.setattr(train_module, "backward", failing_backward)
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=6)
        with pytest.raises(TrainingDivergedError) as err:
            train(cfg, None)
        assert err.value.epoch == 4
        assert str(err.value) == "run aborted at epoch 4: backward failed"

    def test_one_forward_per_epoch_plus_one(self, monkeypatch):
        calls = []

        def counting_forward(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(train_module, "forward", counting_forward)
        cfg = RunConfig(shape=ShapeKind.SQUARE, learning_rate=0.01, epochs=7, capture_every=3)
        train(cfg, None)
        assert len(calls) == cfg.epochs + 1

    def test_carried_trace_matches_two_forward_reference(self):
        # reference: the two-forward epoch, with fresh buffers on every call
        cfg = RunConfig(
            shape=ShapeKind.SPIRAL, learning_rate=0.01, epochs=30, data_seed=2, init_seed=102
        )
        got = []
        train(cfg, got.append)
        pts = generate(ShapeKind.SPIRAL, 500, cfg.data_seed)
        net = init(ArchitectureSpec(), cfg.init_seed)
        opt = init_optimizer(net)
        assert [s.epoch for s in got] == list(range(1, cfg.epochs + 1))
        for snap in got:
            with one_thread():  # as train() runs, so the bits match on every kernel
                grads = backward(net, pts, forward(net, pts))
                adam_step(net, grads, opt, cfg.learning_rate)
                probe = forward(net, pts)
                means = [np.ones(len(pts)) @ p / len(pts) for p in probe.post]
            assert snap.loss == mse(pts, probe.output)
            expected = (
                *layer_views(net.theta, net.spec),
                *layer_views(grads, net.spec),
                means,
            )
            actual = (
                *layer_views(snap.theta, snap.spec),
                *layer_views(snap.grad, snap.spec),
                snap.activations,
            )
            for want, have in zip(expected, actual):
                assert len(want) == len(have) == len(net.blocks)
                assert all(np.array_equal(w, h) for w, h in zip(want, have))

    def test_snapshots_hold_their_own_copies(self):
        got = []
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=3, data_seed=3)
        net, _ = train(cfg, got.append)
        first, last = got[0], got[-1]
        first_weights, last_weights = (layer_views(s.theta, s.spec)[0] for s in (first, last))
        assert not np.array_equal(first_weights[0], last_weights[0])
        assert np.array_equal(last.theta, net.theta)
        assert not np.shares_memory(first.values, last.values)
        for snap in got:
            assert not np.shares_memory(snap.values, net.theta)
            views = [snap.theta, snap.grad, *snap.activations]
            assert all(a.base is snap.values for a in views)

    def test_snapshot_refuses_values_of_another_length(self):
        size = EpochSnapshot.length(TINY)
        with pytest.raises(ValueError, match=rf"expected {size} values, got \({size + 1},\)"):
            EpochSnapshot(1, 0.5, TINY, np.zeros(size + 1))

    def test_snapshot_fields_cannot_be_rebound(self):
        # a rebound array would not be the values the writer stores
        snap = EpochSnapshot(1, 0.5, TINY, np.zeros(EpochSnapshot.length(TINY)))
        for name, value in (("values", np.ones(snap.values.size)), ("theta", [])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(snap, name, value)

    def test_sink_failure_propagates(self):
        def sink(_snapshot):
            raise OSError("disk full")

        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=3)
        with pytest.raises(OSError):
            train(cfg, sink)


class TestChannelViews:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_views_partition_a_snapshot_vector_and_a_stack(self, data):
        """On an architecture of 1-3 layers per half and widths 1-5: each
        position of a snapshot vector lies in exactly one view, at the place
        the [W_k | b_k] blocks and the mean activations put it; the views of a
        (T, length) stack are the stacked views of its rows; and the
        snapshot's theta, grad and activations are the same positions."""
        widths = st.integers(1, 5)
        encoder = data.draw(st.lists(widths, min_size=2, max_size=4), label="encoder")
        decoder = encoder[-1:] + data.draw(st.lists(widths, min_size=1, max_size=3), label="decoder")
        arch = ArchitectureSpec(tuple(encoder), tuple(decoder))
        length, p = EpochSnapshot.length(arch), arch.parameter_count
        snap = EpochSnapshot(1, 0.5, arch, np.arange(length, dtype=np.float64))
        views = channel_views(snap.values, arch)

        # row r of layer k's block [W_k | b_k] starts at block + r * (in_dim + 1)
        expected, block, neuron = {}, 0, 2 * p
        for k, (in_dim, out_dim) in enumerate(arch.layer_shapes):
            rows = block + (in_dim + 1) * np.arange(out_dim)
            weights, biases = rows[:, None] + np.arange(in_dim), rows + in_dim
            expected[f"weights{k}"], expected[f"biases{k}"] = weights, biases
            expected[f"weight_grads{k}"], expected[f"bias_grads{k}"] = weights + p, biases + p
            expected[f"activations{k}"] = neuron + np.arange(out_dim)
            block, neuron = block + out_dim * (in_dim + 1), neuron + out_dim
        assert views.keys() == expected.keys()
        for name, view in views.items():
            assert np.array_equal(view, expected[name]), name
            assert np.shares_memory(view, snap.values)
        positions = np.sort(np.concatenate([view.ravel() for view in views.values()]))
        assert np.array_equal(positions, snap.values)

        def positions_of(*channels):
            layers = range(len(arch.layer_shapes))
            return np.sort(np.concatenate([views[f"{c}{k}"].ravel() for c in channels for k in layers]))

        assert np.array_equal(positions_of("weights", "biases"), snap.theta)
        assert np.array_equal(positions_of("weight_grads", "bias_grads"), snap.grad)
        for k, means in enumerate(snap.activations):
            assert np.array_equal(views[f"activations{k}"], means)

        # rows a frame's length apart, as in a run file's record array
        steps = data.draw(st.integers(1, 4), label="steps")
        frames = np.random.default_rng(steps).standard_normal((steps, length + 4)).astype(np.float32)
        stack = frames[:, 4:]
        for name, view in channel_views(stack, arch).items():
            assert np.shares_memory(view, frames)
            assert np.array_equal(view, np.stack([channel_views(row, arch)[name] for row in stack]))
