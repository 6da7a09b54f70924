import importlib
import math

import numpy as np
import pytest

from fluctlab.net import ArchitectureSpec, LayerState, NetworkState, backward, forward, init, mse
from fluctlab.shapes import ShapeKind, generate
from fluctlab.train import (
    AdamParams,
    RunConfig,
    TrainingDivergedError,
    adam_step,
    init_optimizer,
    train,
)

# the module, not the `train` function that fluctlab's package namespace exports
train_module = importlib.import_module("fluctlab.train")

TINY = ArchitectureSpec(encoder_dims=(2, 4, 3, 1), decoder_dims=(1, 3, 4, 2))


def unit_gradients(net, value=1.0):
    from fluctlab.net import GradientSet

    return GradientSet(
        weight_grads=[np.full_like(l.weights, value) for l in net.layers],
        bias_grads=[np.full_like(l.biases, value) for l in net.layers],
    )


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
        p = AdamParams()
        assert (p.beta1, p.beta2, p.epsilon) == (0.9, 0.999, 1e-8)

    def test_adam_validation(self):
        with pytest.raises(ValueError):
            AdamParams(beta1=1.0)
        with pytest.raises(ValueError):
            AdamParams(beta2=0.0)
        with pytest.raises(ValueError):
            AdamParams(epsilon=0.0)

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.0)
        with pytest.raises(ValueError):
            RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=0)
        with pytest.raises(ValueError):
            RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, capture_every=0)


class TestAdamStep:
    def test_zero_gradient_is_noop(self):
        net = init(TINY, 1)
        before = [l.weights.copy() for l in net.layers]
        opt = init_optimizer(net)
        adam_step(net, unit_gradients(net, 0.0), opt, 0.01, AdamParams())
        assert opt.t == 1
        for b, layer in zip(before, net.layers):
            assert np.abs(layer.weights - b).max() <= 1e-15

    def test_first_step_magnitude(self):
        # fresh state, unit gradient: the bias-corrected step is lr/(1+eps)
        net = init(TINY, 2)
        before = [l.weights.copy() for l in net.layers]
        opt = init_optimizer(net)
        lr = 0.001
        adam_step(net, unit_gradients(net), opt, lr, AdamParams())
        (expected,) = adam_delta_oracle(1, lr=lr)
        assert abs(expected - 0.000999999990) < 1e-12
        for b, layer in zip(before, net.layers):
            assert np.abs((b - layer.weights) - expected).max() <= 1e-15

    def test_second_step_stays_near_lr(self):
        net = init(TINY, 3)
        opt = init_optimizer(net)
        lr = 0.001
        snapshots = [[l.weights.copy() for l in net.layers]]
        for _ in range(2):
            adam_step(net, unit_gradients(net), opt, lr, AdamParams())
            snapshots.append([l.weights.copy() for l in net.layers])
        deltas = adam_delta_oracle(2, lr=lr)
        step2 = snapshots[1][0][0, 0] - snapshots[2][0][0, 0]
        assert abs(step2 - deltas[1]) <= 1e-15
        assert 0.0009 < step2 <= 0.001

    def test_moment_invariants(self):
        net = init(TINY, 4)
        opt = init_optimizer(net)
        rng = np.random.default_rng(0)
        from fluctlab.net import GradientSet

        for t in range(1, 6):
            grads = GradientSet(
                weight_grads=[rng.normal(size=l.weights.shape) for l in net.layers],
                bias_grads=[rng.normal(size=l.biases.shape) for l in net.layers],
            )
            adam_step(net, grads, opt, 0.01, AdamParams())
            assert opt.t == t
            assert all(np.all(v >= 0.0) for v in opt.v_weights)

    def test_nonfinite_gradient_rejected(self):
        net = init(TINY, 5)
        grads = unit_gradients(net)
        grads.weight_grads[0][0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            adam_step(net, grads, init_optimizer(net), 0.01, AdamParams())

    def test_shape_mismatch_rejected(self):
        net = init(TINY, 6)
        other = init(ArchitectureSpec(), 6)
        with pytest.raises(ValueError):
            adam_step(net, unit_gradients(other), init_optimizer(net), 0.01, AdamParams())


def mean_activations(net, pts):
    return [p.mean(axis=0) for p in forward(net, pts).post]


def snapshot_network(snap):
    return NetworkState(
        layers=[LayerState(w, b) for w, b in zip(snap.weights, snap.biases)],
        spec=ArchitectureSpec(),
    )


class TestProbe:
    def test_zero_network_probes_zero(self):
        net = NetworkState(
            layers=[LayerState(np.zeros((o, i)), np.zeros(o)) for i, o in TINY.layer_shapes],
            spec=TINY,
        )
        means = mean_activations(net, generate(ShapeKind.CIRCLE, 50, 1).points)
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
        pts = generate(ShapeKind.HEXAGON, 500, 4).points
        for snap in got:
            for a, b in zip(snap.activation_means, mean_activations(snapshot_network(snap), pts)):
                assert np.array_equal(a, b)


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
        assert [s.epoch for s in got] == [1, 3, 6, 9]

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
        for a, b in zip(net1.layers, net2.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.biases, b.biases)

    def test_loss_decreases(self):
        cfg = RunConfig(
            shape=ShapeKind.SPIRAL, learning_rate=0.01, epochs=120, data_seed=1, init_seed=101
        )
        dataset = generate(ShapeKind.SPIRAL, 500, 1)
        initial = mse(dataset.points, forward(init(ArchitectureSpec(), 101), dataset.points).output)
        _, final = train(cfg, None)
        assert final < initial

    def test_snapshot_loss_matches_snapshot_parameters(self):
        # stored loss is the post-step loss of the stored network state
        got = []
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=5, data_seed=2)
        train(cfg, got.append)
        dataset = generate(ShapeKind.CIRCLE, 500, 2)
        snap = got[-1]
        net = snapshot_network(snap)
        replay = mse(dataset.points, forward(net, dataset.points).output)
        assert abs(replay - snap.loss) <= 1e-15

    def test_divergence_aborts_with_epoch(self):
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=1e30, epochs=50, data_seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                train(cfg, None)
        assert err.value.epoch == 1
        assert "loss is inf" in str(err.value)

    def test_divergence_before_first_step_names_epoch_one(self, monkeypatch):
        def overflowing_init(spec, seed):
            net = init(spec, seed)
            net.layers[0].weights[:] = np.inf
            return net

        monkeypatch.setattr(train_module, "init", overflowing_init)
        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=5)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError) as err:
            train(cfg, None)
        assert err.value.epoch == 1
        assert "layer 0" in str(err.value)

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
        pts = generate(ShapeKind.SPIRAL, 500, cfg.data_seed).points
        net = init(ArchitectureSpec(), cfg.init_seed)
        opt = init_optimizer(net)
        assert [s.epoch for s in got] == list(range(1, cfg.epochs + 1))
        for snap in got:
            grads = backward(net, pts, forward(net, pts))
            adam_step(net, grads, opt, cfg.learning_rate, cfg.adam)
            probe = forward(net, pts)
            assert snap.loss == mse(pts, probe.output)
            expected = (
                [l.weights for l in net.layers],
                [l.biases for l in net.layers],
                grads.weight_grads,
                grads.bias_grads,
                [p.mean(axis=0) for p in probe.post],
            )
            actual = (
                snap.weights, snap.biases, snap.weight_grads, snap.bias_grads, snap.activation_means
            )
            for want, have in zip(expected, actual):
                assert len(want) == len(have) == len(net.layers)
                assert all(np.array_equal(w, h) for w, h in zip(want, have))

    def test_sink_failure_propagates(self):
        def sink(_snapshot):
            raise OSError("disk full")

        cfg = RunConfig(shape=ShapeKind.CIRCLE, learning_rate=0.01, epochs=3)
        with pytest.raises(OSError):
            train(cfg, sink)
