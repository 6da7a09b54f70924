"""Full-batch Adam training with per-epoch capture.

One epoch = one backward over the whole 500-point dataset followed by one
Adam step, so runs are deterministic and "per-epoch change" means exactly
one optimizer step.  After the step the network is probed with a forward on
the same dataset to record the post-step loss and per-neuron mean
activations; captured epochs emit an EpochSnapshot to the provided sink.
That probe has the parameters and batch of the next epoch's step, so its
trace feeds the next backward: a run makes epochs + 1 forwards.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from .blas import one_thread
from .net import ArchitectureSpec, NetworkState, backward, forward, init, layer_blocks, mse
from .rng import check_integer, check_positive, check_seed
from .shapes import ShapeKind, generate

TRAIN_SAMPLE_COUNT = 500
DEFAULT_LEARNING_RATES = (0.01, 0.001, 0.0001)

# Adam's settings; the paper varies only the learning rate.  Manifests record
# them, so a run file made with other values is rejected on read.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
ADAM_JSON = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "epsilon": ADAM_EPSILON}


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss or gradient, or a captured value
    its sink cannot store; carries the epoch."""

    def __init__(self, epoch: int, reason: str):
        super().__init__(f"run aborted at epoch {epoch}: {reason}")
        self.epoch = epoch


@dataclass(frozen=True)
class RunConfig:
    shape: ShapeKind
    learning_rate: float
    epochs: int = 1000
    data_seed: int = 0
    init_seed: int = 0
    capture_every: int = 1

    def __post_init__(self):
        # each rule returns the Python number it accepted: a numpy scalar is no JSON number
        stored = {"learning_rate": check_positive(self.learning_rate, "learning_rate")}
        stored |= {n: check_seed(getattr(self, n), n) for n in ("data_seed", "init_seed")}
        stored |= {n: check_integer(getattr(self, n), n, 1) for n in ("epochs", "capture_every")}
        for name, value in stored.items():
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "shape": self.shape.value, "adam": dict(ADAM_JSON)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunConfig":
        if d["adam"] != ADAM_JSON:
            raise ValueError(f"adam settings {d['adam']!r} differ from the trainer's {ADAM_JSON!r}")
        values = {f.name: d[f.name] for f in fields(cls)}
        return cls(**{**values, "shape": ShapeKind(d["shape"])})


@dataclass(frozen=True)
class EpochSnapshot:
    """Everything captured for one epoch in one flat vector `values`: the
    post-step parameters `theta`, then the full-batch gradients `grad` that
    produced the step, then the post-step per-neuron mean activations in
    layer order.  `theta`, `grad` and `activations` are views into it,
    and per-layer views come from `layer_views` of `theta` or `grad`.
    `loss` is the post-step loss."""

    epoch: int
    loss: float
    spec: ArchitectureSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.length(self.spec),):
            raise ValueError(f"expected {self.length(self.spec)} values, got {self.values.shape}")

    @staticmethod
    def length(spec: ArchitectureSpec) -> int:
        return 2 * spec.parameter_count + spec.total_neurons

    @property
    def theta(self) -> np.ndarray:
        return self.values[: self.spec.parameter_count]

    @property
    def grad(self) -> np.ndarray:
        return self.values[self.spec.parameter_count : 2 * self.spec.parameter_count]

    @property
    def activations(self) -> list[np.ndarray]:
        start = 2 * self.spec.parameter_count
        bounds = list(itertools.accumulate(self.spec.out_dims, initial=start))
        return [self.values[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass
class OptimizerState:
    """Adam's moment estimates, flat and laid out like NetworkState.theta."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_optimizer(net: NetworkState) -> OptimizerState:
    return OptimizerState(m=np.zeros_like(net.theta), v=np.zeros_like(net.theta))


def adam_step(
    net: NetworkState,
    grad: np.ndarray,
    opt: OptimizerState,
    lr: float,
) -> None:
    """One Adam update, in place: m and v track the moments, parameters move by
    -lr * m_hat / (sqrt(v_hat) + eps) with the usual 1/(1-beta^t) bias correction.

    The update runs once over the flat vectors; Adam is elementwise, so this
    gives the same bits as a pass over each layer's arrays.  `grad` is the
    flat gradient `backward` returns, laid out like net.theta."""
    if grad.shape != net.theta.shape:
        raise ValueError("gradient shape does not match network")
    if not np.isfinite(grad).all():
        blocks = layer_blocks(grad, net.spec)
        k = next(k for k, block in enumerate(blocks) if not np.isfinite(block).all())
        raise FloatingPointError(f"non-finite gradient at layer {k}")

    opt.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    mc = 1.0 - b1**opt.t
    vc = 1.0 - b2**opt.t
    m, v = opt.m, opt.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    net.theta -= lr * (m / mc) / (np.sqrt(v / vc) + eps)


@one_thread()
def train(
    config: RunConfig,
    capture_sink: Callable[[EpochSnapshot], None] | None = None,
) -> tuple[NetworkState, float]:
    """Run the configured training and emit snapshots to the sink.

    Snapshots are taken at epoch 1, at the last epoch and at every epoch e
    with e % capture_every == 0, so delta series start at the first step and
    the file's last loss is the returned one.  Returns the final network and
    the post-step loss of the last epoch.

    One forward before the loop traces the initial network; each epoch's
    post-step probe is the forward the next epoch's backward uses, so a run
    makes epochs + 1 forwards.  The trace and the flat gradient are
    overwritten in place every epoch.  A snapshot is one new flat vector,
    filled with copies of the parameters and gradients and, per layer, the
    mean activations as one product of a ones vector with the activations.
    """
    pts = generate(config.shape, TRAIN_SAMPLE_COUNT, config.data_seed)
    ones = np.ones(len(pts))
    net = init(ArchitectureSpec(), config.init_seed)
    opt = init_optimizer(net)

    grad = None
    loss = float("nan")
    epoch = 1
    try:
        trace = forward(net, pts)
        for epoch in range(1, config.epochs + 1):
            grad = backward(net, pts, trace, out=grad)
            adam_step(net, grad, opt, config.learning_rate)
            trace = forward(net, pts, out=trace)
            loss = mse(pts, trace.output)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, f"loss is {loss}")
            captured = epoch in (1, config.epochs) or epoch % config.capture_every == 0
            if capture_sink is not None and captured:
                snap = EpochSnapshot(epoch, loss, net.spec, np.empty(EpochSnapshot.length(net.spec)))
                snap.theta[...] = net.theta
                snap.grad[...] = grad
                for post, means in zip(trace.post, snap.activations):
                    np.matmul(ones, post, out=means)
                    means /= len(pts)
                capture_sink(snap)
    except FloatingPointError as exc:
        raise TrainingDivergedError(epoch, str(exc)) from exc
    return net, loss
