"""Dense feed-forward autoencoder with hand-written forward and backward passes.

The network is a fixed chain of linear layers: an encoder half followed by a
decoder half, ReLU after every layer except the last layer of each half.
The default geometry is 2-64-32-1 (encoder) and 1-32-64-2 (decoder).  All
arithmetic is float64.  The parameters of all layers live in one flat vector,
and the per-layer weight and bias arrays are views into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64

ENCODER_DIMS = (2, 64, 32, 1)
DECODER_DIMS = (1, 32, 64, 2)
# Batch rows per block of the weight-gradient sums g.T @ a_prev.  OpenBLAS
# splits a product over all 500 rows across its threads, which changes the
# order of the sums and so the bits with the thread count.  Each 125-row
# block stays below its threading threshold, and the blocks are added in a
# fixed order, so training gives the same bits at any thread count.
GRADIENT_BLOCK_ROWS = 125


class NumericOverflowError(FloatingPointError):
    """A forward pass produced a non-finite value; carries the layer index."""

    def __init__(self, layer: int):
        super().__init__(f"non-finite values in layer {layer}")
        self.layer = layer


@dataclass(frozen=True)
class ArchitectureSpec:
    encoder_dims: tuple[int, ...] = ENCODER_DIMS
    decoder_dims: tuple[int, ...] = DECODER_DIMS

    def __post_init__(self):
        object.__setattr__(self, "encoder_dims", tuple(int(d) for d in self.encoder_dims))
        object.__setattr__(self, "decoder_dims", tuple(int(d) for d in self.decoder_dims))
        if len(self.encoder_dims) < 2 or len(self.decoder_dims) < 2:
            raise ValueError("each half needs at least one layer")
        if any(d < 1 for d in self.encoder_dims + self.decoder_dims):
            raise ValueError("layer sizes must be positive")
        if self.encoder_dims[-1] != self.decoder_dims[0]:
            raise ValueError(
                f"latent size mismatch: encoder ends at {self.encoder_dims[-1]}, "
                f"decoder starts at {self.decoder_dims[0]}"
            )

    @property
    def encoder_layer_count(self) -> int:
        return len(self.encoder_dims) - 1

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        """(in_dim, out_dim) per layer, encoder then decoder."""
        dims = list(zip(self.encoder_dims[:-1], self.encoder_dims[1:]))
        dims += list(zip(self.decoder_dims[:-1], self.decoder_dims[1:]))
        return tuple(dims)

    @property
    def relu_flags(self) -> tuple[bool, ...]:
        """True where ReLU follows the linear map (all but the last layer of each half)."""
        enc = len(self.encoder_dims) - 1
        dec = len(self.decoder_dims) - 1
        return tuple([True] * (enc - 1) + [False] + [True] * (dec - 1) + [False])

    @property
    def parameter_count(self) -> int:
        """Length of the flat parameter vector: every weight and bias."""
        return sum(out * (in_dim + 1) for in_dim, out in self.layer_shapes)

    @property
    def out_dims(self) -> tuple[int, ...]:
        return tuple(out for _, out in self.layer_shapes)

    @property
    def total_neurons(self) -> int:
        return sum(self.out_dims)

    @property
    def encoder_neurons(self) -> int:
        return sum(self.out_dims[: self.encoder_layer_count])

    @property
    def decoder_neurons(self) -> int:
        return sum(self.out_dims[self.encoder_layer_count :])

    def to_json_dict(self) -> dict:
        return {"encoder_dims": list(self.encoder_dims), "decoder_dims": list(self.decoder_dims)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ArchitectureSpec":
        return cls(tuple(d["encoder_dims"]), tuple(d["decoder_dims"]))


def layer_views(
    flat: np.ndarray, spec: ArchitectureSpec
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight (out_dim, in_dim) and bias (out_dim,) views into a flat
    vector laid out in layer order: W_0 row-major, b_0, W_1, b_1, ..."""
    if flat.shape != (spec.parameter_count,):
        raise ValueError(f"expected {spec.parameter_count} flat values, got shape {flat.shape}")
    weights, biases = [], []
    start = 0
    for in_dim, out_dim in spec.layer_shapes:
        stop = start + out_dim * in_dim
        weights.append(flat[start:stop].reshape(out_dim, in_dim))
        biases.append(flat[stop : stop + out_dim])
        start = stop + out_dim
    return weights, biases


@dataclass(frozen=True)
class LayerState:
    weights: np.ndarray  # (out_dim, in_dim), a view into NetworkState.theta
    biases: np.ndarray  # (out_dim,), a view into NetworkState.theta


class NetworkState:
    """All parameters in one flat float64 vector `theta` (see `layer_views`);
    `layers[k]` holds views into it, so an edit through either is seen by both."""

    def __init__(self, spec: ArchitectureSpec):
        self.spec = spec
        self.theta = np.zeros(spec.parameter_count, dtype=np.float64)
        self.layers = [LayerState(w, b) for w, b in zip(*layer_views(self.theta, spec))]

    def __deepcopy__(self, memo) -> "NetworkState":
        # a member-wise copy would give each layer its own array, detached from theta
        copy = NetworkState(self.spec)
        copy.theta[...] = self.theta
        return copy


@dataclass
class ForwardTrace:
    inputs: np.ndarray  # (n, in_dim)
    pre: list[np.ndarray]  # per-layer pre-activations, (n, out_dim)
    post: list[np.ndarray]  # per-layer post-activations, (n, out_dim)
    latent_index: int

    @property
    def latent(self) -> np.ndarray:
        return self.post[self.latent_index]

    @property
    def output(self) -> np.ndarray:
        return self.post[-1]


class GradientSet:
    """Gradients in one flat vector `grad`, laid out like NetworkState.theta
    and zero until written; `weight_grads[k]` and `bias_grads[k]` are views
    into it."""

    def __init__(self, spec: ArchitectureSpec):
        self.grad = np.zeros(spec.parameter_count, dtype=np.float64)
        self.weight_grads, self.bias_grads = layer_views(self.grad, spec)


def init(spec: ArchitectureSpec, seed: int) -> NetworkState:
    """Seeded initial state: weights uniform in +-sqrt(1/in_dim), biases zero.

    Draw order is frozen for reproducibility: layers first to last, each
    weight matrix row-major; biases consume no draws.
    """
    rng = SplitMix64(seed)
    net = NetworkState(spec)
    for layer, (in_dim, out_dim) in zip(net.layers, spec.layer_shapes):
        bound = (1.0 / in_dim) ** 0.5
        w = layer.weights
        for r in range(out_dim):
            for c in range(in_dim):
                w[r, c] = rng.uniform(-bound, bound)
    return net


def _as_batch(inputs, in_dim: int) -> np.ndarray:
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != in_dim:
        raise ValueError(f"expected inputs of shape (n, {in_dim}), got {arr.shape}")
    return arr


def _empty_trace(spec: ArchitectureSpec, x: np.ndarray) -> ForwardTrace:
    pre, post = [], []
    for out_dim, relu in zip(spec.out_dims, spec.relu_flags):
        z = np.empty((len(x), out_dim), dtype=np.float64)
        pre.append(z)
        post.append(np.empty_like(z) if relu else z)
    return ForwardTrace(inputs=x, pre=pre, post=post, latent_index=spec.encoder_layer_count - 1)


def forward(net: NetworkState, inputs, out: ForwardTrace | None = None) -> ForwardTrace:
    """Run the full encoder/decoder chain; the trace keeps every intermediate.

    `inputs` is (n, 2) (a single (2,) point is promoted to a 1-row batch).
    Raises NumericOverflowError naming the first layer that produces a
    non-finite value.  When `out` is a trace of the same batch size from a
    network of the same geometry, its arrays are overwritten and `out` is
    returned; otherwise a new trace is allocated.
    """
    x = _as_batch(inputs, net.spec.layer_shapes[0][0])
    if not np.isfinite(x).all():
        raise ValueError("inputs must be finite")
    # widths and latent layer fix where ReLU follows, so where post aliases pre
    shapes = [(len(x), d) for d in net.spec.out_dims]
    latent = net.spec.encoder_layer_count - 1
    if out is None or out.latent_index != latent or [z.shape for z in out.pre] != shapes:
        out = _empty_trace(net.spec, x)
    out.inputs = x
    relu = net.spec.relu_flags
    a = x
    for k, layer in enumerate(net.layers):
        z = np.matmul(a, layer.weights.T, out=out.pre[k])
        z += layer.biases
        if not np.isfinite(z).all():
            raise NumericOverflowError(k)
        a = np.maximum(z, 0.0, out=out.post[k]) if relu[k] else z
    return out


def mse(targets, outputs) -> float:
    """Mean of squared differences over every scalar component (2n terms)."""
    t = np.asarray(targets, dtype=np.float64)
    o = np.asarray(outputs, dtype=np.float64)
    if t.shape != o.shape or t.size == 0:
        raise ValueError(f"targets {t.shape} and outputs {o.shape} must match and be non-empty")
    return float(np.mean((t - o) ** 2))


def backward(
    net: NetworkState, targets, trace: ForwardTrace, out: GradientSet | None = None
) -> GradientSet:
    """Exact gradient of the batch-mean MSE for every weight and bias.

    The trace must come from `forward` on the same network and batch.
    ReLU's subgradient at 0 is taken as 0.  When `out` holds arrays of the
    network's parameter shapes, they are overwritten and `out` is returned;
    otherwise a new gradient set is allocated.  The products and sums write
    straight into the per-layer views of the flat gradient.
    """
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t.reshape(1, -1)
    n_layers = len(net.layers)
    if len(trace.pre) != n_layers or len(trace.post) != n_layers:
        raise ValueError("trace depth does not match network")
    if t.shape != trace.post[-1].shape:
        raise ValueError(f"targets {t.shape} do not match trace output {trace.post[-1].shape}")
    for k, layer in enumerate(net.layers):
        if trace.pre[k].shape[1] != layer.weights.shape[0]:
            raise ValueError(f"trace layer {k} width does not match network")
    shapes = [l.weights.shape for l in net.layers] + [l.biases.shape for l in net.layers]
    if out is None or [g.shape for g in out.weight_grads + out.bias_grads] != shapes:
        out = GradientSet(net.spec)

    relu = net.spec.relu_flags
    # d(mean over all t.size components)/d(output)
    g = (trace.post[-1] - t) * (2.0 / t.size)
    for k in range(n_layers - 1, -1, -1):
        if relu[k]:
            g *= trace.pre[k] > 0.0
        a_prev = trace.inputs if k == 0 else trace.post[k - 1]
        wg, rows = out.weight_grads[k], GRADIENT_BLOCK_ROWS
        np.matmul(g[:rows].T, a_prev[:rows], out=wg)
        for start in range(rows, len(g), rows):
            wg += g[start : start + rows].T @ a_prev[start : start + rows]
        g.sum(axis=0, out=out.bias_grads[k])
        if k > 0:
            g = g @ net.layers[k].weights
    return out
