"""Dense feed-forward autoencoder with hand-written forward and backward passes.

The network is a fixed chain of linear layers: an encoder half followed by a
decoder half, ReLU after every layer except the last layer of each half.
The default geometry is 2-64-32-1 (encoder) and 1-32-64-2 (decoder).  All
arithmetic is float64.  All parameters live in one flat vector of per-layer
blocks [W_k | b_k] (see `layer_blocks`), and so do their gradients; per-layer
views are derived from a flat vector where they are used, never stored.
Every layer's input ends in a column of ones, so each layer is one product
with its block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blas import one_thread
from .rng import SplitMix64, is_integer

ENCODER_DIMS = (2, 64, 32, 1)
DECODER_DIMS = (1, 32, 64, 2)
# Batch rows per block of the gradient sums g.T @ a_prev.  The thread guard on
# every OpenBLAS kernel is the one-thread pin on forward and backward
# (`blas.one_thread`): unpinned, OpenBLAS splits large products across its
# threads, and under some kernels that changes the order of the sums and so
# the bits.  The blocks are a speed choice: at one thread, 125-row blocks
# added in a fixed order are faster than one 500-row product.
GRADIENT_BLOCK_ROWS = 125


class NumericOverflowError(FloatingPointError):
    """A forward pass produced a non-finite value; carries the layer index."""

    def __init__(self, layer: int):
        super().__init__(f"non-finite values in layer {layer}")
        self.layer = layer


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer sizes of the encoder and decoder halves.  The derived sizes are
    cached on first read; they are not fields, so equality, hashing, repr and
    JSON see only the two dims tuples."""

    encoder_dims: tuple[int, ...] = ENCODER_DIMS
    decoder_dims: tuple[int, ...] = DECODER_DIMS

    def __post_init__(self):
        for name in ("encoder_dims", "decoder_dims"):
            dims = getattr(self, name)
            # checked before int(d), which takes 64.9, "64" or true as a size
            if not isinstance(dims, (tuple, list)) or not all(map(is_integer, dims)):
                raise ValueError(f"{name} must be a list of integers, got {dims!r}")
            object.__setattr__(self, name, tuple(int(d) for d in dims))
        if len(self.encoder_dims) < 2 or len(self.decoder_dims) < 2:
            raise ValueError("each half needs at least one layer")
        if any(d < 1 for d in self.encoder_dims + self.decoder_dims):
            raise ValueError("layer sizes must be positive")
        if self.encoder_dims[-1] != self.decoder_dims[0]:
            raise ValueError(
                f"latent size mismatch: encoder ends at {self.encoder_dims[-1]}, "
                f"decoder starts at {self.decoder_dims[0]}"
            )

    @cached_property
    def encoder_layer_count(self) -> int:
        return len(self.encoder_dims) - 1

    @cached_property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        """(in_dim, out_dim) per layer, encoder then decoder."""
        dims = list(zip(self.encoder_dims[:-1], self.encoder_dims[1:]))
        dims += list(zip(self.decoder_dims[:-1], self.decoder_dims[1:]))
        return tuple(dims)

    @cached_property
    def relu_flags(self) -> tuple[bool, ...]:
        """True where ReLU follows the linear map (all but the last layer of each half)."""
        enc, dec = self.encoder_layer_count, len(self.decoder_dims) - 1
        return tuple([True] * (enc - 1) + [False] + [True] * (dec - 1) + [False])

    @cached_property
    def parameter_count(self) -> int:
        """Length of the flat parameter vector: every weight and bias."""
        return sum(out * (in_dim + 1) for in_dim, out in self.layer_shapes)

    @cached_property
    def out_dims(self) -> tuple[int, ...]:
        return tuple(out for _, out in self.layer_shapes)

    @cached_property
    def total_neurons(self) -> int:
        return sum(self.out_dims)

    @cached_property
    def encoder_neurons(self) -> int:
        return sum(self.out_dims[: self.encoder_layer_count])

    def to_json_dict(self) -> dict:
        return {"encoder_dims": list(self.encoder_dims), "decoder_dims": list(self.decoder_dims)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ArchitectureSpec":
        return cls(d["encoder_dims"], d["decoder_dims"])


def layer_blocks(flat: np.ndarray, spec: ArchitectureSpec) -> list[np.ndarray]:
    """The layout of a flat parameter vector: per layer, in layer order, one
    row-major (out_dim, in_dim + 1) block [W_k | b_k], returned as views.
    Leading axes of flat, as in a stack of vectors, lead every block."""
    if flat.shape[-1:] != (spec.parameter_count,):
        raise ValueError(f"expected {spec.parameter_count} flat values, got shape {flat.shape}")
    blocks, start = [], 0
    for in_dim, out_dim in spec.layer_shapes:
        stop = start + out_dim * (in_dim + 1)
        blocks.append(flat[..., start:stop].reshape(flat.shape[:-1] + (out_dim, in_dim + 1)))
        start = stop
    return blocks


def layer_views(flat: np.ndarray, spec: ArchitectureSpec) -> tuple[list, list]:
    """Per-layer weight (out_dim, in_dim) and bias (out_dim,) views into a flat
    vector: W_k = block[..., :-1] and b_k = block[..., -1] of `layer_blocks`."""
    blocks = layer_blocks(flat, spec)
    return [b[..., :-1] for b in blocks], [b[..., -1] for b in blocks]


class NetworkState:
    """All parameters in one flat float64 vector `theta` (see `layer_blocks`).
    `blocks` is derived from `theta` on each read, so it always views the
    current vector, also after a copy or after `theta` is rebound."""

    def __init__(self, spec: ArchitectureSpec):
        self.spec = spec
        self.theta = np.zeros(spec.parameter_count, dtype=np.float64)

    @property
    def blocks(self) -> list[np.ndarray]:
        return layer_blocks(self.theta, self.spec)


@dataclass
class ForwardTrace:
    spec: ArchitectureSpec
    buffers: list[np.ndarray]  # layer k's input, (n, in_dim + 1); the last column is ones
    post: list[np.ndarray]  # per-layer post-activations, (n, out_dim) views of buffers[1:]
    # Backward's scratch per layer: the loss gradient of its output, (n, out_dim), and
    # its row-block products.  Allocated per call, these 66-256 KB temporaries made
    # glibc trim and regrow its heap, about 150 page faults per epoch.
    row_grads: list[np.ndarray]
    parts: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.post[-1]


def init(spec: ArchitectureSpec, seed: int) -> NetworkState:
    """Seeded initial state: weights uniform in +-sqrt(1/in_dim), biases zero.

    Draw order is frozen for reproducibility: layers first to last, each
    weight matrix row-major; biases consume no draws.
    """
    rng = SplitMix64(seed)
    net = NetworkState(spec)
    for block, (in_dim, out_dim) in zip(net.blocks, spec.layer_shapes):
        bound = (1.0 / in_dim) ** 0.5
        block[:, :-1] = rng.uniform(-bound, bound, out_dim * in_dim).reshape(out_dim, in_dim)
    return net


@one_thread()
@np.errstate(over="raise", invalid="raise")
def forward(net: NetworkState, inputs, out: ForwardTrace | None = None) -> ForwardTrace:
    """Run the full encoder/decoder chain; the trace keeps every activation.

    `inputs` is (n, in_dim), in_dim the first layer's width: (n, 2) for the
    default geometry.  Raises NumericOverflowError naming the first layer
    whose parameters are not finite (an inf operand raises no flag), else
    the first whose product overflows; numpy reads only the calling thread's
    flags, hence one BLAS thread.  A trace `out` of the same geometry and
    batch size is overwritten and returned; otherwise a new trace is allocated.
    """
    spec, x = net.spec, np.asarray(inputs, dtype=np.float64)
    in_dim = spec.layer_shapes[0][0]
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ValueError(f"expected inputs of shape (n, {in_dim}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("inputs must be finite")
    if not np.isfinite(net.theta).all():
        raise NumericOverflowError(next(k for k, b in enumerate(net.blocks) if not np.isfinite(b).all()))
    n = len(x)
    if out is None or out.spec != spec or len(out.buffers[0]) != n:
        buffers = [np.ones((n, width + 1)) for width in (in_dim, *spec.out_dims)]
        row_grads = [np.empty((n, out_dim)) for out_dim in spec.out_dims]
        parts = [np.empty((n // GRADIENT_BLOCK_ROWS, o, i + 1)) for i, o in spec.layer_shapes]
        out = ForwardTrace(spec, buffers, [b[:, :-1] for b in buffers[1:]], row_grads, parts)
    buffers = out.buffers
    buffers[0][:, :-1] = x
    for k, (block, relu) in enumerate(zip(net.blocks, spec.relu_flags)):
        try:
            np.matmul(buffers[k], block.T, out=out.post[k])
        except FloatingPointError as exc:
            raise NumericOverflowError(k) from exc
        if relu:
            np.maximum(buffers[k + 1], 0.0, out=buffers[k + 1])
    return out


@np.errstate(over="ignore")  # an overflow gives inf, which train()'s loss check reports
def mse(targets, outputs) -> float:
    """Mean of squared differences over every scalar component (2n terms)."""
    t = np.asarray(targets, dtype=np.float64)
    o = np.asarray(outputs, dtype=np.float64)
    if t.shape != o.shape or t.size == 0:
        raise ValueError(f"targets {t.shape} and outputs {o.shape} must match and be non-empty")
    return float(np.mean((t - o) ** 2))


@one_thread()
def backward(
    net: NetworkState, targets, trace: ForwardTrace, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact gradient of the batch-mean MSE for every weight and bias, as one
    flat float64 vector laid out like `net.theta`.

    The trace must come from `forward` on the same network and batch.
    ReLU's subgradient at 0 is taken as 0.  An `out` of theta's shape and
    dtype float64 is overwritten and returned; otherwise a new vector is
    allocated and `out` is left untouched.  One product gives each layer's
    weight and bias gradients, written into its block of the flat gradient.
    """
    t = np.asarray(targets, dtype=np.float64)
    if trace.spec != net.spec or t.shape != trace.output.shape:
        raise ValueError(f"targets {t.shape} or the trace do not match the network")
    if out is None or out.shape != net.theta.shape or out.dtype != np.float64:
        out = np.zeros_like(net.theta)

    blocks, grad_blocks = net.blocks, layer_blocks(out, net.spec)
    relu = net.spec.relu_flags
    full = len(t) - len(t) % GRADIENT_BLOCK_ROWS
    # d(mean over all t.size components)/d(output)
    np.subtract(trace.output, t, out=trace.row_grads[-1])
    trace.row_grads[-1] *= 2.0 / t.size
    for k in range(len(blocks) - 1, -1, -1):
        g, a_prev = trace.row_grads[k], trace.buffers[k]
        if relu[k]:
            g *= trace.post[k] > 0.0
        # [dW_k | db_k] = g.T @ a_prev: the full row blocks as one batched
        # product summed in block order, then the remainder rows
        g_rows = g[:full].reshape(-1, GRADIENT_BLOCK_ROWS, g.shape[1]).transpose(0, 2, 1)
        a_rows = a_prev[:full].reshape(-1, GRADIENT_BLOCK_ROWS, a_prev.shape[1])
        np.add.reduce(np.matmul(g_rows, a_rows, out=trace.parts[k]), axis=0, out=grad_blocks[k])
        if full < len(t):
            grad_blocks[k] += g[full:].T @ a_prev[full:]
        if k > 0:
            w = blocks[k][:, :-1]
            # an outer product through a 1-wide layer: the same bits without BLAS
            (np.multiply if w.shape[0] == 1 else np.matmul)(g, w, out=trace.row_grads[k - 1])
    return out
