"""The array draws of SplitMix64, the contour samplers and `init`, checked
bit for bit against a scalar reference: the stream drawn one value at a time
and each point and weight placed by its own Python step, as a port to another
language would write it."""

import math

import numpy as np
import pytest

from conftest import TINY_ARCH

from fluctlab.net import ArchitectureSpec, init, layer_blocks
from fluctlab.rng import SplitMix64
from fluctlab.shapes import SPIRAL_TURNS, ShapeKind, generate, normalize_to_unit_box, polygon_vertices

MASK64 = (1 << 64) - 1
SEEDS = (0, 1, MASK64)


class ScalarSplitMix64:
    """README's SplitMix64 steps, one output per call."""

    def __init__(self, seed):
        self.state = seed

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self, low, high):
        return low + (high - low) * ((self.next_u64() >> 11) * 2.0**-53)


def reference_point(kind, rng):
    """One contour sample from one draw, with math's cos, sin and floor division."""
    if kind is ShapeKind.CIRCLE:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return (math.cos(theta), math.sin(theta))
    if kind is ShapeKind.SPIRAL:
        theta = rng.uniform(0.0, 2.0 * SPIRAL_TURNS * math.pi)
        r = theta / (2.0 * SPIRAL_TURNS * math.pi)
        return (r * math.cos(theta), r * math.sin(theta))
    vertices = polygon_vertices(kind.vertex_count)
    n = len(vertices)
    side = float(np.linalg.norm(vertices[1] - vertices[0]))
    t = rng.uniform(0.0, side * n)
    k = min(int(t // side), n - 1)
    frac = (t - k * side) / side
    a, b = vertices[k], vertices[(k + 1) % n]
    return (a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1]))


def reference_generate(kind, count, seed):
    rng = ScalarSplitMix64(seed)
    points = np.array([reference_point(kind, rng) for _ in range(count)], dtype=np.float64)
    return normalize_to_unit_box(points)


def reference_init(spec, seed):
    """Weights uniform in +-sqrt(1/in_dim), layer by layer, each weight matrix
    row-major; biases zero and drawing nothing."""
    rng = ScalarSplitMix64(seed)
    theta = np.zeros(spec.parameter_count)
    for block, (in_dim, out_dim) in zip(layer_blocks(theta, spec), spec.layer_shapes):
        bound = (1.0 / in_dim) ** 0.5
        for r in range(out_dim):
            for c in range(in_dim):
                block[r, c] = rng.uniform(-bound, bound)
    return theta


@pytest.mark.parametrize("seed", SEEDS + (1234567,))
def test_next_u64_is_the_scalar_stream(seed):
    ref = ScalarSplitMix64(seed)
    assert SplitMix64(seed).next_u64(300).tolist() == [ref.next_u64() for _ in range(300)]


@pytest.mark.parametrize("kind", list(ShapeKind), ids=lambda k: k.value)
def test_generate_equals_the_scalar_reference(kind):
    for seed in SEEDS:
        for count in (1, 2, 500):
            got = generate(kind, count, seed)
            want = reference_generate(kind, count, seed)
            assert got.shape == want.shape == (count, 2)
            assert got.tobytes() == want.tobytes(), (seed, count)


@pytest.mark.parametrize("spec", [ArchitectureSpec(), TINY_ARCH], ids=["default", "tiny"])
def test_init_equals_the_scalar_reference(spec):
    for seed in SEEDS + (101,):
        assert init(spec, seed).theta.tobytes() == reference_init(spec, seed).tobytes(), seed


@pytest.mark.parametrize("a, b", [(0, 5), (1, 1), (3, 7), (250, 250), (7, 0)])
def test_split_draw_equals_one_draw(a, b):
    for seed in SEEDS:
        split = SplitMix64(seed)
        first, second = split.uniform(-0.5, 2.0, a), split.uniform(-0.5, 2.0, b)
        whole = SplitMix64(seed)
        joined = whole.uniform(-0.5, 2.0, a + b)
        assert np.concatenate([first, second]).tobytes() == joined.tobytes()
        # both streams stand at the same place afterwards
        assert np.array_equal(split.next_u64(4), whole.next_u64(4))
        ref = ScalarSplitMix64(seed)
        assert np.array([ref.uniform(-0.5, 2.0) for _ in range(a + b)]).tobytes() == joined.tobytes()
