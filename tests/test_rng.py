import numpy as np
import pytest

from fluctlab.rng import SplitMix64
from fluctlab.shapes import ShapeKind, generate


# Published SplitMix64 test vectors (seed -> first outputs).
KNOWN_STREAMS = {
    0: [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ],
    1234567: [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ],
}


def test_known_answer_streams():
    for seed, expected in KNOWN_STREAMS.items():
        draw = SplitMix64(seed).next_u64(len(expected))
        assert draw.dtype == np.uint64
        assert draw.tolist() == expected


def test_determinism():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert np.array_equal(a.next_u64(100), b.next_u64(100))


def test_doubles_in_unit_interval():
    rng = SplitMix64(7)
    values = rng.uniform(0.0, 1.0, 10_000)
    assert values.dtype == np.float64 and values.shape == (10_000,)
    assert np.all((0.0 <= values) & (values < 1.0))
    # crude uniformity sanity: mean near 1/2
    assert abs(values.mean() - 0.5) < 0.02


def test_uniform_range():
    rng = SplitMix64(3)
    values = rng.uniform(-2.5, 4.0, 1000)
    assert np.all((-2.5 <= values) & (values < 4.0))


def test_seed_validation():
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(1 << 64)
    SplitMix64((1 << 64) - 1).next_u64(1)


@pytest.mark.parametrize("seed", [True, False, 1.5, 1.0, "1", None])
def test_seed_that_is_not_an_integer_is_refused_at_construction(seed):
    with pytest.raises(ValueError, match="unsigned 64-bit integer"):
        SplitMix64(seed)


def test_bool_seed_does_not_alias_an_integer_seed():
    with pytest.raises(ValueError):
        generate(ShapeKind.CIRCLE, 5, True)
    assert generate(ShapeKind.CIRCLE, 5, np.uint64(1)).tobytes() == generate(ShapeKind.CIRCLE, 5, 1).tobytes()


def test_negative_count_is_refused_and_leaves_the_stream():
    rng = SplitMix64(5)
    with pytest.raises(ValueError):
        rng.next_u64(-1)
    assert np.array_equal(rng.next_u64(3), SplitMix64(5).next_u64(3))
