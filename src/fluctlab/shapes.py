"""Seeded synthesis of the eight 2D contour datasets.

Each dataset is `count` points sampled on one parametric contour:

* polygons (triangle .. octagon): the regular n-gon inscribed in the unit
  circle, first vertex at angle pi/2; samples are drawn uniformly on the
  perimeter and placed by arc-length interpolation along the edges.
* circle: (cos t, sin t), t uniform in [0, 2*pi).
* spiral: Archimedean, r(t) = t / (4*pi) for t uniform in [0, 4*pi] (two
  turns, radius growing 0 -> 1).

The sampled points are then affinely rescaled per axis into [-1, 1]^2
(`normalize_to_unit_box`).  All randomness comes from a SplitMix64 stream,
so (kind, count, seed) regenerates the dataset bit for bit.
"""

from __future__ import annotations

import enum
import math
from typing import IO

import numpy as np

from .rng import SplitMix64, check_integer


class ShapeKind(enum.Enum):
    TRIANGLE = "triangle"
    SQUARE = "square"
    PENTAGON = "pentagon"
    HEXAGON = "hexagon"
    HEPTAGON = "heptagon"
    OCTAGON = "octagon"
    CIRCLE = "circle"
    SPIRAL = "spiral"

    @property
    def vertex_count(self) -> int | None:
        """Vertex count for polygon kinds, None for circle/spiral."""
        return _POLYGON_VERTICES.get(self)

    @classmethod
    def from_name(cls, name: str) -> "ShapeKind":
        try:
            return cls(name.strip().lower())
        except (AttributeError, ValueError):  # AttributeError: not a string
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown shape {name!r}; expected one of: {valid}") from None


_POLYGON_VERTICES = {
    ShapeKind.TRIANGLE: 3,
    ShapeKind.SQUARE: 4,
    ShapeKind.PENTAGON: 5,
    ShapeKind.HEXAGON: 6,
    ShapeKind.HEPTAGON: 7,
    ShapeKind.OCTAGON: 8,
}

SPIRAL_TURNS = 2  # theta spans [0, 4*pi]


def polygon_vertices(n: int) -> np.ndarray:
    """Vertices of the regular n-gon inscribed in the unit circle.

    First vertex at angle pi/2, counter-clockwise order.  Returns (n, 2).
    """
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {n}")
    angles = math.pi / 2 + 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


def circle_point(theta: np.ndarray) -> np.ndarray:
    """Points (cos t, sin t) for the angles `theta`: shape theta.shape + (2,)."""
    return np.stack((np.cos(theta), np.sin(theta)), axis=-1)


def spiral_point(theta: np.ndarray) -> np.ndarray:
    """Archimedean spiral points: radius theta/(4*pi), so r(0)=0 and r(4*pi)=1."""
    r = theta / (2.0 * SPIRAL_TURNS * math.pi)
    return np.stack((r * np.cos(theta), r * np.sin(theta)), axis=-1)


def polygon_point(vertices: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Points at arc lengths t along the polygon boundary (t in [0, perimeter)):
    shape t.shape + (2,)."""
    n = len(vertices)
    side = float(np.linalg.norm(vertices[1] - vertices[0]))
    k = np.minimum(t // side, n - 1).astype(np.intp)
    frac = ((t - k * side) / side)[..., None]
    a, b = vertices[k], vertices[(k + 1) % n]
    return a + frac * (b - a)


def sample_contour(kind: ShapeKind, count: int, rng: SplitMix64) -> np.ndarray:
    """Raw contour samples before box normalization, from one draw: (count, 2)."""
    check_integer(count, "count", 1)
    if kind is ShapeKind.CIRCLE:
        return circle_point(rng.uniform(0.0, 2.0 * math.pi, count))
    if kind is ShapeKind.SPIRAL:
        return spiral_point(rng.uniform(0.0, 2.0 * SPIRAL_TURNS * math.pi, count))
    vertices = polygon_vertices(kind.vertex_count)
    perimeter = float(np.linalg.norm(vertices[1] - vertices[0])) * len(vertices)
    return polygon_point(vertices, rng.uniform(0.0, perimeter, count))


def normalize_to_unit_box(points: np.ndarray) -> np.ndarray:
    """Affine map per axis sending [min, max] to [-1, 1].

    A degenerate axis (max == min) maps to 0.  Endpoints land on -1 and 1
    exactly, which makes the map idempotent.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, 2) array, got shape {points.shape}")
    lo, hi = points.min(axis=0), points.max(axis=0)
    span = hi - lo
    out = (2.0 * points - (lo + hi)) / np.where(span == 0.0, 1.0, span)
    out[:, span == 0.0] = 0.0
    return out


def generate(kind: ShapeKind, count: int, seed: int) -> np.ndarray:
    """Deterministic dataset of `count` points on the contour, in [-1, 1]^2:
    a (count, 2) float64 array."""
    return normalize_to_unit_box(sample_contour(kind, count, SplitMix64(seed)))


def export_csv(points: np.ndarray, destination: IO[str]) -> int:
    """Write `x,y` header plus one `%.8f,%.8f` row per point.

    Newline endings are `\\n`; returns the number of bytes written.
    """
    written = destination.write("x,y\n")
    for x, y in points:
        written += destination.write(f"{x:.8f},{y:.8f}\n")
    return written
