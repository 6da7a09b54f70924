import csv
import io
import math

import numpy as np
import pytest

from fluctlab.rng import SplitMix64
from fluctlab.shapes import (
    ShapeKind,
    circle_point,
    export_csv,
    generate,
    normalize_to_unit_box,
    polygon_vertices,
    sample_contour,
    spiral_point,
)

POLYGONS = [
    (ShapeKind.TRIANGLE, 3),
    (ShapeKind.SQUARE, 4),
    (ShapeKind.PENTAGON, 5),
    (ShapeKind.HEXAGON, 6),
    (ShapeKind.HEPTAGON, 7),
    (ShapeKind.OCTAGON, 8),
]


def point_segment_distance(p, a, b):
    """Oracle: Euclidean distance from p to segment [a, b]."""
    ab = b - a
    t = np.dot(p - a, ab) / np.dot(ab, ab)
    t = min(max(t, 0.0), 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


class TestShapeKind:
    def test_exactly_eight_members(self):
        assert len(ShapeKind) == 8

    def test_polygon_vertex_counts(self):
        for kind, n in POLYGONS:
            assert kind.vertex_count == n
        assert ShapeKind.CIRCLE.vertex_count is None
        assert ShapeKind.SPIRAL.vertex_count is None

    def test_from_name(self):
        assert ShapeKind.from_name("Spiral") is ShapeKind.SPIRAL
        with pytest.raises(ValueError):
            ShapeKind.from_name("nonagon")


class TestParameterizations:
    def test_circle_at_zero_angle(self):
        assert circle_point(0.0).tolist() == [1.0, 0.0]

    def test_spiral_starts_at_origin(self):
        assert spiral_point(0.0).tolist() == [0.0, 0.0]

    def test_spiral_full_radius_at_two_turns(self):
        x, y = spiral_point(4.0 * math.pi)
        assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_polygon_needs_three_vertices(self):
        with pytest.raises(ValueError, match="polygon needs at least 3 vertices, got 2"):
            polygon_vertices(2)

    def test_polygon_first_vertex_at_top(self):
        for _, n in POLYGONS:
            v = polygon_vertices(n)
            assert v[0] == pytest.approx([0.0, 1.0], abs=1e-12)
            assert np.linalg.norm(v, axis=1) == pytest.approx(1.0, abs=1e-12)


class TestGenerate:
    def test_count_and_containment(self):
        for kind in ShapeKind:
            pts = generate(kind, 500, 42)
            assert pts.shape == (500, 2) and pts.dtype == np.float64
            assert np.all(np.abs(pts) <= 1.0)

    def test_determinism_byte_identical_exports(self):
        for kind in (ShapeKind.SPIRAL, ShapeKind.HEPTAGON):
            bufs = []
            for _ in range(2):
                buf = io.StringIO()
                export_csv(generate(kind, 200, 7), buf)
                bufs.append(buf.getvalue())
            assert bufs[0] == bufs[1]

    def test_different_seeds_differ(self):
        a = generate(ShapeKind.CIRCLE, 100, 1)
        b = generate(ShapeKind.CIRCLE, 100, 2)
        assert not np.array_equal(a, b)

    def test_invalid_count(self):
        for count in (0, -5, True, 2.0, "5"):  # a bool is no count
            with pytest.raises(ValueError, match="count must be an integer >= 1"):
                generate(ShapeKind.CIRCLE, count, 1)

    def test_numpy_count_draws_the_points_of_a_python_count(self):
        # count * _GAMMA in numpy arithmetic would overflow a C long
        expected = generate(ShapeKind.CIRCLE, 5, 0)
        for count in (np.int64(5), np.uint64(5), np.int32(5)):
            assert generate(ShapeKind.CIRCLE, count, 0).tobytes() == expected.tobytes()

    def test_polygon_membership(self):
        # raw contour samples must sit on an edge of the ideal inscribed n-gon
        for kind, n in POLYGONS:
            pts = sample_contour(kind, 300, SplitMix64(11))
            vertices = polygon_vertices(n)
            for p in pts:
                d = min(
                    point_segment_distance(p, vertices[k], vertices[(k + 1) % n])
                    for k in range(n)
                )
                assert d <= 1e-9

    def test_circle_membership_before_normalization(self):
        pts = sample_contour(ShapeKind.CIRCLE, 500, SplitMix64(5))
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-9

    def test_spiral_radius_tracks_angle(self):
        pts = sample_contour(ShapeKind.SPIRAL, 500, SplitMix64(5))
        assert np.linalg.norm(pts, axis=1).max() <= 1.0 + 1e-12

    def test_triangle_has_three_edge_directions(self):
        # oracle: order points around the centroid, cluster the directions of
        # consecutive points (same-edge pairs are exactly parallel), count
        # clusters that hold a non-trivial share of pairs
        pts = generate(ShapeKind.TRIANGLE, 500, 42)
        order = np.argsort(np.arctan2(pts[:, 1], pts[:, 0]))
        ring = pts[order]
        d = np.roll(ring, -1, axis=0) - ring
        d = d / np.linalg.norm(d, axis=1, keepdims=True)
        # canonical sign so v and -v match
        flip = (d[:, 0] < 0) | ((d[:, 0] == 0) & (d[:, 1] < 0))
        d[flip] *= -1
        clusters = []
        for v in d:
            for c in clusters:
                if np.linalg.norm(v - c["dir"]) < 1e-9:
                    c["n"] += 1
                    break
            else:
                clusters.append({"dir": v, "n": 1})
        big = [c for c in clusters if c["n"] >= 0.02 * len(d)]
        assert len(big) == 3


class TestNormalize:
    def test_endpoints_map_to_corners(self):
        out = normalize_to_unit_box(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert out.tolist() == [[-1.0, -1.0], [1.0, 1.0]]

    def test_degenerate_axis_maps_to_zero(self):
        out = normalize_to_unit_box(np.array([[5.0, 1.0], [5.0, 3.0]]))
        assert out.tolist() == [[0.0, -1.0], [0.0, 1.0]]

    def test_idempotent_on_circle_samples(self):
        pts = generate(ShapeKind.CIRCLE, 400, 9)
        again = normalize_to_unit_box(pts)
        assert np.abs(again - pts).max() <= 1e-12

    def test_empty_input(self):
        with pytest.raises(ValueError):
            normalize_to_unit_box(np.empty((0, 2)))


class TestExportCsv:
    def test_single_row_format(self):
        buf = io.StringIO()
        n = export_csv(np.array([[1.0, 0.0]]), buf)
        expected = "x,y\n1.00000000,0.00000000\n"
        assert buf.getvalue() == expected
        assert n == len(expected)

    def test_header_plus_one_line_per_point(self):
        buf = io.StringIO()
        export_csv(generate(ShapeKind.OCTAGON, 500, 3), buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "x,y"
        assert lines[-1] == ""
        assert len(lines) == 502  # header + 500 rows + trailing newline

    def test_round_trip(self):
        pts = generate(ShapeKind.SPIRAL, 500, 21)
        buf = io.StringIO()
        export_csv(pts, buf)
        buf.seek(0)
        rows = list(csv.reader(buf))
        assert rows[0] == ["x", "y"]
        parsed = np.array([[float(x), float(y)] for x, y in rows[1:]])
        assert np.abs(parsed - pts).max() <= 1e-8
