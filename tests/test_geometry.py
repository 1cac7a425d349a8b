import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsim.geometry import (
    GeometryError,
    OutOfFieldError,
    Point,
    Rect,
    RegionKind,
    build_partition,
    cr_neighbor_ncrs,
    distance_matrix,
    inward_adjacent_ncr,
    locate,
    square_corners,
    squared_distance_matrix,
)


@pytest.fixture(scope="module")
def fp100_3():
    return build_partition(100.0, 3)


def _shares_edge(a, b):
    """True if the two rectangles touch along a segment (not a point)."""
    if a.min_corner.x == b.max_corner.x or a.max_corner.x == b.min_corner.x:
        if min(a.max_corner.y, b.max_corner.y) - max(a.min_corner.y, b.min_corner.y) > 0:
            return True
    if a.min_corner.y == b.max_corner.y or a.max_corner.y == b.min_corner.y:
        if min(a.max_corner.x, b.max_corner.x) - max(a.min_corner.x, b.min_corner.x) > 0:
            return True
    return False


class TestSquareCorners:
    def test_centered_square(self):
        rect = square_corners(Point(50.0, 50.0), 50.0 / 3.0)
        assert rect.min_corner.x == pytest.approx(100.0 / 3.0, rel=1e-12)
        assert rect.min_corner.y == pytest.approx(100.0 / 3.0, rel=1e-12)
        assert rect.max_corner.x == pytest.approx(200.0 / 3.0, rel=1e-12)
        assert rect.max_corner.y == pytest.approx(200.0 / 3.0, rel=1e-12)

    def test_origin_symmetry(self):
        rect = square_corners(Point(0.0, 0.0), 1.0)
        assert rect == Rect(Point(-1.0, -1.0), Point(1.0, 1.0))

    def test_outermost_square_covers_field(self, fp100_3):
        rect = square_corners(Point(50.0, 50.0), 50.0)
        assert rect == Rect(Point(0.0, 0.0), Point(100.0, 100.0))
        # every grid point of the field lies in some region
        for x in np.linspace(0.0, 100.0, 100):
            for y in np.linspace(0.0, 100.0, 100):
                assert 1 <= locate(Point(float(x), float(y)), fp100_3) <= 17

    def test_rejects_non_positive_half_side(self):
        with pytest.raises(GeometryError):
            square_corners(Point(0.0, 0.0), 0.0)
        with pytest.raises(GeometryError):
            square_corners(Point(0.0, 0.0), -2.0)


class TestBuildPartition:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_region_census(self, n):
        fp = build_partition(100.0, n)
        assert len(fp.regions) == 8 * n - 7
        kinds = [r.kind for r in fp.regions]
        assert kinds.count(RegionKind.CENTRAL) == 1
        assert kinds.count(RegionKind.NON_CORNER) == 4 * (n - 1)
        assert kinds.count(RegionKind.CORNER) == 4 * (n - 1)
        assert fp.regions[0].kind is RegionKind.CENTRAL
        assert fp.regions[0].ring == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_region_areas(self, n):
        fp = build_partition(100.0, n)
        d2 = fp.d ** 2
        assert fp.regions[0].bounds.area == pytest.approx(4 * d2, rel=1e-9)
        for r in fp.regions[1:]:
            if r.kind is RegionKind.CORNER:
                assert r.bounds.area == pytest.approx(d2, rel=1e-9)
            else:
                assert r.bounds.area == pytest.approx(2 * r.ring * d2, rel=1e-9)
        total = sum(r.bounds.area for r in fp.regions)
        assert total == pytest.approx(100.0 ** 2, rel=1e-9)

    def test_n3_layout(self, fp100_3):
        assert len(fp100_3.regions) == 17
        d2 = fp100_3.d ** 2
        ncr_areas = sorted(r.bounds.area for r in fp100_3.regions
                           if r.kind is RegionKind.NON_CORNER)
        assert ncr_areas == pytest.approx([2 * d2] * 4 + [4 * d2] * 4, rel=1e-9)

    def test_n2_coverage_monte_carlo(self):
        fp = build_partition(100.0, 2)
        assert len(fp.regions) == 9
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 100.0, size=(20000, 2))
        for x, y in pts:
            p = Point(float(x), float(y))
            hits = sum(1 for r in fp.regions if r.bounds.contains(p))
            assert hits >= 1
            assert locate(p, fp) == min(r.id for r in fp.regions
                                        if r.bounds.contains(p))

    def test_midpoints_are_centroids(self, fp100_3):
        for r in fp100_3.regions:
            assert r.midpoint == r.bounds.center

    def test_determinism(self):
        assert build_partition(100.0, 3) == build_partition(100.0, 3)

    def test_invalid_arguments(self):
        with pytest.raises(GeometryError):
            build_partition(100.0, 1)
        with pytest.raises(GeometryError):
            build_partition(0.0, 3)
        with pytest.raises(GeometryError):
            build_partition(-5.0, 2)


class TestLocate:
    def test_field_center_is_central(self, fp100_3):
        assert locate(Point(50.0, 50.0), fp100_3) == 1

    def test_outer_ne_corner(self, fp100_3):
        rid = locate(Point(99.0, 99.0), fp100_3)
        region = fp100_3.region(rid)
        assert region.kind is RegionKind.CORNER
        assert region.ring == 2
        assert rid == 14  # ring-2 block: NCRs 10-13, corners NE=14..SE=17

    def test_outer_east_ncr(self, fp100_3):
        rid = locate(Point(95.0, 50.0), fp100_3)
        region = fp100_3.region(rid)
        assert region.kind is RegionKind.NON_CORNER
        assert region.ring == 2
        assert rid == 10
        assert region.bounds.contains(Point(95.0, 50.0))

    def test_boundary_goes_to_smaller_id(self, fp100_3):
        # point exactly on the central / East-ring-1 shared edge
        edge_x = fp100_3.region(1).bounds.max_corner.x
        assert locate(Point(edge_x, 50.0), fp100_3) == 1

    def test_outside_field_rejected(self, fp100_3):
        with pytest.raises(OutOfFieldError):
            locate(Point(100.5, 50.0), fp100_3)
        with pytest.raises(OutOfFieldError):
            locate(Point(-0.1, 0.0), fp100_3)

    def test_completeness_uniform_sample(self, fp100_3):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 100.0, size=(100000, 2))
        seen = set()
        for x, y in pts:
            seen.add(locate(Point(float(x), float(y)), fp100_3))
        assert seen == set(range(1, 18))

    def test_rotation_symmetry(self, fp100_3):
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(0.0, 100.0, size=(500, 2)):
            p = Point(float(x), float(y))
            rotated = Point(50.0 - (p.y - 50.0), 50.0 + (p.x - 50.0))
            a = fp100_3.region(locate(p, fp100_3))
            b = fp100_3.region(locate(rotated, fp100_3))
            assert (a.kind, a.ring) == (b.kind, b.ring)


class TestAdjacency:
    def test_inward_east_chain(self, fp100_3):
        assert inward_adjacent_ncr(10, fp100_3) == 2   # East ring 2 -> East ring 1
        assert inward_adjacent_ncr(2, fp100_3) == 1    # East ring 1 -> central

    def test_inward_preserves_compass_side(self, fp100_3):
        # North ring 2 -> North ring 1; midpoints collinear with the BS
        inner = inward_adjacent_ncr(11, fp100_3)
        assert inner == 3
        outer_mid = fp100_3.region(11).midpoint
        inner_mid = fp100_3.region(3).midpoint
        assert outer_mid.x == pytest.approx(inner_mid.x) == pytest.approx(50.0)
        assert outer_mid.y > inner_mid.y > 50.0

    def test_inward_rejects_non_ncr(self, fp100_3):
        with pytest.raises(GeometryError):
            inward_adjacent_ncr(1, fp100_3)   # central
        with pytest.raises(GeometryError):
            inward_adjacent_ncr(6, fp100_3)   # corner

    def test_corner_neighbors_ring1(self, fp100_3):
        assert cr_neighbor_ncrs(6, fp100_3) == [2, 3]  # NE -> {E, N}

    def test_corner_neighbors_ring2(self, fp100_3):
        assert cr_neighbor_ncrs(16, fp100_3) == [12, 13]  # SW -> {W, S}

    def test_every_corner_touches_two_ncrs(self, fp100_3):
        for region in fp100_3.regions:
            if region.kind is not RegionKind.CORNER:
                continue
            neighbors = cr_neighbor_ncrs(region.id, fp100_3)
            assert len(neighbors) == 2
            for nid in neighbors:
                other = fp100_3.region(nid)
                assert other.kind is RegionKind.NON_CORNER
                assert other.ring == region.ring
                assert _shares_edge(region.bounds, other.bounds)

    def test_corner_query_rejects_non_corner(self, fp100_3):
        with pytest.raises(GeometryError):
            cr_neighbor_ncrs(2, fp100_3)


@settings(max_examples=200, deadline=None)
@given(field_length=st.floats(1e-3, 1e9),
       n=st.integers(2, 12),
       fractions=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                          max_size=20))
def test_partition_tiles_the_field(field_length, n, fractions):
    fp = build_partition(field_length, n)
    d2 = fp.d ** 2
    assert len(fp.regions) == 8 * n - 7
    total = sum(r.bounds.area for r in fp.regions)
    assert total == pytest.approx(field_length ** 2, rel=1e-9)
    assert fp.regions[0].bounds.area == pytest.approx(4 * d2, rel=1e-9)
    for r in fp.regions[1:]:
        if r.kind is RegionKind.CORNER:
            assert r.bounds.area == pytest.approx(d2, rel=1e-9)
        else:
            assert r.bounds.area == pytest.approx(2 * r.ring * d2, rel=1e-9)
    for u, v in fractions:
        p = Point(u * field_length, v * field_length)
        assert fp.region(locate(p, fp)).bounds.contains(p)


# Coordinates log-uniform from the smallest subnormal to 1e150, or a
# fraction of one such scale per example, so that points of one magnitude
# meet as often as points far apart in magnitude; N from 0 to 70 crosses the
# 32-row blocks of `squared_distance_matrix`.
_LOG_UNIFORM = st.floats(math.log(5e-324), math.log(1e150)).map(math.exp)


def _points(n_and_scale):
    n, scale = n_and_scale
    coords = _LOG_UNIFORM | st.floats(0.0, 1.0).map(lambda f: f * scale)
    return st.lists(st.tuples(coords, coords), min_size=n, max_size=n)


_POINT_LISTS = st.tuples(st.integers(0, 70), _LOG_UNIFORM).flatmap(_points)


@settings(max_examples=30, deadline=None)
@given(points=_POINT_LISTS,
       copies=st.lists(st.tuples(st.integers(0, 69), st.integers(0, 69)), max_size=10))
def test_distance_matrices_match_scalar_floats(points, copies):
    """Both matrices hold exactly the floats of the scalar formulas, also
    for repeated points (`copies` makes point a equal to point b)."""
    for a, b in copies:
        if max(a, b) < len(points):
            points[a] = points[b]
    xs, ys = [x for x, _ in points], [y for _, y in points]
    n = len(points)
    dist, sq = distance_matrix(xs, ys), squared_distance_matrix(xs, ys)
    assert dist.shape == sq.shape == (n, n)
    assert dist.tolist() == [[math.hypot(xs[i] - xs[j], ys[i] - ys[j]) for j in range(n)]
                             for i in range(n)]
    assert sq.tolist() == [[(xs[i] - xs[j]) * (xs[i] - xs[j]) + (ys[i] - ys[j]) * (ys[i] - ys[j])
                            for j in range(n)] for i in range(n)]


def test_scaled_partition_is_similar():
    base = build_partition(100.0, 3)
    scaled = build_partition(250.0, 3)
    c = 2.5
    for a, b in zip(base.regions, scaled.regions):
        assert (a.id, a.kind, a.ring) == (b.id, b.kind, b.ring)
        assert b.midpoint.x == pytest.approx(c * a.midpoint.x, rel=1e-12)
        assert b.midpoint.y == pytest.approx(c * a.midpoint.y, rel=1e-12)


def test_distance_helper():
    assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == pytest.approx(5.0)
    assert math.isfinite(Point(1e8, -1e8).distance_to(Point(0.0, 0.0)))
