"""Concentric-square field partition: corner / non-corner regions and
point-location, midpoint and adjacency queries.

The square field of side L is split by n concentric squares (shared center,
the BS position) into one central square region plus, per ring k = 1..n-1,
four non-corner rectangles (East, North, West, South) and four d x d corner
squares (NE, NW, SW, SE), where d = L / (2n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np


class GeometryError(ValueError):
    pass


class OutOfFieldError(GeometryError):
    pass


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Rect:
    min_corner: Point
    max_corner: Point

    def __post_init__(self):
        if not (self.min_corner.x < self.max_corner.x
                and self.min_corner.y < self.max_corner.y):
            raise GeometryError("Rect must have positive area")

    @property
    def width(self) -> float:
        return self.max_corner.x - self.min_corner.x

    @property
    def height(self) -> float:
        return self.max_corner.y - self.min_corner.y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_corner.x + self.max_corner.x) / 2.0,
                     (self.min_corner.y + self.max_corner.y) / 2.0)

    def contains(self, p: Point) -> bool:
        """Closed-rectangle membership (boundary inclusive)."""
        return (self.min_corner.x <= p.x <= self.max_corner.x
                and self.min_corner.y <= p.y <= self.max_corner.y)


class RegionKind(Enum):
    CENTRAL = "central"
    NON_CORNER = "non_corner"
    CORNER = "corner"


# Fixed per-ring ordering of the eight ring regions.
NCR_SIDES = ("E", "N", "W", "S")
CR_CORNERS = ("NE", "NW", "SW", "SE")
# Corner -> indices into NCR_SIDES of the two edge-adjacent same-ring NCRs.
_CORNER_TO_SIDES = {"NE": (0, 1), "NW": (1, 2), "SW": (2, 3), "SE": (3, 0)}


@dataclass(frozen=True)
class Region:
    id: int
    kind: RegionKind
    ring: int
    bounds: Rect
    midpoint: Point


@dataclass(frozen=True)
class FieldPartition:
    field_length: float
    n: int
    d: float
    center: Point
    regions: tuple[Region, ...]

    def region(self, region_id: int) -> Region:
        return self.regions[region_id - 1]

    @property
    def bounds(self) -> Rect:
        half = self.field_length / 2.0
        return Rect(Point(self.center.x - half, self.center.y - half),
                    Point(self.center.x + half, self.center.y + half))


def square_corners(center: Point, d_k: float) -> Rect:
    """Axis-aligned square of half-side d_k about `center`."""
    if d_k <= 0:
        raise GeometryError(f"d_k must be positive, got {d_k}")
    return Rect(Point(center.x - d_k, center.y - d_k),
                Point(center.x + d_k, center.y + d_k))


def _ring_base_id(ring: int) -> int:
    # id 1 is the central region; each ring contributes 8 ids.
    return 2 + 8 * (ring - 1)


def build_partition(field_length: float, n: int) -> FieldPartition:
    """Build the 8n-7 region partition of the square field.

    Region ids: 1 = central square; then per ring k = 1..n-1 the four NCRs
    (E, N, W, S) followed by the four corners (NE, NW, SW, SE).
    """
    if field_length <= 0:
        raise GeometryError(f"field_length must be positive, got {field_length}")
    if n < 2:
        raise GeometryError(f"need n >= 2 concentric squares, got {n}")

    d = field_length / (2 * n)
    cx = cy = field_length / 2.0
    center = Point(cx, cy)

    # Offset of the k-th square's side from the center. Computed as a single
    # division so that ring k's outer edge and ring k+1's inner edge are the
    # identical float. offset(n) is L/2 itself: L*n/(2n) can round below it,
    # which would leave the field's edges outside every region.
    def offset(k: int) -> float:
        return field_length / 2.0 if k == n else field_length * k / (2 * n)

    regions: list[Region] = []
    central_bounds = square_corners(center, offset(1))
    regions.append(Region(1, RegionKind.CENTRAL, 0, central_bounds,
                          central_bounds.center))

    for k in range(1, n):
        a, b = offset(k), offset(k + 1)
        ncr_bounds = {
            "E": Rect(Point(cx + a, cy - a), Point(cx + b, cy + a)),
            "N": Rect(Point(cx - a, cy + a), Point(cx + a, cy + b)),
            "W": Rect(Point(cx - b, cy - a), Point(cx - a, cy + a)),
            "S": Rect(Point(cx - a, cy - b), Point(cx + a, cy - a)),
        }
        cr_bounds = {
            "NE": Rect(Point(cx + a, cy + a), Point(cx + b, cy + b)),
            "NW": Rect(Point(cx - b, cy + a), Point(cx - a, cy + b)),
            "SW": Rect(Point(cx - b, cy - b), Point(cx - a, cy - a)),
            "SE": Rect(Point(cx + a, cy - b), Point(cx + b, cy - a)),
        }
        next_id = _ring_base_id(k)
        for side in NCR_SIDES:
            r = ncr_bounds[side]
            regions.append(Region(next_id, RegionKind.NON_CORNER, k, r, r.center))
            next_id += 1
        for corner in CR_CORNERS:
            r = cr_bounds[corner]
            regions.append(Region(next_id, RegionKind.CORNER, k, r, r.center))
            next_id += 1

    return FieldPartition(field_length, n, d, center, tuple(regions))


def locate(p: Point, fp: FieldPartition) -> int:
    """Region id containing p; points on shared edges go to the smaller id."""
    if not fp.bounds.contains(p):
        raise OutOfFieldError(f"point ({p.x}, {p.y}) lies outside the field")
    for region in fp.regions:
        if region.bounds.contains(p):
            return region.id
    # Unreachable for points inside the field: regions tile it exactly.
    raise OutOfFieldError(f"point ({p.x}, {p.y}) not covered by any region")


def inward_adjacent_ncr(region_id: int, fp: FieldPartition) -> int:
    """Same-side NCR one ring inward; ring-1 NCRs map to the central region."""
    region = fp.region(region_id)
    if region.kind is not RegionKind.NON_CORNER:
        raise GeometryError(f"region {region_id} is {region.kind.value}, not a NCR")
    if region.ring == 1:
        return 1
    side_index = region_id - _ring_base_id(region.ring)
    return _ring_base_id(region.ring - 1) + side_index


def cr_neighbor_ncrs(region_id: int, fp: FieldPartition) -> list[int]:
    """The two same-ring NCRs sharing an edge with this corner region."""
    region = fp.region(region_id)
    if region.kind is not RegionKind.CORNER:
        raise GeometryError(f"region {region_id} is {region.kind.value}, not a corner")
    base = _ring_base_id(region.ring)
    corner = CR_CORNERS[region_id - base - 4]
    return sorted(base + s for s in _CORNER_TO_SIDES[corner])


def distance_matrix(xs: list[float], ys: list[float]) -> np.ndarray:
    """N x N matrix of the distances between the points (xs[i], ys[i]), the
    same floats as `math.hypot(xs[i] - xs[j], ys[i] - ys[j])`: `math.dist`
    takes the same norm of the same absolute differences, and |a - b| is
    |b - a|. Only the upper triangle is computed; each row's lower part is
    copied from the columns above it."""
    points = list(zip(xs, ys))
    n = len(points)
    out = np.empty((n, n))
    for i, p in enumerate(points):
        out[i, i:] = np.fromiter(map(math.dist, repeat(p), points[i:]), float, n - i)
        out[i, :i] = out[:i, i]
    return out


_BLOCK_ROWS = 32    # rows of squared_distance_matrix computed per numpy call


def squared_distance_matrix(xs: list[float], ys: list[float]) -> np.ndarray:
    """N x N matrix of squared distances with numpy arithmetic, dx*dx + dy*dy:
    the values LEACH-C's greedy placement compares. Built in blocks of rows,
    in place, so that no N x N temporary exists."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    n = len(x)
    out = np.empty((n, n))
    dy = np.empty((min(n, _BLOCK_ROWS), n))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        rows, dy_rows = out[start:stop], dy[:stop - start]
        np.subtract(x[start:stop, None], x, out=rows)
        np.multiply(rows, rows, out=rows)
        np.subtract(y[start:stop, None], y, out=dy_rows)
        np.multiply(dy_rows, dy_rows, out=dy_rows)
        rows += dy_rows
    return out
