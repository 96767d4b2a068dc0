"""Integer rectangle geometry: orientation transforms, flattened layouts,
a sort-and-sweep neighbour search and parallel-run extraction.

All coordinates are integer database units (DBU, 1000 per micron).
Rectangles are axis-parallel with x1 < x2 and y1 < y2.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Iterable, NamedTuple


class Rect(NamedTuple):
    x1: int
    y1: int
    x2: int
    y2: int

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    @property
    def area(self) -> int:
        return self.width * self.height

    def intersects(self, other: "Rect") -> bool:
        """Closed-rectangle intersection: shared edges/corners count."""
        return (self.x1 <= other.x2 and other.x1 <= self.x2
                and self.y1 <= other.y2 and other.y1 <= self.y2)

    def contains(self, other: "Rect") -> bool:
        return (self.x1 <= other.x1 and self.y1 <= other.y1
                and self.x2 >= other.x2 and self.y2 >= other.y2)

    def union(self, other: "Rect") -> "Rect":
        return Rect(min(self.x1, other.x1), min(self.y1, other.y1),
                    max(self.x2, other.x2), max(self.y2, other.y2))

    def inflated(self, margin: int) -> "Rect":
        return Rect(self.x1 - margin, self.y1 - margin,
                    self.x2 + margin, self.y2 + margin)


def union_all(rects: Iterable[Rect]) -> Rect:
    it = iter(rects)
    acc = next(it)
    for r in it:
        acc = acc.union(r)
    return acc


class Mask(enum.Enum):
    """Mask assignment of a shape on a double-patterned layer.

    E1/E2 follow the layer-name suffix convention (M1_E1, M1_E2);
    NONE means the shape is uncolored.
    """

    NONE = ""
    E1 = "E1"
    E2 = "E2"

    # Members are singletons compared by identity, so identity hashing keeps
    # every dict and set lookup's meaning and runs in C, not in Python.
    __hash__ = object.__hash__

    def __repr__(self):  # noqa: D105 - terse enum repr reads better in diffs
        return f"Mask.{self.name}"


class Orientation(enum.Enum):
    """The four legal placement orientations of a cell.

    R0 is the drawn orientation, R180 a 180-degree rotation, MX a mirror
    about the horizontal axis, MY a mirror about the vertical axis.
    """

    R0 = "R0"
    R180 = "R180"
    MX = "MX"
    MY = "MY"

    __hash__ = object.__hash__  # as for Mask

    @property
    def flipped_ud(self) -> "Orientation":
        """Orientation of the same cell placed on the alternate row
        (rails swapped): R0 <-> MX, MY <-> R180."""
        return _FLIP_UD[self]

    def __repr__(self):
        return f"Orientation.{self.name}"


_FLIP_UD = {
    Orientation.R0: Orientation.MX,
    Orientation.MX: Orientation.R0,
    Orientation.MY: Orientation.R180,
    Orientation.R180: Orientation.MY,
}


def transform_rect(rect: Rect, cell_w: int, cell_h: int,
                   orientation: Orientation,
                   origin: tuple[int, int] = (0, 0)) -> Rect:
    """Map a cell-local rectangle into die coordinates.

    The rectangle is first reflected inside the cell frame [0,w]x[0,h]
    according to the orientation, then translated to the origin. Corners
    of the result are normalized (x1 < x2, y1 < y2).
    """
    x1, y1, x2, y2 = rect
    if orientation in (Orientation.MY, Orientation.R180):
        x1, x2 = cell_w - x2, cell_w - x1
    if orientation in (Orientation.MX, Orientation.R180):
        y1, y2 = cell_h - y2, cell_h - y1
    ox, oy = origin
    return Rect(x1 + ox, y1 + oy, x2 + ox, y2 + oy)


class FlatShape(NamedTuple):
    shape_id: int
    layer: str
    mask: Mask
    rect: Rect
    source_instance: str


class ParallelRun(NamedTuple):
    """Two same-layer shapes with facing parallel edges.

    ``spacing`` is the gap between the facing edges (0 when touching) and
    ``run_length`` the projected overlap along them. ``axis`` is the
    direction the run extends in: two side-by-side bars produce a
    "vertical" run (overlap measured in y), two stacked bars a
    "horizontal" one.
    """

    shape_a: int
    shape_b: int
    spacing: int
    run_length: int
    axis: str  # "vertical" | "horizontal"


def run_between(a: Rect, b: Rect) -> tuple[int, int, str] | None:
    """(spacing, run_length, axis) for two rects, or None if they do not
    face each other with positive projected overlap."""
    x_overlap = min(a.x2, b.x2) - max(a.x1, b.x1)
    y_overlap = min(a.y2, b.y2) - max(a.y1, b.y1)
    if x_overlap <= 0 and y_overlap > 0:
        return -x_overlap, y_overlap, "vertical"
    if y_overlap <= 0 and x_overlap > 0:
        return -y_overlap, x_overlap, "horizontal"
    return None


def rects_touch(a: Rect, b: Rect) -> bool:
    """True when two rects share area or a boundary segment of positive
    length. A bare corner-point contact does not connect shapes."""
    x_overlap = min(a.x2, b.x2) - max(a.x1, b.x1)
    y_overlap = min(a.y2, b.y2) - max(a.y1, b.y1)
    if x_overlap < 0 or y_overlap < 0:
        return False
    return x_overlap > 0 or y_overlap > 0


class FlatLayout:
    """Immutable flattened view of placed cell geometry, grouped by layer.
    Queries are read-only. It holds shapes only: the die they sit on
    belongs to the ``Floorplan``."""

    def __init__(self, shapes: list[FlatShape]):
        self.shapes = shapes
        self._by_layer: dict[str, list[FlatShape]] = defaultdict(list)
        for s in shapes:
            self._by_layer[s.layer].append(s)

    def shape(self, shape_id: int) -> FlatShape:
        return self.shapes[shape_id]

    def layers(self) -> list[str]:
        return sorted(self._by_layer)

    def shapes_on(self, layer: str) -> list[FlatShape]:
        return self._by_layer.get(layer, [])

    def query_window(self, window: Rect) -> set[int]:
        """Ids of all shapes whose rect intersects the window (closed)."""
        return {s.shape_id for s in self.shapes if s.rect.intersects(window)}

    def near_pairs(self, layer: str,
                   reach: int) -> list[tuple[FlatShape, FlatShape]]:
        """Every pair of shapes on ``layer`` whose closed rects are at most
        ``reach`` apart on both axes (``reach`` 0: they intersect), smaller
        shape id first. A sort-and-sweep over x (Bentley & Wood, 1980):
        shapes enter in x1 order and a shape leaves the active list once
        its x2 + reach falls behind the sweep line."""
        pairs = []
        active: list[tuple[int, int, int, FlatShape]] = []  # x2, y1, y2
        for s in sorted(self.shapes_on(layer), key=lambda t: t.rect.x1):
            x1, y1, x2, y2 = s.rect
            left, lo, hi = x1 - reach, y1 - reach, y2 + reach
            active = [e for e in active if e[0] >= left]
            for _, ay1, ay2, a in active:
                if ay1 <= hi and lo <= ay2:
                    pairs.append((a, s) if a.shape_id < s.shape_id else (s, a))
            active.append((x2, y1, y2, s))
        return pairs


def flatten(instances) -> FlatLayout:
    """Instantiate the colored shapes of every instance row into die
    coordinates. A row is (instance name, cell, x, y, orientation), as
    ``AbutmentCase.instances`` yields it: each shape of the cell's table
    for the orientation (``CellProfile.oriented``, transformed once per
    cell) moved by (x, y). Shape ids run in row order, then cell shape
    order, so flattening is deterministic regardless of execution
    strategy. No shape is tested against a die: ``parse_library`` keeps
    every shape inside its cell's outline, and ``plan_floorplan`` keeps
    every placed case inside its die. This runs once per shape of every
    checked case, so each ``Rect`` and ``FlatShape`` is built straight
    from its field tuple."""
    flat: list[FlatShape] = []
    # tuple.__new__ builds each namedtuple without the Python frame of its
    # generated __new__; the fields are the same, in the same order.
    new = tuple.__new__
    for name, cell, ox, oy, orientation in instances:
        for layer, mask, (x1, y1, x2, y2) in cell.oriented[orientation]:
            flat.append(new(FlatShape, (
                len(flat), layer, mask,
                new(Rect, (x1 + ox, y1 + oy, x2 + ox, y2 + oy)), name)))
    return FlatLayout(flat)


def parallel_runs(pairs: Iterable[tuple[FlatShape, FlatShape]],
                  max_spacing: int) -> list[ParallelRun]:
    """The pairs with facing parallel edges, gap at most ``max_spacing``
    and positive projected overlap. ``pairs`` come from
    ``FlatLayout.near_pairs`` at a reach of at least ``max_spacing``.
    Each unordered pair is reported once, with shape_a < shape_b; output
    is sorted. A pair gives the run that ``run_between`` gives."""
    runs: list[ParallelRun] = []
    for a, b in pairs:
        # run_between, inline: this loop runs once per near pair.
        ax1, ay1, ax2, ay2 = a.rect
        bx1, by1, bx2, by2 = b.rect
        x_overlap = (ax2 if ax2 < bx2 else bx2) - (ax1 if ax1 > bx1 else bx1)
        y_overlap = (ay2 if ay2 < by2 else by2) - (ay1 if ay1 > by1 else by1)
        if x_overlap <= 0:
            if y_overlap > 0 and -x_overlap <= max_spacing:
                runs.append(ParallelRun(a.shape_id, b.shape_id, -x_overlap,
                                        y_overlap, "vertical"))
        elif y_overlap <= 0 and -y_overlap <= max_spacing:
            runs.append(ParallelRun(a.shape_id, b.shape_id, -y_overlap,
                                    x_overlap, "horizontal"))
    runs.sort()
    return runs


def connected_components(shapes: Iterable[FlatShape],
                         pairs: Iterable[tuple[FlatShape, FlatShape]]
                         ) -> dict[int, int]:
    """Union shapes that touch (share area or an edge segment) into
    components. ``pairs`` come from ``FlatLayout.near_pairs`` on the
    shapes' layer at any reach >= 0; a pair joins when ``rects_touch``
    holds for it. Returns shape_id -> component root (smallest member
    id)."""
    parent: dict[int, int] = {s.shape_id: s.shape_id for s in shapes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        # rects_touch, inline: this loop runs once per near pair.
        ax1, ay1, ax2, ay2 = a.rect
        bx1, by1, bx2, by2 = b.rect
        x_overlap = (ax2 if ax2 < bx2 else bx2) - (ax1 if ax1 > bx1 else bx1)
        y_overlap = (ay2 if ay2 < by2 else by2) - (ay1 if ay1 > by1 else by1)
        if (x_overlap < 0 or y_overlap < 0
                or (x_overlap == 0 and y_overlap == 0)):
            continue
        ra, rb = find(a.shape_id), find(b.shape_id)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # Path-compress to the canonical (minimum-id) root.
    return {sid: find(sid) for sid in parent}
