"""Case packing: lay testcases out in shelves on one die.

Cases are packed first-fit into horizontal shelves of their own row
count, found through a min-tree per shelf height (D. S. Johnson, "Fast
algorithms for bin packing", JCSS 1974) in O(log S) per case for S
shelves. Every library packs into rows ``DEFAULT_MAX_ROW_WIDTH`` DBU
wide, so ``generate`` and ``verify`` lay out one die; a case wider than
a row sits alone on a shelf of its own, and the die widens to hold it.
The horizontal gap between neighbors in a shelf is at least
twice the rule interaction distance, but shelves abut with no gap and
no row flip. So per-case
verification equals whole-die verification only when no shape lies
within half its layer's reach (``RuleDeck.reach``) of its cell's top or
bottom edge; a power rail at the edge breaks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .abutment import AbutmentCase, enumerate_library
from .geometry import Rect
from .library import CellLibrary
from .rules import RuleDeck

DEFAULT_MAX_ROW_WIDTH = 200_000


@dataclass(frozen=True)
class Floorplan:
    case_gap: int
    row_height: int
    positions: tuple[tuple[int, int], ...]  # per case: (row index, x offset)
    die_area: Rect

    def origin_of(self, case_index: int) -> tuple[int, int]:
        row, x = self.positions[case_index]
        return x, row * self.row_height


def _round_up(value: int, grid: int) -> int:
    return -(-value // grid) * grid


class _ShelfClass:
    """The shelves of one height, in creation order, under a min-tree of
    their ``next_x``: leaf ``size + i`` holds shelf i's, every inner node
    the least of its children's, unused leaves infinity."""

    def __init__(self):
        self.row_starts: list[int] = []
        self.size = 1
        self.tree: list[float] = [math.inf, math.inf]

    def first_fit(self, limit: int) -> int | None:
        """The first shelf whose ``next_x`` is at most ``limit``."""
        tree = self.tree
        if tree[1] > limit:
            return None
        node, size = 1, self.size
        while node < size:
            node *= 2
            if tree[node] > limit:
                node += 1
        return node - size

    def next_x(self, shelf: int) -> int:
        return self.tree[self.size + shelf]

    def set_next_x(self, shelf: int, next_x: int):
        tree = self.tree
        node = self.size + shelf
        tree[node] = next_x
        while node > 1:
            node //= 2
            a, b = tree[2 * node], tree[2 * node + 1]
            least = a if a < b else b
            if tree[node] == least:
                break
            tree[node] = least

    def append(self, row_start: int, next_x: int):
        if len(self.row_starts) == self.size:
            leaves = self.tree[self.size:] + [math.inf] * self.size
            self.size *= 2
            self.tree = [math.inf] * self.size + leaves
            for node in range(self.size - 1, 0, -1):
                self.tree[node] = min(self.tree[2 * node],
                                      self.tree[2 * node + 1])
        self.row_starts.append(row_start)
        self.set_next_x(len(self.row_starts) - 1, next_x)


def plan_floorplan(cases: list[AbutmentCase], library: CellLibrary,
                   rules: RuleDeck,
                   max_row_width: int = DEFAULT_MAX_ROW_WIDTH) -> Floorplan:
    """First-fit shelf packing on the rows and sites of ``library``, the
    library whose cells ``cases`` place. Each shelf spans as many rows as
    its first case needs; a later case fits into the first shelf, in
    creation order, of its own row count with width to spare, else it
    opens a new shelf. A case never enters a taller shelf, and a case
    wider than ``max_row_width`` opens a shelf that no later case fits
    on. The gap between cases is at least twice the rule interaction
    distance, rounded up to the site. The die spans every opened row and
    the right edge of every case, so each case placed at ``origin_of``
    lies inside ``die_area``, and so does every shape of it:
    ``parse_library`` keeps each shape inside its cell's outline.
    ``flatten`` and ``write_def`` rely on this and do not test it."""
    gap = _round_up(max(2 * rules.interaction_distance, library.site_width),
                    library.site_width)
    classes: dict[int, _ShelfClass] = {}  # shelf height in rows -> shelves
    total_rows = 0
    positions: list[tuple[int, int]] = []
    for case in cases:
        cls = classes.get(case.height_rows)
        shelf = (None if cls is None
                 else cls.first_fit(max_row_width - case.width))
        if shelf is None:
            classes.setdefault(case.height_rows, _ShelfClass()).append(
                total_rows, case.width + gap)
            positions.append((total_rows, 0))
            total_rows += case.height_rows
        else:
            x = cls.next_x(shelf)
            positions.append((cls.row_starts[shelf], x))
            cls.set_next_x(shelf, x + case.width + gap)
    die_w = max((pos[1] + case.width
                 for pos, case in zip(positions, cases)), default=0)
    die_h = total_rows * library.row_height
    return Floorplan(gap, library.row_height, tuple(positions),
                     Rect(0, 0, max(die_w, 1), max(die_h, 1)))


def plan_library(library: CellLibrary,
                 rules: RuleDeck) -> tuple[list[AbutmentCase], Floorplan]:
    """The library's cases and their floorplan on its own grid, in rows
    of the one width every command packs at."""
    cases = enumerate_library(library)
    return cases, plan_floorplan(cases, library, rules)
