"""Case packing: lay testcases out in isolated islands on one die.

Cases are packed first-fit into horizontal shelves. The horizontal gap
between neighbors is at least twice the rule interaction distance, so no
check can see across case boundaries and per-case verification equals
whole-die verification.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abutment import AbutmentCase, Placement, enumerate_library
from .errors import CaseTooWideError
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

    def case_placements(self, case_index: int,
                        case: AbutmentCase) -> list[Placement]:
        """One case's instances shifted to its die position and renamed
        hierarchically (<module>/<instance>), in placement order."""
        ox, oy = self.origin_of(case_index)
        module = case.module_name
        return [Placement(f"{module}/{p.instance_name}", p.cell_ref,
                          (p.origin[0] + ox, p.origin[1] + oy), p.orientation)
                for p in case.placements]


def _round_up(value: int, grid: int) -> int:
    return -(-value // grid) * grid


def plan_floorplan(cases: list[AbutmentCase], rules: RuleDeck,
                   max_row_width: int = DEFAULT_MAX_ROW_WIDTH) -> Floorplan:
    """First-fit shelf packing. Each shelf spans as many rows as its first
    case needs; later cases fit into the first shelf tall enough with
    width to spare. Raises CaseTooWide if a case exceeds max_row_width."""
    gap = _round_up(max(2 * rules.interaction_distance, rules.site_width),
                    rules.site_width)
    shelves: list[list[int]] = []  # [row_start, height_rows, next_x]
    total_rows = 0
    positions: list[tuple[int, int]] = []
    for case in cases:
        if case.width > max_row_width:
            raise CaseTooWideError(
                f"case {case.module_name} is {case.width} DBU wide, above "
                f"the {max_row_width} DBU row limit")
        placed = False
        for shelf in shelves:
            if (case.height_rows <= shelf[1]
                    and shelf[2] + case.width <= max_row_width):
                positions.append((shelf[0], shelf[2]))
                shelf[2] += case.width + gap
                placed = True
                break
        if not placed:
            shelves.append([total_rows, case.height_rows, case.width + gap])
            positions.append((total_rows, 0))
            total_rows += case.height_rows
    die_w = max((pos[1] + case.width
                 for pos, case in zip(positions, cases)), default=0)
    die_h = total_rows * rules.row_height
    return Floorplan(gap, rules.row_height, tuple(positions),
                     Rect(0, 0, max(die_w, 1), max(die_h, 1)))


def plan_library(library: CellLibrary, rules: RuleDeck,
                 max_row_width: int) -> tuple[list[AbutmentCase], Floorplan]:
    """The library's cases and their floorplan. The library's row height
    and site width must be the rule deck's, because cases are packed on
    the deck's rows and site grid."""
    if library.row_height != rules.row_height:
        raise ValueError(
            f"library row height {library.row_height} != rule deck row "
            f"height {rules.row_height}")
    if library.site_width != rules.site_width:
        raise ValueError(
            f"library site width {library.site_width} != rule deck site "
            f"width {rules.site_width}")
    cases = enumerate_library(library)
    return cases, plan_floorplan(cases, rules, max_row_width)
