"""Reduced abutment testcase enumeration.

Every side-to-side abutment topology of a cell library is a pair
((cellX, o1), (cellY, o2)) with o1, o2 in {R0, MY}; topologies that are
left-right mirrors of each other print identically and form one class.
enumerate_library(), the only case builder, realizes every class with
far fewer placements than the exhaustive pairing, in three patterns:

  - type A-A: one row of 4 instances [MY, R0, R0, MY] covers all 3
    same-cell classes;
  - type A-B: one row of 5 instances, cells [B, A, B, A, B] with
    orientations [R0, R0, MY, MY, R0], covers all 4 cross-cell classes;
  - single-multi: the A-B column pattern with each single-height B
    replaced by a stack of k instances (vertically flipped on odd rows),
    3k+2 placements.

Total placements for N single-height cells: 4N + 5*N*(N-1)/2, versus
8N + 8*N*(N-1) for one-pair-per-case enumeration (about 3.2x less).
A case stores its placements only; its seams are derived from them.
coverage_check() is the independent proof: it counts the realized
classes against the size of the class universe and, when any is
missing, enumerates the universe by brute force to name them.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .geometry import Orientation
from .library import CellLibrary, CellProfile


class Placement(NamedTuple):
    instance_name: str
    cell_ref: str
    origin: tuple[int, int]
    orientation: Orientation


class Seam(NamedTuple):
    """A shared vertical boundary between two abutted instances.

    ``x`` is case-local; the boundary spans every row of its case.
    ``left``/``right`` give the (cell, orientation) topology at the base
    row.
    """

    x: int
    left: tuple[str, Orientation]
    right: tuple[str, Orientation]


class CaseKind(enum.Enum):
    AA_SINGLE = "AA_single"
    AA_MULTI = "AA_multi"
    AB_SINGLE = "AB_single"
    AB_SINGLE_MULTI = "AB_single_multi"


@dataclass(frozen=True, slots=True)
class AbutmentCase:
    kind: CaseKind
    cell_a: str
    cell_b: str | None
    placements: tuple[Placement, ...]
    width: int
    height_rows: int
    module_name: str

    @property
    def seams(self) -> tuple[Seam, ...]:
        """One seam per adjacent pair of base-row placements (case-local
        y = 0, in placement order), at the right instance's x."""
        base = [p for p in self.placements if p.origin[1] == 0]
        return tuple(Seam(r.origin[0], (l.cell_ref, l.orientation),
                          (r.cell_ref, r.orientation))
                     for l, r in zip(base, base[1:]))


@functools.cache
def _sanitize(name: str) -> str:
    out = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not out or out[0].isdigit():
        out = "c" + out
    return out


@functools.cache
def _instance_names(count: int) -> tuple[str, ...]:
    """U1..U<count>, built once per count and shared by every case."""
    return tuple(f"U{n}" for n in range(1, count + 1))


def instance_path(module: str, instance: str) -> str:
    """Hierarchical name of a case's instance on the die:
    <module>/<instance>."""
    return f"{module}/{instance}"


_AA_ORIENTS = (Orientation.MY, Orientation.R0, Orientation.R0, Orientation.MY)
_AB_ORIENTS = (Orientation.R0, Orientation.R0, Orientation.MY,
               Orientation.MY, Orientation.R0)


def _chain(cell_a: CellProfile, cell_b: CellProfile | None,
           shared: dict[Placement, Placement]) -> AbutmentCase:
    """Abut one column per (cell, orientation), left to right: the A-A
    pattern when ``cell_b`` is None, the A-B pattern otherwise; the kind
    is the multi-height one when A is. The case is as tall as A (k rows);
    a column whose cell is shorter stacks k instances, flipped vertically
    on odd rows. Instances are numbered U1.. in placement order. A
    placement equal to one already in ``shared`` is that object."""
    if cell_b is None:
        kind = CaseKind.AA_MULTI if cell_a.is_multi else CaseKind.AA_SINGLE
        columns = zip((cell_a,) * 4, _AA_ORIENTS)
        module = f"scell_{_sanitize(cell_a.name)}"
    else:
        kind = (CaseKind.AB_SINGLE_MULTI if cell_a.is_multi
                else CaseKind.AB_SINGLE)
        columns = zip((cell_b, cell_a, cell_b, cell_a, cell_b), _AB_ORIENTS)
        prefix = "mcell" if cell_a.is_multi else "scell"
        module = f"{prefix}_{_sanitize(cell_a.name)}_{_sanitize(cell_b.name)}"
    k = cell_a.height_rows
    row_h = cell_a.height // k
    names = _instance_names(3 * k + 2)  # no case places more instances
    placements: list[Placement] = []
    x = 0
    for c, o in columns:
        for row in range(1 if c.height_rows == k else k):
            p = Placement(names[len(placements)], c.name, (x, row * row_h),
                          o.flipped_ud if row % 2 else o)
            placements.append(shared.setdefault(p, p))
        x += c.width
    return AbutmentCase(kind, cell_a.name,
                        None if cell_b is None else cell_b.name,
                        tuple(placements), x, k, module)


def enumerate_library(library: CellLibrary) -> list[AbutmentCase]:
    """All testcases for a library in canonical order: one A-A case per
    cell in library order, then one case per unordered cell pair (i < j)
    in index order; the multi-height cell of a pair, if any, is A. Pairs
    of two multi-height cells are out of scope and skipped. Module names
    are unique: a case whose sanitized name is taken by an earlier case
    gets the first free suffix _2, _3, ... Equal placements of different
    cases are one object."""
    shared: dict[Placement, Placement] = {}
    cells = library.cells
    cases = [_chain(c, None, shared) for c in cells]
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            if not (a.is_multi and b.is_multi):
                pair = (b, a) if b.is_multi else (a, b)
                cases.append(_chain(*pair, shared))
    taken: set[str] = set()
    for k, case in enumerate(cases):
        name, n = case.module_name, 1
        while name in taken:
            n += 1
            name = f"{case.module_name}_{n}"
        if n > 1:
            cases[k] = replace(case, module_name=name)
        taken.add(name)
    return cases


def expected_count(n: int, mode: str = "proposed") -> int:
    """Placement totals for an N-cell single-height library.

    proposed: 4N + 5*N*(N-1)/2 (always integral; N*(N-1) is even).
    conventional: 8N + 8*N*(N-1), one case per ordered orientation pair.
    """
    if n < 0:
        raise ValueError("cell count must be non-negative")
    if mode == "proposed":
        return 4 * n + 5 * n * (n - 1) // 2
    if mode == "conventional":
        return 8 * n + 8 * n * (n - 1)
    raise ValueError(f"unknown mode {mode!r}")


Topology = tuple[tuple[str, Orientation], tuple[str, Orientation]]


@dataclass(frozen=True)
class CoverageReport:
    universe: int
    covered: int
    missing: tuple[Topology, ...]

    @property
    def complete(self) -> bool:
        return not self.missing


# Side of a base-row orientation; odd-row orientations fold onto the base
# row. Left-right mirroring maps side s to 1 - s (R0 <-> MY).
_SIDE = {Orientation.MY: 0, Orientation.R180: 0,
         Orientation.R0: 1, Orientation.MX: 1}
_SIDE_ORIENT = (Orientation.MY, Orientation.R0)


def _universe_size(cells: tuple[CellProfile, ...]) -> int:
    """Classes in the coverage universe of these cells: 3 per cell and 4
    per unordered pair of cells that are not both multi-height."""
    n, m = len(cells), sum(c.is_multi for c in cells)
    return 3 * n + 4 * (n * (n - 1) // 2 - m * (m - 1) // 2)


def coverage_check(cases: Iterable[AbutmentCase],
                   library: CellLibrary) -> CoverageReport:
    """Compare realized seam topologies against the class universe: every
    ordered (cell, orientation) pair over {R0, MY}, except pairs of two
    distinct multi-height cells. A topology is (left index, left side,
    right index, right side) over library order; its class is the smaller
    of it and its left-right mirror. A count of the realized classes
    inside the universe that reaches its size proves completeness; only
    when the count is short is the universe enumerated by brute force.
    Complete iff nothing is missing; ``missing`` is sorted by (left cell,
    right cell, left orientation, right orientation)."""
    cells = library.cells
    index = {c.name: i for i, c in enumerate(cells)}
    multi = [c.is_multi for c in cells]
    n = len(cells)

    def cls(x, ox, y, oy):
        return min((x, ox, y, oy), (y, 1 - oy, x, 1 - ox))

    covered = {cls(index[s.left[0]], _SIDE[s.left[1]],
                   index[s.right[0]], _SIDE[s.right[1]])
               for case in cases for s in case.seams}
    size = _universe_size(cells)
    if sum(1 for x, _, y, _ in covered
           if x == y or not (multi[x] and multi[y])) == size:
        return CoverageReport(size, size, ())
    universe = {cls(x, ox, y, oy)
                for x in range(n) for y in range(n)
                if x == y or not (multi[x] and multi[y])
                for ox in (0, 1) for oy in (0, 1)}
    missing = sorted(universe - covered,
                     key=lambda t: (t[0], t[2], t[1], t[3]))
    return CoverageReport(
        len(universe), len(universe) - len(missing),
        tuple(((cells[x].name, _SIDE_ORIENT[ox]),
               (cells[y].name, _SIDE_ORIENT[oy])) for x, ox, y, oy in missing))
