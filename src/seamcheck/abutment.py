"""Reduced abutment testcase enumeration.

Every side-to-side abutment topology of a cell library is a pair
((cellX, o1), (cellY, o2)) with o1, o2 in {R0, MY}; topologies that are
left-right mirrors of each other print identically and form one class.
enumerate_library(), the only case builder, realizes every class with
far fewer placements than the exhaustive pairing, in three patterns
drawn from two column tables, one per case kind (``CaseKind``):

  - A-A: one row of 4 instances [MY, R0, R0, MY] covers all 3
    same-cell classes;
  - A-B: one row of 5 instances, cells [B, A, B, A, B] with
    orientations [R0, R0, MY, MY, R0], covers all 4 cross-cell classes;
  - A-B with a k-row A: the same columns, with each single-height B
    replaced by a stack of k instances (vertically flipped on odd rows),
    3k+2 placements. The row count alone decides the stack.

Total placements for N single-height cells: 4N + 5*N*(N-1)/2, versus
8N + 8*N*(N-1) for one-pair-per-case enumeration (about 3.2x less).
A case stores its kind, its cells, its width, its row count and its
module name. Each (kind, row count) has one instance pattern
(``_pattern``, read as ``AbutmentCase.pattern``), and where each of its
instances lands is decided in one place, ``AbutmentCase.instances``:
placements, flattening, composition and the DEF writer read it, and a
case's seams come from the same column offsets. The Verilog writer
reads the pattern rows; neither writer builds a placement.
coverage_check() is the
independent proof: it marks each realized class in a bitmap of 4N^2
entries, read off the adjacent columns of each case's kind, and
compares the marked count with the size of the class universe; only
when the count is short does it scan the bitmap to name the missing
classes.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field, replace
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

    ``x`` is case-local on ``AbutmentCase.seams`` and in die coordinates
    when ``report.seams_per_violation`` returns it; either way the
    boundary spans every row of its case. ``left``/``right`` give the
    (cell, orientation) topology at the base row.
    """

    x: int
    left: tuple[str, Orientation]
    right: tuple[str, Orientation]


_R0, _MY = Orientation.R0, Orientation.MY


class CaseKind(enum.Enum):
    """A kind is its column table: the (cell slot, orientation) of each
    column, left to right; slot 0 holds cell A, slot 1 cell B."""

    AA = ((0, _MY), (0, _R0), (0, _R0), (0, _MY))
    AB = ((1, _R0), (0, _R0), (1, _MY), (0, _MY), (1, _R0))

    __hash__ = object.__hash__  # as for Mask: members are singletons


@functools.cache
def _pattern(kind: CaseKind, rows: int
             ) -> tuple[tuple[str, int, int, int, Orientation], ...]:
    """The instances of every ``kind`` case ``rows`` rows tall, in
    placement order, as (instance name, cell slot, column, row,
    orientation). Each column holds one instance, except that a column of
    cell B, which is one row tall, stacks ``rows`` instances, flipped
    vertically on odd rows. Instances are named U1, U2, ..."""
    instances = []
    for column, (slot, o) in enumerate(kind.value):
        for row in range(rows if slot else 1):
            instances.append((f"U{len(instances) + 1}", slot, column, row,
                              o.flipped_ud if row % 2 else o))
    return tuple(instances)


@functools.cache
def _base_pairs(kind: CaseKind) -> tuple[tuple[int, Orientation, int,
                                               Orientation, int], ...]:
    """One entry per seam of a ``kind`` case: each pair of adjacent
    columns, whose base-row instances take the columns' orientations, as
    (left slot, left orientation, right slot, right orientation, right
    column)."""
    columns = kind.value
    return tuple((ls, lo, rs, ro, rc) for rc, ((ls, lo), (rs, ro))
                 in enumerate(zip(columns, columns[1:]), 1))


def placement_count(cases: Iterable[AbutmentCase]) -> int:
    """Number of instances the cases place."""
    return sum(len(c.pattern) for c in cases)


@dataclass(frozen=True, slots=True)
class AbutmentCase:
    """Cell ``a``, and cell ``b`` for an A-B kind, abutted in the columns
    of the kind's pattern (``pattern``). The instances and the seams
    are derived from the pattern and the cell widths on each access."""

    kind: CaseKind
    a: CellProfile = field(repr=False)
    b: CellProfile | None = field(repr=False)
    width: int
    height_rows: int
    module_name: str

    @property
    def cell_a(self) -> str:
        return self.a.name

    @property
    def cell_b(self) -> str | None:
        return None if self.b is None else self.b.name

    @property
    def cells(self) -> tuple[CellProfile, ...]:
        """The case's cells by slot: (A,) or (A, B)."""
        return (self.a,) if self.b is None else (self.a, self.b)

    def column_x(self) -> list[int]:
        """Case-local x of each column of the pattern."""
        cells = self.cells
        xs, x = [], 0
        for slot, _ in self.kind.value:
            xs.append(x)
            x += cells[slot].width
        return xs

    @property
    def pattern(self) -> tuple[tuple[str, int, int, int, Orientation], ...]:
        """The rows of the case's instance pattern (``_pattern``):
        (instance name, cell slot, column, row, orientation)."""
        return _pattern(self.kind, self.height_rows)

    def instances(self, origin: tuple[int, int] = (0, 0)
                  ) -> list[tuple[str, CellProfile, int, int, Orientation]]:
        """Each instance of the pattern in placement order, as (instance
        name, cell, x, y, orientation), with the case placed at
        ``origin``; a row is as tall as A's rows."""
        ox, oy = origin
        cells = self.cells
        xs = self.column_x()
        row_h = self.a.height // self.height_rows
        return [(name, cells[slot], xs[column] + ox, row * row_h + oy, o)
                for name, slot, column, row, o in self.pattern]

    @property
    def placements(self) -> tuple[Placement, ...]:
        """The instances (``instances``) at case-local origins."""
        return tuple(Placement(name, cell.name, (x, y), o)
                     for name, cell, x, y, o in self.instances())

    @property
    def seams(self) -> tuple[Seam, ...]:
        """One seam per adjacent pair of base-row instances, at the right
        instance's x."""
        names = [c.name for c in self.cells]
        xs = self.column_x()
        return tuple(Seam(xs[rc], (names[ls], lo), (names[rs], ro))
                     for ls, lo, rs, ro, rc in _base_pairs(self.kind))


_NOT_IDENT = re.compile(r"[^A-Za-z0-9_]")


@functools.cache
def _sanitize(name: str) -> str:
    """``name`` as a simple Verilog identifier: every character outside
    [A-Za-z0-9_] becomes ``_``, and a leading digit gets a ``c``."""
    out = _NOT_IDENT.sub("_", name)
    if not out or out[0].isdigit():
        out = "c" + out
    return out


def instance_path(module: str, instance: str) -> str:
    """Hierarchical name of a case's instance on the die:
    <module>/<instance>."""
    return f"{module}/{instance}"


def _case(a: CellProfile, b: CellProfile | None) -> AbutmentCase:
    """The A-A case of ``a`` when ``b`` is None, else the A-B case of the
    pair, whose module name starts ``mcell`` when A is multi-height. The
    case is as tall as A."""
    if b is None:
        return AbutmentCase(CaseKind.AA, a, None, 4 * a.width, a.height_rows,
                            f"scell_{_sanitize(a.name)}")
    prefix = "mcell" if a.is_multi else "scell"
    return AbutmentCase(CaseKind.AB, a, b, 2 * a.width + 3 * b.width,
                        a.height_rows,
                        f"{prefix}_{_sanitize(a.name)}_{_sanitize(b.name)}")


def enumerate_library(library: CellLibrary) -> list[AbutmentCase]:
    """All testcases for a library in canonical order: one A-A case per
    cell in library order, then one case per unordered cell pair (i < j)
    in index order; the multi-height cell of a pair, if any, is A. Pairs
    of two multi-height cells are out of scope and skipped. Module names
    are unique: a case whose sanitized name is taken by an earlier case
    gets the first free suffix _2, _3, ..."""
    cells = library.cells
    cases = [_case(c, None) for c in cells]
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            if not (a.is_multi and b.is_multi):
                cases.append(_case(b, a) if b.is_multi else _case(a, b))
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
    of it and its left-right mirror. A case realizes the topologies of
    its kind's adjacent columns (``_base_pairs``) with its own cells in
    the slots. Each realized class inside the universe is
    marked in a bitmap of 4N^2 entries; a marked count that
    reaches the universe size proves completeness. Complete iff nothing
    is missing; ``missing`` is sorted by (left cell, right cell, left
    orientation, right orientation)."""
    cells = library.cells
    n = len(cells)
    # A node is (index, side) as 2 * index + side; a topology is the node
    # pair (u, v) at bit u * 2N + v, and its mirror is (v ^ 1, u ^ 1).
    node = {c.name: 2 * i for i, c in enumerate(cells)}
    multi = [c.is_multi for c in cells]
    bits = bytearray(4 * n * n)
    for case in cases:
        a, b = node[case.cell_a], case.cell_b
        nodes = (a,) if b is None else (a, node[b])
        for ls, lo, rs, ro, _ in _base_pairs(case.kind):
            u = nodes[ls] + _SIDE[lo]
            v = nodes[rs] + _SIDE[ro]
            x, y = u >> 1, v >> 1
            if x != y and multi[x] and multi[y]:
                continue
            bits[u * 2 * n + v if u <= v ^ 1
                 else (v ^ 1) * 2 * n + (u ^ 1)] = 1
    size = _universe_size(cells)
    if bits.count(1) == size:
        return CoverageReport(size, ())
    missing = tuple(
        ((cells[x].name, _SIDE_ORIENT[ox]), (cells[y].name, _SIDE_ORIENT[oy]))
        for x in range(n) for y in range(x, n)
        if x == y or not (multi[x] and multi[y])
        for ox in (0, 1) for oy in (0, 1)
        if (x < y or ox <= 1 - oy)
        and not bits[((2 * x + ox) * n + y) * 2 + oy])
    return CoverageReport(size, missing)
