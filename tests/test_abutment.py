"""Abutment-case generation and coverage tests.

Mirror-class coverage is validated against a brute-force oracle that
represents each seam topology as the frozenset of its two ordered
variants, entirely independent of the library's canonicalization.
"""

import dataclasses
import gc
import itertools
import random
import re
import types
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from seamcheck import (
    CaseKind,
    CellLibrary,
    Orientation,
    coverage_check,
    enumerate_library,
    expected_count,
)
from seamcheck.abutment import _universe_size

from brute import oracle_seams
from conftest import (ROW_HEIGHT, SITE_WIDTH, last_case, synth_cell,
                      synth_library)

R0, R180, MX, MY = (Orientation.R0, Orientation.R180,
                    Orientation.MX, Orientation.MY)


# Oracle machinery: a topology is ((cellL, oL), (cellR, oR)) with o in
# {"R0", "MY"}; its mirror swaps sides and flips both orientations.

_FLIP = {"R0": "MY", "MY": "R0"}


def oracle_mirror(t):
    (cl, ol), (cr, orr) = t
    return ((cr, _FLIP[orr]), (cl, _FLIP[ol]))


def oracle_class(t):
    return frozenset((t, oracle_mirror(t)))


def oracle_universe(names, multi=()):
    """All distinct abutment classes, skipping multi|multi cross pairs."""
    classes = set()
    for cl, cr in itertools.product(names, repeat=2):
        if cl != cr and cl in multi and cr in multi:
            continue
        for ol, orr in itertools.product(("R0", "MY"), repeat=2):
            classes.add(oracle_class(((cl, ol), (cr, orr))))
    return classes


def oracle_covered(cases):
    """Classes touched by the seams of generated cases, reading only the
    public Seam fields and normalizing flipped rows by name."""
    covered = set()
    names = {"R0": "R0", "MY": "MY", "MX": "R0", "R180": "MY"}
    for case in cases:
        for seam in case.seams:
            t = ((seam.left[0], names[seam.left[1].name]),
                 (seam.right[0], names[seam.right[1].name]))
            covered.add(oracle_class(t))
    return covered


class TestTypeAA:
    def test_shape(self):
        cell = synth_cell(0, with_shape=False)
        case = last_case(cell)
        assert case.kind is CaseKind.AA_SINGLE
        assert [p.instance_name for p in case.placements] == ["U1", "U2", "U3", "U4"]
        assert [p.orientation for p in case.placements] == [MY, R0, R0, MY]
        w = cell.width
        assert [p.origin for p in case.placements] == \
            [(0, 0), (w, 0), (2 * w, 0), (3 * w, 0)]
        assert [s.x for s in case.seams] == [w, 2 * w, 3 * w]
        assert case.width == 4 * w
        assert case.module_name == f"scell_{cell.name}"

    def test_def_codes_follow_orientations(self):
        case = last_case(synth_cell(0, with_shape=False))
        assert [p.orientation.def_code for p in case.placements] == \
            ["FN", "N", "N", "FN"]

    def test_covers_all_three_self_classes(self):
        cell = synth_cell(3, with_shape=False)
        case = last_case(cell)
        assert oracle_covered([case]) == oracle_universe([cell.name])
        assert len(oracle_universe([cell.name])) == 3

    def test_multi_height_cell_spans_rows(self):
        cell = synth_cell(1, height_rows=3, with_shape=False)
        case = last_case(cell)
        assert case.kind is CaseKind.AA_MULTI
        assert case.height_rows == 3
        assert [p.origin[1] for p in case.placements] == [0] * 4
        assert len(case.seams) == 3


class TestTypeAB:
    def setup_method(self):
        self.a = synth_cell(0, with_shape=False)
        self.b = synth_cell(1, with_shape=False)

    def test_shape(self):
        case = last_case(self.a, self.b)
        assert case.kind is CaseKind.AB_SINGLE
        assert [p.cell_ref for p in case.placements] == \
            [self.b.name, self.a.name, self.b.name, self.a.name, self.b.name]
        assert [p.orientation for p in case.placements] == [R0, R0, MY, MY, R0]
        wa, wb = self.a.width, self.b.width
        xs = [0, wb, wb + wa, 2 * wb + wa, 2 * wb + 2 * wa]
        assert [p.origin for p in case.placements] == [(x, 0) for x in xs]
        assert case.width == 3 * wb + 2 * wa

    def test_seam_adjacency(self):
        case = last_case(self.a, self.b)
        a, b = self.a.name, self.b.name
        got = [(s.left, s.right) for s in case.seams]
        assert got == [
            ((b, R0), (a, R0)),
            ((a, R0), (b, MY)),
            ((b, MY), (a, MY)),
            ((a, MY), (b, R0)),
        ]

    def test_covers_all_four_cross_classes(self):
        case = last_case(self.a, self.b)
        cross = {c for c in oracle_universe([self.a.name, self.b.name])
                 if len({cell for t in c for cell, _ in t}) == 2}
        assert len(cross) == 4
        assert cross <= oracle_covered([case])

    def test_fixed_assignment_found_by_exhaustive_search(self):
        # Search all 2^5 orientation assignments of the B A B A B column
        # order for ones whose four seams cover all four cross classes.
        a, b = "A", "B"
        order = [b, a, b, a, b]
        cross = {c for c in oracle_universe([a, b])
                 if len({cell for t in c for cell, _ in t}) == 2}
        winners = []
        for bits in itertools.product(("R0", "MY"), repeat=5):
            seams = {
                oracle_class(((order[i], bits[i]), (order[i + 1], bits[i + 1])))
                for i in range(4)
            }
            if cross <= seams:
                winners.append(bits)
        assert ("R0", "R0", "MY", "MY", "R0") in winners
        # Four seams can cover four classes only with zero slack, so no
        # assignment with fewer placements could exist for this order.
        assert all(len({oracle_class(((order[i], w[i]), (order[i + 1], w[i + 1])))
                        for i in range(4)}) == 4 for w in winners)


class TestSingleMulti:
    def test_shape_k2(self):
        multi = synth_cell(0, height_rows=2, with_shape=False)
        single = synth_cell(1, with_shape=False)
        case = last_case(multi, single)
        assert case.kind is CaseKind.AB_SINGLE_MULTI
        assert len(case.placements) == 3 * 2 + 2
        assert case.height_rows == 2
        names = [p.instance_name for p in case.placements]
        assert names == [f"U{i}" for i in range(1, 9)]

    def test_column_layout_and_row_flips(self):
        multi = synth_cell(0, height_rows=2, with_shape=False)
        single = synth_cell(1, with_shape=False)
        wa, wb = multi.width, single.width
        case = last_case(multi, single)
        by_name = {p.instance_name: p for p in case.placements}
        # Column x origins: B stack, A, B stack, A, B stack.
        xs = [0, wb, wb + wa, 2 * wb + wa, 2 * wb + 2 * wa]
        # First column is a stack of two singles; row 1 flips R0 to MX.
        assert by_name["U1"].origin == (xs[0], 0)
        assert by_name["U2"].origin == (xs[0], multi.height // 2)
        assert by_name["U1"].orientation is R0
        assert by_name["U2"].orientation is MX
        # Second column is the multi cell itself on the base row.
        assert by_name["U3"].cell_ref == multi.name
        assert by_name["U3"].origin == (xs[1], 0)
        # Middle stack is mirrored: MY on row 0, R180 on row 1.
        assert by_name["U4"].orientation is MY
        assert by_name["U5"].orientation is R180
        assert by_name["U4"].origin == (xs[2], 0)

    def test_seams_span_all_rows(self):
        multi = synth_cell(0, height_rows=3, with_shape=False)
        single = synth_cell(1, with_shape=False)
        case = last_case(single, multi)
        assert len(case.placements) == 3 * 3 + 2
        assert case.height_rows == 3
        assert len(case.seams) == 4
        # Every column fills all three rows, so each seam spans them.
        heights = {multi.name: multi.height, single.name: single.height}
        column = Counter()
        for p in case.placements:
            column[p.origin[0]] += heights[p.cell_ref]
        assert len(column) == 5
        assert set(column.values()) == {3 * ROW_HEIGHT}


def sized_library(spec):
    """Shape-less library with one cell per (rows, sites) of ``spec``."""
    return CellLibrary("sized", ROW_HEIGHT, SITE_WIDTH, tuple(
        dataclasses.replace(synth_cell(i, rows, with_shape=False),
                            width=SITE_WIDTH * sites)
        for i, (rows, sites) in enumerate(spec)))


class TestDerivedSeams:
    """A case stores placements only; its seams must equal the eager
    column walk of tests/brute.py."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 40)),
                    min_size=1, max_size=6))
    def test_match_column_walk(self, spec):
        lib = sized_library(spec)
        for case in enumerate_library(lib):
            assert case.seams == oracle_seams(case, lib), case

    def test_fixed_library_reaches_every_kind(self):
        lib = sized_library([(1, 20), (2, 21), (3, 5), (1, 7)])
        cases = enumerate_library(lib)
        assert {c.kind for c in cases} == set(CaseKind)
        for case in cases:
            assert case.seams == oracle_seams(case, lib), case


class TestEnumerateLibrary:
    def test_counts_match_formula_for_single_height(self):
        for n in (0, 1, 2, 3, 7, 12):
            lib = synth_library(n, with_shapes=False)
            cases = enumerate_library(lib)
            total = sum(len(c.placements) for c in cases)
            assert total == expected_count(n, "proposed")

    def test_two_cell_library_shape(self):
        lib = synth_library(2, with_shapes=False)
        cases = enumerate_library(lib)
        assert [c.kind for c in cases] == \
            [CaseKind.AA_SINGLE, CaseKind.AA_SINGLE, CaseKind.AB_SINGLE]
        assert sum(len(c.placements) for c in cases) == 13

    def test_multi_multi_pairs_skipped(self):
        lib = synth_library(4, multi_every=2, with_shapes=False)
        cases = enumerate_library(lib)
        kinds = [c.kind for c in cases]
        assert kinds.count(CaseKind.AA_SINGLE) == 2
        assert kinds.count(CaseKind.AA_MULTI) == 2
        assert kinds.count(CaseKind.AB_SINGLE) == 1
        assert kinds.count(CaseKind.AB_SINGLE_MULTI) == 4

    def test_multi_height_cell_of_a_pair_is_a(self):
        lib = sized_library([(1, 20), (2, 21), (3, 5), (1, 7), (2, 3),
                             (1, 9)])
        multi = {c.name for c in lib.cells if c.is_multi}
        cases = enumerate_library(lib)
        assert {c.kind for c in cases} == set(CaseKind)
        pairs = [c for c in cases if c.cell_b is not None]
        for case in pairs:
            tall = case.kind is CaseKind.AB_SINGLE_MULTI
            assert (case.cell_a in multi) is tall, case
            assert case.cell_b not in multi, case
        unordered = [frozenset((c.cell_a, c.cell_b)) for c in pairs]
        assert len(set(unordered)) == len(unordered)
        assert set(unordered) == {
            frozenset((a.name, b.name))
            for a, b in itertools.combinations(lib.cells, 2)
            if not (a.is_multi and b.is_multi)}

    def test_deterministic(self):
        lib = synth_library(5, multi_every=3, with_shapes=False)
        assert enumerate_library(lib) == enumerate_library(lib)

    def test_equal_placements_are_one_object(self):
        cases = enumerate_library(synth_library(60, multi_every=4))
        placements = [p for c in cases for p in c.placements]
        assert len({id(p) for p in placements}) == len(set(placements))

    def test_few_tracked_objects_per_case(self):
        lib = synth_library(60, multi_every=4)
        enumerate_library(lib)  # fill the module's name caches first
        gc.collect()
        before = len(gc.get_objects())
        cases = enumerate_library(lib)
        gc.collect()
        assert len(gc.get_objects()) - before <= 6 * len(cases)

    def test_colliding_sanitized_names_get_suffixes(self):
        lib = named_library(["X_Y", "Z", "X", "Y_Z"])
        names = [c.module_name for c in enumerate_library(lib)]
        assert len(names) == 10 == len(set(names))
        assert names.index("scell_X_Y_Z") < names.index("scell_X_Y_Z_2")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.text("AXY_9-", min_size=1, max_size=4),
                              st.booleans()),
                    min_size=1, max_size=6, unique_by=lambda c: c[0]))
    def test_module_names_unique(self, spec):
        lib = named_library([name for name, _ in spec],
                            multi={name for name, multi in spec if multi})
        cases = enumerate_library(lib)
        names = [c.module_name for c in cases]
        assert len(set(names)) == len(names)
        plain = all(re.fullmatch(r"[A-Za-z][A-Za-z0-9]*", name)
                    for name, _ in spec)
        for k, case in enumerate(cases):
            base = oracle_module_name(case)
            if plain or base not in names[:k]:
                assert case.module_name == base
            else:
                head, _, suffix = case.module_name.rpartition("_")
                assert head == base and int(suffix) >= 2


def named_library(names, multi=()):
    """Shape-less library of the given cell names; cells in ``multi`` are
    two rows tall."""
    return CellLibrary("named", ROW_HEIGHT, SITE_WIDTH, tuple(
        dataclasses.replace(synth_cell(i, 2 if name in multi else 1,
                                       with_shape=False), name=name)
        for i, name in enumerate(names)))


def oracle_module_name(case):
    """The sanitized name a case has when no earlier case took it."""
    def clean(name):
        name = re.sub(r"[^A-Za-z0-9_]", "_", name)
        return name if name[:1].isalpha() or name[:1] == "_" else "c" + name

    prefix = "mcell" if case.kind is CaseKind.AB_SINGLE_MULTI else "scell"
    cells = [case.cell_a] + ([case.cell_b] if case.cell_b else [])
    return "_".join([prefix] + [clean(c) for c in cells])


class TestExpectedCount:
    def test_small_values(self):
        assert expected_count(1, "proposed") == 4
        assert expected_count(2, "proposed") == 13
        assert expected_count(41, "proposed") == 4264
        assert expected_count(108, "proposed") == 29322

    def test_conventional_reference(self):
        assert expected_count(1000, "proposed") == 2_501_500
        assert expected_count(1000, "conventional") == 8_000_000

    def test_formula_identity(self):
        for n in range(0, 60):
            assert expected_count(n, "proposed") == 4 * n + 5 * n * (n - 1) // 2
            assert expected_count(n, "conventional") == 8 * n + 8 * n * (n - 1)


class TestCoverage:
    def test_complete_on_single_height_libraries(self):
        for n in (1, 2, 4, 9):
            lib = synth_library(n, with_shapes=False)
            cases = enumerate_library(lib)
            report = coverage_check(cases, lib)
            assert report.complete, report.missing
            # Cross-check both sides against the oracle.
            names = [c.name for c in lib.cells]
            assert report.universe == len(oracle_universe(names))
            assert oracle_covered(cases) == oracle_universe(names)

    def test_complete_on_mixed_libraries(self):
        rng = random.Random(7)
        for trial in range(8):
            n = rng.randrange(1, 9)
            multi_every = rng.choice((0, 2, 3))
            lib = synth_library(n, multi_every=multi_every, with_shapes=False)
            cases = enumerate_library(lib)
            report = coverage_check(cases, lib)
            assert report.complete, (trial, report.missing)
            names = [c.name for c in lib.cells]
            multi = {c.name for c in lib.cells if c.is_multi}
            assert oracle_covered(cases) >= oracle_universe(names, multi)

    def test_dropped_cross_case_reported_missing(self):
        lib = synth_library(3, with_shapes=False)
        cases = [c for c in enumerate_library(lib)
                 if c.kind is CaseKind.AA_SINGLE]
        report = coverage_check(cases, lib)
        assert not report.complete
        # Every unordered cell pair is missing all four of its classes.
        assert len(report.missing) == 4 * 3
        missing_pairs = {frozenset((t[0][0], t[1][0])) for t in report.missing}
        names = [c.name for c in lib.cells]
        assert missing_pairs == {frozenset((a, b))
                                 for a in names for b in names if a != b}

    def test_missing_matches_oracle_on_random_subsets(self):
        rng = random.Random(11)
        for trial in range(30):
            lib = synth_library(rng.randrange(1, 8),
                                multi_every=rng.choice((0, 2, 3)),
                                with_shapes=False)
            cases = [c for c in enumerate_library(lib)
                     if rng.random() < 0.6]
            report = coverage_check(cases, lib)
            names = [c.name for c in lib.cells]
            multi = {c.name for c in lib.cells if c.is_multi}
            universe = oracle_universe(names, multi)
            missing = [((a, oa.name), (b, ob.name))
                       for (a, oa), (b, ob) in report.missing]
            assert ({oracle_class(t) for t in missing}
                    == universe - oracle_covered(cases)), trial
            assert len(set(map(oracle_class, missing))) == len(missing)
            assert report.universe == len(universe)
            assert report.covered == len(universe) - len(missing)
            # Each class appears as its smaller variant under library
            # order ("MY" < "R0"), sorted by cells, then orientations.
            order = {name: i for i, name in enumerate(names)}

            def key(t):
                (a, oa), (b, ob) = t
                return (order[a], oa, order[b], ob)

            assert all(key(t) <= key(oracle_mirror(t)) for t in missing)
            assert missing == sorted(missing, key=lambda t: (
                order[t[0][0]], order[t[1][0]], t[0][1], t[1][1]))

    def test_odd_row_seams_count_as_base_row_classes(self):
        lib = synth_library(3, with_shapes=False)
        cases = enumerate_library(lib)[:4]
        # coverage_check reads only .seams, so stand-ins carry the
        # odd-row variants of each case's seams.
        flipped = [types.SimpleNamespace(seams=tuple(
            s._replace(left=(s.left[0], s.left[1].flipped_ud),
                       right=(s.right[0], s.right[1].flipped_ud))
            for s in c.seams)) for c in cases]
        report = coverage_check(flipped, lib)
        assert report.missing and report == coverage_check(cases, lib)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.booleans(), max_size=12))
    def test_counted_universe_matches_brute_force(self, flags):
        names = [f"C{i}" for i in range(len(flags))]
        multi = {name for name, tall in zip(names, flags) if tall}
        lib = named_library(names, multi)
        report = coverage_check(enumerate_library(lib), lib)
        assert report.complete
        # A short count falls back to the brute-force universe, so the
        # size that the count must reach is checked on its own too.
        assert (report.universe == _universe_size(lib.cells)
                == len(oracle_universe(names, multi)))

    def test_stray_class_does_not_complete_the_count(self):
        # Drop one A-B case (4 classes) and add a stand-in whose four
        # seams join two distinct multi-height cells: 4 classes outside
        # the universe, which must not make up for the missing ones.
        lib = synth_library(6, multi_every=3, with_shapes=False)
        cases = enumerate_library(lib)
        dropped = next(c for c in cases if c.kind is CaseKind.AB_SINGLE)
        tall = [c.name for c in lib.cells if c.is_multi]
        rename = dict(zip((dropped.cell_a, dropped.cell_b), tall))
        stray = types.SimpleNamespace(seams=tuple(
            s._replace(left=(rename[s.left[0]], s.left[1]),
                       right=(rename[s.right[0]], s.right[1]))
            for s in dropped.seams))
        report = coverage_check(
            [c for c in cases if c is not dropped] + [stray], lib)
        missing = [((a, oa.name), (b, ob.name))
                   for (a, oa), (b, ob) in report.missing]
        assert len(missing) == 4
        assert set(map(oracle_class, missing)) == oracle_covered([dropped])
        assert report.covered == report.universe - 4

    def test_empty_library_is_vacuously_complete(self):
        lib = synth_library(0, with_shapes=False)
        assert coverage_check([], lib).complete
