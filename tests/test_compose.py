"""Whole-library oracle for ``run_all``: a case made only of isolated
cells that are clean on their own is composed from per-cell recolour
counts, any other case is flattened and checked whole. Both must equal a
full flatten of every case checked by the all-pairs reference in
``brute``, under both DPT options."""

from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from seamcheck import (AbutmentCase, CellLibrary, CellProfile, ColoredRect,
                       DptOption, Mask, Orientation, Rect, ViolationKind,
                       checks, flatten, parse_library, parse_rules, run_all)
from seamcheck.checks import _alone, _check_layout, _isolated

from brute import ORACLE_DECK, reference_run_all
from conftest import ROW_HEIGHT, SITE_WIDTH, read_testdata, synth_library

RULES = parse_rules(read_testdata("rules.yaml"))  # M1 reach 80
E1, E2, NONE = Mask.E1, Mask.E2, Mask.NONE


def cell(name, width, *shapes, rows=1):
    """shapes: (mask, x1, y1, x2, y2) on M1, or (layer, mask, rect)."""
    return CellProfile(name, width, rows * ROW_HEIGHT, rows, tuple(
        ColoredRect(*s) if len(s) == 3 else ColoredRect("M1", s[0],
                                                          Rect(*s[1:]))
        for s in shapes))


def library(*cells):
    return CellLibrary("lib", ROW_HEIGHT, SITE_WIDTH, cells)


def assert_matches_reference(lib, rules):
    for option in (DptOption.OPTION_I, DptOption.OPTION_II):
        result = run_all(lib, rules, option)
        violations, recolor = reference_run_all(lib, rules, option)
        assert result.violations == violations, option
        assert result.recolor_diff == recolor, option


# Isolated cells (every M1 shape more than 40 DBU inside the outline) that
# carry violations of their own, so their cases are flattened and checked
# whole, plus one cell whose bar touches its left edge.
WIDTH_BAR = cell("WID", 160, (E1, 60, 60, 84, 500))        # 24 < 32 wide
SAME_MASK = cell("SSM", 240, (E1, 50, 50, 82, 520),        # gap 48 < 64
                 (E1, 130, 50, 162, 520))
QUAD = cell("HOT", 400, (E1, 60, 60, 92, 500), (E2, 140, 60, 172, 500),
            (E1, 220, 60, 252, 500), (E2, 300, 60, 332, 500))
TRIANGLE = cell("ODD", 224, (E1, 60, 60, 92, 260),         # odd cycle
                (E2, 132, 60, 164, 260), (E1, 60, 300, 164, 332))
TALL = cell("TALL", 200, (E2, 60, 60, 84, 1092), (NONE, 100, 60, 132, 400),
            rows=2)
EDGE = cell("EDGE", 120, (E2, 0, 100, 32, 476), (E1, 64, 100, 96, 476))
FIXED = library(WIDTH_BAR, SAME_MASK, QUAD, TRIANGLE, TALL, EDGE)


class TestFixedLibrary:
    def test_cells_isolated_as_designed(self):
        assert [_isolated(c, RULES) for c in FIXED.cells] == \
            [True, True, True, True, True, False]

    def test_matches_reference(self):
        assert_matches_reference(FIXED, RULES)

    def test_isolated_cells_report_their_own_violations(self):
        kinds = {o: {v.kind for v in run_all(FIXED, RULES, o).violations}
                 for o in DptOption}
        assert {ViolationKind.WIDTH, ViolationKind.SPACING_SAME_MASK,
                ViolationKind.HOTSPOT, ViolationKind.COLOR_MISSING} <= \
            kinds[DptOption.OPTION_I]
        assert {ViolationKind.WIDTH, ViolationKind.ODD_CYCLE,
                ViolationKind.HOTSPOT} <= kinds[DptOption.OPTION_II]

    def test_odd_cycle_keeps_drawn_masks_of_the_whole_case(self):
        # SSM recolours alone; beside ODD the whole layer keeps its masks.
        result = run_all(library(TRIANGLE, SAME_MASK), RULES,
                         DptOption.OPTION_II)
        modules = {key.split("/")[0] for key in result.recolor_diff}
        assert modules == {"scell_SSM"}


# Cells whose metal is drawn as pins: PINNED's only bar is a 24 DBU wide
# port 60 DBU inside its outline (isolated, but too narrow, so its cases
# are flattened and report its Width violation);
# PINEDGE's port bar sits 4 DBU inside its left edge beside an OBS bar
# (not isolated, so its cases are flattened).
PORTED = parse_library("""\
LIBRARY ports ;
SITE core SIZE 0.008 BY 0.576 ;
MACRO PINNED
  SIZE 0.16 BY 0.576 ;
  PIN A
    PORT
      LAYER M1_E2 ;
      RECT 0.06 0.06 0.084 0.5 ;
    END
  END A
END PINNED
MACRO PINEDGE
  SIZE 0.12 BY 0.576 ;
  PIN A
    PORT
      LAYER M1_E1 ;
      RECT 0.004 0.1 0.036 0.476 ;
    END
  END A
  OBS
    LAYER M1_E2 ;
    RECT 0.068 0.1 0.1 0.476 ;
  END
END PINEDGE
END LIBRARY
""")


def test_port_metal_matches_reference():
    pinned, pin_edge = PORTED.cells
    assert _isolated(pinned, RULES) and not _isolated(pin_edge, RULES)
    lib = library(pinned, pin_edge, SAME_MASK)
    result = run_all(lib, RULES, DptOption.OPTION_I)
    kinds = {}
    for v in result.violations:
        kinds.setdefault(result.cases[v.case_index].module_name,
                         set()).add(v.kind)
    assert kinds["scell_PINNED"] == {ViolationKind.WIDTH}
    assert ViolationKind.SPACING_ANY_MASK in kinds["scell_PINEDGE"]
    assert_matches_reference(lib, RULES)


class TestIsolationBoundary:
    """Bars exactly reach/2 = 40 DBU from every edge are not isolated:
    across a seam two of them are 80 DBU apart, which the 80-DBU
    max_gap of quad_alternating still chains."""

    A = cell("A", 224, (E1, 40, 40, 72, 536), (E2, 152, 40, 184, 536))
    B = cell("B", 112, (E1, 40, 40, 72, 536))

    def test_half_reach_is_not_isolated(self):
        assert not _isolated(self.A, RULES)
        assert not _isolated(self.B, RULES)
        one_more = cell("A", 224, (E1, 41, 41, 73, 535),
                        (E2, 151, 41, 183, 535))
        assert _isolated(one_more, RULES)

    def test_seam_hotspot_found(self):
        lib = library(self.A, self.B)
        result = run_all(lib, RULES, DptOption.OPTION_I)
        ab = [v for v in result.violations
              if result.cases[v.case_index].cell_b == "B"]
        assert [v.pattern_name for v in ab] == ["quad_alternating"] * 2
        assert_matches_reference(lib, RULES)


def test_shape_outside_outline_is_not_isolated():
    # The layer has no rule and no pattern, so only the outline counts.
    inside = cell("C", 160, ("M9", E1, Rect(0, 0, 160, 576)))
    outside = cell("C", 160, ("M9", E1, Rect(0, 0, 161, 576)))
    assert _isolated(inside, RULES)
    assert not _isolated(outside, RULES)


# Random libraries under ORACLE_DECK (M1 DPT with reach 64, M2 single-mask
# with reach 80, M3 read only by a hotspot pattern with reach 64) plus M4,
# which no check reads. A cell is drawn "inner", keeping every swept shape
# 41 DBU inside its outline (above every reach/2), or anywhere, so that
# bars touch its edges and form jogs with their neighbours across seams.
GAPS = (0, 20, 31, 32, 40, 47, 48, 50, 63, 64, 65, 80, 81)
INNER = 41


@st.composite
def bar_group(draw, width, height, inner):
    """Parallel bars on one layer, stepping along x or y at gaps around
    the deck's limits (gap 0 makes a touching jog), with ragged ends."""
    layer = draw(st.sampled_from(("M1", "M1", "M2", "M3", "M4")))
    margin = INNER if inner and layer != "M4" else 0
    along_x = draw(st.booleans())
    span, depth = ((width, height) if along_x else (height, width))
    span, depth = span - 2 * margin, depth - 2 * margin
    bars, pos = [], 0
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.sampled_from((24, 32, 40)))
        if pos + w > span:
            break
        lo = draw(st.integers(0, depth // 3))
        hi = depth - draw(st.integers(0, depth // 3))
        mask = draw(st.sampled_from((E1, E2, E1, E2, NONE)))
        bars.append((mask, pos, lo, pos + w, hi))
        pos += w + draw(st.sampled_from(GAPS))
    extent = max(b[3] for b in bars)
    shift = margin + draw(st.sampled_from(
        (0, span - extent, (span - extent) // 2)))
    shapes = []
    for mask, a1, b1, a2, b2 in bars:
        r = (Rect(a1 + shift, b1 + margin, a2 + shift, b2 + margin)
             if along_x else
             Rect(b1 + margin, a1 + shift, b2 + margin, a2 + shift))
        shapes.append(ColoredRect(layer, mask, r))
    return shapes


@st.composite
def cells(draw, name, inner=st.booleans()):
    rows = draw(st.sampled_from((1, 1, 2)))
    width = SITE_WIDTH * draw(st.integers(16, 48))
    inner = draw(inner)
    shapes = []
    for _ in range(draw(st.integers(0, 3))):
        shapes += draw(bar_group(width, rows * ROW_HEIGHT, inner))
    return CellProfile(name, width, rows * ROW_HEIGHT, rows, tuple(shapes))


@st.composite
def libraries(draw):
    n = draw(st.integers(1, 4))
    return library(*(draw(cells(f"C{i}")) for i in range(n)))


@settings(max_examples=60, deadline=None)
@given(libraries())
def test_random_libraries_match_reference(lib):
    assert_matches_reference(lib, ORACLE_DECK)


@settings(max_examples=20, deadline=None)
@given(libraries())
def test_random_libraries_match_reference_under_demo_deck(lib):
    assert_matches_reference(lib, RULES)


@settings(max_examples=150, deadline=None)
@given(cells("C", inner=st.just(True)))
def test_isolated_cell_alone_is_the_same_in_every_orientation(cell):
    """``_alone`` checks only R0: in every orientation one instance alone
    is clean exactly when R0 is, and recolours as many shapes."""
    die = Rect(0, 0, cell.width, cell.height)
    for rules in (ORACLE_DECK, RULES):
        assert _isolated(cell, rules)
        for option in DptOption:
            results = {}
            for o in Orientation:
                found, recolor = _check_layout(
                    flatten([("U1", cell, 0, 0, o)], die), rules, option)
                results[o] = (not found, recolor.get("U1", 0))
            assert set(results.values()) == {results[Orientation.R0]}
            clean, recoloured = results[Orientation.R0]
            assert _alone(cell, rules, option) == (
                recoloured if clean else None)


def test_alone_runs_once_per_cell_per_call(monkeypatch):
    lib = synth_library(6, multi_every=3)
    calls = Counter()
    alone = checks._alone

    def counted(cell, *args):
        calls[cell.name] += 1
        return alone(cell, *args)

    monkeypatch.setattr(checks, "_alone", counted)
    for option in DptOption:
        calls.clear()
        run_all(lib, RULES, option)
        assert calls == {c.name: 1 for c in lib.cells}, option


def test_composition_is_per_call():
    # A second deck must not reuse the first call's per-cell results.
    lib = library(WIDTH_BAR)
    wide = replace(RULES, layers={"M1": replace(RULES.layers["M1"],
                                                min_width=20)})
    assert run_all(lib, RULES, DptOption.OPTION_I).violations
    assert run_all(lib, wide, DptOption.OPTION_I).violations == ()


def test_composed_cases_build_no_placement(monkeypatch):
    # Every synthetic cell is isolated and clean, single-multi stacks
    # included, so every case is composed and places no instance.
    lib = synth_library(6, multi_every=3)
    assert all(_isolated(c, RULES) for c in lib.cells)

    def refuse(case, *args):
        raise AssertionError(f"instances of {case.module_name} were placed")

    monkeypatch.setattr(AbutmentCase, "placements", property(refuse))
    monkeypatch.setattr(AbutmentCase, "instances", refuse)
    for option in DptOption:
        result = run_all(lib, RULES, option)
        assert result.violations == ()
    assert result.recolor_diff  # Option II recolours the E2 bars
