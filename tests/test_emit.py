"""Netlist and placement-file emission, parsing, and floorplanning tests."""

import dataclasses
import os
import random
import re
import tempfile
import tracemalloc
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamcheck import (
    CellLibrary,
    CellProfile,
    ColoredRect,
    Mask,
    Orientation,
    ParseError,
    Placement,
    Rect,
    emit_def,
    emit_verilog,
    enumerate_library,
    parse_def,
    parse_library,
    parse_rules,
    plan_floorplan,
    render_def,
    write_def,
    write_verilog,
)

from brute import linear_floorplan
from conftest import (GRID, ROW_HEIGHT, SITE_WIDTH, TESTDATA, last_case,
                      read_testdata, synth_cell, synth_library)

RULES_TEXT = read_testdata("rules.yaml")


def rules_with_interaction(distance: int):
    """Pattern-free deck so small interaction distances stay consistent."""
    return parse_rules(f"""
name: t
interaction_distance: {distance}
layers:
  M1:
    min_width: 32
    min_spacing_any_mask: 32
    min_spacing_same_mask: 64
""")


class TestVerilog:
    def test_module_shapes(self):
        lib = synth_library(2, with_shapes=False)
        a, b = lib.cells
        cases = enumerate_library(lib)
        text = emit_verilog(cases)
        mod_a = f"module scell_{a.name} ();"
        assert mod_a in text
        assert f"module scell_{a.name}_{b.name} ();" in text
        assert "module TOP ();" in text
        # A-A case instantiates the same cell four times.
        body = text.split(mod_a)[1].split("endmodule")[0]
        assert body.count(f"  {a.name} U") == 4
        # TOP instantiates every case module by its own name.
        top = text.split("module TOP ();")[1].split("endmodule")[0]
        for case in cases:
            assert f"  {case.module_name} {case.module_name} ();" in top
        assert text.endswith("\n")
        assert "\r" not in text

    def test_cross_case_instance_order(self):
        lib = synth_library(2, with_shapes=False)
        a, b = lib.cells
        text = emit_verilog([last_case(a, b)])
        body = text.split(f"module scell_{a.name}_{b.name} ();")[1]
        body = body.split("endmodule")[0]
        insts = re.findall(r"^\s+(\S+) (U\d+) \(\);", body, re.M)
        assert insts == [(b.name, "U1"), (a.name, "U2"), (b.name, "U3"),
                         (a.name, "U4"), (b.name, "U5")]

    def test_cell_names_that_are_not_identifiers_are_escaped(self):
        def named(index, name):
            return dataclasses.replace(synth_cell(index, with_shape=False),
                                       name=name)

        names = ("AND2-X1", "9LIVES", "OK_$1", "module", "wire", "MODULE")
        text = emit_verilog(enumerate_library(CellLibrary(
            "n", ROW_HEIGHT, SITE_WIDTH,
            tuple(named(i, name) for i, name in enumerate(names)))))
        refs = re.findall(r"^  (\S+) U\d+ \(\);", text, re.M)
        # Reserved words are escaped too; Verilog keywords are lower case.
        assert set(refs) == {"\\AND2-X1", "\\9LIVES", "OK_$1", "\\module",
                             "\\wire", "MODULE"}
        assert "  \\AND2-X1 U1 ();" in text
        assert "  module U1 ();" not in text

    def test_empty_case_list_still_emits_top(self):
        text = emit_verilog([])
        assert "module TOP ();" in text


class TestDefEmission:
    def make(self, n=2, multi_every=0):
        lib = synth_library(n, multi_every=multi_every)
        rules = parse_rules(RULES_TEXT)
        cases = enumerate_library(lib)
        plan = plan_floorplan(cases, lib, rules)
        return cases, plan

    def test_header_and_footer(self):
        cases, plan = self.make()
        text = emit_def(cases, plan)
        lines = text.splitlines()
        assert lines[0] == "VERSION 5.6 ;"
        assert lines[1] == "DESIGN TOP ;"
        assert lines[2] == "UNITS DISTANCE MICRONS 1000 ;"
        die = plan.die_area
        assert lines[3] == f"DIEAREA ( {die.x1} {die.y1} ) ( {die.x2} {die.y2} ) ;"
        total = sum(len(c.placements) for c in cases)
        assert lines[4] == f"COMPONENTS {total} ;"
        assert lines[-2] == "END COMPONENTS"
        assert lines[-1] == "END DESIGN"

    def test_component_line_format(self):
        cases, plan = self.make()
        text = emit_def(cases, plan)
        pattern = re.compile(
            r"^- (\S+)/U(\d+) (\S+) \+ PLACED \( (\d+) (\d+) \) (N|S|FN|FS) ;$")
        body = [l for l in text.splitlines() if l.startswith("- ")]
        total = sum(len(c.placements) for c in cases)
        assert len(body) == total
        for line in body:
            assert pattern.match(line), line

    def test_aa_case_coordinates(self):
        lib = synth_library(1)
        cell = lib.cells[0]
        rules = parse_rules(RULES_TEXT)
        cases = enumerate_library(lib)
        plan = plan_floorplan(cases, lib, rules)
        text = emit_def(cases, plan)
        w = cell.width
        mod = cases[0].module_name
        for i, (x, code) in enumerate(
                ((0, "FN"), (w, "N"), (2 * w, "N"), (3 * w, "FN"))):
            assert f"- {mod}/U{i + 1} {cell.name} + PLACED ( {x} 0 ) {code} ;" in text


def written(writer, *args) -> bytes:
    """The bytes ``writer`` puts in a real file opened as the CLI opens
    its outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer(fh, *args)
        with open(path, "rb") as fh:
            return fh.read()


class TestStreamedEmission:
    """write_verilog/write_def stream to a file what emit_verilog/emit_def
    return as a string, and hold only a small part of it at a time."""

    def check_library(self, lib):
        cases = enumerate_library(lib)
        plan = plan_floorplan(cases, lib, parse_rules(RULES_TEXT))
        assert (written(write_verilog, cases)
                == emit_verilog(cases).encode("utf-8"))
        assert (written(write_def, cases, plan)
                == emit_def(cases, plan).encode("utf-8"))

    @pytest.mark.parametrize("lef", sorted(p.name for p in
                                           TESTDATA.glob("*.lef")))
    def test_testdata_files_equal_strings(self, lef):
        self.check_library(parse_library(read_testdata(lef)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.text("AXY_9-\u00c9", min_size=1,
                                      max_size=4), st.booleans()),
                    min_size=1, max_size=6, unique_by=lambda c: c[0]))
    def test_mixed_libraries_equal_strings(self, spec):
        self.check_library(CellLibrary("mixed", ROW_HEIGHT, SITE_WIDTH, tuple(
            dataclasses.replace(synth_cell(i, 2 if tall else 1), name=name)
            for i, (name, tall) in enumerate(spec))))

    def test_writers_hold_under_half_of_what_they_write(self):
        lib = synth_library(150)
        cases = enumerate_library(lib)
        plan = plan_floorplan(cases, lib, parse_rules(RULES_TEXT))
        written_bytes = (len(emit_verilog(cases).encode("utf-8"))
                         + len(emit_def(cases, plan).encode("utf-8")))
        with open(os.devnull, "w", encoding="utf-8", newline="\n") as fh:
            tracemalloc.start()
            try:
                write_verilog(fh, cases)
                write_def(fh, cases, plan)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert written_bytes > 5_000_000
        assert peak < written_bytes / 2, (peak, written_bytes)


class TestDefParsing:
    def roundtrip(self, n=3, multi_every=0):
        cases, plan = TestDefEmission().make(n, multi_every)
        text = emit_def(cases, plan)
        return text, parse_def(text), plan

    def test_roundtrip_preserves_everything(self):
        text, design, plan = self.roundtrip()
        assert design.name == "TOP"
        assert design.die_area == plan.die_area
        again = render_def(design.placements, design.die_area, design.name)
        assert again == text

    def test_randomized_roundtrips(self):
        rng = random.Random(9)
        rules = parse_rules(RULES_TEXT)
        for _ in range(25):
            lib = synth_library(rng.randrange(1, 5),
                                multi_every=rng.choice((0, 2)))
            cases = enumerate_library(lib)
            plan = plan_floorplan(cases, lib, rules)
            text = emit_def(cases, plan)
            design = parse_def(text)
            assert len(design.placements) == sum(len(c.placements) for c in cases)
            assert render_def(design.placements, design.die_area) == text

    def test_orientation_codes_roundtrip(self):
        text, design, _ = self.roundtrip()
        codes = {p.orientation for p in design.placements}
        assert codes <= set(Orientation)
        assert Orientation.MY in codes and Orientation.R0 in codes
        # Every orientation, under its DEF code, renders and parses back.
        placements = tuple(
            Placement(f"U{i}", "INV", (8 * i, 0), o)
            for i, o in enumerate(Orientation))
        text = render_def(placements, Rect(0, 0, 100, 576))
        assert [line.split()[-2] for line in text.splitlines()
                if line.startswith("- ")] == ["N", "S", "FS", "FN"]
        assert parse_def(text).placements == placements

    def test_unknown_orientation_code_rejected(self):
        text, _, _ = self.roundtrip(n=1)
        bad = text.replace(" FN ;", " FW ;", 1)
        head = bad[:bad.index(" FW ;")]  # the text before the code token
        line, col = head.count("\n") + 1, len(head.rsplit("\n", 1)[-1]) + 2
        with pytest.raises(ParseError, match=re.escape(
                f"line {line}, col {col}: unsupported DEF orientation "
                f"code 'FW'")) as info:
            parse_def(bad)
        assert (info.value.line, info.value.col) == (line, col)

    def test_component_count_mismatch_rejected(self):
        text, _, _ = self.roundtrip(n=1)
        bad = re.sub(r"COMPONENTS (\d+) ;",
                     lambda m: f"COMPONENTS {int(m.group(1)) + 1} ;", text)
        with pytest.raises(ParseError):
            parse_def(bad)

    def test_trailing_garbage_rejected(self):
        text, _, _ = self.roundtrip(n=1)
        with pytest.raises(ParseError):
            parse_def(text + "EXTRA\n")

    @pytest.mark.parametrize("number", ["1_000", "+50", "\u0663", "0x10",
                                        "007", "00", "-0", "-05"])
    def test_integer_other_than_ascii_digits_rejected(self, number):
        # Only canonical integers parse: no leading zeros and no -0, so
        # re-rendering a parsed design gives back its bytes.
        text, _, _ = self.roundtrip(n=1)
        bad = text.replace("DIEAREA ( 0 0 )", f"DIEAREA ( {number} 0 )")
        assert bad != text
        with pytest.raises(ParseError, match=re.escape(
                f"line 4, col 11: expected integer, found {number!r}")):
            parse_def(bad)

    def test_missing_header_rejected(self):
        text, _, _ = self.roundtrip(n=1)
        with pytest.raises(ParseError):
            parse_def(text.replace("VERSION 5.6 ;\n", ""))


class TestFloorplan:
    def test_single_case_die(self):
        cell = dataclasses.replace(synth_cell(0, with_shape=False), width=200)
        case = last_case(cell)
        rules = parse_rules(RULES_TEXT)
        plan = plan_floorplan([case], GRID, rules)
        assert plan.positions == ((0, 0),)
        assert plan.die_area.width == 800
        assert plan.die_area.height == ROW_HEIGHT

    def test_case_gap_is_at_least_twice_interaction(self):
        for distance in (100, 200, 333):
            rules = rules_with_interaction(distance)
            lib = synth_library(2, with_shapes=False)
            cases = enumerate_library(lib)
            plan = plan_floorplan(cases, lib, rules)
            assert plan.case_gap >= 2 * rules.interaction_distance
            assert plan.case_gap % lib.site_width == 0

    def test_packs_on_the_library_grid(self):
        # Twice 66 is 132: a multiple of a 4-DBU site, rounded up to 136
        # on an 8-DBU one. Shelves stack by the library's row height.
        rules = rules_with_interaction(66)
        cell = dataclasses.replace(synth_cell(0, with_shape=False), width=200)
        cases = [last_case(cell)] * 2
        for site, row_height, gap in ((8, 576, 136), (4, 600, 132)):
            grid = CellLibrary("grid", row_height, site, ())
            plan = plan_floorplan(cases, grid, rules, max_row_width=1000)
            assert plan.case_gap == gap
            assert plan.origin_of(1) == (0, row_height)
            assert plan.die_area.height == 2 * row_height

    def test_row_overflow_starts_new_row(self):
        cell = dataclasses.replace(synth_cell(0, with_shape=False), width=200)
        cases = [last_case(cell)] * 2
        rules = rules_with_interaction(64)
        # Each case is 800 wide; gap is 128. Two cases need 1728.
        plan = plan_floorplan(cases, GRID, rules, max_row_width=1000)
        assert plan.case_gap == 128
        assert plan.positions[0] == (0, 0)
        assert plan.positions[1] == (1, 0)
        assert plan.die_area.height == 2 * ROW_HEIGHT

    def test_cases_pack_on_one_row_when_they_fit(self):
        cell = dataclasses.replace(synth_cell(0, with_shape=False), width=200)
        cases = [last_case(cell)] * 2
        rules = rules_with_interaction(64)
        plan = plan_floorplan(cases, GRID, rules, max_row_width=2000)
        assert plan.positions == ((0, 0), (0, 928))
        assert plan.die_area.height == ROW_HEIGHT

    def test_cases_never_overlap(self):
        # Pairs of cases must be separated in x by the case gap or occupy
        # disjoint row intervals.
        lib = synth_library(2, multi_every=2, with_shapes=False)
        cases = enumerate_library(lib)
        rules = parse_rules(RULES_TEXT)
        plan = plan_floorplan(cases, lib, rules, max_row_width=2000)
        boxes = []
        for i, (row, x) in enumerate(plan.positions):
            boxes.append((x, x + cases[i].width, row, row + cases[i].height_rows))
        for i, (ax1, ax2, ar1, ar2) in enumerate(boxes):
            for bx1, bx2, br1, br2 in boxes[i + 1:]:
                rows_disjoint = ar2 <= br1 or br2 <= ar1
                x_separated = bx1 - ax2 >= plan.case_gap or ax1 - bx2 >= plan.case_gap
                assert rows_disjoint or x_separated

    def test_case_too_wide(self):
        # A case wider than a row sits alone on a shelf of its own, and
        # the die is as wide as that case.
        wide = last_case(dataclasses.replace(
            synth_cell(0, with_shape=False), width=400))
        narrow = last_case(dataclasses.replace(
            synth_cell(1, with_shape=False), width=80))
        assert wide.width > 1200 >= narrow.width
        plan = plan_floorplan([wide, narrow, narrow], GRID,
                              parse_rules(RULES_TEXT), max_row_width=1200)
        assert plan.positions[0] == (0, 0)
        assert all(row != 0 for row, _ in plan.positions[1:])
        assert plan.die_area.width == wide.width

    def test_origin_of_matches_positions(self):
        lib = synth_library(3, with_shapes=False)
        cases = enumerate_library(lib)
        rules = parse_rules(RULES_TEXT)
        plan = plan_floorplan(cases, lib, rules, max_row_width=3000)
        for i, (row, x) in enumerate(plan.positions):
            assert plan.origin_of(i) == (x, row * ROW_HEIGHT)

    def test_isolation_distance_between_cases(self):
        # Any two shapes from different cases on the same row interval
        # must sit farther apart than the interaction distance.
        lib = synth_library(3)
        rules = parse_rules(RULES_TEXT)
        cases = enumerate_library(lib)
        plan = plan_floorplan(cases, lib, rules)
        by_row = {}
        for i, (row, x) in enumerate(plan.positions):
            by_row.setdefault(row, []).append((x, x + cases[i].width))
        for row, spans in by_row.items():
            spans.sort()
            for (a1, a2), (b1, b2) in zip(spans, spans[1:]):
                assert b1 - a2 >= 2 * rules.interaction_distance

class Box(NamedTuple):
    """What floorplanning reads of a case."""

    width: int
    height_rows: int
    module_name: str = "m"


@st.composite
def packing_inputs(draw):
    """Case sizes of 1-3 rows and a row width from below the widest case,
    which then sits alone on its shelf, through just above it to loose."""
    boxes = draw(st.lists(
        st.builds(Box, st.integers(1, 2000),
                  st.sampled_from((1, 1, 1, 2, 3))),
        min_size=1, max_size=60))
    widest = max(b.width for b in boxes)
    slack = draw(st.one_of(st.integers(-widest + 1, 0), st.integers(0, 16),
                           st.integers(0, 20_000)))
    return boxes, widest + slack


class TestFirstFitOracle:
    """``plan_floorplan`` equals the linear first-fit scan."""

    RULES = rules_with_interaction(64)  # gap 128

    @settings(max_examples=300, deadline=None)
    @given(packing_inputs())
    def test_random_sequences_match_linear_scan(self, inputs):
        boxes, max_row_width = inputs
        assert (plan_floorplan(boxes, GRID, self.RULES, max_row_width)
                == linear_floorplan(boxes, GRID, self.RULES, max_row_width))

    @pytest.mark.parametrize("boxes, positions", [
        # The second case fills shelf 0 exactly: 400 + 128 + 472 = 1000.
        ([Box(400, 1), Box(472, 1)], ((0, 0), (0, 528))),
        # Shelf 0 keeps 472 free, shelf 1 keeps 172; the last case fits
        # both and takes the first, emptier one.
        ([Box(400, 1), Box(700, 1), Box(100, 1)],
         ((0, 0), (1, 0), (0, 528))),
        # A case goes only into a shelf of its own row count, however
        # empty the others: a two-row case never into a one-row shelf,
        # nor a one-row case into a two-row shelf.
        ([Box(100, 1), Box(100, 2), Box(100, 1)],
         ((0, 0), (1, 0), (0, 228))),
        ([Box(100, 2), Box(100, 1)], ((0, 0), (2, 0))),
    ])
    def test_fixed_sequences(self, boxes, positions):
        plan = plan_floorplan(boxes, GRID, self.RULES, 1000)
        assert plan.positions == positions
        assert plan == linear_floorplan(boxes, GRID, self.RULES, 1000)

    def test_many_shelves_of_mixed_height(self):
        rng = random.Random(5)
        boxes = [Box(rng.randrange(1, 3000), rng.choice((1, 1, 2, 3)))
                 for _ in range(3000)]
        assert (plan_floorplan(boxes, GRID, self.RULES, 3000)
                == linear_floorplan(boxes, GRID, self.RULES, 3000))


# Names that sanitize alike: "X-Y" and "X_Y" both give X_Y, whose first
# suffix X_Y_2 is also a name of its own, and "9A" gains a "c" prefix.
CLASHING_NAMES = ("X-Y", "X_Y", "X_Y_2", "9A", "c9A", "A")


@st.composite
def edge_rects(draw, width, height):
    """A rect inside [0, width] x [0, height] whose sides often lie on
    the outline."""
    x1 = draw(st.one_of(st.just(0), st.integers(0, width - 1)))
    y1 = draw(st.one_of(st.just(0), st.integers(0, height - 1)))
    x2 = draw(st.one_of(st.just(width), st.integers(x1 + 1, width)))
    y2 = draw(st.one_of(st.just(height), st.integers(y1 + 1, height)))
    return Rect(x1, y1, x2, y2)


@st.composite
def planned_libraries(draw):
    """A library of 1-5 cells, one to three rows tall, with shapes that
    touch the outline and clashing names, and a row width from below the
    widest case, which then sits alone on its shelf, to twice it, which
    packs few cases per shelf."""
    cells = []
    for name in draw(st.lists(st.sampled_from(CLASHING_NAMES), min_size=1,
                              max_size=5, unique=True)):
        rows = draw(st.integers(1, 3))
        width = SITE_WIDTH * draw(st.integers(1, 30))
        height = rows * ROW_HEIGHT
        shapes = tuple(ColoredRect("M1", draw(st.sampled_from(list(Mask))),
                                   draw(edge_rects(width, height)))
                       for _ in range(draw(st.integers(0, 4))))
        cells.append(CellProfile(name, width, height, rows, shapes))
    lib = CellLibrary("planned", ROW_HEIGHT, SITE_WIDTH, tuple(cells))
    widest = max(case.width for case in enumerate_library(lib))
    return lib, draw(st.integers(1, 2 * widest))


@settings(max_examples=150, deadline=None)
@given(planned_libraries())
def test_plan_library_makes_what_emission_assumes(planned):
    """What the emitters and the checkers no longer re-check holds where
    ``enumerate_library`` and ``plan_floorplan`` make it, at any row
    width: every placed shape lies inside the die, module names are
    unique, and a case's cells are the library's."""
    lib, max_row_width = planned
    cases = enumerate_library(lib)
    plan = plan_floorplan(cases, lib, parse_rules(RULES_TEXT), max_row_width)
    die = plan.die_area
    for idx, case in enumerate(cases):
        assert all(any(cell is c for c in lib.cells) for cell in case.cells)
        for _, cell, x, y, o in case.instances(plan.origin_of(idx)):
            for _, _, (x1, y1, x2, y2) in cell.oriented[o]:
                assert die.contains(Rect(x1 + x, y1 + y, x2 + x, y2 + y))
    names = [case.module_name for case in cases]
    assert len(set(names)) == len(names)
