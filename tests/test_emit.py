"""Netlist and placement-file emission, parsing, and floorplanning tests."""

import dataclasses
import random
import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamcheck import (
    CaseTooWideError,
    CellLibrary,
    NameCollisionError,
    Orientation,
    ParseError,
    UnknownCellRefError,
    UnknownOrientationCodeError,
    emit_def,
    emit_verilog,
    enumerate_library,
    parse_def,
    parse_rules,
    plan_floorplan,
    render_def,
)

from brute import linear_floorplan
from conftest import (ROW_HEIGHT, SITE_WIDTH, last_case, read_testdata,
                      synth_cell, synth_library)

RULES_TEXT = read_testdata("rules.yaml")


def rules_with_interaction(distance: int):
    """Pattern-free deck so small interaction distances stay consistent."""
    return parse_rules(f"""
name: t
row_height: 576
site_width: 8
interaction_distance: {distance}
layers:
  M1:
    min_width: 32
    min_spacing_any_mask: 32
    min_spacing_same_mask: 64
    dpt: true
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

    def test_name_collision_detected(self):
        xy = dataclasses.replace(synth_cell(0, with_shape=False), name="X_Y")
        x = dataclasses.replace(synth_cell(1, with_shape=False), name="X")
        y = dataclasses.replace(synth_cell(2, with_shape=False), name="Y")
        # enumerate_library suffixes the second scell_X_Y; undo that.
        built = enumerate_library(CellLibrary("n", ROW_HEIGHT, SITE_WIDTH,
                                              (xy, x, y)))
        aa_xy, pair_xy = built[0], built[-1]
        assert pair_xy.module_name == "scell_X_Y_2"
        cases = [aa_xy, dataclasses.replace(pair_xy, module_name="scell_X_Y")]
        with pytest.raises(NameCollisionError, match=re.escape(
                "cases #0 and #1 both sanitize to module 'scell_X_Y'")):
            emit_verilog(cases)

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
        plan = plan_floorplan(cases, rules)
        return lib, cases, plan

    def test_header_and_footer(self):
        lib, cases, plan = self.make()
        text = emit_def(cases, lib, plan)
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
        lib, cases, plan = self.make()
        text = emit_def(cases, lib, plan)
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
        plan = plan_floorplan(cases, rules)
        text = emit_def(cases, lib, plan)
        w = cell.width
        mod = cases[0].module_name
        for i, (x, code) in enumerate(
                ((0, "FN"), (w, "N"), (2 * w, "N"), (3 * w, "FN"))):
            assert f"- {mod}/U{i + 1} {cell.name} + PLACED ( {x} 0 ) {code} ;" in text

    def test_unknown_cell_ref_rejected(self):
        lib, cases, plan = self.make()
        ghost = dataclasses.replace(synth_cell(9, with_shape=False), name="GHOST")
        bad = cases + [last_case(ghost)]
        rules = parse_rules(RULES_TEXT)
        plan_bad = plan_floorplan(bad, rules)
        with pytest.raises(UnknownCellRefError):
            emit_def(bad, lib, plan_bad)


class TestDefParsing:
    def roundtrip(self, n=3, multi_every=0):
        lib, cases, plan = TestDefEmission().make(n, multi_every)
        text = emit_def(cases, lib, plan)
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
            plan = plan_floorplan(cases, rules)
            text = emit_def(cases, lib, plan)
            design = parse_def(text)
            assert len(design.placements) == sum(len(c.placements) for c in cases)
            assert render_def(design.placements, design.die_area) == text

    def test_orientation_codes_roundtrip(self):
        text, design, _ = self.roundtrip()
        codes = {p.orientation for p in design.placements}
        assert codes <= set(Orientation)
        assert Orientation.MY in codes and Orientation.R0 in codes

    def test_unknown_orientation_code_rejected(self):
        text, _, _ = self.roundtrip(n=1)
        bad = text.replace(" FN ;", " FW ;", 1)
        with pytest.raises(UnknownOrientationCodeError):
            parse_def(bad)

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

    @pytest.mark.parametrize("number", ["1_000", "+50", "\u0663", "0x10"])
    def test_integer_other_than_ascii_digits_rejected(self, number):
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
        plan = plan_floorplan([case], rules)
        assert plan.positions == ((0, 0),)
        assert plan.die_area.width == 800
        assert plan.die_area.height == ROW_HEIGHT

    def test_case_gap_is_at_least_twice_interaction(self):
        for distance in (100, 200, 333):
            rules = rules_with_interaction(distance)
            lib = synth_library(2, with_shapes=False)
            cases = enumerate_library(lib)
            plan = plan_floorplan(cases, rules)
            assert plan.case_gap >= 2 * rules.interaction_distance
            assert plan.case_gap % rules.site_width == 0

    def test_row_overflow_starts_new_row(self):
        cell = dataclasses.replace(synth_cell(0, with_shape=False), width=200)
        cases = [last_case(cell)] * 2
        rules = rules_with_interaction(64)
        # Each case is 800 wide; gap is 128. Two cases need 1728.
        plan = plan_floorplan(cases, rules, max_row_width=1000)
        assert plan.case_gap == 128
        assert plan.positions[0] == (0, 0)
        assert plan.positions[1] == (1, 0)
        assert plan.die_area.height == 2 * ROW_HEIGHT

    def test_cases_pack_on_one_row_when_they_fit(self):
        cell = dataclasses.replace(synth_cell(0, with_shape=False), width=200)
        cases = [last_case(cell)] * 2
        rules = rules_with_interaction(64)
        plan = plan_floorplan(cases, rules, max_row_width=2000)
        assert plan.positions == ((0, 0), (0, 928))
        assert plan.die_area.height == ROW_HEIGHT

    def test_cases_never_overlap(self):
        # Pairs of cases must be separated in x by the case gap or occupy
        # disjoint row intervals.
        lib = synth_library(2, multi_every=2, with_shapes=False)
        cases = enumerate_library(lib)
        rules = parse_rules(RULES_TEXT)
        plan = plan_floorplan(cases, rules, max_row_width=2000)
        boxes = []
        for i, (row, x) in enumerate(plan.positions):
            boxes.append((x, x + cases[i].width, row, row + cases[i].height_rows))
        for i, (ax1, ax2, ar1, ar2) in enumerate(boxes):
            for bx1, bx2, br1, br2 in boxes[i + 1:]:
                rows_disjoint = ar2 <= br1 or br2 <= ar1
                x_separated = bx1 - ax2 >= plan.case_gap or ax1 - bx2 >= plan.case_gap
                assert rows_disjoint or x_separated

    def test_case_too_wide(self):
        cell = dataclasses.replace(synth_cell(0, with_shape=False), width=400)
        case = last_case(cell)
        rules = parse_rules(RULES_TEXT)
        with pytest.raises(CaseTooWideError):
            plan_floorplan([case], rules, max_row_width=1200)

    def test_origin_of_matches_positions(self):
        lib = synth_library(3, with_shapes=False)
        cases = enumerate_library(lib)
        rules = parse_rules(RULES_TEXT)
        plan = plan_floorplan(cases, rules, max_row_width=3000)
        for i, (row, x) in enumerate(plan.positions):
            assert plan.origin_of(i) == (x, row * ROW_HEIGHT)

    def test_isolation_distance_between_cases(self):
        # Any two shapes from different cases on the same row interval
        # must sit farther apart than the interaction distance.
        lib = synth_library(3)
        rules = parse_rules(RULES_TEXT)
        cases = enumerate_library(lib)
        plan = plan_floorplan(cases, rules)
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
    """Case sizes of 1-3 rows and a row width from just above the widest
    case to loose."""
    boxes = draw(st.lists(
        st.builds(Box, st.integers(1, 2000),
                  st.sampled_from((1, 1, 1, 2, 3))),
        min_size=1, max_size=60))
    widest = max(b.width for b in boxes)
    slack = draw(st.one_of(st.integers(0, 16), st.integers(0, 20_000)))
    return boxes, widest + slack


class TestFirstFitOracle:
    """``plan_floorplan`` equals the linear first-fit scan."""

    RULES = rules_with_interaction(64)  # gap 128

    @settings(max_examples=300, deadline=None)
    @given(packing_inputs())
    def test_random_sequences_match_linear_scan(self, inputs):
        boxes, max_row_width = inputs
        assert (plan_floorplan(boxes, self.RULES, max_row_width)
                == linear_floorplan(boxes, self.RULES, max_row_width))

    @pytest.mark.parametrize("boxes, positions", [
        # The second case fills shelf 0 exactly: 400 + 128 + 472 = 1000.
        ([Box(400, 1), Box(472, 1)], ((0, 0), (0, 528))),
        # Shelf 0 keeps 472 free, shelf 1 keeps 172; the last case fits
        # both and takes the first, emptier one.
        ([Box(400, 1), Box(700, 1), Box(100, 1)],
         ((0, 0), (1, 0), (0, 528))),
        # A two-row case never goes into a one-row shelf, however empty;
        # a one-row case may go into the two-row shelf.
        ([Box(100, 1), Box(100, 2), Box(100, 1)],
         ((0, 0), (1, 0), (0, 228))),
        ([Box(100, 2), Box(100, 1)], ((0, 0), (0, 228))),
    ])
    def test_fixed_sequences(self, boxes, positions):
        plan = plan_floorplan(boxes, self.RULES, 1000)
        assert plan.positions == positions
        assert plan == linear_floorplan(boxes, self.RULES, 1000)

    def test_many_shelves_of_mixed_height(self):
        rng = random.Random(5)
        boxes = [Box(rng.randrange(1, 3000), rng.choice((1, 1, 2, 3)))
                 for _ in range(3000)]
        assert (plan_floorplan(boxes, self.RULES, 3000)
                == linear_floorplan(boxes, self.RULES, 3000))
