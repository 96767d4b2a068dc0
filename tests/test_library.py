"""Library-file parsing and profiling tests."""

from dataclasses import replace

import pytest

from seamcheck import (
    CellLibrary,
    DBU_PER_MICRON,
    Mask,
    Orientation,
    ParseError,
    Rect,
    micron_to_dbu,
    parse_library,
    profile,
    split_mask_suffix,
    transform_rect,
)

from conftest import synth_cell, synth_library

MINIMAL = """\
LIBRARY demo ;
SITE core SIZE 0.008 BY 0.576 ;
MACRO INV
  SIZE 0.2 BY 0.576 ;
  PIN A
    PORT
      LAYER M1 ;
      RECT 0.01 0.05 0.04 0.3 ;
    END
  END A
  OBS
    LAYER M1_E1 ;
    RECT 0.06 0.06 0.1 0.5 ;
    LAYER M1_E2 ;
    RECT 0.12 0.06 0.16 0.5 ;
  END
END INV
MACRO DFF2
  SIZE 0.4 BY 1.152 ;
  OBS
    LAYER M1_E1 ;
    RECT 0.1 0.1 0.15 1.0 ;
  END
END DFF2
END LIBRARY
"""


class TestMicronToDbu:
    def test_exact_three_decimal_values(self):
        assert micron_to_dbu("0.2") == 200
        assert micron_to_dbu("0.576") == 576
        assert micron_to_dbu("1.152") == 1152
        assert micron_to_dbu("0.008") == 8
        assert micron_to_dbu("12") == 12_000

    def test_dbu_grid_is_1000_per_micron(self):
        assert DBU_PER_MICRON == 1000

    def test_sub_dbu_precision_rejected(self):
        with pytest.raises(ParseError):
            micron_to_dbu("0.0005")
        with pytest.raises(ParseError):
            micron_to_dbu("1.2345")

    def test_malformed_numbers_rejected(self):
        for bad in ("", ".", "1.", "--1", "0x10", "1e3", "+1", "1_000",
                    "\u0663.5", "0.\u0665", "\uff11"):
            with pytest.raises(ParseError):
                micron_to_dbu(bad)

    def test_negative_values_parse_as_signed(self):
        assert micron_to_dbu("-0.2") == -200

    def test_non_ascii_digit_in_library_is_located(self):
        text = MINIMAL.replace("SIZE 0.2 BY", "SIZE \u0660.2 BY", 1)
        assert text != MINIMAL
        with pytest.raises(ParseError, match="line [0-9]+, col [0-9]+"):
            parse_library(text)


class TestSplitMaskSuffix:
    def test_suffixed_and_plain_names(self):
        assert split_mask_suffix("M1_E1") == ("M1", Mask.E1)
        assert split_mask_suffix("M1_E2") == ("M1", Mask.E2)
        assert split_mask_suffix("M1") == ("M1", Mask.NONE)
        assert split_mask_suffix("VIA1_E1") == ("VIA1", Mask.E1)
        assert split_mask_suffix("M1_EX") == ("M1_EX", Mask.NONE)

    @pytest.mark.parametrize("name", ["M1_E3", "M1_E0", "M1_E12"])
    def test_other_mask_suffix_rejected(self, name):
        with pytest.raises(ParseError, match=rf"^layer {name}: unknown mask "
                           r"suffix, expected _E1 or _E2$"):
            split_mask_suffix(name)

    def test_other_mask_suffix_located_at_layer_name(self):
        with pytest.raises(ParseError, match=r"^line 14, col 11: layer "
                           r"M1_E3: unknown mask suffix"):
            parse_library(MINIMAL.replace("LAYER M1_E2 ;", "LAYER M1_E3 ;"))


class TestParseLibrary:
    def test_minimal_library(self):
        lib = parse_library(MINIMAL)
        assert lib.name == "demo"
        assert lib.row_height == 576
        assert lib.site_width == 8
        inv, dff = lib.cells
        assert (inv.name, dff.name) == ("INV", "DFF2")
        assert (inv.width, inv.height, inv.height_rows) == (200, 576, 1)
        assert (dff.width, dff.height, dff.height_rows) == (400, 1152, 2)
        assert dff.is_multi and not inv.is_multi

    def test_obs_shapes_carry_masks(self):
        inv = parse_library(MINIMAL).cells[0]
        assert [(s.layer, s.mask, s.rect) for s in inv.shapes] == [
            ("M1", Mask.E1, Rect(60, 60, 100, 500)),
            ("M1", Mask.E2, Rect(120, 60, 160, 500)),
            ("M1", Mask.NONE, Rect(10, 50, 40, 300)),
        ]

    def test_port_rects_join_shapes_after_obs(self):
        # Z's rect twins an OBS rect (the OBS mask wins), B repeats A's
        # rect with its mask, and A draws one rect in two PORTs, the second
        # on the bare layer: each is one shape.
        port = "    PORT\n      LAYER {} ;\n      RECT {} ;\n    END\n"
        pins = "".join(
            f"  PIN {name}\n" + "".join(port.format(*p) for p in ports)
            + f"  END {name}\n" for name, ports in (
                ("A", [("M1_E2", "0.01 0.05 0.04 0.3"),
                       ("M1", "0.01 0.05 0.04 0.3"),
                       ("M2", "0.01 0.05 0.04 0.3")]),
                ("Z", [("M1", "0.06 0.06 0.1 0.5")]),
                ("B", [("M1_E2", "0.01 0.05 0.04 0.3")])))
        text = MINIMAL.replace(MINIMAL[MINIMAL.index("  PIN A"):
                                      MINIMAL.index("  OBS")], pins, 1)
        inv = parse_library(text).cells[0]
        assert [(s.layer, s.mask, s.rect) for s in inv.shapes] == [
            ("M1", Mask.E1, Rect(60, 60, 100, 500)),
            ("M1", Mask.E2, Rect(120, 60, 160, 500)),
            ("M1", Mask.E2, Rect(10, 50, 40, 300)),
            ("M2", Mask.NONE, Rect(10, 50, 40, 300)),
        ]

    @pytest.mark.parametrize("obs, ports, line, kept", [
        (["M1_E1"], ["M1_E2"], 8, "M1_E1"),
        (["M1_E1", "M1"], ["M1_E2"], 8, "M1_E1"),
        (["M2"], ["M1_E2", "M1", "M1_E1"], 20, "M1_E2"),
        (["M2"], ["M1", "M1_E2", "M1_E1"], 20, "M1_E2")],
        ids=["obs-twin", "obs-twin-then-bare", "port-twin",
             "bare-port-then-twin"])
    def test_port_twin_naming_the_other_mask_rejected(self, obs, ports,
                                                      line, kept):
        # The last port twins an OBS shape or an earlier port on the other
        # mask. A bare copy of the rect, drawn before or between, names no
        # mask: the first mask named at the rect is the one compared.
        rect = "0.01 0.05 0.04 0.3"
        pins = "".join(f"  PIN P{i}\n    PORT\n      LAYER {layer} ;\n"
                       f"      RECT {rect} ;\n    END\n  END P{i}\n"
                       for i, layer in enumerate(ports))
        text = MINIMAL.replace(MINIMAL[MINIMAL.index("  PIN A"):
                                      MINIMAL.index("  OBS")], pins, 1)
        text = text.replace("  OBS\n", "  OBS\n" + "".join(
            f"    LAYER {layer} ;\n    RECT {rect} ;\n" for layer in obs), 1)
        last = len(ports) - 1
        with pytest.raises(ParseError, match=(
                rf"^line {line}, col 7: pin P{last} of MACRO INV: port rect "
                rf"on {ports[-1]} twins a shape on {kept}$")):
            parse_library(text)

    def test_obs_twin_on_the_other_mask_rejected(self):
        # One OBS rect drawn twice: on the same mask or with a bare layer
        # it stays two shapes; on the other mask it is a contradiction,
        # located at the second RECT.
        rect = "    RECT 0.06 0.06 0.1 0.5 ;\n"
        drawn = "    LAYER M1_E1 ;\n" + rect

        def inv_shapes(layer):
            text = MINIMAL.replace(drawn, drawn + f"    LAYER {layer} ;\n"
                                   + rect, 1)
            return [(s.layer, s.mask, s.rect)
                    for s in parse_library(text).cells[0].shapes]

        e1, bare = (("M1", mask, Rect(60, 60, 100, 500))
                    for mask in (Mask.E1, Mask.NONE))
        assert inv_shapes("M1_E1")[:2] == [e1, e1]
        assert inv_shapes("M1")[:2] == [e1, bare]
        with pytest.raises(ParseError, match=(
                r"^line 15, col 5: OBS of MACRO INV: rect on M1_E2 twins a "
                r"shape on M1_E1$")):
            inv_shapes("M1_E2")

    def test_seamdemo_pins_twin_their_obs_shapes(self, seam_library):
        # Every pin of seamdemo.lef repeats an OBS rect on a bare layer,
        # so the shapes, their masks and their ids are the OBS ones.
        shapes = {c.name: [(s.mask, s.rect) for s in c.shapes]
                  for c in seam_library.cells}
        assert shapes == {
            "SEAMA": [(Mask.E1, Rect(20, 60, 52, 260)),
                      (Mask.E1, Rect(148, 60, 180, 260))],
            "SEAMB": [(Mask.E1, Rect(36, 300, 68, 560)),
                      (Mask.E2, Rect(140, 300, 172, 560))],
        }

    def test_comments_and_whitespace_ignored(self):
        text = MINIMAL.replace("MACRO INV", "# note\nMACRO INV  # trailing")
        assert len(parse_library(text).cells) == 2

    def test_non_integer_row_height_rejected(self):
        text = MINIMAL.replace("SIZE 0.4 BY 1.152", "SIZE 0.4 BY 0.8")
        with pytest.raises(ParseError, match=(
                r"^line 18, col 7: cell DFF2 height 800 DBU is not a "
                r"multiple of the row height 576 DBU$")):
            parse_library(text)

    def test_off_grid_width_rejected(self):
        text = MINIMAL.replace("SIZE 0.2 BY 0.576", "SIZE 0.201 BY 0.576")
        with pytest.raises(ParseError) as info:
            parse_library(text)
        assert (info.value.line, info.value.col) == (3, 7)
        assert "width 201 DBU" in str(info.value)
        assert "site width 8 DBU" in str(info.value)

    def test_duplicate_macro_rejected(self):
        text = MINIMAL.replace("MACRO DFF2", "MACRO INV").replace("END DFF2", "END INV")
        with pytest.raises(ParseError,
                           match=r"^line 18, col 1: duplicate MACRO INV$"):
            parse_library(text)

    def test_shape_out_of_bounds_rejected(self):
        text = MINIMAL.replace("RECT 0.06 0.06 0.1 0.5", "RECT 0.06 0.06 0.21 0.5")
        with pytest.raises(ParseError, match=(
                r"^line 13, col 5: OBS rect \(60, 60, 210, 500\) of cell INV "
                r"leaves the outline 0 0 200 576$")):
            parse_library(text)

    def test_degenerate_rect_rejected(self):
        text = MINIMAL.replace("RECT 0.06 0.06 0.1 0.5", "RECT 0.1 0.06 0.1 0.5")
        with pytest.raises(ParseError):
            parse_library(text)

    def test_missing_site_statement_rejected(self):
        text = MINIMAL.replace("SITE core SIZE 0.008 BY 0.576 ;\n", "")
        with pytest.raises(ParseError):
            parse_library(text)

    def test_missing_size_rejected(self):
        text = MINIMAL.replace("  SIZE 0.4 BY 1.152 ;\n", "")
        with pytest.raises(ParseError):
            parse_library(text)

    def test_duplicate_size_rejected(self):
        text = MINIMAL.replace("  SIZE 0.2 BY 0.576 ;\n",
                               "  SIZE 0.2 BY 0.576 ;\n"
                               "  SIZE 0.4 BY 0.576 ;\n")
        with pytest.raises(ParseError) as info:
            parse_library(text)
        assert "unexpected 'SIZE' in MACRO INV" in str(info.value)
        assert (info.value.line, info.value.col) == (5, 3)

    @pytest.mark.parametrize("cell, found, line", [
        ("INV", "PIN", 4), ("DFF2", "OBS", 19)])
    def test_size_must_come_first(self, cell, found, line):
        # SIZE written after the cell's first PIN or OBS block.
        size = {"INV": "  SIZE 0.2 BY 0.576 ;\n",
                "DFF2": "  SIZE 0.4 BY 1.152 ;\n"}[cell]
        text = MINIMAL.replace(size, "", 1).replace(
            f"END {cell}\n", size + f"END {cell}\n", 1)
        with pytest.raises(ParseError, match=(
                rf"^line {line}, col 3: expected 'SIZE', found '{found}'$")):
            parse_library(text)

    def test_pin_bounds_checked_before_obs_bounds(self):
        text = (MINIMAL.replace("RECT 0.01 0.05 0.04 0.3",
                                "RECT 0.01 0.05 0.04 0.6")
                .replace("RECT 0.06 0.06 0.1 0.5", "RECT 0.06 0.06 0.21 0.5"))
        with pytest.raises(ParseError, match=(
                r"^line 8, col 7: pin A rect \(10, 50, 40, 600\) of cell INV "
                r"leaves the outline 0 0 200 576$")):
            parse_library(text)

    def test_first_error_in_file_order_is_reported(self):
        # The OBS block written above the pin: its rect fails first.
        pin = MINIMAL[MINIMAL.index("  PIN A"):MINIMAL.index("  OBS")]
        obs = MINIMAL[MINIMAL.index("  OBS"):MINIMAL.index("END INV")]
        text = (MINIMAL.replace(pin + obs, obs + pin, 1)
                .replace("RECT 0.01 0.05 0.04 0.3", "RECT 0.01 0.05 0.04 0.6")
                .replace("RECT 0.06 0.06 0.1 0.5", "RECT 0.06 0.06 0.21 0.5"))
        with pytest.raises(ParseError,
                           match=r"^line 7, col 5: OBS rect"):
            parse_library(text)

    def test_duplicate_pin_rejected(self):
        pin = """  PIN A
    PORT
      LAYER M1 ;
      RECT 0.01 0.05 0.04 0.3 ;
    END
  END A
"""
        text = MINIMAL.replace(pin, pin + pin)
        with pytest.raises(ParseError, match=(
                r"^line 11, col 7: duplicate pin A in MACRO INV$")):
            parse_library(text)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_library(MINIMAL + "EXTRA ;\n")

    def test_error_carries_line_and_column(self):
        try:
            parse_library(MINIMAL + "EXTRA ;\n")
        except ParseError as err:
            assert err.line is not None and err.col is not None
            assert f"line {err.line}" in str(err)
        else:
            pytest.fail("expected ParseError")

    def test_fixture_libraries_parse(self, seam_library, clean_library,
                                      mixed_library, odd_library):
        assert [c.name for c in seam_library.cells] == ["SEAMA", "SEAMB"]
        assert [c.name for c in clean_library.cells] == ["CLEANA", "CLEANB"]
        assert [c.name for c in mixed_library.cells] == ["SINGLE", "MULTI2", "MULTI3"]
        assert [c.height_rows for c in mixed_library.cells] == [1, 2, 3]
        assert [c.name for c in odd_library.cells] == ["ODDL", "ODDR"]


class TestOrientedTable:
    def test_table_holds_each_orientation_in_shape_order(self):
        cell = parse_library(MINIMAL).cells[0]
        for o in Orientation:
            assert cell.oriented[o] == tuple(
                (s.layer, s.mask,
                 transform_rect(s.rect, cell.width, cell.height, o))
                for s in cell.shapes)

    def test_table_is_not_a_field(self):
        cell = parse_library(MINIMAL).cells[0]
        twin = parse_library(MINIMAL).cells[0]
        before = hash(cell)
        table = cell.oriented
        assert cell == twin and hash(cell) == before == hash(twin)
        assert cell.oriented is table
        assert "oriented" not in vars(replace(cell))
        fewer = replace(cell, shapes=cell.shapes[:1])
        assert fewer.oriented is not table
        assert fewer.oriented[Orientation.MY] == \
            table[Orientation.MY][:1]


class TestProfile:
    def test_histograms_on_minimal_library(self):
        stats = profile(parse_library(MINIMAL))
        assert stats.width_hist == {200: 1, 400: 1}
        assert stats.height_rows_hist == {1: 1, 2: 1}
        assert stats.n_single == 1 and stats.n_multi == 1
        assert stats.total == 2

    def test_single_multi_split_counts(self):
        # 89-cell mix with a 68/21 single/multi split.
        cells = [synth_cell(i, with_shape=False) for i in range(68)]
        cells += [synth_cell(68 + i, height_rows=2, with_shape=False)
                  for i in range(21)]
        lib = CellLibrary("mix", 576, 8, tuple(cells))
        stats = profile(lib)
        assert stats.n_single == 68
        assert stats.n_multi == 21
        assert stats.total == 89
        assert sum(stats.height_rows_hist.values()) == 89
        assert stats.height_rows_hist[2] == 21

    def test_empty_library(self):
        lib = synth_library(0, with_shapes=False)
        stats = profile(lib)
        assert stats.width_hist == {} and stats.height_rows_hist == {}
        assert stats.total == 0
