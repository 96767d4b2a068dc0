"""Library-file parsing and profiling tests."""

import pytest

from seamcheck import (
    CellLibrary,
    DBU_PER_MICRON,
    DuplicateCellError,
    Mask,
    NonIntegerHeightError,
    ParseError,
    Rect,
    ShapeOutOfBoundsError,
    micron_to_dbu,
    parse_library,
    profile,
    split_mask_suffix,
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


class TestParseLibrary:
    def test_minimal_library(self):
        lib = parse_library(MINIMAL)
        assert lib.name == "demo"
        assert lib.row_height == 576
        assert lib.site_width == 8
        assert len(lib) == 2
        inv = lib.cell("INV")
        assert (inv.width, inv.height, inv.height_rows) == (200, 576, 1)
        dff = lib.cell("DFF2")
        assert (dff.width, dff.height, dff.height_rows) == (400, 1152, 2)
        assert dff.is_multi and not inv.is_multi

    def test_obs_shapes_carry_masks(self):
        inv = parse_library(MINIMAL).cell("INV")
        assert [(s.layer, s.mask, s.rect) for s in inv.shapes] == [
            ("M1", Mask.E1, Rect(60, 60, 100, 500)),
            ("M1", Mask.E2, Rect(120, 60, 160, 500)),
        ]

    def test_pin_shapes_are_retained_separately(self):
        inv = parse_library(MINIMAL).cell("INV")
        assert [p.name for p in inv.pins] == ["A"]
        port = inv.pins[0].shapes
        assert len(port) == 1
        assert port[0].layer == "M1"
        assert port[0].mask is Mask.NONE
        assert port[0].rect == Rect(10, 50, 40, 300)

    def test_comments_and_whitespace_ignored(self):
        text = MINIMAL.replace("MACRO INV", "# note\nMACRO INV  # trailing")
        assert len(parse_library(text)) == 2

    def test_non_integer_row_height_rejected(self):
        text = MINIMAL.replace("SIZE 0.4 BY 1.152", "SIZE 0.4 BY 0.8")
        with pytest.raises(NonIntegerHeightError):
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
        with pytest.raises(DuplicateCellError):
            parse_library(text)

    def test_shape_out_of_bounds_rejected(self):
        text = MINIMAL.replace("RECT 0.06 0.06 0.1 0.5", "RECT 0.06 0.06 0.21 0.5")
        with pytest.raises(ShapeOutOfBoundsError):
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

    def test_duplicate_pin_rejected(self):
        pin = """  PIN A
    PORT
      LAYER M1 ;
      RECT 0.01 0.05 0.04 0.3 ;
    END
  END A
"""
        text = MINIMAL.replace(pin, pin + pin)
        with pytest.raises(ParseError):
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
