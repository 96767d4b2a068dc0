"""Command-line interface tests, run in-process through main()."""

import gc
import json
import re
import weakref
import zlib

import pytest

import seamcheck.cli as climod
from seamcheck import abutment, enumerate_library, parse_def, parse_library
from seamcheck.cli import main

from conftest import PIN_ONLY_LEF, TESTDATA, synth_lef

RULES = str(TESTDATA / "rules.yaml")
SEAM = str(TESTDATA / "seamdemo.lef")
CLEAN = str(TESTDATA / "clean.lef")


def run(args):
    return main(args)


LEFS = sorted(p.name for p in TESTDATA.glob("*.lef"))


def covered(box, rects) -> bool:
    """Whether the union of the closed ``rects`` holds the closed ``box``:
    the box, cut along every rect edge inside it, has each piece's centre
    (or, for a box of no width or height, its edge) in some rect."""
    x1, y1, x2, y2 = box

    def centres(lo, hi, i):
        cuts = sorted({lo, hi, *(r[j] for r in rects for j in (i, i + 2)
                                 if lo < r[j] < hi)})
        return [(a + b) / 2 for a, b in zip(cuts, cuts[1:])] or [lo]

    return all(any(r[0] <= x <= r[2] and r[1] <= y <= r[3] for r in rects)
               for x in centres(x1, x2, 0) for y in centres(y1, y2, 1))


def tall_rows(lef: str) -> str:
    """The text of testdata file ``lef`` with its SITE row raised from
    576 to 600 DBU, which none of its 576-DBU cells is a multiple of."""
    return (TESTDATA / lef).read_text().replace(
        "SITE core SIZE 0.008 BY 0.576", "SITE core SIZE 0.008 BY 0.600")


class TestProfile:
    def test_writes_text_and_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["profile", "--libs", SEAM, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "seamdemo" in stdout
        text = (out / "profile_seamdemo.txt").read_text()
        assert "cells" in text
        data = json.loads((out / "profile_seamdemo.json").read_text())
        assert data["cells"] == 2
        assert data["n_single"] == 2 and data["n_multi"] == 0
        assert data["width_hist"] == {"200": 1, "208": 1}

    def test_empty_library(self, tmp_path):
        lef = tmp_path / "empty.lef"
        lef.write_text(synth_lef(0, name="void"))
        out = tmp_path / "out"
        assert run(["profile", "--libs", str(lef), "--out", str(out)]) == 0
        data = json.loads((out / "profile_void.json").read_text())
        assert data["cells"] == 0
        assert data["width_hist"] == {}

    def test_library_error_names_its_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.lef"
        text = (TESTDATA / "seamdemo.lef").read_text()
        size = "  SIZE 0.2 BY 0.576 ;\n"
        for edited, message in (
                (text.replace("SIZE 0.2 BY", "SIZE 0.5761 BY", 1),
                 "finer than 1 DBU"),
                # SIZE must come first in a MACRO, as in LEF.
                (text.replace(size, "", 1).replace(
                    "END SEAMA\n", size + "END SEAMA\n", 1),
                 "expected 'SIZE', found 'PIN'")):
            bad.write_text(edited)
            capsys.readouterr()
            assert run(["profile", "--libs", SEAM, str(bad), "--out",
                        str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: line ")
            assert message in err

    def test_non_utf8_input_names_its_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff" + (TESTDATA / "seamdemo.lef").read_bytes())
        out = str(tmp_path / "out")
        for argv in (["profile", "--libs", str(bad)],
                     ["verify", "--libs", SEAM, "--rules", str(bad)]):
            capsys.readouterr()
            assert run(argv + ["--out", out]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: ") and "utf-8" in err, argv


class TestGenerate:
    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert run(["generate", "--libs", SEAM, "--rules", RULES,
                    "--out", str(out)]) == 0
        v = (out / "testcases_seamdemo.v").read_text()
        d = (out / "testcases_seamdemo.def").read_text()
        m = json.loads((out / "manifest_seamdemo.json").read_text())
        assert "module scell_SEAMA ();" in v
        assert d.startswith("VERSION 5.6 ;\n")
        assert m["cases"] == 3
        assert m["placements"] == 13
        assert m["expected_placements"] == 13
        assert m["matches_expected"] is True
        assert m["coverage_complete"] is True
        assert m["cells"] == 2

    def test_synthetic_41_cell_count(self, tmp_path):
        lef = tmp_path / "lib41.lef"
        lef.write_text(synth_lef(41, name="lib41"))
        out = tmp_path / "out"
        assert run(["generate", "--libs", str(lef), "--rules", RULES,
                    "--out", str(out)]) == 0
        m = json.loads((out / "manifest_lib41.json").read_text())
        assert m["placements"] == 4264
        assert m["matches_expected"] is True

    def test_self_check_failure_exits_nonzero(self, tmp_path, monkeypatch,
                                              capsys):
        import seamcheck.cli as climod
        monkeypatch.setattr(climod, "expected_count",
                            lambda n, mode="proposed": -1)
        out = tmp_path / "out"
        assert run(["generate", "--libs", SEAM, "--rules", RULES,
                    "--out", str(out)]) == 1
        assert "self-check" in capsys.readouterr().err

    def test_multi_height_library_skips_formula(self, tmp_path):
        lef = tmp_path / "mix.lef"
        lef.write_text(synth_lef(4, name="mix", multi_every=2))
        out = tmp_path / "out"
        assert run(["generate", "--libs", str(lef), "--rules", RULES,
                    "--out", str(out)]) == 0
        m = json.loads((out / "manifest_mix.json").read_text())
        assert m["expected_placements"] is None
        assert m["coverage_complete"] is True


    def test_generate_constructs_no_placement(self, tmp_path, monkeypatch):
        class NoPlacement:
            def __init__(self, *args):
                raise AssertionError("a Placement was constructed")

        lib = parse_library((TESTDATA / "mixed.lef").read_text())
        monkeypatch.setattr(abutment, "Placement", NoPlacement)
        with pytest.raises(AssertionError, match="Placement was constructed"):
            enumerate_library(lib)[0].placements
        assert run(["generate", "--libs", str(TESTDATA / "mixed.lef"),
                    "--rules", RULES, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("lef, name", [("seamdemo.lef", "seamdemo"),
                                           ("mixed.lef", "mixeddemo")])
    def test_def_parses_back_to_the_manifest_count(self, tmp_path, lef,
                                                   name):
        out = tmp_path / "out"
        assert run(["generate", "--libs", str(TESTDATA / lef), "--rules",
                    RULES, "--out", str(out)]) == 0
        m = json.loads((out / f"manifest_{name}.json").read_text())
        design = parse_def((out / f"testcases_{name}.def").read_text())
        assert len(design.placements) == m["placements"]
        verilog = (out / f"testcases_{name}.v").read_text()
        assert len(re.findall(r"^module ", verilog, re.M)) == m["cases"] + 1

    def test_non_ascii_cell_names_give_ascii_modules(self, tmp_path):
        # Only [A-Za-z0-9_] may survive sanitizing: CAFÉ and CAF_ collide
        # and the later case takes the _2 suffix.
        lef = tmp_path / "cafe.lef"
        lef.write_text((TESTDATA / "seamdemo.lef").read_text()
                       .replace("SEAMA", "CAFÉ").replace("SEAMB", "CAF_"),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run(["generate", "--libs", str(lef), "--rules", RULES,
                    "--out", str(out)]) == 0
        verilog = (out / "testcases_seamdemo.v").read_text(encoding="utf-8")
        modules = re.findall(r"^module (\S+) \(\);", verilog, re.M)
        assert modules == ["scell_CAF_", "scell_CAF__2", "scell_CAF__CAF_",
                           "TOP"]
        assert "  \\CAFÉ U1 ();" in verilog

    def test_off_grid_cell_width_exits_two(self, tmp_path, capsys):
        lef = tmp_path / "offgrid.lef"
        lef.write_text((TESTDATA / "seamdemo.lef").read_text()
                       .replace("SIZE 0.2 BY", "SIZE 0.201 BY", 1))
        out = tmp_path / "out"
        assert run(["generate", "--libs", str(lef), "--rules", RULES,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {lef}: line ") and "site width" in err
        assert not (out / "testcases_seamdemo.def").exists()

    def test_row_height_unlike_the_cells_exits_two(self, tmp_path, capsys):
        lef = tmp_path / "tall.lef"
        lef.write_text(tall_rows("seamdemo.lef"))
        out = tmp_path / "out"
        assert run(["generate", "--libs", str(lef), "--rules", RULES,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {lef}: line 17, col 7: cell SEAMA height 576 DBU is not "
            f"a multiple of the row height 600 DBU\n")
        assert not (out / "testcases_seamdemo.def").exists()

    def test_names_that_sanitize_alike_get_distinct_modules(self, tmp_path):
        text = synth_lef(4, name="alike")
        for i, name in enumerate(("X_Y", "Z", "X", "Y_Z")):
            text = text.replace(f"SC{i:04d}", name)
        lef = tmp_path / "alike.lef"
        lef.write_text(text)
        out = tmp_path / "out"
        assert run(["generate", "--libs", str(lef), "--rules", RULES,
                    "--out", str(out)]) == 0
        verilog = (out / "testcases_alike.v").read_text()
        modules = re.findall(r"^module (\S+) \(\);", verilog, re.M)
        assert len(modules) == 11 == len(set(modules))  # 10 cases + TOP
        assert "scell_X_Y_Z" in modules and "scell_X_Y_Z_2" in modules


class TestLibraryNames:
    """Output files are named after the LIBRARY name, so two libraries
    that share one must not overwrite each other's results."""

    @pytest.mark.parametrize("command", ["profile", "generate", "verify"])
    def test_repeated_library_name_exits_two(self, tmp_path, capsys,
                                             command):
        twin = tmp_path / "twin.lef"
        twin.write_text((TESTDATA / "clean.lef").read_text()
                        .replace("LIBRARY cleandemo", "LIBRARY seamdemo"))
        out = tmp_path / "out"
        argv = [command, "--libs", SEAM, str(twin), "--out", str(out)]
        if command != "profile":
            argv += ["--rules", RULES]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert SEAM in err and str(twin) in err and "seamdemo" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("name", ["a/b", "a\\b"])
    @pytest.mark.parametrize("command", ["profile", "generate", "verify"])
    def test_path_separator_in_name_exits_two(self, tmp_path, capsys,
                                              command, name):
        lef = tmp_path / "sep.lef"
        lef.write_text((TESTDATA / "clean.lef").read_text()
                       .replace("LIBRARY cleandemo", f"LIBRARY {name}"))
        out = tmp_path / "out"
        argv = [command, "--libs", str(lef), "--out", str(out)]
        if command != "profile":
            argv += ["--rules", RULES]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {lef}: library name {name!r}")
        assert not out.exists() or not any(out.rglob("*"))

    def test_distinct_names_still_run_together(self, tmp_path):
        out = tmp_path / "out"
        assert run(["verify", "--libs", SEAM, CLEAN, "--rules", RULES,
                    "--out", str(out)]) == 1
        summary = (out / "summary.txt").read_text()
        assert "seamdemo" in summary and "cleandemo" in summary


class TestVerify:
    def test_clean_library_exits_zero(self, tmp_path):
        out = tmp_path / "out"
        assert run(["verify", "--libs", CLEAN, "--rules", RULES,
                    "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "cleandemo" in summary
        assert "Clean" in summary

    def test_violating_library_exits_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["verify", "--libs", SEAM, "--rules", RULES,
                    "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "seamdemo" in stdout
        jl = (out / "violations_seamdemo_optI.jsonl").read_text()
        recs = [json.loads(l) for l in jl.strip().split("\n")]
        assert len(recs) == 4
        assert all(rec["seams"] for rec in recs)
        jl2 = (out / "violations_seamdemo_optII.jsonl").read_text()
        assert jl2 == ""
        results = json.loads((out / "results.json").read_text())
        lib = results["libraries"][0]
        runs = {r["option"]: r for r in lib["runs"]}
        assert runs["I"]["drc"] == 3 and runs["I"]["drcplus"] == 1
        assert runs["II"]["drc"] == 0 and runs["II"]["drcplus"] == 0
        assert runs["I"]["residual"] == 0

    def test_pin_only_library_exits_one(self, tmp_path, capsys):
        lef = tmp_path / "pinonly.lef"
        lef.write_text(PIN_ONLY_LEF)
        out = tmp_path / "out"
        assert run(["verify", "--libs", str(lef), "--rules", RULES,
                    "--out", str(out)]) == 1
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row == ["pinonly", "2", "Clean", "1", "Clean"]

    @pytest.mark.parametrize("edits, message", [
        ([("LAYER M1_E1", "LAYER M1_E3")],
         "line 7, col 13: layer M1_E3: unknown mask suffix, expected _E1 "
         "or _E2"),
        ([("END PINV", "OBS\n    LAYER M1_E2 ;\n"
           "    RECT 0.004 0.1 0.036 0.476 ;\n  END\nEND PINV")],
         "line 8, col 7: pin A of MACRO PINV: port rect on M1_E1 twins a "
         "shape on M1_E2"),
        # The bare copy between them names no mask, so the port still
        # twins the E1 rect.
        ([("LAYER M1_E1", "LAYER M1_E2"),
          ("END PINV", "OBS\n    LAYER M1_E1 ;\n"
           "    RECT 0.004 0.1 0.036 0.476 ;\n    LAYER M1 ;\n"
           "    RECT 0.004 0.1 0.036 0.476 ;\n  END\nEND PINV")],
         "line 8, col 7: pin A of MACRO PINV: port rect on M1_E2 twins a "
         "shape on M1_E1")],
        ids=["mask-suffix", "twin-mask", "twin-mask-after-bare"])
    def test_bad_pin_mask_exits_two(self, tmp_path, capsys, edits, message):
        text = PIN_ONLY_LEF
        for edit in edits:
            text = text.replace(*edit)
        lef = tmp_path / "pinonly.lef"
        lef.write_text(text)
        assert run(["verify", "--libs", str(lef), "--rules", RULES,
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {lef}: {message}\n"

    def test_obs_twin_on_the_other_mask_exits_two(self, tmp_path, capsys):
        # The cell's only OBS draws one rect under both masks: an input
        # error, not an E1 and an E2 copy of the rect.
        rect = "    RECT 0.08 0.1 0.12 0.476 ;\n"
        lef = tmp_path / "obstwin.lef"
        lef.write_text(PIN_ONLY_LEF.replace(
            PIN_ONLY_LEF[PIN_ONLY_LEF.index("  PIN A"):
                         PIN_ONLY_LEF.index("END PINV")],
            "  OBS\n    LAYER M1_E1 ;\n" + rect + "    LAYER M1_E2 ;\n"
            + rect + "  END\n"))
        assert run(["verify", "--libs", str(lef), "--rules", RULES,
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {lef}: line 9, col 5: OBS of MACRO PINV: rect on M1_E2 "
            f"twins a shape on M1_E1\n")

    def test_one_run_is_held_at_a_time(self, tmp_path, monkeypatch):
        real = climod.run_all
        refs, alive = [], []

        def run_all(*args):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            result = real(*args)
            refs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(climod, "run_all", run_all)
        assert run(["verify", "--libs", SEAM, CLEAN, "--rules", RULES,
                    "--out", str(tmp_path / "out")]) == 1
        assert alive == [[], [False], [False, False],
                         [False, False, False]]

    def test_case_wider_than_a_row_gets_a_shelf_of_its_own(self, tmp_path,
                                                           capsys):
        # CLEANA, widened to 120 um, makes the 480,000-DBU case
        # scell_CLEANA, wider than a 200,000-DBU row: it sits alone on
        # row 0, and the die widens to hold it.
        wide = tmp_path / "wide.lef"
        wide.write_text((TESTDATA / "clean.lef").read_text()
                        .replace("SIZE 0.2 BY", "SIZE 120 BY"))
        out = tmp_path / "out"
        assert run(["verify", "--libs", SEAM, str(wide), "--rules", RULES,
                    "--out", str(out)]) == 1
        assert run(["generate", "--libs", SEAM, str(wide), "--rules", RULES,
                    "--out", str(out)]) == 0
        assert "cleandemo: 3 cases, 13 placements (expected 13), coverage " \
            "complete\n" in capsys.readouterr().out
        design = parse_def((out / "testcases_cleandemo.def").read_text())
        assert tuple(design.die_area) == (0, 0, 480000, 1728)
        row0 = {name.split("/")[0] for name, _, (x, y), _
                in design.placements if y == 0}
        assert row0 == {"scell_CLEANA"}

    def test_libraries_on_two_grids_verify_in_one_run(self, tmp_path):
        # One deck checks seamdemo and a copy on 4-DBU sites: the grid is
        # each library's own, and the case gap is a multiple of both.
        fine = tmp_path / "fine.lef"
        fine.write_text((TESTDATA / "seamdemo.lef").read_text()
                        .replace("SITE core SIZE 0.008", "SITE core SIZE 0.004")
                        .replace("LIBRARY seamdemo", "LIBRARY finedemo"))
        out = tmp_path / "out"
        assert run(["verify", "--libs", SEAM, str(fine), "--rules", RULES,
                    "--out", str(out)]) == 1
        jsonl = {name: (out / f"violations_{name}.jsonl").read_text()
                 for name in ("seamdemo_optI", "seamdemo_optII",
                              "finedemo_optI", "finedemo_optII")}
        assert jsonl["seamdemo_optI"].count("\n") == 4
        for option in ("I", "II"):
            assert jsonl[f"finedemo_opt{option}"] == jsonl[
                f"seamdemo_opt{option}"].replace("seamdemo", "finedemo")
        summary = (out / "summary.txt").read_text()
        assert "seamdemo" in summary and "finedemo" in summary

    @pytest.mark.parametrize("lef", LEFS)
    def test_violations_lie_in_the_generated_cases(self, tmp_path, lef):
        # generate and verify lay out one die: every violation box lies in
        # the cells that the DEF places for its case.
        out = tmp_path / "out"
        path = str(TESTDATA / lef)
        assert run(["generate", "--libs", path, "--rules", RULES,
                    "--out", str(out)]) == 0
        assert run(["verify", "--libs", path, "--rules", RULES,
                    "--out", str(out)]) in (0, 1)
        lib = parse_library((TESTDATA / lef).read_text())
        size = {c.name: (c.width, c.height) for c in lib.cells}
        boxes: dict[str, list] = {}
        design = parse_def(
            (out / f"testcases_{lib.name}.def").read_text())
        for name, cell, (x, y), _ in design.placements:
            w, h = size[cell]
            boxes.setdefault(name.split("/")[0], []).append(
                (x, y, x + w, y + h))
        for jsonl in out.glob("violations_*.jsonl"):
            for line in jsonl.read_text().splitlines():
                rec = json.loads(line)
                assert covered(rec["bbox"], boxes[rec["case"]]), rec

    def test_non_boolean_dpt_exits_two(self, tmp_path, capsys):
        # A layer is DPT by its same-mask spacing alone, so a dpt key is
        # unknown whatever its value.
        deck = tmp_path / "rules.yaml"
        out = tmp_path / "out"
        for value in ('"no"', "true"):
            deck.write_text((TESTDATA / "rules.yaml").read_text().replace(
                "    min_spacing_same_mask: 64\n",
                f"    min_spacing_same_mask: 64\n    dpt: {value}\n"))
            capsys.readouterr()
            assert run(["verify", "--libs", SEAM, "--rules", str(deck),
                        "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: {deck}: layer M1: unknown key 'dpt'\n")
            assert list(out.iterdir()) == []

    def test_mask_suffixed_layer_key_exits_two(self, tmp_path, capsys):
        deck = tmp_path / "rules.yaml"
        deck.write_text((TESTDATA / "rules.yaml").read_text()
                        .replace("  M1:", "  M1_E1:")
                        .replace("layer: M1", "layer: M1_E1"))
        assert run(["verify", "--libs", SEAM, "--rules", str(deck),
                    "--dpt-option", "both", "--out",
                    str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {deck}: layer M1_E1: the library folds M1_E1 shapes "
            f"onto layer M1, so the rule must be keyed M1\n")

    def test_non_string_pattern_name_exits_two(self, tmp_path, capsys):
        deck = tmp_path / "rules.yaml"
        deck.write_text((TESTDATA / "rules.yaml").read_text()
                        .replace("name: quad_alternating", "name: NO"))
        out = tmp_path / "out"
        assert run(["verify", "--libs", str(TESTDATA / "hotdemo.lef"),
                    "--rules", str(deck), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {deck}: hotspot pattern #1: name must be a string, got "
            f"False\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["generate", "verify"])
    @pytest.mark.parametrize("case", ["row-height", "site-width"])
    def test_library_error_names_the_library(self, tmp_path, capsys,
                                             command, case):
        # The error belongs to the second library, not to the first, and
        # the first library's files are not left in --out either.
        bad = tmp_path / "bad.lef"
        if case == "row-height":
            bad.write_text(tall_rows("seamdemo.lef"))
            message = ("line 17, col 7: cell SEAMA height 576 DBU is not a "
                       "multiple of the row height 600 DBU")
        else:
            bad.write_text((TESTDATA / "seamdemo.lef").read_text()
                           .replace("SIZE 0.2 BY", "SIZE 0.201 BY", 1))
            message = ("line 17, col 7: MACRO SEAMA width 201 DBU is not a "
                       "multiple of the site width 8 DBU")
        out = tmp_path / "o"
        assert run([command, "--rules", RULES, "--out", str(out),
                    "--libs", CLEAN, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert list(out.iterdir()) == []

    def test_single_option_run(self, tmp_path):
        out = tmp_path / "out"
        assert run(["verify", "--libs", SEAM, "--rules", RULES,
                    "--dpt-option", "II", "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "-" in summary
        assert not (out / "violations_seamdemo_optI.jsonl").exists()

    def test_missing_rules_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["verify", "--libs", SEAM, "--rules",
                    str(tmp_path / "nope.yaml"), "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_required_option_exits_two(self, tmp_path, capsys):
        assert run(["verify", "--libs", SEAM,
                    "--out", str(tmp_path / "o")]) == 2
        assert "--rules" in capsys.readouterr().err

    def test_config_file_supplies_options(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"libs: ['{SEAM}']\nrules: '{RULES}'\n"
                       f"out: '{tmp_path / 'from_cfg'}'\n")
        assert run(["verify", "--config", str(cfg)]) == 1
        assert (tmp_path / "from_cfg" / "summary.txt").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"libs: ['{SEAM}']\nrules: '{RULES}'\n"
                       f"out: '{tmp_path / 'cfg_out'}'\n")
        flag_out = tmp_path / "flag_out"
        assert run(["verify", "--config", str(cfg),
                    "--out", str(flag_out)]) == 1
        assert flag_out.exists()
        assert not (tmp_path / "cfg_out").exists()

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("jobs: [1,\n")
        assert run(["verify", "--config", str(cfg), "--libs", SEAM,
                    "--rules", RULES, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cfg) in err

    def test_unread_config_key_changes_nothing(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("jobs: 2\n")
        outs = []
        for sub, extra in (("plain", []), ("cfg", ["--config", str(cfg)])):
            out = tmp_path / sub
            code = run(["verify", "--libs", SEAM, "--rules", RULES,
                        "--out", str(out)] + extra)
            outs.append((code, {p.name: p.read_bytes()
                                for p in sorted(out.iterdir())
                                if p.is_file()}))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command, key", [
        ("profile", "libs"), ("profile", "out"),
        ("generate", "libs"), ("generate", "out"), ("generate", "rules"),
        ("verify", "libs"), ("verify", "out"), ("verify", "rules"),
        ("verify", "dpt_option"),
        ("report", "libs"), ("report", "out"), ("report", "rules"),
        ("report", "svg_cap")])
    def test_null_config_key_counts_as_not_given(self, tmp_path, capsys,
                                                 monkeypatch, command, key):
        def outcome(sub, null):
            work = tmp_path / sub
            work.mkdir()
            monkeypatch.chdir(work)  # --out defaults to out, under work
            if command == "report":
                assert run(["verify", "--libs", SEAM, "--rules", RULES]) == 1
            doc = {"libs": [SEAM], "rules": RULES}
            doc.pop(key, None)
            if null:
                doc[key] = None
            cfg = tmp_path / f"{sub}.yaml"
            cfg.write_text(json.dumps(doc))
            capsys.readouterr()
            code = run([command, "--config", str(cfg)])
            printed = capsys.readouterr()
            return code, printed.out, printed.err, {
                str(p.relative_to(work)): p.read_bytes()
                for p in sorted(work.rglob("*")) if p.is_file()}

        null = outcome("null", True)
        assert null == outcome("absent", False)
        assert "Traceback" not in null[2]

    def test_non_integer_option_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        run(["verify", "--libs", SEAM, "--rules", RULES, "--out", str(out)])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("svg_cap: [1]\n")
        capsys.readouterr()
        assert run(["report", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "svg_cap" in err

    def test_fractional_integer_option_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        run(["verify", "--libs", SEAM, "--rules", RULES, "--out", str(out)])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("svg_cap: 2.5\n")
        capsys.readouterr()
        assert run(["report", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "svg_cap" in err and "2.5" in err

    def test_boolean_svg_cap_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        run(["verify", "--libs", SEAM, "--rules", RULES, "--out", str(out)])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("svg_cap: true\n")
        capsys.readouterr()
        assert run(["report", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: option svg_cap must be an integer, not True\n")
        assert not (out / "svg").exists()

    def test_exact_integer_option_values_still_work(self, tmp_path):
        """A plain int, an integral float and an integer string in the
        config file all give the SVGs of ``--svg-cap 2``."""
        out = tmp_path / "o"
        run(["verify", "--libs", SEAM, "--rules", RULES, "--out", str(out)])

        def svgs(extra):
            assert run(["report", "--out", str(out)] + extra) == 0
            return {p.name: p.read_bytes()
                    for p in sorted((out / "svg").iterdir())}

        expect = svgs(["--svg-cap", "2"])
        assert len(expect) == 2
        cfg = tmp_path / "cfg.yaml"
        for value in ("2", "2.0", "'2'", "2.0e+0"):
            cfg.write_text(f"svg_cap: {value}\n")
            assert svgs(["--config", str(cfg)]) == expect, value

    @pytest.mark.parametrize("command", ["generate", "verify"])
    def test_row_width_flag_is_unknown(self, tmp_path, capsys, command):
        # Every die packs into rows of one width, which no flag sets.
        with pytest.raises(SystemExit) as exc:
            run([command, "--libs", SEAM, "--rules", RULES, "--out",
                 str(tmp_path / "o"), "--max-row-width", "200000"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-row-width" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_libs_not_a_list_of_paths_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("libs: 5\n")
        assert run(["verify", "--config", str(cfg), "--rules", RULES,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "libs" in err

    @pytest.mark.parametrize("command", ["verify", "generate"])
    def test_empty_libs_in_config_exits_two(self, tmp_path, capsys,
                                            command):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("libs: []\n")
        assert run([command, "--config", str(cfg), "--rules", RULES,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: option libs")

    def test_bad_dpt_option_in_config_names_the_option(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("dpt_option: III\n")
        assert run(["verify", "--config", str(cfg), "--libs", SEAM,
                    "--rules", RULES, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: option dpt_option must be I, II or both, not 'III'\n")

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--dpt-option", "X"],
         "option dpt_option must be I, II or both, not 'X'"),
        (["report", "--svg-cap", "x"],
         "option svg_cap must be an integer, not 'x'"),
        (["report", "--svg-cap", "2.0e+5"],
         "option svg_cap must be an integer, not '2.0e+5'"),
    ], ids=["verify-dpt-option-X", "report-svg-cap-x",
            "report-svg-cap-float"])
    def test_bad_flag_value_fails_as_its_config_key_does(
            self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert run(["verify", "--libs", SEAM, "--rules", RULES,
                    "--out", str(out)]) == 1
        assert run(["report", "--out", str(out)]) == 0
        left = {p: p.is_file() and p.read_bytes() for p in out.rglob("*")}
        capsys.readouterr()
        inputs = [] if argv[0] == "report" else ["--libs", SEAM,
                                                 "--rules", RULES]
        assert run(argv + inputs + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert {p: p.is_file() and p.read_bytes()
                for p in out.rglob("*")} == left

    def test_path_option_not_a_string_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("rules: [a]\n")
        assert run(["verify", "--config", str(cfg), "--libs", SEAM,
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rules" in err


class TestRuleDeckErrors:
    @pytest.mark.parametrize("command", ["generate", "verify", "report"])
    def test_deck_error_names_the_deck(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "report":
            run(["verify", "--libs", SEAM, "--rules", RULES,
                 "--out", str(out)])
        deck = tmp_path / "rules.yaml"
        text = (TESTDATA / "rules.yaml").read_text()
        for bad, message in (
                (text.replace("min_width: 32", "min_width: -1", 1),
                 "layer M1: min_width must be a positive integer DBU, "
                 "got -1\n"),
                (text.replace("min_spacing_same_mask: 64",
                              "min_spacing_same_mask: null"),
                 "layer M1: min_spacing_same_mask must be a positive integer "
                 "DBU, got None\n"),
                ("layers: [1,\n", "rule deck is not valid YAML: ")):
            deck.write_text(bad)
            capsys.readouterr()
            assert run([command, "--libs", SEAM, "--rules", str(deck),
                        "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {deck}: {message}"), err

    def test_mistyped_key_exits_two(self, tmp_path, capsys):
        # Read as unknown, the key would leave the deck with no hotspot
        # pattern, and hotdemo's DRC+ match would go unreported.
        deck = tmp_path / "rules.yaml"
        deck.write_text((TESTDATA / "rules.yaml").read_text()
                        .replace("hotspot_patterns:", "hotspot_pattern:"))
        out = tmp_path / "out"
        assert run(["verify", "--libs", str(TESTDATA / "hotdemo.lef"),
                    "--rules", str(deck), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {deck}: deck: unknown key 'hotspot_pattern'\n")
        assert list(out.iterdir()) == []


class TestReport:
    def prepared(self, tmp_path):
        out = tmp_path / "out"
        run(["verify", "--libs", SEAM, "--rules", RULES, "--out", str(out)])
        return out

    def test_svgs_rendered_for_violations(self, tmp_path, capsys):
        out = self.prepared(tmp_path)
        assert run(["report", "--out", str(out)]) == 0
        svgs = sorted((out / "svg").glob("*.svg"))
        assert len(svgs) == 4
        names = [p.name for p in svgs]
        # Every violation of seamdemo lies at a seam, drawn as a line.
        assert all('stroke="#222222"' in p.read_text() for p in svgs)
        assert any("Hotspot" in n for n in names)
        assert any("SpacingSameMask" in n for n in names)
        stdout = capsys.readouterr().out
        assert "4 svg" in stdout

    def test_svg_cap_limits_output(self, tmp_path):
        out = self.prepared(tmp_path)
        assert run(["report", "--out", str(out), "--svg-cap", "2"]) == 0
        assert len(list((out / "svg").glob("*.svg"))) == 2

    def test_smaller_cap_leaves_only_its_svgs(self, tmp_path, capsys):
        out = self.prepared(tmp_path)
        assert run(["report", "--out", str(out)]) == 0
        assert run(["report", "--out", str(out), "--svg-cap", "1"]) == 0
        assert capsys.readouterr().out.endswith("wrote 1 svg file(s)\n")
        assert len(list((out / "svg").glob("*.svg"))) == 1

    def test_later_verify_leaves_no_file_of_the_earlier_run(self, tmp_path):
        out = self.prepared(tmp_path)
        assert run(["report", "--out", str(out)]) == 0
        assert run(["verify", "--libs", CLEAN, "--rules", RULES, "--out",
                    str(out)]) == 0
        assert sorted(p.name for p in out.glob("violations_*")) == [
            "violations_cleandemo_optI.jsonl",
            "violations_cleandemo_optII.jsonl"]
        assert list(out.rglob("*.svg")) == []
        assert not (out / "svg").exists()

    def test_zero_cap_leaves_no_svg_directory(self, tmp_path):
        out = self.prepared(tmp_path)
        assert run(["report", "--out", str(out)]) == 0
        assert run(["report", "--out", str(out), "--svg-cap", "0"]) == 0
        assert not (out / "svg").exists()

    @pytest.mark.parametrize("via_config", [False, True])
    def test_negative_cap_exits_two_and_keeps_the_svgs(self, tmp_path,
                                                       capsys, via_config):
        out = self.prepared(tmp_path)
        assert run(["report", "--out", str(out)]) == 0
        left = {p: p.is_file() and p.read_bytes() for p in out.rglob("*")}
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("svg_cap: -1\n")
        capsys.readouterr()
        args = (["--config", str(cfg)] if via_config
                else ["--svg-cap", "-1"])
        assert run(["report", "--out", str(out)] + args) == 2
        assert capsys.readouterr().err == (
            "error: option svg_cap must be a non-negative integer, not -1\n")
        assert {p: p.is_file() and p.read_bytes()
                for p in out.rglob("*")} == left
        assert len(list((out / "svg").glob("*.svg"))) == 4

    def test_svg_directory_holding_another_file_stays(self, tmp_path):
        out = self.prepared(tmp_path)
        assert run(["report", "--out", str(out)]) == 0
        (out / "svg" / "notes.txt").write_text("kept\n")
        assert run(["report", "--out", str(out), "--svg-cap", "0"]) == 0
        assert [p.name for p in (out / "svg").iterdir()] == ["notes.txt"]

    def test_failing_verify_leaves_the_earlier_run(self, tmp_path, capsys):
        out = self.prepared(tmp_path)
        assert run(["report", "--out", str(out)]) == 0
        left = {p: p.is_file() and p.read_bytes() for p in out.rglob("*")}
        tall = tmp_path / "tall.lef"
        tall.write_text((TESTDATA / "clean.lef").read_text()
                        .replace("BY 0.576", "BY 0.600"))
        assert run(["verify", "--libs", CLEAN, str(tall), "--rules", RULES,
                    "--out", str(out)]) == 2
        assert {p: p.is_file() and p.read_bytes()
                for p in out.rglob("*")} == left

    def test_failing_commit_leaves_out_as_it_was(self, tmp_path, capsys):
        # A file named svg stops the SVG directory from being made once
        # every output is written under its temporary name.
        out = self.prepared(tmp_path)
        (out / "svg").write_text("x\n")
        left = {p: p.is_file() and p.read_bytes() for p in out.rglob("*")}
        capsys.readouterr()
        assert run(["report", "--out", str(out)]) == 2
        assert "File exists" in capsys.readouterr().err
        assert {p: p.is_file() and p.read_bytes()
                for p in out.rglob("*")} == left

    def test_report_without_results_exits_two(self, tmp_path, capsys):
        code = run(["report", "--out", str(tmp_path / "empty")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_results_value_exits_two(self, tmp_path, capsys):
        out = self.prepared(tmp_path)
        results = out / "results.json"
        good = json.loads(results.read_text())
        for key, value in (("rules_crc32", [1]), ("rules_crc32", 2.5),
                           ("rules_crc32", True),
                           ("rules_crc32", "200000"),
                           ("rules_crc32", 200000.0)):
            results.write_text(json.dumps({**good, key: value}))
            capsys.readouterr()
            assert run(["report", "--out", str(out)]) == 2, (key, value)
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err, (key, value)

    def test_malformed_results_structure_exits_two(self, tmp_path, capsys):
        out = self.prepared(tmp_path)
        results = out / "results.json"
        good = json.loads(results.read_text())

        def edited(change):
            doc = json.loads(json.dumps(good))
            change(doc)
            return json.dumps(doc)

        def record(doc):
            return doc["libraries"][0]["runs"][0]["violations"][0]

        cases = [
            ("libraries", json.dumps({**good, "libraries": 5})),
            ("libraries[0].runs",
             edited(lambda d: d["libraries"][0].pop("runs"))),
            ("libraries[0].runs[0].drc",
             edited(lambda d: d["libraries"][0]["runs"][0]
                    .update(drc="3"))),
            ("libraries[0].runs[0].violations[0].bbox",
             edited(lambda d: record(d).update(bbox=[1, 2]))),
            ("libraries[0].runs[0].violations[0].kind",
             edited(lambda d: record(d).update(kind="Nope"))),
            ("libraries[0].runs[0].violations[0].kind",
             edited(lambda d: record(d).update(kind=["Width"]))),
            ("libraries[0].runs[0].violations[0].shape_ids",
             edited(lambda d: record(d).update(shape_ids="7"))),
            ("rules", json.dumps({**good, "rules": 7})),
            ("lacks key rules", edited(lambda d: d.pop("rules"))),
            ("rules_crc32", json.dumps({**good, "rules_crc32": "0"})),
            ("lacks key libraries[0].crc32",
             edited(lambda d: d["libraries"][0].pop("crc32"))),
            ("libraries[0].runs[0].violations[0].case",
             edited(lambda d: record(d).update(case=None))),
            ("top level", json.dumps([good])),
            ("is not valid JSON", "{not json"),
        ]
        for key, text in cases:
            results.write_text(text)
            capsys.readouterr()
            assert run(["report", "--out", str(out)]) == 2, key
            err = capsys.readouterr().err
            assert err.startswith("error:"), key
            assert str(results) in err and key in err, (key, err)

    def test_svg_draws_the_recorded_seams(self, tmp_path):
        # The first record's box is x 148..252; with the 200-DBU margin
        # its viewport starts at x = -52, so a seam at x lands at x + 52.
        out = self.prepared(tmp_path)
        results = out / "results.json"
        doc = json.loads(results.read_text())
        rec = doc["libraries"][0]["runs"][0]["violations"][0]
        assert rec["bbox"][0] == 148 and [s["x"] for s in rec["seams"]] \
            == [200, 400]
        rec["seams"] = [{**rec["seams"][0], "x": 300}]
        results.write_text(json.dumps(doc))
        assert run(["report", "--out", str(out), "--svg-cap", "1"]) == 0
        svg = (out / "svg" / f"seamdemo_optI_0000_{rec['kind']}.svg") \
            .read_text()
        assert re.findall(r'<line x1="(-?\d+)"', svg) == ["352"]

    def test_malformed_seams_exit_two(self, tmp_path, capsys):
        out = self.prepared(tmp_path)
        results = out / "results.json"
        good = results.read_text()
        for seams in (5, [3], [{"x": "a"}]):
            doc = json.loads(good)
            doc["libraries"][0]["runs"][0]["violations"][0]["seams"] = seams
            results.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run(["report", "--out", str(out)]) == 2, seams
            err = capsys.readouterr().err
            assert err.startswith("error:"), seams
            assert str(results) in err, seams
            assert "libraries[0].runs[0].violations[0].seams" in err, seams

    def test_nothing_to_draw_lays_out_nothing(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("report laid out a library")

        # Copies of the deck and the libraries, deleted before report:
        # with nothing to draw, report reads neither.
        copies = {name: tmp_path / name
                  for name in ("rules.yaml", "seamdemo.lef", "clean.lef")}
        for name, copy in copies.items():
            copy.write_text((TESTDATA / name).read_text())
        out, clean = tmp_path / "out", tmp_path / "clean"
        assert run(["verify", "--libs", str(copies["seamdemo.lef"]),
                    "--rules", str(copies["rules.yaml"]),
                    "--out", str(out)]) == 1
        assert run(["verify", "--libs", str(copies["clean.lef"]),
                    "--rules", str(copies["rules.yaml"]),
                    "--out", str(clean)]) == 0
        for copy in copies.values():
            copy.unlink()
        monkeypatch.setattr(climod, "plan_library", refuse)
        assert run(["report", "--out", str(out), "--svg-cap", "0"]) == 0
        assert run(["report", "--out", str(clean)]) == 0
        assert not (out / "svg").exists() and not (clean / "svg").exists()

    def test_library_with_nothing_to_draw_needs_no_file(self, tmp_path,
                                                        capsys):
        lib_dir = tmp_path / "a"
        lib_dir.mkdir()
        seam, clean = lib_dir / "seamdemo.lef", lib_dir / "clean.lef"
        seam.write_text((TESTDATA / "seamdemo.lef").read_text())
        clean.write_text((TESTDATA / "clean.lef").read_text())
        out = tmp_path / "out"
        assert run(["verify", "--libs", str(seam), str(clean), "--rules",
                    RULES, "--out", str(out)]) == 1
        clean.unlink()
        capsys.readouterr()
        assert run(["report", "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith("wrote 4 svg file(s)\n")
        assert len(list((out / "svg").glob("*.svg"))) == 4

    def test_library_error_names_the_library(self, tmp_path, capsys):
        out = self.prepared(tmp_path)
        bad = tmp_path / "tall.lef"
        bad.write_text(tall_rows("seamdemo.lef"))
        capsys.readouterr()
        assert run(["report", "--libs", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 17, col 7: cell SEAMA height 576 DBU is not "
            f"a multiple of the row height 600 DBU\n")

    def test_library_that_no_file_defines_exits_two(self, tmp_path,
                                                    capsys):
        out = tmp_path / "out"
        assert run(["verify", "--libs", SEAM, str(TESTDATA / "hotdemo.lef"),
                    CLEAN, "--rules", RULES, "--out", str(out)]) == 1
        left = {p: p.is_file() and p.read_bytes() for p in out.rglob("*")}
        capsys.readouterr()
        assert run(["report", "--libs", CLEAN, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'results.json'} key libraries[0].name names "
            f"library seamdemo, which no library file read defines\n")
        assert {p: p.is_file() and p.read_bytes()
                for p in out.rglob("*")} == left
        # cleandemo has no record to draw, so no file need define it.
        assert run(["report", "--libs", SEAM, str(TESTDATA / "hotdemo.lef"),
                    "--out", str(out)]) == 0

    def test_failing_later_library_leaves_out_as_verify_left_it(
            self, tmp_path, capsys):
        # Copies of both libraries: report reads hotdemo after HOTB has
        # been widened, once seamdemo's SVGs are staged.
        seam, hot = tmp_path / "seamdemo.lef", tmp_path / "hotdemo.lef"
        seam.write_text((TESTDATA / "seamdemo.lef").read_text())
        hot.write_text((TESTDATA / "hotdemo.lef").read_text())
        out = tmp_path / "o"
        assert run(["verify", "--libs", str(seam), str(hot), "--rules",
                    RULES, "--out", str(out)]) == 1
        def listing():  # every path under --out; a file with its bytes
            return {p: p.is_file() and p.read_bytes() for p in out.rglob("*")}

        left = listing()
        recorded = self.crc32(hot)
        hot.write_text(hot.read_text().replace("SIZE 0.208 BY",
                                               "SIZE 120 BY"))
        capsys.readouterr()
        assert run(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'results.json'} key libraries[1].crc32 is "
            f"{recorded}, but {hot} has CRC-32 {self.crc32(hot)}; run "
            f"verify again\n")
        assert listing() == left

    def test_record_of_a_case_no_longer_made_exits_two(self, tmp_path,
                                                       capsys):
        # With the deck and the library as verify read them, only an
        # edited results.json can name a case that the library does not
        # make.
        out = self.prepared(tmp_path)
        assert run(["report", "--out", str(out)]) == 0
        results = out / "results.json"
        doc = json.loads(results.read_text())
        doc["libraries"][0]["runs"][0]["violations"][0]["case"] = \
            "scell_SEAMZ"
        results.write_text(json.dumps(doc))
        left = {p: p.is_file() and p.read_bytes() for p in out.rglob("*")}
        assert len(list((out / "svg").glob("*.svg"))) == 4
        capsys.readouterr()
        assert run(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {results} key libraries[0].runs[0].violations[0].case "
            f"names scell_SEAMZ, which {SEAM} does not make; run verify "
            f"again\n")
        assert {p: p.is_file() and p.read_bytes()
                for p in out.rglob("*")} == left

    @staticmethod
    def crc32(path) -> int:
        return zlib.crc32(path.read_text().encode("utf-8"))

    @pytest.mark.parametrize("lef, old, new, cap", [
        # A wider interaction distance moves every shelf gap, so every
        # case after the first would be drawn from the wrong place.
        ("seamdemo.lef", "interaction_distance: 200",
         "interaction_distance: 400", "50"),
        # Option II would recolour with a spacing that verify did not use.
        ("densedemo.lef", "min_spacing_same_mask: 64",
         "min_spacing_same_mask: 40", "500"),
    ], ids=["shelf-gap", "same-mask"])
    def test_deck_unlike_the_verified_one_exits_two(self, tmp_path, capsys,
                                                   lef, old, new, cap):
        out = tmp_path / "out"
        assert run(["verify", "--libs", str(TESTDATA / lef), "--rules",
                    RULES, "--out", str(out)]) == 1
        assert run(["report", "--out", str(out), "--svg-cap", cap]) == 0
        left = {p: p.is_file() and p.read_bytes() for p in out.rglob("*")}
        deck = tmp_path / "rules.yaml"
        deck.write_text((TESTDATA / "rules.yaml").read_text()
                        .replace(old, new))
        capsys.readouterr()
        assert run(["report", "--out", str(out), "--svg-cap", cap,
                    "--rules", str(deck)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'results.json'} key rules_crc32 is "
            f"{self.crc32(TESTDATA / 'rules.yaml')}, but {deck} has CRC-32 "
            f"{self.crc32(deck)}; run verify again\n")
        assert {p: p.is_file() and p.read_bytes()
                for p in out.rglob("*")} == left

    def test_library_edited_after_verify_exits_two(self, tmp_path, capsys):
        # Still makes every case that results.json names, but SEAMA's
        # left bar is shorter than the one verify checked.
        lef = tmp_path / "seamdemo.lef"
        lef.write_text((TESTDATA / "seamdemo.lef").read_text())
        out = tmp_path / "out"
        assert run(["verify", "--libs", str(lef), "--rules", RULES,
                    "--out", str(out)]) == 1
        recorded = self.crc32(lef)
        assert run(["report", "--out", str(out)]) == 0
        left = {p: p.is_file() and p.read_bytes() for p in out.rglob("*")}
        lef.write_text(lef.read_text().replace("RECT 0.02 0.06 0.052",
                                               "RECT 0.02 0.08 0.052"))
        capsys.readouterr()
        assert run(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'results.json'} key libraries[0].crc32 is "
            f"{recorded}, but {lef} has CRC-32 {self.crc32(lef)}; run "
            f"verify again\n")
        assert {p: p.is_file() and p.read_bytes()
                for p in out.rglob("*")} == left

    def test_clean_run_renders_no_svgs(self, tmp_path):
        out = tmp_path / "out"
        run(["verify", "--libs", CLEAN, "--rules", RULES, "--out", str(out)])
        assert run(["report", "--out", str(out)]) == 0
        assert list((out / "svg").glob("*.svg")) == [] \
            if (out / "svg").exists() else True
