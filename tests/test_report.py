"""Seam attribution, summary rendering, and SVG output tests."""

import json
import random
import xml.dom.minidom
from collections import Counter

from seamcheck import (
    DptOption,
    Rect,
    Violation,
    ViolationKind,
    attribute_to_seams,
    case_layout,
    enumerate_library,
    global_seams,
    plan_floorplan,
    render_jsonl,
    render_svg,
    run_all,
    seams_per_violation,
    summary_table,
    violation_record,
)
from seamcheck.cli import main

from conftest import TESTDATA, synth_library

OPT_I, OPT_II = DptOption.OPTION_I, DptOption.OPTION_II


def seam_setup(library, rules):
    cases = enumerate_library(library)
    plan = plan_floorplan(cases, rules)
    return cases, plan, global_seams(cases, plan)


def vio(kind, bbox, case_index, shape_ids=(0,), layer="M1", pattern=None):
    return Violation(kind=kind, layer=layer, bbox=bbox, shape_ids=shape_ids,
                     pattern_name=pattern, case_index=case_index)


class TestGlobalSeams:
    def test_seams_carry_die_coordinates(self, seam_library, demo_rules):
        cases, plan, seams = seam_setup(seam_library, demo_rules)
        per_case = Counter(s.case_index for s in seams)
        assert per_case == {0: 3, 1: 3, 2: 4}
        for s in seams:
            ox, oy = plan.origin_of(s.case_index)
            local = cases[s.case_index].seams[s.seam_index]
            assert s.x == ox + local.x
            assert s.y_lo == oy
            assert s.y_hi == (oy + cases[s.case_index].height_rows
                              * plan.row_height)

    def test_band_window(self, seam_library, demo_rules):
        _, _, seams = seam_setup(seam_library, demo_rules)
        s = seams[0]
        band = s.band(200)
        assert band == Rect(s.x - 200, s.y_lo - 200, s.x + 200, s.y_hi + 200)


class TestAttribution:
    def test_violation_on_seam_is_attributed(self, seam_library, demo_rules):
        cases, plan, seams = seam_setup(seam_library, demo_rules)
        s = seams[0]
        v = vio(ViolationKind.SPACING_SAME_MASK,
                Rect(s.x - 10, s.y_lo + 100, s.x + 10, s.y_lo + 200),
                s.case_index)
        reports, residual = attribute_to_seams([v], cases, plan, 200)
        assert residual == []
        hit = [r for r in reports if r.violations]
        assert len(hit) >= 1
        assert any(r.seam == s for r in hit)

    def test_far_violation_lands_in_residual(self, seam_library, demo_rules):
        cases, plan, _ = seam_setup(seam_library, demo_rules)
        # With a 10 DBU window, a box 20 DBU from the nearest seam of its
        # case cannot be attributed.
        ox, _ = plan.origin_of(0)
        far = vio(ViolationKind.WIDTH,
                  Rect(ox + 230, 100, ox + 240, 120), 0)
        reports, residual = attribute_to_seams([far], cases, plan, 10)
        assert residual == [far]
        assert reports == []

    def test_straddling_violation_hits_both_seams(self, seam_library,
                                                  demo_rules):
        cases, plan, seams = seam_setup(seam_library, demo_rules)
        case0 = [s for s in seams if s.case_index == 0]
        mid = (case0[0].x + case0[1].x) // 2
        v = vio(ViolationKind.SPACING_ANY_MASK,
                Rect(mid - 5, 100, mid + 5, 200), 0)
        reports, residual = attribute_to_seams([v], cases, plan, 200)
        assert residual == []
        hits = [r.seam.x for r in reports if v in r.violations]
        assert case0[0].x in hits and case0[1].x in hits

    def test_violation_never_crosses_cases(self, seam_library, demo_rules):
        cases, plan, seams = seam_setup(seam_library, demo_rules)
        other = [s for s in seams if s.case_index == 1][0]
        # A violation in case 0 placed x-near a case-1 seam still only
        # attributes to case-0 seams.
        v = vio(ViolationKind.WIDTH,
                Rect(other.x - 5, other.y_lo, other.x + 5, other.y_lo + 50), 0)
        reports, _ = attribute_to_seams([v], cases, plan, 200)
        for r in reports:
            if v in r.violations:
                assert r.seam.case_index == 0

    def test_conservation_on_fixture_runs(self, seam_library, odd_library,
                                           demo_rules):
        for lib in (seam_library, odd_library):
            for opt in (OPT_I, OPT_II):
                res = run_all(lib, demo_rules, opt)
                reports, residual = attribute_to_seams(
                    res.violations, res.cases, res.floorplan,
                    demo_rules.interaction_distance)
                attributed = {id(v) for r in reports for v in r.violations}
                assert len(attributed) + len(residual) == len(res.violations)

    def test_all_seam_fixture_violations_attributed(self, seam_library,
                                                    demo_rules):
        res = run_all(seam_library, demo_rules, OPT_I)
        _, residual = attribute_to_seams(res.violations, res.cases,
                                         res.floorplan,
                                         demo_rules.interaction_distance)
        assert residual == []


class TestAttributionOracle:
    """attribute_to_seams, which builds only the seams of the cases its
    violations name, against a scan of every seam of the library."""

    @staticmethod
    def scan(violations, seams, window):
        hits, residual = {}, []
        for v in violations:
            found = [s for s in seams
                     if v.case_index == s.case_index
                     and s.band(window).intersects(v.bbox)]
            for s in found:
                hits.setdefault(s, []).append(v)
            if not found:
                residual.append(v)
        return ([(s, tuple(hits[s])) for s in seams if s in hits],
                residual)

    def test_matches_scan_of_global_seams(self, demo_rules):
        library = synth_library(6)
        cases, plan, seams = seam_setup(library, demo_rules)
        die = plan.die_area
        rng = random.Random(77)
        choices = list(range(len(cases))) + [None, -1, len(cases)]
        attributed = residual_total = 0
        for _ in range(40):
            violations = []
            for _ in range(rng.randrange(0, 12)):
                x, y = rng.randrange(die.x2), rng.randrange(die.y2)
                bbox = Rect(x, y, x + rng.randrange(1, 400),
                            y + rng.randrange(1, 400))
                violations.append(vio(ViolationKind.WIDTH, bbox,
                                      rng.choice(choices)))
            window = rng.choice((10, 200))
            reports, residual = attribute_to_seams(violations, cases, plan,
                                                   window)
            expect, expect_residual = self.scan(violations, seams, window)
            assert [(r.seam, r.violations) for r in reports] == expect
            assert residual == expect_residual
            attributed += len(reports)
            residual_total += len(residual)
        assert attributed > 0 and residual_total > 0


def library_entry(results):
    """The ``results.json`` library entry of verify runs of one library,
    reduced to what ``summary_table`` reads."""
    return {"name": results[0].library.name,
            "runs": [{"option": r.option.value, "drc": r.drc_count,
                      "drcplus": r.drcplus_count} for r in results]}


class TestSummary:
    def test_fixture_rows(self, seam_library, demo_rules):
        results = [run_all(seam_library, demo_rules, OPT_I),
                   run_all(seam_library, demo_rules, OPT_II)]
        table = summary_table([library_entry(results)])
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.library == "seamdemo"
        assert row.counts == {"drc_I": 3, "drcplus_I": 1,
                              "drc_II": 0, "drcplus_II": 0}
        text = table.render()
        assert "seamdemo" in text
        assert "Clean" in text

    def test_zero_renders_clean_and_absent_renders_dash(self):
        table = summary_table([{"name": "fab", "runs": [
            {"option": "I", "drc": 0, "drcplus": 218}]}])
        row = table.rows[0]
        assert row.cell("drc_I") == "Clean"
        assert row.cell("drcplus_I") == "218"
        assert row.cell("drc_II") == "-"
        assert row.cell("drcplus_II") == "-"
        rendered = table.render()
        assert "fab" in rendered and "218" in rendered and "-" in rendered

    def test_multiple_libraries_keep_first_seen_order(self, seam_library,
                                                      clean_library,
                                                      demo_rules):
        table = summary_table([
            library_entry([run_all(clean_library, demo_rules, OPT_I)]),
            library_entry([run_all(seam_library, demo_rules, OPT_I)])])
        assert [r.library for r in table.rows] == ["cleandemo", "seamdemo"]

    def test_report_rewrites_the_verify_summary(self, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", "--libs", str(TESTDATA / "seamdemo.lef"),
                     str(TESTDATA / "clean.lef"), "--rules",
                     str(TESTDATA / "rules.yaml"), "--out", str(out)]) == 1
        written = (out / "summary.txt").read_bytes()
        (out / "summary.txt").unlink()
        assert main(["report", "--out", str(out), "--svg-cap", "0"]) == 0
        assert (out / "summary.txt").read_bytes() == written
        assert b"seamdemo" in written and b"cleandemo" in written


class TestJsonl:
    def test_records_are_sorted_json_lines(self, seam_library, demo_rules):
        res = run_all(seam_library, demo_rules, OPT_I)
        text = render_jsonl(res, demo_rules.interaction_distance)
        lines = text.strip().split("\n")
        assert len(lines) == 4
        for line in lines:
            rec = json.loads(line)
            assert list(rec) == sorted(rec)
            assert rec["kind"] in {"SpacingSameMask", "Hotspot"}
            assert rec["case"].startswith("scell_")
            assert isinstance(rec["seams"], list) and rec["seams"]
            assert len(rec["bbox"]) == 4

    def test_hotspot_record_carries_pattern(self, seam_library, demo_rules):
        res = run_all(seam_library, demo_rules, OPT_I)
        recs = [json.loads(l) for l in
                render_jsonl(res, 200).strip().split("\n")]
        hot = [r for r in recs if r["kind"] == "Hotspot"]
        assert hot and all(r["pattern"] == "quad_alternating" for r in hot)

    def test_record_seam_sides_are_labeled(self, seam_library, demo_rules):
        res = run_all(seam_library, demo_rules, OPT_I)
        seams = seams_per_violation(res.violations, res.cases,
                                    res.floorplan, 200)
        rec = violation_record(res.violations[0], res.cases, seams[0])
        side = rec["seams"][0]["left"]
        cell, orient = side.split(":")
        assert cell in {"SEAMA", "SEAMB"}
        assert orient in {"R0", "MY"}


class TestSvg:
    def render_first(self, seam_library, demo_rules, margin=200):
        res = run_all(seam_library, demo_rules, OPT_I)
        v = res.violations[0]
        layout = case_layout(v.case_index, res.cases, seam_library,
                             res.floorplan, demo_rules, OPT_I)
        near, = seams_per_violation([v], res.cases, res.floorplan, 200)
        return render_svg(layout, v.bbox, margin=margin,
                          seam_xs=tuple(s.x for s in near)), v

    def test_well_formed_and_deterministic(self, seam_library, demo_rules):
        svg1, _ = self.render_first(seam_library, demo_rules)
        svg2, _ = self.render_first(seam_library, demo_rules)
        assert svg1 == svg2
        xml.dom.minidom.parseString(svg1)

    def test_viewport_is_bbox_plus_margin(self, seam_library, demo_rules):
        svg, v = self.render_first(seam_library, demo_rules, margin=0)
        w, h = v.bbox.width, v.bbox.height
        assert f'viewBox="0 0 {w} {h}"' in svg

    def test_shapes_and_annotations_present(self, seam_library, demo_rules):
        svg, v = self.render_first(seam_library, demo_rules)
        assert "#5588cc" in svg or "#dd7766" in svg
        assert "#cc0022" in svg
        assert "<title>" in svg
        assert 'stroke-dasharray' in svg

    def test_seam_lines_drawn_when_in_viewport(self, seam_library,
                                               demo_rules):
        svg, _ = self.render_first(seam_library, demo_rules)
        assert "#222222" in svg

    def test_y_axis_points_up(self, seam_library, demo_rules):
        # The lowest shape in die coordinates must have the largest SVG y.
        res = run_all(seam_library, demo_rules, OPT_I)
        v = res.violations[0]
        layout = case_layout(v.case_index, res.cases, seam_library,
                             res.floorplan, demo_rules, OPT_I)
        svg = render_svg(layout, v.bbox, margin=300)
        ys = [int(part.split('"')[1]) for part in svg.split(" y=")[1:]]
        assert ys and any(y != ys[0] for y in ys)
