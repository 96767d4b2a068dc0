"""Seam attribution, summary rendering, and SVG output tests."""

import json
import random
import xml.dom.minidom

from seamcheck import (
    DptOption,
    Rect,
    Violation,
    ViolationKind,
    attribute_to_seams,
    case_layout,
    enumerate_library,
    plan_floorplan,
    render_jsonl,
    render_summary,
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
    return cases, plan_floorplan(cases, library, rules)


def die_seams(cases, plan, idx):
    """The seams of case ``idx`` with x moved to the die (the case's x
    origin plus each ``case.seams[j].x``), built here apart from
    report.py."""
    ox, _ = plan.origin_of(idx)
    return [s._replace(x=ox + s.x) for s in cases[idx].seams]


def vio(kind, bbox, case_index, shape_ids=(0,), layer="M1", pattern=None):
    return Violation(kind=kind, layer=layer, bbox=bbox, shape_ids=shape_ids,
                     pattern_name=pattern, case_index=case_index)


class TestDieSeams:
    def test_seams_carry_die_coordinates(self, seam_library, demo_rules):
        cases, plan = seam_setup(seam_library, demo_rules)
        everywhere = [vio(ViolationKind.WIDTH, plan.die_area, idx)
                      for idx in range(len(cases))]
        per_case = seams_per_violation(everywhere, cases, plan, 0)
        assert [len(seams) for seams in per_case] == [3, 3, 4]
        assert per_case == [die_seams(cases, plan, idx)
                            for idx in range(len(cases))]
        assert any(plan.origin_of(idx)[0] for idx in range(len(cases)))

    def test_band_edges_count(self, seam_library, demo_rules):
        cases, plan = seam_setup(seam_library, demo_rules)
        idx, w = 2, 10
        s = die_seams(cases, plan, idx)[1]
        mid = plan.origin_of(idx)[1] + 100
        touching = [Rect(s.x + w, mid, s.x + w + 5, mid + 20),
                    Rect(s.x - w - 5, mid, s.x - w, mid + 20)]
        beyond = [Rect(s.x + w + 1, mid, s.x + w + 5, mid + 20),
                  Rect(s.x - w - 5, mid, s.x - w - 1, mid + 20)]
        charged = seams_per_violation(
            [vio(ViolationKind.WIDTH, b, idx) for b in touching + beyond],
            cases, plan, w)
        assert charged == [[s]] * len(touching) + [[]] * len(beyond)


class TestAttribution:
    def test_violation_on_seam_is_attributed(self, seam_library, demo_rules):
        cases, plan = seam_setup(seam_library, demo_rules)
        s = die_seams(cases, plan, 0)[0]
        _, oy = plan.origin_of(0)
        v = vio(ViolationKind.SPACING_SAME_MASK,
                Rect(s.x - 10, oy + 100, s.x + 10, oy + 200), 0)
        charged, = seams_per_violation([v], cases, plan, 200)
        assert s in charged

    def test_far_violation_lands_in_residual(self, seam_library, demo_rules):
        cases, plan = seam_setup(seam_library, demo_rules)
        # With a 10 DBU window, a box 20 DBU from the nearest seam of its
        # case cannot be attributed.
        ox, _ = plan.origin_of(0)
        far = vio(ViolationKind.WIDTH,
                  Rect(ox + 230, 100, ox + 240, 120), 0)
        assert seams_per_violation([far], cases, plan, 10) == [[]]

    def test_straddling_violation_hits_both_seams(self, seam_library,
                                                  demo_rules):
        cases, plan = seam_setup(seam_library, demo_rules)
        case0 = die_seams(cases, plan, 0)
        mid = (case0[0].x + case0[1].x) // 2
        v = vio(ViolationKind.SPACING_ANY_MASK,
                Rect(mid - 5, 100, mid + 5, 200), 0)
        charged, = seams_per_violation([v], cases, plan, 200)
        assert case0[0] in charged and case0[1] in charged

    def test_violation_never_crosses_cases(self, seam_library, demo_rules):
        cases, plan = seam_setup(seam_library, demo_rules)
        other = die_seams(cases, plan, 1)[0]
        _, oy = plan.origin_of(1)
        # A violation in case 0 placed x-near a case-1 seam still only
        # attributes to case-0 seams.
        v = vio(ViolationKind.WIDTH,
                Rect(other.x - 5, oy, other.x + 5, oy + 50), 0)
        charged, = seams_per_violation([v], cases, plan, 200)
        assert other not in charged
        assert all(s in die_seams(cases, plan, 0) for s in charged)

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
        assert [] not in seams_per_violation(res.violations, res.cases,
                                             res.floorplan,
                                             demo_rules.interaction_distance)


class TestAttributionOracle:
    """seams_per_violation, which builds only the seams of the cases its
    violations name, against a scan of every seam band of the library."""

    @staticmethod
    def scan(violations, cases, plan, window):
        # A violation lies inside its case's rows, as run_all makes it,
        # so each band spans the die's height and only x can miss.
        die = plan.die_area
        bands = [(idx, s, Rect(s.x - window, die.y1, s.x + window, die.y2))
                 for idx in range(len(cases))
                 for s in die_seams(cases, plan, idx)]
        return [[s for idx, s, band in bands
                 if idx == v.case_index and band.intersects(v.bbox)]
                for v in violations]

    def test_matches_scan_of_global_seams(self, demo_rules):
        lib = synth_library(6)
        cases = enumerate_library(lib)
        rng = random.Random(77)
        # The default row width packs every case into one shelf; 4,000
        # DBU stacks the cases in several shelves, so cases of different
        # shelves share x ranges and only the case index keeps their
        # seams apart.
        plans = (plan_floorplan(cases, lib, demo_rules),
                 plan_floorplan(cases, lib, demo_rules, 4000))
        assert plans[1].die_area.y2 > 4 * plans[1].row_height
        for plan in plans:
            attributed = residual = 0
            for _ in range(40):
                violations = []
                for _ in range(rng.randrange(0, 12)):
                    # A box inside the case it names, as run_all makes it.
                    idx = rng.randrange(len(cases))
                    ox, oy = plan.origin_of(idx)
                    x2 = ox + cases[idx].width
                    y2 = oy + cases[idx].height_rows * plan.row_height
                    x, y = rng.randrange(ox, x2), rng.randrange(oy, y2)
                    bbox = Rect(x, y, min(x + rng.randrange(1, 400), x2),
                                min(y + rng.randrange(1, 400), y2))
                    violations.append(vio(ViolationKind.WIDTH, bbox, idx))
                window = rng.choice((10, 200))
                charged = seams_per_violation(violations, cases, plan,
                                              window)
                assert charged == self.scan(violations, cases, plan, window)
                attributed += sum(map(len, charged))
                residual += charged.count([])
            assert attributed > 0 and residual > 0


def library_entry(library, results):
    """The ``results.json`` library entry of verify runs of ``library``,
    reduced to what ``summary_table`` reads."""
    return {"name": library.name,
            "runs": [{"option": r.option.value, "drc": r.drc_count,
                      "drcplus": r.drcplus_count} for r in results]}


class TestSummary:
    def test_fixture_rows(self, seam_library, demo_rules):
        results = [run_all(seam_library, demo_rules, OPT_I),
                   run_all(seam_library, demo_rules, OPT_II)]
        table = summary_table([library_entry(seam_library, results)])
        assert table == {"rows": [{"library": "seamdemo",
                                   "drc_I": 3, "drcplus_I": 1,
                                   "drc_II": 0, "drcplus_II": 0}]}
        text = render_summary(table)
        assert text.splitlines()[2].split() == [
            "seamdemo", "3", "1", "Clean", "Clean"]

    def test_zero_renders_clean_and_absent_renders_dash(self):
        table = summary_table([{"name": "fab", "runs": [
            {"option": "I", "drc": 0, "drcplus": 218}]}])
        assert table == {"rows": [{"library": "fab", "drc_I": 0,
                                   "drcplus_I": 218}]}
        assert render_summary(table) == (
            "Library  DRC (Opt I)  DRC+ (Opt I)  DRC (Opt II)  DRC+ (Opt II)\n"
            "-------  -----------  ------------  ------------  -------------\n"
            "fab      Clean        218           -             -\n")

    def test_multiple_libraries_keep_first_seen_order(self, seam_library,
                                                      clean_library,
                                                      demo_rules):
        table = summary_table([
            library_entry(clean_library,
                          [run_all(clean_library, demo_rules, OPT_I)]),
            library_entry(seam_library,
                          [run_all(seam_library, demo_rules, OPT_I)])])
        assert [row["library"] for row in table["rows"]] == [
            "cleandemo", "seamdemo"]

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
        layout = case_layout(v.case_index, res.cases, res.floorplan,
                             demo_rules, OPT_I)
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
        layout = case_layout(v.case_index, res.cases, res.floorplan,
                             demo_rules, OPT_I)
        svg = render_svg(layout, v.bbox, margin=300)
        ys = [int(part.split('"')[1]) for part in svg.split(" y=")[1:]]
        assert ys and any(y != ys[0] for y in ys)
