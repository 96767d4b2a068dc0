"""Acceptance suite: one test per shipping criterion.

Each test prints a single "ACCEPTANCE <n> (<name>): PASS|FAIL" line so a
plain pytest -s run doubles as a sign-off checklist. Random content is
checked against independent oracles implemented in this file.
"""

import itertools
import json
import pathlib
import random
import time
from dataclasses import replace

from seamcheck import (
    ConflictGraph,
    DptOption,
    FlatLayout,
    FlatShape,
    HotspotPattern,
    Mask,
    Orientation,
    Rect,
    apply_colors,
    attribute_to_seams,
    build_conflict_graph,
    check_spacing,
    color_decompose,
    coverage_check,
    emit_def,
    enumerate_library,
    expected_count,
    match_hotspots,
    parallel_runs,
    parse_def,
    parse_library,
    parse_rules,
    plan_floorplan,
    render_def,
    run_all,
    sweep_neighbours,
    transform_rect,
)
from seamcheck.checks import COLOR_RELATED
from seamcheck.cli import main

from conftest import TESTDATA, read_testdata, synth_lef, synth_library

RULES_PATH = str(TESTDATA / "rules.yaml")
SEAM_PATH = str(TESTDATA / "seamdemo.lef")
ODD_PATH = str(TESTDATA / "oddcycle.lef")


def criterion(n, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {n} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_acceptance_1_reduced_counts(tmp_path):
    def body():
        for n, expect in ((1, 4), (2, 13), (41, 4264), (108, 29322)):
            t0 = time.monotonic()
            lib = synth_library(n, with_shapes=False)
            cases = enumerate_library(lib)
            elapsed = time.monotonic() - t0
            total = sum(len(c.placements) for c in cases)
            assert total == expect, (n, total)
            assert elapsed < 5.0, (n, elapsed)
        lef = tmp_path / "lib470.lef"
        lef.write_text(synth_lef(470, name="lib470"))
        out = tmp_path / "out470"
        assert main(["generate", "--libs", str(lef), "--rules", RULES_PATH,
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest_lib470.json").read_text())
        assert manifest["placements"] == 552_955
        assert manifest["matches_expected"] is True

    criterion(1, "reduced placement counts", body)


def test_acceptance_2_formula_ratio():
    def body():
        assert expected_count(1000, "proposed") == 2_501_500
        assert expected_count(1000, "conventional") == 8_000_000
        ratio = expected_count(1000, "conventional") / \
            expected_count(1000, "proposed")
        assert 3.19 <= ratio <= 3.20, ratio

    criterion(2, "count formula and reduction ratio", body)


def _oracle_universe(names, multi):
    flip = {"R0": "MY", "MY": "R0"}
    classes = set()
    for cl, cr in itertools.product(names, repeat=2):
        if cl != cr and cl in multi and cr in multi:
            continue
        for ol, orr in itertools.product(("R0", "MY"), repeat=2):
            t = ((cl, ol), (cr, orr))
            m = ((cr, flip[orr]), (cl, flip[ol]))
            classes.add(frozenset((t, m)))
    return classes


def _oracle_covered(cases):
    names = {"R0": "R0", "MY": "MY", "MX": "R0", "R180": "MY"}
    flip = {"R0": "MY", "MY": "R0"}
    covered = set()
    for case in cases:
        for seam in case.seams:
            t = ((seam.left[0], names[seam.left[1].name]),
                 (seam.right[0], names[seam.right[1].name]))
            m = ((t[1][0], flip[t[1][1]]), (t[0][0], flip[t[0][1]]))
            covered.add(frozenset((t, m)))
    return covered


def test_acceptance_3_topology_coverage():
    def body():
        rng = random.Random(2026)
        t0 = time.monotonic()
        sizes = [rng.randrange(1, 21) for _ in range(6)] + [20]
        for i, n in enumerate(sizes):
            multi_every = rng.choice((0, 2, 3, 5))
            lib = synth_library(n, multi_every=multi_every, with_shapes=False)
            cases = enumerate_library(lib)
            report = coverage_check(cases, lib)
            assert report.complete, (n, multi_every, report.missing[:3])
            names = [c.name for c in lib.cells]
            multi = {c.name for c in lib.cells if c.is_multi}
            universe = _oracle_universe(names, multi)
            assert report.universe == len(universe)
            assert _oracle_covered(cases) >= universe
        assert time.monotonic() - t0 < 10.0

    criterion(3, "full topology coverage at N<=20", body)


def test_acceptance_4_geometry_invariants():
    def body():
        rng = random.Random(404)
        w, h = 6000, 2304

        def rnd_rect(span, side):
            x1 = rng.randrange(0, span)
            y1 = rng.randrange(0, span)
            return Rect(x1, y1, x1 + rng.randrange(1, side),
                        y1 + rng.randrange(1, side))

        for _ in range(10_000):
            r = rnd_rect(1800, 500)
            my = transform_rect(r, w, h, Orientation.MY)
            mx = transform_rect(r, w, h, Orientation.MX)
            assert transform_rect(my, w, h, Orientation.MY) == r
            assert transform_rect(mx, w, h, Orientation.MX) == r
            assert transform_rect(my, w, h, Orientation.MX) == \
                transform_rect(r, w, h, Orientation.R180)

        shapes = tuple(
            FlatShape(i, "M1", Mask.E1, rnd_rect(8000, 400), "U1")
            for i in range(2500)
        )
        layout = FlatLayout(shapes)
        for _ in range(1000):
            win = rnd_rect(8000, 900)
            expect = {s.shape_id for s in shapes
                      if s.rect.x1 <= win.x2 and win.x1 <= s.rect.x2
                      and s.rect.y1 <= win.y2 and win.y1 <= s.rect.y2}
            assert layout.query_window(win) == expect

        small = tuple(
            FlatShape(i, "M1", Mask.E1, rnd_rect(3000, 300), "U1")
            for i in range(500)
        )
        slayout = FlatLayout(small)
        got = {(r.shape_a, r.shape_b, r.spacing, r.run_length, r.axis)
               for r in parallel_runs(slayout.near_pairs("M1", 120), 120)}
        expect = set()
        for i, a in enumerate(small):
            for b in small[i + 1:]:
                xov = min(a.rect.x2, b.rect.x2) - max(a.rect.x1, b.rect.x1)
                yov = min(a.rect.y2, b.rect.y2) - max(a.rect.y1, b.rect.y1)
                run = None
                if xov > 0 and yov <= 0:
                    run = (-yov, xov, "horizontal")
                elif yov > 0 and xov <= 0:
                    run = (-xov, yov, "vertical")
                if run and run[0] <= 120:
                    expect.add((a.shape_id, b.shape_id) + run)
        assert got == expect

    criterion(4, "geometry transform and index invariants", body)


def test_acceptance_5_color_decomposition():
    def body():
        rules = parse_rules(read_testdata("rules.yaml"))
        rng = random.Random(505)

        # Exhaustive check on 500 random conflict graphs.
        for trial in range(500):
            n = rng.randrange(0, 13)
            nodes = list(range(n))
            edges = [e for e in itertools.combinations(nodes, 2)
                     if rng.random() < 0.2]
            graph = ConflictGraph(
                layer="M1", nodes={v: (v,) for v in nodes},
                edges=frozenset(edges),
                node_bbox={v: Rect(0, v, 1, v + 1) for v in nodes})
            result = color_decompose(graph)
            order = {v: i for i, v in enumerate(nodes)}
            feasible = any(
                all((bits >> order[u]) & 1 != (bits >> order[v]) & 1
                    for u, v in edges)
                for bits in range(1 << n)) if n else True
            assert result.feasible == feasible, (trial, edges)
            if feasible:
                for u, v in edges:
                    assert result.assignment[u] != result.assignment[v]
            else:
                assert result.odd_cycles

        # Recoloring a decomposable layout eliminates same-mask spacing
        # violations. Random bar rows are always decomposable (paths).
        feasible_seen = 0
        for trial in range(60):
            x, specs = 0, []
            for _ in range(rng.randrange(2, 9)):
                x += 32 + rng.randrange(33, 97)
                specs.append(FlatShape(len(specs), "M1", Mask.E1,
                                       Rect(x, 0, x + 32, 400), "U1"))
            layout = FlatLayout(tuple(specs))
            neighbours = sweep_neighbours(layout, rules)
            graph = build_conflict_graph(layout, rules, "M1", neighbours)
            result = color_decompose(graph)
            assert result.feasible
            feasible_seen += 1
            assignment = {}
            for root, members in graph.nodes.items():
                for sid in members:
                    assignment[sid] = result.assignment[root]
            recolored = apply_colors(layout, assignment, ["M1"])
            kinds = {v.kind.value for v in
                     check_spacing(recolored, rules, DptOption.OPTION_I,
                                   neighbours)}
            assert "SpacingSameMask" not in kinds
            assert "ColorMissing" not in kinds
        assert feasible_seen >= 50

        # Shipped demo library: fixed colors leave color-related seam
        # violations; recoloring clears them all.
        for path in (SEAM_PATH, ODD_PATH):
            lib = parse_library(pathlib.Path(path).read_text())
            res_i = run_all(lib, rules, DptOption.OPTION_I)
            color_i = [v for v in res_i.violations if v.kind in COLOR_RELATED]
            assert color_i
            reports, _ = attribute_to_seams(
                color_i, res_i.cases, res_i.floorplan,
                rules.interaction_distance)
            assert any(r.violations for r in reports)
        seam_lib = parse_library(pathlib.Path(SEAM_PATH).read_text())
        res_ii = run_all(seam_lib, rules, DptOption.OPTION_II)
        assert not [v for v in res_ii.violations if v.kind in COLOR_RELATED]

    criterion(5, "color decomposition against exhaustive oracle", body)


def test_acceptance_6_hotspot_detection():
    def body():
        pattern = HotspotPattern(name="quad", layer="M1",
                                 masks=(Mask.E1, Mask.E2, Mask.E1, Mask.E2),
                                 max_gap=80, min_run_length=100)
        deck = replace(parse_rules(read_testdata("rules.yaml")),
                       hotspot_patterns=(pattern,))
        rng = random.Random(606)

        def quad(x0, gaps, y_last=None):
            xs, shapes = x0, []
            mask = Mask.E1
            ys = (0, 150)
            for i, gap in enumerate([0] + list(gaps)):
                xs += gap + (32 if shapes else 0)
                lo, hi = ys
                if y_last is not None and i == 3:
                    lo, hi = y_last
                shapes.append((xs, lo, hi, mask))
                mask = Mask.E2 if mask is Mask.E1 else Mask.E1
            return shapes

        for planted in (0, 1, 5):
            specs = []
            x = 0
            for _ in range(planted):
                specs.extend(quad(x, [rng.choice((48, 64, 80))] * 3))
                x += 2000
            negatives = 0
            for i in range(24):
                if i % 2 == 0:
                    gaps = [64, 64, 64]
                    gaps[rng.randrange(3)] = 81
                    specs.extend(quad(x, gaps))
                else:
                    specs.extend(quad(x, [64, 64, 64], y_last=(51, 201)))
                negatives += 1
                x += 2000
            assert negatives >= 20
            shapes = tuple(
                FlatShape(i, "M1", m, Rect(sx, lo, sx + 32, hi), "U1")
                for i, (sx, lo, hi, m) in enumerate(specs))
            layout = FlatLayout(shapes)
            vios = match_hotspots(layout, deck, sweep_neighbours(layout, deck))
            assert len(vios) == planted, (planted, len(vios))
            assert all(v.pattern_name == "quad" for v in vios)

    criterion(6, "hotspot planting and near-miss rejection", body)


def test_acceptance_7_roundtrip_determinism(tmp_path):
    def body():
        rng = random.Random(707)
        rules = parse_rules(read_testdata("rules.yaml"))
        for trial in range(100):
            lib = synth_library(rng.randrange(1, 6),
                                multi_every=rng.choice((0, 2, 3)),
                                name=f"t{trial}")
            cases = enumerate_library(lib)
            if len(cases) > 1 and rng.random() < 0.5:
                keep = rng.sample(range(len(cases)),
                                  rng.randrange(1, len(cases) + 1))
                cases = [cases[i] for i in sorted(keep)]
            plan = plan_floorplan(cases, lib, rules)
            text = emit_def(cases, plan)
            design = parse_def(text)
            assert design.die_area == plan.die_area
            assert len(design.placements) == sum(
                len(c.placements) for c in cases)
            assert render_def(design.placements, design.die_area,
                              design.name) == text

        outs = []
        for sub in ("run1", "run2"):
            out = tmp_path / sub
            code = main(["verify", "--libs", SEAM_PATH, ODD_PATH,
                         "--rules", RULES_PATH, "--out", str(out)])
            assert code == 1
            outs.append({p.name: p.read_bytes()
                         for p in sorted(out.iterdir()) if p.is_file()})
        assert outs[0] == outs[1]
        assert any(name.startswith("violations_") for name in outs[0])

    criterion(7, "placement round-trip and run-to-run determinism",
              body)


def test_acceptance_8_end_to_end_scale(tmp_path):
    def body():
        lef = tmp_path / "lib50.lef"
        lef.write_text(synth_lef(50, name="lib50"))
        out = tmp_path / "out50"
        gen = tmp_path / "gen50"
        assert main(["generate", "--libs", str(lef), "--rules", RULES_PATH,
                     "--out", str(gen)]) == 0
        manifest = json.loads((gen / "manifest_lib50.json").read_text())
        assert manifest["placements"] == 6325
        assert manifest["coverage_complete"] is True
        t0 = time.monotonic()
        code = main(["verify", "--libs", str(lef), "--rules", RULES_PATH,
                     "--dpt-option", "both", "--out", str(out)])
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, elapsed
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        runs = results["libraries"][0]["runs"]
        assert {r["option"] for r in runs} == {"I", "II"}
        for r in runs:
            assert r["seam_attributed"] + r["residual"] == \
                r["drc"] + r["drcplus"]

    criterion(8, "fifty-cell library end to end", body)
