"""Geometry-layer tests: transforms, window queries, neighbour pairs,
parallel runs.

Randomized cases are checked against independent brute-force oracles
written in this file, not against the library's own machinery.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamcheck import (
    CellLibrary,
    CellProfile,
    ColoredRect,
    FlatLayout,
    FlatShape,
    Mask,
    Orientation,
    Placement,
    Rect,
    connected_components,
    flatten,
    parallel_runs,
    rects_touch,
    run_between,
    transform_rect,
)

from brute import reference_flatten
from conftest import ROW_HEIGHT, SITE_WIDTH


def rand_rect(rng, span=10_000, max_side=400):
    x1 = rng.randrange(0, span)
    y1 = rng.randrange(0, span)
    return Rect(x1, y1, x1 + rng.randrange(1, max_side), y1 + rng.randrange(1, max_side))


class TestTransformRect:
    def test_my_mirrors_about_vertical_axis(self):
        r = Rect(10, 20, 50, 80)
        assert transform_rect(r, 200, 576, Orientation.MY) == Rect(150, 20, 190, 80)

    def test_mx_mirrors_about_horizontal_axis(self):
        r = Rect(10, 20, 50, 80)
        assert transform_rect(r, 200, 576, Orientation.MX) == Rect(10, 496, 50, 556)

    def test_r180_combines_both_mirrors(self):
        r = Rect(10, 20, 50, 80)
        assert transform_rect(r, 200, 576, Orientation.R180) == Rect(150, 496, 190, 556)

    def test_r0_with_origin_translates_only(self):
        r = Rect(10, 20, 50, 80)
        assert transform_rect(r, 200, 576, Orientation.R0, origin=(1000, 576)) == \
            Rect(1010, 596, 1050, 656)

    def test_involutions_and_area_on_random_rects(self):
        rng = random.Random(11)
        w, h = 4000, 2304
        for _ in range(2000):
            r = rand_rect(rng, span=1800, max_side=500)
            my = lambda q: transform_rect(q, w, h, Orientation.MY)
            mx = lambda q: transform_rect(q, w, h, Orientation.MX)
            r180 = transform_rect(r, w, h, Orientation.R180)
            assert my(my(r)) == r
            assert mx(mx(r)) == r
            assert mx(my(r)) == r180
            assert my(mx(r)) == r180
            for o in Orientation:
                t = transform_rect(r, w, h, o)
                assert t.area == r.area
                assert t.x1 < t.x2 and t.y1 < t.y2

    def test_frame_is_preserved(self):
        rng = random.Random(12)
        w, h = 2000, 576
        for _ in range(500):
            r = rand_rect(rng, span=400, max_side=170)
            for o in Orientation:
                t = transform_rect(r, w, h, o)
                assert 0 <= t.x1 and t.x2 <= w
                assert 0 <= t.y1 and t.y2 <= h


class TestOrientationCodes:
    def test_mirror_tables(self):
        assert Orientation.R0.flipped_ud is Orientation.MX
        assert Orientation.MY.flipped_ud is Orientation.R180
        assert Orientation.MX.flipped_ud is Orientation.R0
        assert Orientation.R180.flipped_ud is Orientation.MY


def bar_cell(name, width, shapes):
    return CellProfile(name=name, width=width, height=ROW_HEIGHT, height_rows=1,
                       shapes=tuple(shapes))


def lib_of(*cells):
    return CellLibrary(name="t", row_height=ROW_HEIGHT, site_width=SITE_WIDTH,
                       cells=tuple(cells))


class TestFlatten:
    def test_shape_count_is_additive(self):
        cell = bar_cell("C6", 200, [
            ColoredRect("M1", Mask.E1, Rect(8 + 32 * i, 100, 24 + 32 * i, 500))
            for i in range(6)
        ])
        rows = [
            (f"U{i + 1}", cell, i * 200, 0, o)
            for i, o in enumerate((Orientation.MY, Orientation.R0,
                                   Orientation.R0, Orientation.MY))
        ]
        layout = flatten(rows)
        assert len(layout.shapes) == 24
        for s in layout.shapes:
            assert Rect(0, 0, 800, ROW_HEIGHT).contains(s.rect)

    def test_mirrored_neighbor_lands_across_seam(self):
        # Right-edge bar of an R0 cell must face the mirrored copy of the
        # same bar across the seam at x=100.
        cell = bar_cell("E", 100, [ColoredRect("M1", Mask.E1, Rect(90, 0, 100, 50))])
        layout = flatten(
            [("U1", cell, 0, 0, Orientation.R0),
             ("U2", cell, 100, 0, Orientation.MY)],
        )
        rects = sorted(s.rect for s in layout.shapes)
        assert rects == [Rect(90, 0, 100, 50), Rect(100, 0, 110, 50)]

    def test_instance_attribution(self):
        cell = bar_cell("E", 100, [ColoredRect("M1", Mask.E1, Rect(0, 0, 10, 10))])
        layout = flatten([("U7", cell, 0, 0, Orientation.R0)])
        assert layout.shapes[0].source_instance == "U7"


@st.composite
def rects_in(draw, width, height):
    x1 = draw(st.integers(0, width - 1))
    y1 = draw(st.integers(0, height - 1))
    return Rect(x1, y1, draw(st.integers(x1 + 1, width)),
                draw(st.integers(y1 + 1, height)))


@st.composite
def placed_cells(draw):
    """(cells, placements): up to three cells of random shapes, and one
    to six placements in any orientation at random origins."""
    cells = {}
    for i in range(draw(st.integers(1, 3))):
        rows = draw(st.integers(1, 2))
        width = SITE_WIDTH * draw(st.integers(1, 40))
        shapes = tuple(
            ColoredRect(draw(st.sampled_from(("M1", "M2"))),
                        draw(st.sampled_from(list(Mask))),
                        draw(rects_in(width, rows * ROW_HEIGHT)))
            for _ in range(draw(st.integers(0, 5))))
        cells[f"C{i}"] = CellProfile(f"C{i}", width, rows * ROW_HEIGHT,
                                     rows, shapes)
    refs = sorted(cells)
    placements = [
        Placement(f"U{k + 1}", draw(st.sampled_from(refs)),
                  (draw(st.integers(0, 1200)), draw(st.integers(0, 1200))),
                  draw(st.sampled_from(list(Orientation))))
        for k in range(draw(st.integers(1, 6)))]
    return cells, placements


@settings(max_examples=200, deadline=None)
@given(placed_cells())
def test_flatten_matches_per_shape_transform(case):
    """``flatten`` reads each cell's oriented table; the reference
    transforms every shape of every placement. Equal shapes."""
    cells, placements = case
    rows = [(p.instance_name, cells[p.cell_ref], *p.origin, p.orientation)
            for p in placements]
    assert flatten(rows).shapes == reference_flatten(cells, placements).shapes


def make_layout(rng, n, span=8000):
    shapes = []
    for i in range(n):
        layer = rng.choice(("M1", "M2"))
        mask = rng.choice((Mask.NONE, Mask.E1, Mask.E2))
        shapes.append(FlatShape(i, layer, mask, rand_rect(rng, span=span), "U1"))
    return FlatLayout(tuple(shapes))


class TestSpatialIndex:
    def test_query_window_matches_linear_scan(self):
        rng = random.Random(21)
        layout = make_layout(rng, 2500)
        for _ in range(500):
            w = rand_rect(rng, span=8000, max_side=900)
            expect = {s.shape_id for s in layout.shapes if
                      s.rect.x1 <= w.x2 and w.x1 <= s.rect.x2 and
                      s.rect.y1 <= w.y2 and w.y1 <= s.rect.y2}
            assert layout.query_window(w) == expect

    def test_window_query_is_closed_on_boundaries(self):
        s = FlatShape(0, "M1", Mask.E1, Rect(100, 100, 200, 200), "U1")
        layout = FlatLayout((s,))
        assert layout.query_window(Rect(200, 200, 300, 300)) == {0}
        assert layout.query_window(Rect(201, 201, 300, 300)) == set()
        assert layout.query_window(Rect(0, 0, 100, 100)) == {0}

    def test_layer_filtering(self):
        shapes = (FlatShape(0, "M1", Mask.E1, Rect(0, 0, 10, 10), "U1"),
                  FlatShape(1, "M2", Mask.E2, Rect(0, 0, 10, 10), "U1"))
        layout = FlatLayout(shapes)
        assert [s.shape_id for s in layout.shapes_on("M1")] == [0]
        assert list(layout.layers()) == ["M1", "M2"]


class TestNearPairs:
    @staticmethod
    def touchy_layout(rng, n, span=1200):
        """Random two-layer layout that also holds exact duplicates and
        rects sharing an edge or only a corner with an earlier one."""
        rects = []
        for _ in range(n):
            r = rand_rect(rng, span=span, max_side=200)
            if rects and rng.random() < 0.4:
                q = rng.choice(rects)
                r = rng.choice((
                    q,
                    Rect(q.x2, q.y1, q.x2 + r.width, q.y1 + r.height),
                    Rect(q.x1, q.y2, q.x1 + r.width, q.y2 + r.height),
                    Rect(q.x2, q.y2, q.x2 + r.width, q.y2 + r.height),
                    Rect(q.x1 - r.width, q.y1 - r.height, q.x1, q.y1),
                ))
            rects.append(r)
        shapes = tuple(FlatShape(i, rng.choice(("M1", "M2")), Mask.E1, r, "U1")
                       for i, r in enumerate(rects))
        return FlatLayout(shapes)

    def test_matches_all_pairs_oracle(self):
        rng = random.Random(51)
        for _ in range(15):
            layout = self.touchy_layout(rng, 80)
            for layer in ("M1", "M2"):
                shapes = [s for s in layout.shapes if s.layer == layer]
                for reach in (0, 1, 64, 200):
                    pairs = layout.near_pairs(layer, reach)
                    got = [(a.shape_id, b.shape_id) for a, b in pairs]
                    expect = {
                        (a.shape_id, b.shape_id)
                        for i, a in enumerate(shapes) for b in shapes[i + 1:]
                        if a.rect.inflated(reach).intersects(b.rect)
                    }
                    assert len(got) == len(set(got))
                    assert set(got) == expect
                    assert all(a < b for a, b in got)

    def test_touching_rects_pair_at_reach_zero(self):
        shapes = (FlatShape(0, "M1", Mask.E1, Rect(0, 0, 10, 10), "U1"),
                  FlatShape(1, "M1", Mask.E1, Rect(10, 10, 20, 20), "U1"),
                  FlatShape(2, "M1", Mask.E1, Rect(0, 0, 10, 10), "U1"),
                  FlatShape(3, "M1", Mask.E1, Rect(21, 0, 30, 10), "U1"))
        layout = FlatLayout(shapes)
        got = {(a.shape_id, b.shape_id) for a, b in layout.near_pairs("M1", 0)}
        assert got == {(0, 1), (0, 2), (1, 2)}
        got = {(a.shape_id, b.shape_id) for a, b in layout.near_pairs("M1", 1)}
        assert got == {(0, 1), (0, 2), (1, 2), (1, 3)}

    def test_unknown_layer_has_no_pairs(self):
        layout = FlatLayout(())
        assert layout.near_pairs("M1", 100) == []


def oracle_run(a: Rect, b: Rect):
    """Independent parallel-run math via interval arithmetic. A spacing of
    zero is a touching pair; overlapping rects face no gap at all."""
    xov = min(a.x2, b.x2) - max(a.x1, b.x1)
    yov = min(a.y2, b.y2) - max(a.y1, b.y1)
    if xov > 0 and yov <= 0:
        return (-yov, xov, "horizontal")
    if yov > 0 and xov <= 0:
        return (-xov, yov, "vertical")
    return None


class TestParallelRuns:
    def test_textbook_pair(self):
        got = run_between(Rect(0, 0, 40, 100), Rect(100, 0, 140, 100))
        assert got == (60, 100, "vertical")

    def test_symmetry(self):
        a, b = Rect(0, 0, 40, 100), Rect(100, 10, 140, 90)
        assert run_between(a, b) == run_between(b, a) == (60, 80, "vertical")

    def test_no_projected_overlap_means_no_run(self):
        assert run_between(Rect(0, 0, 40, 100), Rect(100, 200, 140, 300)) is None

    def test_touching_pair_has_zero_spacing_run(self):
        assert run_between(Rect(0, 0, 40, 100), Rect(40, 0, 80, 100)) == \
            (0, 100, "vertical")

    def test_matches_quadratic_oracle(self):
        rng = random.Random(31)
        layout = make_layout(rng, 300, span=3000)
        for layer in ("M1", "M2"):
            for max_spacing in (64, 200):
                got = {(r.shape_a, r.shape_b, r.spacing, r.run_length, r.axis)
                       for r in parallel_runs(
                           layout.near_pairs(layer, max_spacing), max_spacing)}
                expect = set()
                shapes = [s for s in layout.shapes if s.layer == layer]
                for i, a in enumerate(shapes):
                    for b in shapes[i + 1:]:
                        run = oracle_run(a.rect, b.rect)
                        if run and run[0] <= max_spacing:
                            lo, hi = sorted((a.shape_id, b.shape_id))
                            expect.add((lo, hi, run[0], run[1], run[2]))
                assert got == expect

    def test_results_are_sorted_and_deduplicated(self):
        rng = random.Random(32)
        layout = make_layout(rng, 200, span=2000)
        runs = parallel_runs(layout.near_pairs("M1", 150), 150)
        keys = [(r.shape_a, r.shape_b) for r in runs]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))


class TestConnectivity:
    def test_corner_touch_is_not_connected(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(10, 10, 20, 20)
        assert not rects_touch(a, b)

    def test_edge_touch_is_connected(self):
        assert rects_touch(Rect(0, 0, 10, 10), Rect(10, 0, 20, 10))
        assert rects_touch(Rect(0, 0, 10, 10), Rect(5, 10, 15, 20))

    def test_chain_merges_into_one_component(self):
        shapes = tuple(
            FlatShape(i, "M1", Mask.E1, Rect(10 * i, 0, 10 * (i + 1), 40), "U1")
            for i in range(5)
        )
        layout = FlatLayout(shapes)
        roots = connected_components(layout.shapes_on("M1"),
                                     layout.near_pairs("M1", 0))
        assert set(roots.values()) == {0}

    def test_matches_bruteforce_components(self):
        rng = random.Random(41)
        for _ in range(20):
            layout = make_layout(rng, 60, span=900)
            shapes = [s for s in layout.shapes if s.layer == "M1"]
            parent = {s.shape_id: s.shape_id for s in shapes}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i, a in enumerate(shapes):
                for b in shapes[i + 1:]:
                    xov = min(a.rect.x2, b.rect.x2) - max(a.rect.x1, b.rect.x1)
                    yov = min(a.rect.y2, b.rect.y2) - max(a.rect.y1, b.rect.y1)
                    touching = (xov >= 0 and yov >= 0) and not (xov == 0 and yov == 0)
                    if touching:
                        ra, rb = find(a.shape_id), find(b.shape_id)
                        if ra != rb:
                            parent[max(ra, rb)] = min(ra, rb)
            expect = {s.shape_id: find(s.shape_id) for s in shapes}
            groups_expect = {}
            for sid, root in expect.items():
                groups_expect.setdefault(root, set()).add(sid)
            # Any sweep reach >= 0 yields the same components.
            for reach in (0, 80):
                roots = connected_components(
                    layout.shapes_on("M1"), layout.near_pairs("M1", reach))
                groups_got = {}
                for sid, root in roots.items():
                    groups_got.setdefault(root, set()).add(sid)
                assert sorted(groups_got.values(), key=min) == \
                    sorted(groups_expect.values(), key=min)
