"""Checker tests: width, spacing, color decomposition, hotspots, run_all.

Random conflict graphs are validated against an exhaustive 2^n coloring
oracle; hotspot layouts are constructed with known match counts.
"""

import gc
import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from seamcheck import (
    ConflictGraph,
    DptOption,
    FlatLayout,
    FlatShape,
    HotspotPattern,
    Mask,
    Rect,
    ViolationKind,
    apply_colors,
    build_conflict_graph,
    check_spacing,
    check_width,
    color_decompose,
    match_hotspots,
    parse_library,
    parse_rules,
    run_all,
    sweep_neighbours,
    union_all,
)

from brute import (ORACLE_DECK, brute_conflict_edges, brute_hotspots,
                   brute_spacing, reference_color_decompose)
from conftest import PIN_ONLY_LEF, TESTDATA, read_testdata

OPT_I, OPT_II = DptOption.OPTION_I, DptOption.OPTION_II
RULES = parse_rules(read_testdata("rules.yaml"))


def spacing(layout, rules, option):
    return check_spacing(layout, rules, option,
                         sweep_neighbours(layout, rules))


def conflict_graph(layout, rules, layer):
    return build_conflict_graph(layout, rules, layer,
                                sweep_neighbours(layout, rules))


def hotspots(layout, *patterns):
    """Matches of the given patterns, swept and checked as one deck."""
    rules = replace(RULES, hotspot_patterns=patterns)
    return match_hotspots(layout, rules, sweep_neighbours(layout, rules))


def layout_of(*shapes):
    """shapes: (layer, mask, rect) triples."""
    return FlatLayout(tuple(FlatShape(i, layer, mask, rect, f"U{i + 1}")
                            for i, (layer, mask, rect) in enumerate(shapes)))


class TestWidth:
    def test_narrow_bar_flagged(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 30, 400)))
        vios = check_width(layout, RULES)
        assert [v.kind for v in vios] == [ViolationKind.WIDTH]
        assert vios[0].bbox == Rect(0, 0, 30, 400)
        assert vios[0].shape_ids == (0,)

    def test_minimum_width_is_inclusive(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 32, 400)))
        assert check_width(layout, RULES) == []

    def test_short_side_is_what_counts(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 400, 30)))
        assert len(check_width(layout, RULES)) == 1

    def test_layer_without_rule_ignored(self):
        layout = layout_of(("M7", Mask.NONE, Rect(0, 0, 2, 2)))
        assert check_width(layout, RULES) == []


class TestSpacing:
    def test_any_mask_violation(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M1", Mask.E2, Rect(64, 0, 104, 400)))
        vios = spacing(layout, RULES, OPT_I)
        assert [v.kind for v in vios] == [ViolationKind.SPACING_ANY_MASK]
        assert vios[0].bbox == Rect(0, 0, 104, 400)
        assert vios[0].shape_ids == (0, 1)

    def test_any_mask_minimum_is_inclusive(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M1", Mask.E2, Rect(72, 0, 112, 400)))
        assert spacing(layout, RULES, OPT_I) == []

    def test_same_mask_violation_option_i(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M1", Mask.E1, Rect(80, 0, 120, 400)))
        vios = spacing(layout, RULES, OPT_I)
        assert [v.kind for v in vios] == [ViolationKind.SPACING_SAME_MASK]

    def test_different_masks_pass_at_same_gap(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M1", Mask.E2, Rect(80, 0, 120, 400)))
        assert spacing(layout, RULES, OPT_I) == []

    def test_close_same_mask_pair_reports_both_kinds(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M1", Mask.E1, Rect(64, 0, 104, 400)))
        kinds = Counter(v.kind for v in spacing(layout, RULES, OPT_I))
        assert kinds == {ViolationKind.SPACING_ANY_MASK: 1,
                         ViolationKind.SPACING_SAME_MASK: 1}

    def test_option_ii_skips_same_mask_check(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M1", Mask.E1, Rect(80, 0, 120, 400)))
        assert spacing(layout, RULES, OPT_II) == []

    def test_touching_shapes_are_connected_and_exempt(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M1", Mask.E1, Rect(40, 360, 400, 400)))
        assert spacing(layout, RULES, OPT_I) == []

    def test_color_missing_option_i_only(self):
        layout = layout_of(("M1", Mask.NONE, Rect(0, 0, 40, 400)))
        vios = spacing(layout, RULES, OPT_I)
        assert [v.kind for v in vios] == [ViolationKind.COLOR_MISSING]
        assert spacing(layout, RULES, OPT_II) == []

    def test_non_dpt_layer_has_no_mask_rules(self):
        rules = parse_rules("""
name: t
interaction_distance: 64
layers:
  M2:
    min_width: 32
    min_spacing_any_mask: 48
""")
        layout = layout_of(("M2", Mask.NONE, Rect(0, 0, 40, 400)),
                           ("M2", Mask.NONE, Rect(90, 0, 130, 400)))
        assert spacing(layout, rules, OPT_I) == []


def triangle_layout():
    """Three mutually-close bars: two stacked (gap 40, horizontal run) and
    one tall neighbor at gap 48 to both (vertical runs)."""
    return layout_of(("M1", Mask.E1, Rect(0, 100, 32, 280)),
                     ("M1", Mask.E1, Rect(0, 320, 32, 500)),
                     ("M1", Mask.E1, Rect(80, 100, 112, 500)))


class TestConflictGraph:
    def test_triangle(self):
        graph = conflict_graph(triangle_layout(), RULES, "M1")
        assert sorted(graph.nodes) == [0, 1, 2]
        assert graph.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_touching_shapes_merge_into_one_node(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M1", Mask.E1, Rect(40, 0, 80, 400)),
                           ("M1", Mask.E1, Rect(120, 0, 160, 400)))
        graph = conflict_graph(layout, RULES, "M1")
        assert sorted(graph.nodes) == [0, 2]
        assert graph.nodes[0] == (0, 1)
        assert graph.edges == frozenset({(0, 2)})

    def test_isolated_shape(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)))
        graph = conflict_graph(layout, RULES, "M1")
        assert sorted(graph.nodes) == [0]
        assert graph.edges == frozenset()

    def test_same_mask_reach_defines_edges(self):
        # Gap 64 is exactly the same-mask minimum: legal, so no edge.
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M1", Mask.E1, Rect(104, 0, 144, 400)))
        graph = conflict_graph(layout, RULES, "M1")
        assert graph.edges == frozenset()

    def test_non_dpt_layer_rejected(self):
        layout = layout_of(("M9", Mask.NONE, Rect(0, 0, 40, 400)))
        with pytest.raises(ValueError):
            conflict_graph(layout, RULES, "M9")

    def test_node_bbox_covers_only_nodes_with_an_edge(self):
        # A touching pair (one node) 40 from a bar, and a far bar alone.
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M1", Mask.E1, Rect(40, 0, 80, 200)),
                           ("M1", Mask.E1, Rect(120, 0, 160, 400)),
                           ("M1", Mask.E1, Rect(1000, 0, 1040, 400)))
        graph = conflict_graph(layout, RULES, "M1")
        assert sorted(graph.nodes) == [0, 2, 3]
        assert graph.node_bbox == {0: Rect(0, 0, 80, 400),
                                   2: Rect(120, 0, 160, 400)}


def synthetic_graph(nodes, edges):
    return ConflictGraph(
        layer="M1",
        nodes={n: (n,) for n in nodes},
        edges=frozenset(tuple(sorted(e)) for e in edges),
        node_bbox={n: Rect(0, 10 * n, 10, 10 * n + 10) for n in nodes},
    )


def oracle_two_colorable(nodes, edges):
    """Exhaustive bitmask search for a proper 2-coloring."""
    order = sorted(nodes)
    pos = {n: i for i, n in enumerate(order)}
    for bits in range(1 << len(order)):
        if all((bits >> pos[u]) & 1 != (bits >> pos[v]) & 1 for u, v in edges):
            return True
    return False


@st.composite
def conflict_graphs(draw):
    """Graphs on sparse node ids with one to three members per node:
    planted cycles of length 3 to 7 (odd and even), random chords, and
    nodes that no edge reaches. Only nodes with an edge get a bbox, as
    ``build_conflict_graph`` gives them."""
    roots = sorted(draw(st.sets(st.integers(0, 40), max_size=14)))
    edges = set()
    if len(roots) >= 3:
        node = st.sampled_from(roots)
        cycles = st.lists(node, min_size=3, max_size=min(7, len(roots)),
                          unique=True)
        for cycle in draw(st.lists(cycles, max_size=3)):
            edges |= {(min(u, v), max(u, v))
                      for u, v in zip(cycle, cycle[1:] + cycle[:1])}
        edges |= {(min(u, v), max(u, v))
                  for u, v in draw(st.lists(st.tuples(node, node),
                                            max_size=8)) if u != v}
    nodes = {n: tuple(range(100 * n, 100 * n + draw(st.integers(1, 3))))
             for n in roots}
    linked = {n for edge in edges for n in edge}
    return ConflictGraph("M1", nodes, frozenset(edges),
                         {n: Rect(0, 10 * n, 10 + n, 10 * n + 10)
                          for n in linked})


class TestColorDecompose:
    @settings(max_examples=300, deadline=None)
    @given(conflict_graphs())
    def test_matches_bfs_from_every_node(self, graph):
        got = color_decompose(graph)
        expect = reference_color_decompose(graph)
        assert got.assignment == expect.assignment
        assert got.odd_cycles == expect.odd_cycles
        # A feasible assignment colours every member of every node, so
        # ``apply_colors`` needs no coverage check.
        if got.feasible:
            assert sorted(got.assignment) == sorted(
                sid for sids in graph.nodes.values() for sid in sids)

    def test_edgeless_nodes_take_first_mask_without_adjacency(self):
        graph = synthetic_graph([0, 3, 4, 9], [(3, 9)])
        assert sorted(graph.adjacency()) == [3, 9]
        assert color_decompose(graph).assignment == {
            0: Mask.E1, 3: Mask.E1, 4: Mask.E1, 9: Mask.E2}

    def test_path_alternates_from_smallest_root(self):
        graph = synthetic_graph([0, 1, 2], [(0, 1), (1, 2)])
        result = color_decompose(graph)
        assert result.feasible
        assert result.assignment == {0: Mask.E1, 1: Mask.E2, 2: Mask.E1}

    def test_each_component_root_gets_first_mask(self):
        graph = synthetic_graph([0, 1, 5, 6], [(0, 1), (5, 6)])
        result = color_decompose(graph)
        assert result.assignment[0] is Mask.E1
        assert result.assignment[5] is Mask.E1

    def test_triangle_is_infeasible(self):
        graph = conflict_graph(triangle_layout(), RULES, "M1")
        result = color_decompose(graph)
        assert not result.feasible
        assert result.assignment is None
        assert len(result.odd_cycles) == 1
        vio = result.odd_cycles[0]
        assert vio.kind is ViolationKind.ODD_CYCLE
        assert vio.shape_ids == (0, 1, 2)
        assert vio.bbox == Rect(0, 100, 112, 500)

    def test_one_violation_per_odd_component(self):
        graph = synthetic_graph(
            range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        result = color_decompose(graph)
        assert len(result.odd_cycles) == 2

    def test_against_exhaustive_oracle(self):
        rng = random.Random(17)
        for trial in range(150):
            n = rng.randrange(0, 13)
            nodes = list(range(n))
            pairs = list(itertools.combinations(nodes, 2))
            edges = [e for e in pairs if rng.random() < 0.22]
            graph = synthetic_graph(nodes, edges)
            result = color_decompose(graph)
            expect = oracle_two_colorable(nodes, edges)
            assert result.feasible == expect, (trial, nodes, edges)
            if expect:
                assert set(result.assignment) == set(nodes)
                for u, v in edges:
                    assert result.assignment[u] != result.assignment[v]
                assert all(m in (Mask.E1, Mask.E2)
                           for m in result.assignment.values())
            else:
                assert result.odd_cycles


class TestApplyColors:
    def test_recolor_clears_same_mask_violations(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M1", Mask.E1, Rect(80, 0, 120, 400)),
                           ("M1", Mask.E1, Rect(160, 0, 200, 400)))
        assert len(spacing(layout, RULES, OPT_I)) == 2
        graph = conflict_graph(layout, RULES, "M1")
        result = color_decompose(graph)
        assert result.feasible
        assignment = {}
        for root, members in graph.nodes.items():
            for sid in members:
                assignment[sid] = result.assignment[root]
        recolored = apply_colors(layout, assignment, ["M1"])
        assert spacing(recolored, RULES, OPT_I) == []

    def test_other_layers_untouched(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M2", Mask.E2, Rect(500, 0, 540, 400)))
        recolored = apply_colors(layout, {0: Mask.E2}, ["M1"])
        assert recolored.shape(0).mask is Mask.E2
        assert recolored.shape(1).mask is Mask.E2
        assert recolored.shape(1).rect == layout.shape(1).rect

    def test_shapes_whose_mask_stays_are_the_same_objects(self):
        layout = layout_of(("M1", Mask.E1, Rect(0, 0, 40, 400)),
                           ("M1", Mask.E2, Rect(80, 0, 120, 400)),
                           ("M1", Mask.NONE, Rect(160, 0, 200, 400)),
                           ("M2", Mask.E1, Rect(0, 0, 40, 400)))
        recolored = apply_colors(
            layout, {0: Mask.E1, 1: Mask.E1, 2: Mask.E2, 3: Mask.E2}, ["M1"])
        same = [new is old
                for new, old in zip(recolored.shapes, layout.shapes)]
        assert same == [True, False, False, True]
        assert [s.mask for s in recolored.shapes] == [
            Mask.E1, Mask.E1, Mask.E2, Mask.E1]
        assert recolored.shape(1) == layout.shape(1)._replace(mask=Mask.E1)


QUAD = HotspotPattern(name="quad", layer="M1",
                      masks=(Mask.E1, Mask.E2, Mask.E1, Mask.E2),
                      max_gap=50, min_run_length=100)


def bars(xs, masks, y0=0, y1=150, width=32, layer="M1"):
    return [(layer, m, Rect(x, y0, x + width, y1)) for x, m in zip(xs, masks)]


def alternating(start_x, gaps, first=Mask.E1, **kw):
    xs, x = [], start_x
    masks, m = [], first
    for g in [0] + list(gaps):
        x += g + (32 if xs else 0)
        xs.append(x)
        masks.append(m)
        m = Mask.E2 if m is Mask.E1 else Mask.E1
    return bars(xs, masks, **kw)


class TestHotspots:
    def test_planted_quad_matches(self):
        layout = layout_of(*alternating(0, [48, 48, 48]))
        vios = hotspots(layout, QUAD)
        assert [v.kind for v in vios] == [ViolationKind.HOTSPOT]
        assert vios[0].pattern_name == "quad"
        assert vios[0].shape_ids == (0, 1, 2, 3)
        assert vios[0].bbox == Rect(0, 0, 272, 150)

    def test_gap_beyond_maximum_breaks_chain(self):
        layout = layout_of(*alternating(0, [48, 51, 48]))
        assert hotspots(layout, QUAD) == []

    def test_gap_at_maximum_matches(self):
        layout = layout_of(*alternating(0, [50, 50, 50]))
        assert len(hotspots(layout, QUAD)) == 1

    def test_short_common_run_rejected(self):
        spec = alternating(0, [48, 48, 48])
        # Shift the last bar up so the common overlap is 99 < 100.
        layer, mask, r = spec[3]
        spec[3] = (layer, mask, Rect(r.x1, 51, r.x2, 201))
        layout = layout_of(*spec)
        assert hotspots(layout, QUAD) == []

    def test_common_run_at_minimum_matches(self):
        spec = alternating(0, [48, 48, 48])
        layer, mask, r = spec[3]
        spec[3] = (layer, mask, Rect(r.x1, 50, r.x2, 200))
        layout = layout_of(*spec)
        assert len(hotspots(layout, QUAD)) == 1

    def test_wrong_mask_order_rejected(self):
        layout = layout_of(*bars([0, 80, 160, 240],
                                 [Mask.E1, Mask.E2, Mask.E2, Mask.E1]))
        assert hotspots(layout, QUAD) == []

    def test_mirrored_sequence_matches(self):
        layout = layout_of(*alternating(0, [48, 48, 48], first=Mask.E2))
        assert len(hotspots(layout, QUAD)) == 1

    def test_horizontal_tracks_match_too(self):
        spec = alternating(0, [48, 48, 48])
        flipped = [(layer, m, Rect(r.y1, r.x1, r.y2, r.x2))
                   for layer, m, r in spec]
        layout = layout_of(*flipped)
        assert len(hotspots(layout, QUAD)) == 1

    def test_five_bars_give_two_windows(self):
        layout = layout_of(*alternating(0, [48, 48, 48, 48]))
        vios = hotspots(layout, QUAD)
        assert [v.shape_ids for v in vios] == [(0, 1, 2, 3), (1, 2, 3, 4)]

    def test_touching_bars_do_not_chain(self):
        layout = layout_of(*alternating(0, [0, 48, 48]))
        assert hotspots(layout, QUAD) == []

    def test_uncolored_shape_never_matches(self):
        spec = alternating(0, [48, 48, 48])
        layer, _, r = spec[1]
        spec[1] = (layer, Mask.NONE, r)
        layout = layout_of(*spec)
        assert hotspots(layout, QUAD) == []

    def test_planted_counts(self):
        rng = random.Random(23)
        for k in (0, 1, 5):
            spec = []
            x = 0
            for _ in range(k):
                spec.extend(alternating(x, [48, 48, 48]))
                x += 1000
            for _ in range(10):
                spec.extend(alternating(x, [48, rng.choice((51, 60)), 48]))
                x += 1000
            layout = layout_of(*spec)
            assert len(hotspots(layout, QUAD)) == k

    @staticmethod
    def branching():
        """A tall E1 bar whose right neighbours are two stacked shorter
        E2 bars, each starting its own E2 E1 E2 continuation."""
        tall = ("M1", Mask.E1, Rect(0, 0, 32, 400))
        lower = alternating(80, [48, 48], first=Mask.E2, y0=0, y1=150)
        upper = alternating(80, [48, 48], first=Mask.E2, y0=250, y1=400)
        return [tall, *lower, *upper]

    def test_shape_with_two_successors_starts_two_chains(self):
        vios = hotspots(layout_of(*self.branching()), QUAD)
        assert [v.shape_ids for v in vios] == [(0, 1, 2, 3), (0, 4, 5, 6)]
        assert [v.bbox for v in vios] == [Rect(0, 0, 272, 150),
                                          Rect(0, 250, 272, 400)]

    def test_branching_transposed_matches_on_the_horizontal_axis(self):
        flipped = [(layer, m, Rect(r.y1, r.x1, r.y2, r.x2))
                   for layer, m, r in self.branching()]
        vios = hotspots(layout_of(*flipped), QUAD)
        assert [v.shape_ids for v in vios] == [(0, 1, 2, 3), (0, 4, 5, 6)]
        assert [v.bbox for v in vios] == [Rect(0, 0, 150, 272),
                                          Rect(250, 0, 400, 272)]


def random_bar_layout(rng, groups=8):
    """Rows of parallel bars (either direction) with gaps around every
    limit of ORACLE_DECK, ragged ends and mostly two-mask colouring, plus
    touching and overlapping neighbours."""
    specs = []
    for _ in range(groups):
        layer = rng.choice(("M1", "M1", "M2", "M3"))
        x, y = rng.randrange(100, 1500), rng.randrange(100, 1500)
        transpose = rng.random() < 0.5
        alternate = rng.random() < 0.5
        gaps = rng.choice(((20, 31, 32, 33, 47, 48, 50),
                           (50, 51, 63, 64, 65, 80, 81),
                           (-10, 0, 20, 48, 64, 120)))
        mask = rng.choice((Mask.E1, Mask.E2))
        for _ in range(rng.randrange(1, 7)):
            w = rng.choice((24, 32, 40))
            y1 = y + rng.randrange(-60, 61)
            r = Rect(x, y1, x + w, y1 + rng.randrange(80, 300))
            if transpose:
                r = Rect(r.y1, r.x1, r.y2, r.x2)
            if not alternate or rng.random() < 0.1:
                mask = rng.choice((Mask.E1, Mask.E2) * 5 + (Mask.NONE,))
            specs.append((layer, mask, r))
            mask = Mask.E2 if mask is Mask.E1 else Mask.E1
            x += w + rng.choice(gaps)
    return layout_of(*specs)


class TestSharedSweepOracle:
    """Every consumer of the one sweep per layer against an all-pairs
    brute force that uses no sweep."""

    def test_checkers_match_brute_force(self):
        rng = random.Random(2024)
        seen = Counter()
        for _ in range(60):
            layout = random_bar_layout(rng)
            neighbours = sweep_neighbours(layout, ORACLE_DECK)
            for option in (OPT_I, OPT_II):
                got = check_spacing(layout, ORACLE_DECK, option, neighbours)
                assert got == brute_spacing(layout, ORACLE_DECK, option)
                seen.update(v.kind for v in got)
            if layout.shapes_on("M1"):
                graph = build_conflict_graph(layout, ORACLE_DECK, "M1",
                                             neighbours)
                comp, edges = brute_conflict_edges(layout, ORACLE_DECK, "M1")
                assert graph.edges == edges
                assert {sid: root for root, sids in graph.nodes.items()
                        for sid in sids} == comp
                # The nodes cover every shape of the layer once.
                assert sorted(sid for sids in graph.nodes.values()
                              for sid in sids) == [
                    s.shape_id for s in layout.shapes_on("M1")]
                # Only a node with an edge gets a bounding box.
                assert graph.node_bbox == {
                    n: union_all(layout.shape(s).rect for s in graph.nodes[n])
                    for edge in edges for n in edge}
                seen["edges"] += len(edges)
            got = match_hotspots(layout, ORACLE_DECK, neighbours)
            assert got == brute_hotspots(layout, ORACLE_DECK)
            seen.update(v.pattern_name for v in got)
        # The random layouts reach every branch the oracle compares.
        for key in (ViolationKind.SPACING_ANY_MASK,
                    ViolationKind.SPACING_SAME_MASK,
                    ViolationKind.COLOR_MISSING,
                    "edges", "quad", "twin", "tri"):
            assert seen[key] > 0, key

    def test_neighbours_stay_valid_after_recolouring(self):
        rng = random.Random(2025)
        for _ in range(30):
            layout = random_bar_layout(rng)
            neighbours = sweep_neighbours(layout, ORACLE_DECK)
            assignment = {s.shape_id: rng.choice((Mask.E1, Mask.E2))
                          for s in layout.shapes_on("M1")}
            recoloured = apply_colors(layout, assignment, ["M1"])
            assert check_spacing(recoloured, ORACLE_DECK, OPT_I,
                                 neighbours) == \
                brute_spacing(recoloured, ORACLE_DECK, OPT_I)
            assert match_hotspots(recoloured, ORACLE_DECK, neighbours) == \
                brute_hotspots(recoloured, ORACLE_DECK)


class TestRunAll:
    def test_seam_library_frozen_counts(self, seam_library, demo_rules):
        res_i = run_all(seam_library, demo_rules, OPT_I)
        counts = Counter(v.kind.value for v in res_i.violations)
        assert counts == {"SpacingSameMask": 3, "Hotspot": 1}
        assert res_i.drc_count == 3 and res_i.drcplus_count == 1
        res_ii = run_all(seam_library, demo_rules, OPT_II)
        assert res_ii.violations == ()
        assert res_ii.recolor_diff

    def test_odd_cycle_library_frozen_counts(self, odd_library, demo_rules):
        res_i = run_all(odd_library, demo_rules, OPT_I)
        assert Counter(v.kind.value for v in res_i.violations) == \
            {"SpacingSameMask": 11}
        res_ii = run_all(odd_library, demo_rules, OPT_II)
        vios = [v for v in res_ii.violations]
        assert [v.kind for v in vios] == [ViolationKind.ODD_CYCLE]
        assert len(vios[0].shape_ids) == 3

    def test_clean_library(self, clean_library, demo_rules):
        for opt in (OPT_I, OPT_II):
            res = run_all(clean_library, demo_rules, opt)
            assert res.violations == ()

    def test_mixed_library_clean_and_counted(self, mixed_library, demo_rules):
        res = run_all(mixed_library, demo_rules, OPT_I)
        assert res.violations == ()
        assert len(res.cases) == 5
        assert sum(len(c.placements) for c in res.cases) == 31

    def test_pin_only_metal_is_checked(self, demo_rules):
        lib = parse_library(PIN_ONLY_LEF)
        kinds = {o: sorted(v.kind.value for v in run_all(lib, demo_rules,
                                                         o).violations)
                 for o in (OPT_I, OPT_II)}
        assert kinds == {OPT_I: ["SpacingAnyMask", "SpacingSameMask"],
                         OPT_II: ["SpacingAnyMask"]}

    def test_bare_port_without_twin_is_uncoloured(self, demo_rules):
        lib = parse_library(PIN_ONLY_LEF.replace("LAYER M1_E1", "LAYER M1"))
        assert [s.mask for s in lib.cells[0].shapes] == [Mask.NONE]
        kinds = Counter(v.kind for v in run_all(lib, demo_rules,
                                                OPT_I).violations)
        assert kinds[ViolationKind.COLOR_MISSING] > 0

    def test_option_ii_never_has_more_color_violations(
            self, seam_library, odd_library, clean_library, demo_rules):
        from seamcheck.checks import COLOR_RELATED
        for lib in (seam_library, odd_library, clean_library):
            n_i = sum(1 for v in run_all(lib, demo_rules, OPT_I).violations
                      if v.kind in COLOR_RELATED)
            n_ii = sum(1 for v in run_all(lib, demo_rules, OPT_II).violations
                       if v.kind in COLOR_RELATED)
            assert n_ii <= n_i

    def test_every_violation_lies_in_its_case(self, demo_rules):
        """Attribution compares only x because of this: a case's
        instances fill its rows, every shape lies inside its cell, and
        each box is a union of, or lies within, the case's shapes."""
        checked = 0
        for lef in sorted(TESTDATA.glob("*.lef")):
            lib = parse_library(lef.read_text())
            for opt in (OPT_I, OPT_II):
                res = run_all(lib, demo_rules, opt)
                for v in res.violations:
                    case = res.cases[v.case_index]
                    ox, oy = res.floorplan.origin_of(v.case_index)
                    rows = Rect(ox, oy, ox + case.width, oy
                                + case.height_rows * res.floorplan.row_height)
                    assert rows.contains(v.bbox), (lef.name, opt, v)
                    checked += 1
        assert checked > 0

    def test_leaves_no_cyclic_garbage(self, seam_library, demo_rules):
        """Every layout a run builds is freed by reference counting: with
        the cyclic collector off, nothing is left for it to collect."""
        gc.collect()
        gc.disable()
        try:
            results = [run_all(seam_library, demo_rules, opt)
                       for opt in (OPT_I, OPT_II)]
            garbage = gc.collect()
        finally:
            gc.enable()
        assert any(v.kind is ViolationKind.HOTSPOT
                   for res in results for v in res.violations)
        assert garbage == 0
