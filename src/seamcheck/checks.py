"""The three checking engines: rule-based DRC (width/spacing), DPT color
verification and decomposition, and hotspot pattern matching.

Two DPT flows are supported. Option I verifies the pre-assigned cell
colors as drawn: same-mask spacing and missing-color checks apply.
Option II recolors each flattened testcase from scratch (two-coloring the
conflict graph) before checking; spacing is then only checked across
masks, and uncolorable odd cycles are reported as violations.
"""

from __future__ import annotations

import enum
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Mapping

from .abutment import AbutmentCase, instance_path
from .floorplan import Floorplan, plan_library
from .geometry import (FlatLayout, Mask, Orientation, ParallelRun, Rect,
                       connected_components, flatten, parallel_runs,
                       union_all)
from .library import CellLibrary, CellProfile
from .rules import RuleDeck


class ViolationKind(enum.Enum):
    WIDTH = "Width"
    SPACING_SAME_MASK = "SpacingSameMask"
    SPACING_ANY_MASK = "SpacingAnyMask"
    COLOR_MISSING = "ColorMissing"
    ODD_CYCLE = "OddCycle"
    HOTSPOT = "Hotspot"


#: Kinds that exist only because of mask assignment.
COLOR_RELATED = frozenset({ViolationKind.SPACING_SAME_MASK,
                           ViolationKind.COLOR_MISSING,
                           ViolationKind.ODD_CYCLE})


class DptOption(enum.Enum):
    OPTION_I = "I"
    OPTION_II = "II"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    layer: str
    bbox: Rect
    shape_ids: tuple[int, ...]
    pattern_name: str | None = None
    # The index of its case, which run_all stamps on every violation.
    case_index: int | None = None

    def sort_key(self):
        return (self.layer, self.kind.value, self.bbox, self.shape_ids,
                self.pattern_name or "")


@dataclass(frozen=True)
class LayerNeighbours:
    """What one sweep of one layer yields at ``RuleDeck.reach``: the parallel
    runs within that reach and the touch components (shape id -> root).
    Every checker filters these. Recolouring moves no rect, so they stay
    valid for the recoloured layout; checkers read masks from the layout
    they check."""

    runs: list[ParallelRun]
    components: dict[int, int]


def sweep_neighbours(layout: FlatLayout,
                     rules: RuleDeck) -> dict[str, LayerNeighbours]:
    """One ``near_pairs`` sweep per layer that some checker reads, at the
    layer's ``RuleDeck.reach``."""
    out = {}
    for layer in layout.layers():
        reach = rules.reach(layer)
        if reach is None:
            continue
        pairs = layout.near_pairs(layer, reach)
        out[layer] = LayerNeighbours(
            parallel_runs(pairs, reach),
            connected_components(layout.shapes_on(layer), pairs))
    return out


def check_width(layout: FlatLayout, rules: RuleDeck) -> list[Violation]:
    """One Width violation per shape whose short side is below the layer
    minimum. Exactly minimum passes."""
    out = []
    for layer in layout.layers():
        rule = rules.layer_rule(layer)
        if rule is None:
            continue
        min_width = rule.min_width
        for s in layout.shapes_on(layer):
            x1, y1, x2, y2 = rect = s.rect
            if x2 - x1 < min_width or y2 - y1 < min_width:
                out.append(Violation(ViolationKind.WIDTH, layer, rect,
                                     (s.shape_id,)))
    out.sort(key=Violation.sort_key)
    return out


def check_spacing(layout: FlatLayout, rules: RuleDeck, option: DptOption,
                  neighbours: Mapping[str, LayerNeighbours]
                  ) -> list[Violation]:
    """Spacing checks between unconnected shapes (touching shapes form one
    net and are exempt). Every pair closer than the any-mask minimum is a
    SpacingAnyMask violation. Under Option I, DPT layers additionally get
    SpacingSameMask for same-colored pairs below the same-mask minimum and
    ColorMissing for uncolored shapes. ``neighbours`` is
    ``sweep_neighbours`` of this layout, or of one that differs only in
    masks."""
    out = []
    for layer in layout.layers():
        rule = rules.layer_rule(layer)
        if rule is None:
            continue
        dpt_fixed = rule.dpt and option is DptOption.OPTION_I
        limit = (rule.min_spacing_same_mask if dpt_fixed
                 else rule.min_spacing_any_mask)
        comp = neighbours[layer].components
        for run in neighbours[layer].runs:
            if (run.spacing >= limit
                    or comp[run.shape_a] == comp[run.shape_b]):
                continue
            a = layout.shape(run.shape_a)
            b = layout.shape(run.shape_b)
            bbox = a.rect.union(b.rect)
            if run.spacing < rule.min_spacing_any_mask:
                out.append(Violation(ViolationKind.SPACING_ANY_MASK, layer,
                                     bbox, (a.shape_id, b.shape_id)))
            if (dpt_fixed and a.mask is b.mask and a.mask is not Mask.NONE
                    and run.spacing < rule.min_spacing_same_mask):
                out.append(Violation(ViolationKind.SPACING_SAME_MASK, layer,
                                     bbox, (a.shape_id, b.shape_id)))
        if dpt_fixed:
            for s in layout.shapes_on(layer):
                if s.mask is Mask.NONE:
                    out.append(Violation(ViolationKind.COLOR_MISSING, layer,
                                         s.rect, (s.shape_id,)))
    out.sort(key=Violation.sort_key)
    return out


@dataclass(frozen=True)
class ConflictGraph:
    """Same-mask conflict graph of one DPT layer: nodes are touch-connected
    shape groups, edges join groups with a sub-S_same parallel run.
    ``node_bbox`` covers only the nodes that have an edge: only those can
    lie on an odd cycle."""

    layer: str
    nodes: dict[int, tuple[int, ...]]  # root shape id -> member shape ids
    edges: frozenset[tuple[int, int]]  # (u, v) node pairs, u < v
    node_bbox: dict[int, Rect]

    def adjacency(self) -> dict[int, list[int]]:
        """Node -> its neighbours in ascending order, for the nodes that
        have an edge; an edgeless node has no entry."""
        adj: dict[int, list[int]] = {}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        for lst in adj.values():
            lst.sort()
        return adj


def build_conflict_graph(layout: FlatLayout, rules: RuleDeck, layer: str,
                         neighbours: Mapping[str, LayerNeighbours]
                         ) -> ConflictGraph:
    """The conflict graph of DPT ``layer``: one node per touch component
    of ``neighbours``, so the nodes hold every shape on the layer, and one
    edge per pair of components joined by a run below the same-mask
    minimum. ``node_bbox`` holds the bounding box of each node that has
    an edge, and of no other node. A layer outside ``rules.dpt_layers``
    raises ValueError."""
    rule = rules.layer_rule(layer)
    if rule is None or not rule.dpt:
        raise ValueError(f"layer {layer} is not a DPT layer")
    comp = neighbours[layer].components
    members: dict[int, list[int]] = defaultdict(list)
    for sid, root in sorted(comp.items()):
        members[root].append(sid)
    edges = set()
    for run in neighbours[layer].runs:
        u, v = comp[run.shape_a], comp[run.shape_b]
        if run.spacing < rule.min_spacing_same_mask and u != v:
            edges.add((u, v) if u < v else (v, u))
    linked = {n for edge in edges for n in edge}
    bbox = {root: union_all(layout.shape(s).rect for s in sids)
            for root, sids in members.items() if root in linked}
    return ConflictGraph(layer, {r: tuple(m) for r, m in members.items()},
                         frozenset(edges), bbox)


@dataclass
class DecomposeResult:
    """Either a full mask assignment (shape id -> mask) or, when some
    component has an odd conflict cycle, the witnessing violations."""

    assignment: dict[int, Mask] | None
    odd_cycles: list[Violation]

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


def _other(mask: Mask) -> Mask:
    return Mask.E2 if mask is Mask.E1 else Mask.E1


def _witness_cycle(u: int, v: int, parent: dict, depth: dict) -> list[int]:
    """Nodes of the odd cycle closed by tree paths from u and v to their
    lowest common BFS ancestor plus the conflicting edge (u, v)."""
    nodes = []
    while depth[u] > depth[v]:
        nodes.append(u)
        u = parent[u]
    tail = []
    while depth[v] > depth[u]:
        tail.append(v)
        v = parent[v]
    while u != v:
        nodes.append(u)
        tail.append(v)
        u = parent[u]
        v = parent[v]
    return nodes + [u] + tail[::-1]


def color_decompose(graph: ConflictGraph) -> DecomposeResult:
    """BFS two-coloring in deterministic node order; each component root
    (smallest node id) takes E1. BFS starts only from nodes that have an
    edge, in ascending order; an edgeless node is its own root and takes
    E1 without a visit. Returns one OddCycle violation per non-bipartite
    component."""
    adj = graph.adjacency()
    color: dict[int, Mask] = {}
    parent: dict[int, int | None] = {}
    depth: dict[int, int] = {}
    odd: list[Violation] = []
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = Mask.E1
        parent[start] = None
        depth[start] = 0
        queue = deque([start])
        component_odd = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in color:
                    color[v] = _other(color[u])
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    queue.append(v)
                elif color[v] is color[u] and not component_odd:
                    component_odd = True
                    cycle = _witness_cycle(u, v, parent, depth)
                    bbox = graph.node_bbox[cycle[0]]
                    sids: list[int] = []
                    for n in cycle:
                        bbox = bbox.union(graph.node_bbox[n])
                        sids.extend(graph.nodes[n])
                    odd.append(Violation(ViolationKind.ODD_CYCLE, graph.layer,
                                         bbox, tuple(sorted(sids))))
    if odd:
        odd.sort(key=Violation.sort_key)
        return DecomposeResult(None, odd)
    assignment = {sid: color.get(root, Mask.E1)
                  for root, sids in graph.nodes.items() for sid in sids}
    return DecomposeResult(assignment, [])


def apply_colors(layout: FlatLayout, assignment: Mapping[int, Mask],
                 layers) -> FlatLayout:
    """Overwrite the masks of every shape on the given layers; other layers
    are untouched. The assignment covers every shape on them: a feasible
    ``color_decompose`` result assigns each member of every node of the
    layer's graph, and those nodes are the layer's touch components. A
    shape whose mask the assignment keeps is the same object in the
    result, so ``is`` tells which shapes changed."""
    shapes = [s if s.layer not in layers or assignment[s.shape_id] is s.mask
              else s._replace(mask=assignment[s.shape_id])
              for s in layout.shapes]
    return FlatLayout(shapes)


def match_hotspots(layout: FlatLayout, rules: RuleDeck,
                   neighbours: Mapping[str, LayerNeighbours]
                   ) -> list[Violation]:
    """Find every group of track_count parallel shapes whose ordered masks
    equal a deck pattern's sequence (or its mirror), with every adjacent
    gap in (0, max_gap] and a common parallel run of at least
    min_run_length. Chains grow one track at a time, from left to right,
    along the runs of the layer's sweep. Horizontal tracks are vertical
    tracks of the transposed rects."""
    out = []
    shapes = layout.shapes  # indexed by shape id, as FlatLayout.shape reads
    for pattern in rules.hotspot_patterns:
        if pattern.layer not in neighbours:
            continue
        for axis in ("vertical", "horizontal"):
            flip = axis == "horizontal"
            # Only a shape that ends a run of this axis can be on a chain.
            rect: dict[int, Rect] = {}
            successors: dict[int, list[int]] = {}
            for a, b, spacing, _, run_axis in neighbours[pattern.layer].runs:
                if run_axis == axis and 0 < spacing <= pattern.max_gap:
                    for sid in (a, b):
                        if sid not in rect:
                            r = shapes[sid].rect
                            rect[sid] = _transpose(r) if flip else r
                    if rect[b].x2 <= rect[a].x1:
                        a, b = b, a
                    successors.setdefault(a, []).append(b)
            chains = [((a,), (shapes[a].mask,), rect[a].y1, rect[a].y2)
                      for a in successors]
            for _ in range(pattern.track_count - 1):
                grown = []
                for ids, masks, lo, hi in chains:
                    for b in successors.get(ids[-1], ()):
                        m = masks + (shapes[b].mask,)
                        if m not in pattern.prefixes:
                            continue
                        _, blo, _, bhi = rect[b]
                        blo, bhi = max(lo, blo), min(hi, bhi)
                        if bhi - blo >= pattern.min_run_length:
                            grown.append((ids + (b,), m, blo, bhi))
                chains = grown
            for ids, masks, lo, hi in chains:
                if masks in pattern.targets:
                    bbox = Rect(min(rect[s].x1 for s in ids), lo,
                                max(rect[s].x2 for s in ids), hi)
                    out.append(Violation(
                        ViolationKind.HOTSPOT, pattern.layer,
                        _transpose(bbox) if flip else bbox, ids,
                        pattern.name))
    out.sort(key=Violation.sort_key)
    return out


def _transpose(r: Rect) -> Rect:
    return Rect(r.y1, r.x1, r.y2, r.x2)


@dataclass
class VerificationResult:
    """Aggregated outcome of one library under one DPT option."""

    option: DptOption
    cases: list[AbutmentCase]
    floorplan: Floorplan
    violations: tuple[Violation, ...]
    recolor_diff: dict[str, int] = field(default_factory=dict)

    def counts_by_kind(self) -> dict[str, int]:
        counts = {k.value: 0 for k in ViolationKind}
        for v in self.violations:
            counts[v.kind.value] += 1
        return counts

    @property
    def drc_count(self) -> int:
        return sum(1 for v in self.violations
                   if v.kind is not ViolationKind.HOTSPOT)

    @property
    def drcplus_count(self) -> int:
        return sum(1 for v in self.violations
                   if v.kind is ViolationKind.HOTSPOT)


def _flat_case(case: AbutmentCase, origin: tuple[int, int]) -> FlatLayout:
    """A whole case flattened with the case at ``origin``: the rows of
    ``AbutmentCase.instances``, each instance named <module>/<instance>.
    Shape ids are case-local and reproducible."""
    module = case.module_name
    return flatten([(instance_path(module, name), cell, x, y, o)
                    for name, cell, x, y, o in case.instances(origin)])


def case_layout(case_index: int, cases, floorplan: Floorplan,
                rules: RuleDeck, option: DptOption) -> FlatLayout:
    """Flatten one case at its floorplan position (``_flat_case``),
    recolored when running Option II."""
    layout = _flat_case(cases[case_index], floorplan.origin_of(case_index))
    if option is DptOption.OPTION_II:
        layout, _, _ = _recolour(layout, rules,
                                 sweep_neighbours(layout, rules))
    return layout


def _recolour(layout, rules, neighbours):
    """Option II: two-colour the conflict graph of each DPT layer and apply
    the colouring. Returns the recoloured layout, the odd-cycle violations
    and the recoloured shape count per instance."""
    odd: list[Violation] = []
    recolor: dict[str, int] = {}
    for layer in rules.dpt_layers:
        if not layout.shapes_on(layer):
            continue
        graph = build_conflict_graph(layout, rules, layer, neighbours)
        result = color_decompose(graph)
        odd.extend(result.odd_cycles)
        if result.assignment is not None:
            before = layout.shapes_on(layer)
            layout = apply_colors(layout, result.assignment, [layer])
            for old, s in zip(before, layout.shapes_on(layer)):
                if s is not old:  # apply_colors keeps unchanged shapes
                    key = s.source_instance
                    recolor[key] = recolor.get(key, 0) + 1
    return layout, odd, recolor


def _check_layout(layout: FlatLayout, rules: RuleDeck, option: DptOption
                  ) -> tuple[list[Violation], dict[str, int]]:
    """Every check of one flattened layout: one sweep per layer serves
    Option II's recolouring and the width, spacing and hotspot checks.
    Returns the violations sorted by ``Violation.sort_key`` and the
    recoloured shape count per instance."""
    neighbours = sweep_neighbours(layout, rules)
    found: list[Violation] = []
    recolor: dict[str, int] = {}
    if option is DptOption.OPTION_II:
        layout, found, recolor = _recolour(layout, rules, neighbours)
    found.extend(check_width(layout, rules))
    found.extend(check_spacing(layout, rules, option, neighbours))
    found.extend(match_hotspots(layout, rules, neighbours))
    found.sort(key=Violation.sort_key)
    return found, recolor


def _isolated(cell: CellProfile, rules: RuleDeck) -> bool:
    """True when every shape of ``cell`` on a layer with a
    ``RuleDeck.reach`` lies more than half that reach inside its outline
    (``parse_library`` keeps every shape inside it). Two isolated
    instances whose interiors do not overlap are then more than the reach
    apart on their separating axis, so no check pairs shapes across them.
    The margins hold in every orientation."""
    for s in cell.shapes:
        x1, y1, x2, y2 = s.rect
        margin = min(x1, y1, cell.width - x2, cell.height - y2)
        reach = rules.reach(s.layer)
        if reach is not None and 2 * margin <= reach:
            return False
    return True


def _alone(cell: CellProfile, rules: RuleDeck, option: DptOption):
    """One instance of an isolated ``cell`` checked on its own at the
    origin in its drawn orientation (R0): its recoloured shape count when
    it is clean, None when it is not isolated or has any violation.
    Reflections keep every width, gap, touch, parallel run and shape id,
    hotspot targets include their mirror, and ``color_decompose`` reads
    only ids and edges, so the result holds in every orientation."""
    if not _isolated(cell, rules):
        return None
    layout = flatten([(cell.name, cell, 0, 0, Orientation.R0)])
    found, recolor = _check_layout(layout, rules, option)
    if found:
        return None
    return recolor.get(cell.name, 0)


def run_all(library: CellLibrary, rules: RuleDeck,
            option: DptOption) -> VerificationResult:
    """Full pipeline: enumerate cases, pack them on the die that
    ``generate`` writes (``plan_library``), then verify each case in
    isolation. The horizontal gap keeps the cases of one shelf apart, but
    stacked shelves abut (see ``floorplan``). Two isolated cells
    (``_isolated``) cannot meet within any rule's reach, so a case made
    only of isolated cells that are clean on their own (``_alone``,
    checked once per cell per call) is clean: it only names its
    recoloured instances from its instance pattern
    (``AbutmentCase.pattern``) and places none of them. Any other case
    is flattened whole (``_flat_case``) and checked. So is every case of
    an isolated cell with a violation of its own, which pays the full
    path only in libraries that have such a cell (no ``testdata``
    library and no perfbench workload does). Violations are listed in
    case order."""
    cases, floorplan = plan_library(library, rules)
    # Keyed by cell name: hashing a CellProfile would hash its shapes.
    standalone: dict[str, int | None] = {}
    violations: list[Violation] = []
    recolor: dict[str, int] = {}
    for idx, case in enumerate(cases):
        for cell in case.cells:
            if cell.name not in standalone:
                standalone[cell.name] = _alone(cell, rules, option)
        counts = [standalone[cell.name] for cell in case.cells]
        if None not in counts:
            recolor.update(
                (instance_path(case.module_name, name), counts[slot])
                for name, slot, _, _, _ in case.pattern if counts[slot])
            continue
        layout = _flat_case(case, floorplan.origin_of(idx))
        found, case_recolor = _check_layout(layout, rules, option)
        violations.extend(Violation(v.kind, v.layer, v.bbox, v.shape_ids,
                                    v.pattern_name, idx) for v in found)
        recolor.update(case_recolor)
    return VerificationResult(option, cases, floorplan,
                              tuple(violations), recolor)
