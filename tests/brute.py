"""All-pairs reference checkers with no sweep, shared by the checker and
whole-library oracle tests. Each one compares every pair of shapes on a
layer, so it shares no neighbour search with the program. Also the
per-shape ``transform_rect`` flatten that ``flatten`` must equal, the
BFS from every node that ``color_decompose`` must equal, the linear-scan
first-fit floorplan that ``plan_floorplan`` must equal, and the eager
column walk that a case's derived seams must equal."""

from collections import defaultdict, deque
from dataclasses import replace
from typing import NamedTuple

from seamcheck import (
    CaseKind,
    ConflictGraph,
    DecomposeResult,
    DptOption,
    FlatLayout,
    FlatShape,
    Floorplan,
    HotspotPattern,
    LayerRule,
    Mask,
    Orientation,
    Placement,
    Rect,
    RuleDeck,
    Seam,
    Violation,
    ViolationKind,
    color_decompose,
    transform_rect,
    union_all,
)
from seamcheck.checks import _other, _witness_cycle
from seamcheck.floorplan import _round_up, plan_library

# Oracle deck: a DPT layer, a single-mask layer and a rule-less layer
# that only a hotspot pattern reads, so every sweep consumer is exercised.
ORACLE_DECK = RuleDeck(
    interaction_distance=200,
    layers={"M1": LayerRule(32, 32, 64),
            "M2": LayerRule(32, 48)},
    hotspot_patterns=(
        HotspotPattern("quad", "M1", (Mask.E1, Mask.E2, Mask.E1, Mask.E2),
                       50, 100),
        HotspotPattern("twin", "M2", (Mask.E1, Mask.E1), 80, 60),
        HotspotPattern("tri", "M3", (Mask.E2, Mask.E1, Mask.E2), 64, 40)))


def reference_flatten(cells, placements):
    """``flatten`` by transforming every shape of every placement on its
    own, with no per-cell table: shape ids in placement order, then cell
    shape order. ``cells`` maps a cell name to its profile."""
    flat = []
    for p in placements:
        cell = cells[p.cell_ref]
        for shape in cell.shapes:
            rect = transform_rect(shape.rect, cell.width, cell.height,
                                  p.orientation, p.origin)
            flat.append(FlatShape(len(flat), shape.layer, shape.mask, rect,
                                  p.instance_name))
    return FlatLayout(flat)


def brute_run(a: Rect, b: Rect):
    """(spacing, axis) of two rects facing each other across a gap >= 0
    with positive overlap along the gap, else None."""
    gap_x = max(a.x1, b.x1) - min(a.x2, b.x2)
    gap_y = max(a.y1, b.y1) - min(a.y2, b.y2)
    if gap_x >= 0 and gap_y < 0:
        return gap_x, "vertical"
    if gap_y >= 0 and gap_x < 0:
        return gap_y, "horizontal"
    return None


def brute_components(shapes):
    """shape id -> smallest id of its touch component, by flood fill over
    all pairs (a contact of positive length or area connects)."""
    def touch(a, b):
        gx = max(a.x1, b.x1) - min(a.x2, b.x2)
        gy = max(a.y1, b.y1) - min(a.y2, b.y2)
        return gx <= 0 and gy <= 0 and (gx < 0 or gy < 0)

    root = {}
    for s in shapes:
        if s.shape_id in root:
            continue
        group, todo = {s.shape_id}, [s]
        while todo:
            t = todo.pop()
            for u in shapes:
                if u.shape_id not in group and touch(t.rect, u.rect):
                    group.add(u.shape_id)
                    todo.append(u)
        for sid in group:
            root[sid] = min(group)
    return root


def brute_spacing(layout, rules, option):
    out = []
    for layer in {s.layer for s in layout.shapes}:
        rule = rules.layer_rule(layer)
        if rule is None:
            continue
        shapes = [s for s in layout.shapes if s.layer == layer]
        comp = brute_components(shapes)
        fixed = rule.dpt and option is DptOption.OPTION_I
        for i, a in enumerate(shapes):
            for b in shapes[i + 1:]:
                run = brute_run(a.rect, b.rect)
                if run is None or comp[a.shape_id] == comp[b.shape_id]:
                    continue
                bbox = a.rect.union(b.rect)
                ids = (a.shape_id, b.shape_id)
                if run[0] < rule.min_spacing_any_mask:
                    out.append(Violation(ViolationKind.SPACING_ANY_MASK,
                                         layer, bbox, ids))
                if (fixed and a.mask is b.mask is not Mask.NONE
                        and run[0] < rule.min_spacing_same_mask):
                    out.append(Violation(ViolationKind.SPACING_SAME_MASK,
                                         layer, bbox, ids))
        if fixed:
            out.extend(Violation(ViolationKind.COLOR_MISSING, layer, s.rect,
                                 (s.shape_id,))
                       for s in shapes if s.mask is Mask.NONE)
    return sorted(out, key=Violation.sort_key)


def brute_conflict_edges(layout, rules, layer):
    shapes = [s for s in layout.shapes if s.layer == layer]
    comp = brute_components(shapes)
    edges = set()
    for i, a in enumerate(shapes):
        for b in shapes[i + 1:]:
            run = brute_run(a.rect, b.rect)
            u, v = sorted((comp[a.shape_id], comp[b.shape_id]))
            if run and run[0] < rules.layer_rule(layer).min_spacing_same_mask \
                    and u != v:
                edges.add((u, v))
    return comp, edges


def brute_hotspots(layout, rules):
    """Every chain of distinct shapes, each one strictly before the next
    along the axis at a gap in (0, max_gap], whose masks read as the
    pattern either way and whose common span is long enough."""
    out = []
    for p in rules.hotspot_patterns:
        shapes = [s for s in layout.shapes if s.layer == p.layer]
        for axis in ("vertical", "horizontal"):
            def span(r):
                return (r.y1, r.y2) if axis == "vertical" else (r.x1, r.x2)

            def follows(a, b):
                run = brute_run(a, b)
                before = a.x2 <= b.x1 if axis == "vertical" else a.y2 <= b.y1
                return (run is not None and run[1] == axis and before
                        and 0 < run[0] <= p.max_gap)

            def extend(chain):
                if len(chain) == p.track_count:
                    masks = tuple(s.mask for s in chain)
                    lo = max(span(s.rect)[0] for s in chain)
                    hi = min(span(s.rect)[1] for s in chain)
                    if (masks in (p.masks, p.masks[::-1])
                            and hi - lo >= p.min_run_length):
                        rects = [s.rect for s in chain]
                        bbox = (Rect(min(r.x1 for r in rects), lo,
                                     max(r.x2 for r in rects), hi)
                                if axis == "vertical" else
                                Rect(lo, min(r.y1 for r in rects),
                                     hi, max(r.y2 for r in rects)))
                        out.append(Violation(
                            ViolationKind.HOTSPOT, p.layer, bbox,
                            tuple(s.shape_id for s in chain), p.name))
                    return
                for s in shapes:
                    if follows(chain[-1].rect, s.rect):
                        extend(chain + [s])

            for s in shapes:
                extend([s])
    return sorted(out, key=Violation.sort_key)


def brute_width(layout, rules):
    return sorted((Violation(ViolationKind.WIDTH, s.layer, s.rect,
                             (s.shape_id,))
                   for s in layout.shapes
                   if rules.layer_rule(s.layer) is not None
                   and min(s.rect.width, s.rect.height)
                   < rules.layer_rule(s.layer).min_width),
                  key=Violation.sort_key)


def brute_recolour(layout, rules):
    """Option II on ``brute_conflict_edges``: each DPT layer's graph is
    two-coloured by ``color_decompose`` (checked against an exhaustive
    colouring oracle in test_checks) and applied unless it has an odd
    cycle. Returns the recoloured layout, the odd cycles and the
    recoloured shape count per instance."""
    odd, recolor = [], defaultdict(int)
    for layer in rules.dpt_layers:
        shapes = [s for s in layout.shapes if s.layer == layer]
        if not shapes:
            continue
        comp, edges = brute_conflict_edges(layout, rules, layer)
        members = defaultdict(list)
        for sid, root in sorted(comp.items()):
            members[root].append(sid)
        graph = ConflictGraph(
            layer, {r: tuple(m) for r, m in members.items()},
            frozenset(edges),
            {r: union_all(layout.shape(s).rect for s in m)
             for r, m in members.items()})
        result = color_decompose(graph)
        odd.extend(result.odd_cycles)
        if result.assignment is None:
            continue
        recoloured = []
        for s in layout.shapes:
            if s.layer == layer and result.assignment[s.shape_id] is not s.mask:
                recolor[s.source_instance] += 1
                s = s._replace(mask=result.assignment[s.shape_id])
            recoloured.append(s)
        layout = FlatLayout(recoloured)
    return layout, odd, dict(recolor)


def reference_color_decompose(graph):
    """Two-colouring by BFS from every node in ascending order, edgeless
    nodes included, over an adjacency list of every node. Reads
    ``node_bbox`` only for the nodes of an odd cycle."""
    adj = {n: [] for n in graph.nodes}
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj.values():
        lst.sort()
    color, parent, depth, odd = {}, {}, {}, []
    for start in sorted(graph.nodes):
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
                    sids = []
                    for n in cycle:
                        bbox = bbox.union(graph.node_bbox[n])
                        sids.extend(graph.nodes[n])
                    odd.append(Violation(ViolationKind.ODD_CYCLE, graph.layer,
                                         bbox, tuple(sorted(sids))))
    if odd:
        odd.sort(key=Violation.sort_key)
        return DecomposeResult(None, odd)
    return DecomposeResult({sid: color[root]
                            for root, sids in graph.nodes.items()
                            for sid in sids}, [])


def reference_run_all(library, rules, option):
    """``run_all``'s violations and recolour counts from a full flatten
    (``reference_flatten``) of every case and the all-pairs checkers
    above. Each case's die placements are its own placements moved by
    its floorplan origin and named <module>/<instance>."""
    cases, floorplan = plan_library(library, rules)
    cells = {c.name: c for c in library.cells}
    violations, recolor = [], {}
    for idx, case in enumerate(cases):
        ox, oy = floorplan.origin_of(idx)
        placed = [Placement(f"{case.module_name}/{p.instance_name}",
                            p.cell_ref, (p.origin[0] + ox, p.origin[1] + oy),
                            p.orientation)
                  for p in case.placements]
        layout = reference_flatten(cells, placed)
        found = []
        if option is DptOption.OPTION_II:
            layout, found, case_recolor = brute_recolour(layout, rules)
            recolor.update(case_recolor)
        found += (brute_width(layout, rules)
                  + brute_spacing(layout, rules, option)
                  + brute_hotspots(layout, rules))
        found.sort(key=Violation.sort_key)
        violations.extend(replace(v, case_index=idx) for v in found)
    return tuple(violations), recolor


def linear_floorplan(cases, library, rules, max_row_width):
    """First-fit shelf packing on ``library``'s grid by scanning every
    shelf for every case: the first shelf, in creation order, of the
    case's row count and with room, else a new shelf as tall as the
    case."""
    gap = _round_up(max(2 * rules.interaction_distance, library.site_width),
                    library.site_width)
    shelves = []  # [row_start, height_rows, next_x]
    total_rows = 0
    positions = []
    for case in cases:
        for shelf in shelves:
            if (case.height_rows == shelf[1]
                    and shelf[2] + case.width <= max_row_width):
                positions.append((shelf[0], shelf[2]))
                shelf[2] += case.width + gap
                break
        else:
            shelves.append([total_rows, case.height_rows, case.width + gap])
            positions.append((total_rows, 0))
            total_rows += case.height_rows
    die_w = max((pos[1] + case.width
                 for pos, case in zip(positions, cases)), default=0)
    return Floorplan(gap, library.row_height, tuple(positions),
                     Rect(0, 0, max(die_w, 1),
                          max(total_rows * library.row_height, 1)))


_R0, _MY = Orientation.R0, Orientation.MY
# Column orientations of the two case patterns, left to right.
_AA_COLUMNS = (_MY, _R0, _R0, _MY)
_AB_COLUMNS = (_R0, _R0, _MY, _MY, _R0)


def oracle_seams(case, library):
    """A case's seams by walking its columns: A-A is four columns of A,
    the A-B patterns are columns B, A, B, A, B. Each seam sits where a
    column ends and names the base-row (cell, orientation) on either
    side. Built from the cell
    widths, the row counts and the pattern tables, not from placements."""
    cells = {c.name: c for c in library.cells}
    a = cells[case.cell_a]
    if case.cell_b is None:
        columns = [(a, o) for o in _AA_COLUMNS]
    else:
        b = cells[case.cell_b]
        columns = list(zip((b, a, b, a, b), _AB_COLUMNS))
    seams, x = [], 0
    for (lc, lo), (rc, ro) in zip(columns, columns[1:]):
        x += lc.width
        seams.append(Seam(x, (lc.name, lo), (rc.name, ro)))
    return tuple(seams)


class OracleCase(NamedTuple):
    kind: CaseKind
    placements: tuple[Placement, ...]
    seams: tuple[Seam, ...]
    width: int
    height_rows: int


def oracle_chain(cell_a, cell_b):
    """Abut one column per (cell, orientation), left to right: the A-A
    pattern (kind AA) when ``cell_b`` is None, the A-B pattern (kind AB)
    otherwise. The case is as tall as A (k rows);
    a column whose cell is shorter stacks k instances, flipped vertically
    on odd rows. Instances are numbered U1.. in placement order. Seams
    join adjacent base-row placements, at the right one's x. Builds every
    placement eagerly, with no pattern table; module names are left to
    ``enumerate_library``."""
    if cell_b is None:
        kind = CaseKind.AA
        columns = zip((cell_a,) * 4, _AA_COLUMNS)
    else:
        kind = CaseKind.AB
        columns = zip((cell_b, cell_a, cell_b, cell_a, cell_b), _AB_COLUMNS)
    k = cell_a.height_rows
    row_h = cell_a.height // k
    placements = []
    x = 0
    for c, o in columns:
        for row in range(1 if c.height_rows == k else k):
            placements.append(Placement(f"U{len(placements) + 1}", c.name,
                                        (x, row * row_h),
                                        o.flipped_ud if row % 2 else o))
        x += c.width
    base = [p for p in placements if p.origin[1] == 0]
    seams = tuple(Seam(r.origin[0], (l.cell_ref, l.orientation),
                       (r.cell_ref, r.orientation))
                  for l, r in zip(base, base[1:]))
    return OracleCase(kind, tuple(placements), seams, x, k)
