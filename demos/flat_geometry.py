"""Orientation transforms, flattening, and neighbour queries.

A placed cell's shapes move into die coordinates through one of four
orientation transforms (R0, R180, MX, MY). The flattened layout groups
shapes by layer; a sort-and-sweep over x finds every same-layer pair
within a reach, which the parallel-run scan and the checkers filter.
"""

import pathlib
import random

from seamcheck import Orientation, Rect, flatten, parallel_runs, \
    parse_library, transform_rect

TESTDATA = pathlib.Path(__file__).resolve().parent.parent / "testdata"


def main() -> None:
    rect = Rect(10, 20, 50, 80)
    w, h = 200, 576
    print(f"rect {tuple(rect)} inside a {w} x {h} cell frame:")
    for orient in Orientation:
        moved = transform_rect(rect, w, h, orient)
        print(f"  {orient.value:5s} -> {tuple(moved)}")

    library = parse_library((TESTDATA / "seamdemo.lef").read_text())
    cell = library.cells[0]
    name = cell.name
    width = cell.width

    # Two instances abutted at x=width, right one mirrored so the seam is
    # a shared boundary between reflected copies. Each row is (instance
    # name, cell, x, y, orientation).
    rows = [
        ("U1", cell, 0, 0, Orientation.R0),
        ("U2", cell, width, 0, Orientation.MY),
    ]
    layout = flatten(rows)

    print(f"\nflattened {name} | {name}(MY): {len(layout.shapes)} shapes "
          f"on layers {layout.layers()}")
    for s in layout.shapes:
        print(f"  #{s.shape_id} {s.layer}.{s.mask.value} {tuple(s.rect)} "
              f"from {s.source_instance}")

    window = Rect(width - 100, 0, width + 100, library.row_height)
    near = sorted(layout.query_window(window))
    print(f"\nshapes within 100 dbu of the seam: {near}")

    layer = layout.layers()[0]
    pairs = layout.near_pairs(layer, 200)
    print(f"\n{layer} pairs within 200 dbu on both axes: "
          f"{[(a.shape_id, b.shape_id) for a, b in pairs]}")

    runs = parallel_runs(pairs, max_spacing=200)
    print("\nparallel runs with spacing <= 200:")
    for run in runs:
        print(f"  #{run.shape_a} vs #{run.shape_b}: spacing "
              f"{run.spacing}, common run {run.run_length} ({run.axis})")

    # The sweep and an all-pairs scan agree at every reach.
    rng = random.Random(7)
    shapes = layout.shapes_on(layer)
    for _ in range(100):
        reach = rng.randrange(0, 400)
        got = {(a.shape_id, b.shape_id)
               for a, b in layout.near_pairs(layer, reach)}
        want = {(a.shape_id, b.shape_id)
                for i, a in enumerate(shapes) for b in shapes[i + 1:]
                if a.rect.inflated(reach).intersects(b.rect)}
        assert got == want
    print("\nthe sweep matches an all-pairs scan at 100 random reaches")

if __name__ == "__main__":
    main()
