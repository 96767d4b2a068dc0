"""Seeded synthetic cell libraries, one generator per workload.

Each generator returns the text of a library file in the LEF subset that
``seamcheck`` parses. The same seed gives the same bytes. Lengths are
chosen in DBU against the demonstration deck ``testdata/rules.yaml``
(min width 32, any-mask spacing 32, same-mask spacing 64, hotspot
E1 E2 E1 E2 with max gap 80 and min run 100, interaction distance 200).

The seed moves shapes, widths and masks but not the amount of work: the
dense library draws each cell edge from a fixed multiset of edge
templates, so the violation mix over all cell pairs barely depends on the
seed while the geometry of every cell does.
"""

from __future__ import annotations

import random

ROW_HEIGHT = 576
SITE_WIDTH = 8

# Centred bars keep at least this much room to each cell edge, so facing
# bars across any seam are at least 96 apart: above the same-mask spacing
# (64) and above the hotspot gap (80), which keeps sparse cells clean.
SPARSE_MARGIN = 48


def _um(dbu: int) -> str:
    """Exact micron text for an integer DBU value."""
    return f"{dbu // 1000}.{dbu % 1000:03d}"


def _lef(name: str, cells) -> str:
    """Library text for cells given as (name, width, height, shapes), each
    shape a (mask, x1, y1, x2, y2) tuple on layer M1."""
    lines = [f"LIBRARY {name} ;",
             f"SITE core SIZE {_um(SITE_WIDTH)} BY {_um(ROW_HEIGHT)} ;", ""]
    for cell, width, height, shapes in cells:
        lines.append(f"MACRO {cell}")
        lines.append(f"  SIZE {_um(width)} BY {_um(height)} ;")
        lines.append("  OBS")
        for mask in ("E1", "E2"):
            rects = [s[1:] for s in shapes if s[0] == mask]
            if rects:
                lines.append(f"    LAYER M1_{mask} ;")
                lines.extend("    RECT " + " ".join(_um(v) for v in r) + " ;"
                             for r in rects)
        lines.append("  END")
        lines.append(f"END {cell}")
        lines.append("")
    lines.append("END LIBRARY")
    return "\n".join(lines) + "\n"


def _centred_bar_cell(rng: random.Random, name: str, rows: int):
    width = SITE_WIDTH * rng.randint(20, 32)
    height = ROW_HEIGHT * rows
    bar = rng.choice((32, 40))
    x1 = (width - bar) // 2 + rng.choice((-8, 0, 8))
    x1 = max(SPARSE_MARGIN, min(x1, width - SPARSE_MARGIN - bar))
    y1 = rng.randint(64, 128)
    y2 = height - rng.randint(64, 128)
    mask = rng.choice(("E1", "E2"))
    return name, width, height, [(mask, x1, y1, x1 + bar, y2)]


def sparse_lef(seed: int, n: int) -> str:
    """n cells with one centred M1 bar each; every 8th cell is two rows
    tall. Clean under both DPT options for every seed."""
    rng = random.Random(f"sparse:{seed}")
    cells = [_centred_bar_cell(rng, f"SP{i:04d}", 2 if i % 8 == 7 else 1)
             for i in range(n)]
    return _lef(f"sparse{seed}", cells)


def large_lef(seed: int, n: int) -> str:
    """n single-height cells with one centred M1 bar each."""
    rng = random.Random(f"large:{seed}")
    cells = [_centred_bar_cell(rng, f"LG{i:04d}", 1) for i in range(n)]
    return _lef(f"large{seed}", cells)


# Dense cells: an edge zone of at most 176 DBU on each side holds one edge
# template. Two columns of four horizontal bars (pitch 128) fill the
# interior from x = 272, so no interior shape is within 96 of an edge
# shape or of the other column. Facing edge bars across a seam are
# d_left + d_right apart, with d in 16..40: never below the any-mask
# minimum, below the same-mask minimum for 13 of the 16 pairings, always
# within the hotspot gap.
_DENSE_D = (16, 20, 28, 40)
_DENSE_GAPS = (40, 48, 56, 72)
_TEMPLATES = ("bar", "comb", "double", "jog")
# Stacked segments of the comb template, 40 apart vertically.
_COMB = ((64, 144), (184, 264), (304, 384), (424, 504))
_INTERIOR_X = 272
_TALL = (64, 512)


def _other(mask: str) -> str:
    return "E2" if mask == "E1" else "E1"


def _edge_shapes(template: str, d: int, mask: str, gap: int,
                 jitter: int) -> list[tuple]:
    """Shapes of one edge template measured from the left cell edge:
    (mask, x1, y1, x2, y2). The right edge uses the mirror image.

    bar: one tall bar. comb: four stacked segments of alternating mask
    40 apart; any two neighbours close a conflict triangle with a tall
    bar across the seam. double: two tall bars of alternating mask
    ``gap`` apart, the half of an E1 E2 E1 E2 hotspot. jog: a tall bar
    joined by a touching horizontal stub."""
    y1, y2 = _TALL[0] + jitter, _TALL[1] - jitter
    x1, x2 = d, d + 32
    if template == "bar":
        return [(mask, x1, y1, x2, y2)]
    if template == "comb":
        masks = (mask, _other(mask)) * 2
        return [(m, x1, lo, x2, hi) for m, (lo, hi) in zip(masks, _COMB)]
    if template == "double":
        return [(mask, x1, y1, x2, y2),
                (_other(mask), x2 + gap, y1, x2 + gap + 32, y2)]
    return [(mask, x1, y1, x2, y2), (mask, x2, 272, x2 + 96, 304)]


def _stratified(rng: random.Random, values, n: int) -> list:
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def dense_lef(seed: int, n: int) -> str:
    """n single-height cells with 10 to 16 M1 shapes each, both masks, edge
    bars 16 to 40 DBU from the cell edges and touching jogs. Abutment
    produces SpacingSameMask and Hotspot violations under Option I and
    OddCycle violations under Option II; no cell is dirty on its own."""
    rng = random.Random(f"dense:{seed}")
    sides = [
        list(zip(_stratified(rng, _TEMPLATES, n),
                 _stratified(rng, _DENSE_D, n),
                 _stratified(rng, ("E1", "E2"), n),
                 _stratified(rng, _DENSE_GAPS, n)))
        for _ in range(2)]
    cells = []
    for i in range(n):
        width = SITE_WIDTH * rng.randint(96, 108)
        shapes = []
        for side, (template, d, mask, gap) in enumerate(
                (sides[0][i], sides[1][i])):
            for m, x1, y1, x2, y2 in _edge_shapes(template, d, mask, gap,
                                                  rng.choice((0, 8, 16))):
                if side == 1:
                    x1, x2 = width - x2, width - x1
                shapes.append((m, x1, y1, x2, y2))
        mid = width // 2
        for x1, x2 in ((_INTERIOR_X, mid - 48),
                       (mid + 48, width - _INTERIOR_X)):
            mask = rng.choice(("E1", "E2"))
            for k in range(4):
                y = 48 + 128 * k + rng.choice((0, 8))
                shapes.append((mask, x1, y, x2, y + 32))
        cells.append((f"DN{i:04d}", width, ROW_HEIGHT, shapes))
    return _lef(f"dense{seed}", cells)
