"""Shared fixtures and synthetic-library builders for the test suite."""

import pathlib

import pytest

from seamcheck import (
    CellLibrary,
    CellProfile,
    ColoredRect,
    Mask,
    Rect,
    RuleDeck,
    enumerate_library,
    parse_library,
    parse_rules,
)

TESTDATA = pathlib.Path(__file__).resolve().parent.parent / "testdata"


def read_testdata(name: str) -> str:
    return (TESTDATA / name).read_text(encoding="utf-8")


# A one-cell library whose only metal is a pin: an M1_E1 port rect 4 DBU
# inside the left edge. Its A-A case puts two such rects 8 DBU apart.
PIN_ONLY_LEF = """\
LIBRARY pinonly ;
SITE core SIZE 0.008 BY 0.576 ;
MACRO PINV
  SIZE 0.2 BY 0.576 ;
  PIN A
    PORT
      LAYER M1_E1 ;
      RECT 0.004 0.1 0.036 0.476 ;
    END
  END A
END PINV
END LIBRARY
"""


@pytest.fixture(scope="session")
def demo_rules() -> RuleDeck:
    return parse_rules(read_testdata("rules.yaml"))


@pytest.fixture(scope="session")
def seam_library() -> CellLibrary:
    return parse_library(read_testdata("seamdemo.lef"))


@pytest.fixture(scope="session")
def clean_library() -> CellLibrary:
    return parse_library(read_testdata("clean.lef"))


@pytest.fixture(scope="session")
def mixed_library() -> CellLibrary:
    return parse_library(read_testdata("mixed.lef"))


@pytest.fixture(scope="session")
def odd_library() -> CellLibrary:
    return parse_library(read_testdata("oddcycle.lef"))


ROW_HEIGHT = 576
SITE_WIDTH = 8
# A library with no cells: the grid that plan_floorplan packs on when a
# test hands it cases of its own making.
GRID = CellLibrary("grid", ROW_HEIGHT, SITE_WIDTH, ())


def synth_cell(index: int, height_rows: int = 1, with_shape: bool = True) -> CellProfile:
    """Deterministic single cell for synthetic libraries.

    Widths land on the site grid and vary with the index so histograms
    are not degenerate. The optional shape is a centered vertical bar
    that keeps a wide margin to every cell edge, so abutting synthetic
    cells stay clean under the demo rule deck.
    """
    width = SITE_WIDTH * (20 + (index * 7) % 11)
    height = ROW_HEIGHT * height_rows
    shapes = ()
    if with_shape:
        mid = width // 2
        bar = Rect(mid - 16, 96, mid + 16, height - 96)
        shapes = (ColoredRect("M1", Mask.E1 if index % 2 else Mask.E2, bar),)
    return CellProfile(
        name=f"SC{index:04d}",
        width=width,
        height=height,
        height_rows=height_rows,
        shapes=shapes,
    )


def last_case(*cells: CellProfile):
    """The last case enumerate_library builds for a library of exactly
    these cells: the A-A case of one cell, the pair case of two."""
    return enumerate_library(
        CellLibrary("cases", ROW_HEIGHT, SITE_WIDTH, cells))[-1]


def synth_library(
    n: int,
    name: str = "synth",
    multi_every: int = 0,
    with_shapes: bool = True,
) -> CellLibrary:
    """Library of n deterministic cells; every multi_every-th cell is 2 rows."""
    cells = []
    for i in range(n):
        rows = 2 if multi_every and i % multi_every == multi_every - 1 else 1
        cells.append(synth_cell(i, height_rows=rows, with_shape=with_shapes))
    return CellLibrary(name=name, row_height=ROW_HEIGHT, site_width=SITE_WIDTH, cells=tuple(cells))


def synth_lef(n: int, name: str = "synth", multi_every: int = 0) -> str:
    """Library-file text equivalent of synth_library(..., with_shapes=True)."""
    lines = [f"LIBRARY {name} ;", "SITE core SIZE 0.008 BY 0.576 ;", ""]
    lib = synth_library(n, name=name, multi_every=multi_every)
    for cell in lib.cells:
        lines.append(f"MACRO {cell.name}")
        lines.append(f"  SIZE {cell.width / 1000} BY {cell.height / 1000} ;")
        lines.append("  OBS")
        for shape in cell.shapes:
            suffix = f"_{shape.mask.value}" if shape.mask is not Mask.NONE else ""
            r = shape.rect
            lines.append(
                f"    LAYER {shape.layer}{suffix} ;"
            )
            lines.append(
                f"    RECT {r.x1 / 1000} {r.y1 / 1000} {r.x2 / 1000} {r.y2 / 1000} ;"
            )
        lines.append("  END")
        lines.append(f"END {cell.name}")
        lines.append("")
    lines.append("END LIBRARY")
    return "\n".join(lines) + "\n"
