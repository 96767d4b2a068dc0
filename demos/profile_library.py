"""Parse a cell library and print its population profile.

The library text uses the macro/pin/obstruction subset described in the
README. A layer's mask suffix (M1_E1, M1_E2) is its pre-assigned color.
Each cell keeps one list of checked shapes: its OBS rects, then each pin
port rect that does not repeat one of them.
"""

import pathlib

from seamcheck import parse_library, profile

TESTDATA = pathlib.Path(__file__).resolve().parent.parent / "testdata"


def show(path: pathlib.Path) -> None:
    library = parse_library(path.read_text())
    stats = profile(library)

    print(f"library {library.name!r} from {path.name}")
    print(f"  row height  {library.row_height} dbu")
    print(f"  site width  {library.site_width} dbu")
    print(f"  cells       {stats.total} "
          f"({stats.n_single} single-height, {stats.n_multi} multi-height)")

    print("  width histogram (dbu -> cells):")
    for width, count in stats.width_hist.items():
        print(f"    {width:6d}  {'#' * count} {count}")

    print("  height histogram (rows -> cells):")
    for rows, count in stats.height_rows_hist.items():
        print(f"    {rows:6d}  {'#' * count} {count}")

    for cell in library.cells:
        n_shapes = len(cell.shapes)
        masks = sorted({s.mask.value for s in cell.shapes})
        print(f"  {cell.name}: {cell.width} x {cell.height_rows} row(s), "
              f"{n_shapes} checkable shape(s), masks {masks}")
    print()


if __name__ == "__main__":
    for name in ("seamdemo.lef", "mixed.lef"):
        show(TESTDATA / name)
