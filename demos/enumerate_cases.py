"""Enumerate the reduced abutment testcase set for a library.

Walks the generated cases, shows how each one lays cells side by side so
that every distinct left|right boundary topology appears at least once,
and confirms completeness with the built-in coverage check. Ends with the
count formula: the reduced scheme needs 4N + 5*N*(N-1)/2 placements for N
single-height cells versus 8N + 8*N*(N-1) for one-pair-per-placement
enumeration.
"""

import pathlib

from seamcheck import coverage_check, enumerate_library, expected_count, \
    parse_library

TESTDATA = pathlib.Path(__file__).resolve().parent.parent / "testdata"


def main() -> None:
    library = parse_library((TESTDATA / "mixed.lef").read_text())
    cases = enumerate_library(library)

    print(f"{library.name}: {len(library.cells)} cells -> "
          f"{len(cases)} cases")
    for case in cases:
        print(f"\n{case.module_name} [{case.kind.name}] "
              f"{case.width} x {case.height_rows} row(s)")
        for p in case.placements:
            print(f"  {p.instance_name}: {p.cell_ref} at {p.origin} "
                  f"{p.orientation.value}")
        for seam in case.seams:
            left = f"{seam.left[0]}:{seam.left[1].value}"
            right = f"{seam.right[0]}:{seam.right[1].value}"
            print(f"  seam x={seam.x} rows 0..{case.height_rows - 1} "
                  f"{left} | {right}")

    report = coverage_check(cases, library)
    print(f"\ncoverage: {report.universe - len(report.missing)} of "
          f"{report.universe} boundary classes, complete={report.complete}")

    total = sum(len(c.placements) for c in cases)
    print(f"total placements: {total}")

    print("\nplacement counts, reduced vs one-pair-per-placement:")
    print(f"{'N':>6} {'reduced':>12} {'conventional':>14} {'ratio':>7}")
    for n in (1, 2, 41, 108, 1000):
        a = expected_count(n, "proposed")
        b = expected_count(n, "conventional")
        print(f"{n:>6} {a:>12} {b:>14} {b / a:>7.2f}")


if __name__ == "__main__":
    main()
