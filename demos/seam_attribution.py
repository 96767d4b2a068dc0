"""Attribute violations back to abutment seams and render the outputs.

Every violation whose bounding box falls inside a +/-window band around a
seam of its own case is charged to that seam; anything else lands in the
residual bucket (which should stay empty when cells are clean standalone).
Writes an SVG neighborhood for the first violation.
"""

import pathlib

from seamcheck import DptOption, attribute_to_seams, case_layout, \
    parse_library, parse_rules, render_svg, run_all

TESTDATA = pathlib.Path(__file__).resolve().parent.parent / "testdata"
OUT = pathlib.Path(__file__).resolve().parent / "out"

WINDOW = 200


def main() -> None:
    rules = parse_rules((TESTDATA / "rules.yaml").read_text())
    library = parse_library((TESTDATA / "seamdemo.lef").read_text())
    seamy = run_all(library, rules, DptOption.OPTION_I)
    reports, residual = attribute_to_seams(
        seamy.violations, seamy.cases, seamy.floorplan, WINDOW)
    print(f"{seamy.library.name} option I: "
          f"{len(seamy.violations)} violations, "
          f"{len(residual)} residual (not near any seam)")
    for rep in reports:
        s = rep.seam
        print(f"  {s.module} seam@{s.x} "
              f"{s.left[0]}:{s.left[1]}|{s.right[0]}:{s.right[1]}")
        for v in rep.violations:
            print(f"    {v.kind.value} on {v.layer} at {tuple(v.bbox)}")

    v = seamy.violations[0]
    layout = case_layout(v.case_index, seamy.cases, seamy.library,
                         seamy.floorplan, rules, seamy.option)
    svg = render_svg(layout, v, margin=WINDOW,
                     seams=[r.seam for r in reports
                            if r.seam.case_index == v.case_index])
    OUT.mkdir(exist_ok=True)
    target = OUT / f"{v.kind.value.lower()}_case{v.case_index}.svg"
    target.write_text(svg)
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
