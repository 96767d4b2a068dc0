"""Attribute violations back to abutment seams and render the outputs.

Every violation whose bounding box falls inside a +/-window band around a
seam of its own case is charged to that seam; anything else lands in the
residual bucket (which should stay empty when cells are clean standalone).
Writes an SVG neighborhood for the first violation.
"""

import pathlib

from seamcheck import DptOption, case_layout, parse_library, parse_rules, \
    render_svg, run_all, seams_per_violation

TESTDATA = pathlib.Path(__file__).resolve().parent.parent / "testdata"
OUT = pathlib.Path(__file__).resolve().parent / "out"

WINDOW = 200


def main() -> None:
    rules = parse_rules((TESTDATA / "rules.yaml").read_text())
    library = parse_library((TESTDATA / "seamdemo.lef").read_text())
    seamy = run_all(library, rules, DptOption.OPTION_I)
    seams = seams_per_violation(seamy.violations, seamy.cases,
                                seamy.floorplan, WINDOW)
    print(f"{library.name} option I: "
          f"{len(seamy.violations)} violations, "
          f"{seams.count([])} residual (not near any seam)")
    for v, near in zip(seamy.violations, seams):
        print(f"  {v.kind.value} on {v.layer} at {tuple(v.bbox)}")
        module = seamy.cases[v.case_index].module_name
        for s in near:
            print(f"    {module} seam@{s.x} {s.left[0]}:{s.left[1].value}"
                  f"|{s.right[0]}:{s.right[1].value}")

    v = seamy.violations[0]
    layout = case_layout(v.case_index, seamy.cases, seamy.floorplan,
                         rules, seamy.option)
    svg = render_svg(layout, v.bbox, margin=WINDOW,
                     seam_xs=tuple(s.x for s in seams[0]))
    OUT.mkdir(exist_ok=True)
    target = OUT / f"{v.kind.value.lower()}_case{v.case_index}.svg"
    target.write_text(svg)
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
