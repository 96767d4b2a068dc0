"""Emit a Verilog netlist and a DEF placement for the generated cases,
then parse the DEF back and confirm the round trip is exact."""

import pathlib

from seamcheck import emit_def, emit_verilog, enumerate_library, parse_def, \
    parse_library, parse_rules, plan_floorplan, render_def

TESTDATA = pathlib.Path(__file__).resolve().parent.parent / "testdata"
OUT = pathlib.Path(__file__).resolve().parent / "out"


def main() -> None:
    library = parse_library((TESTDATA / "seamdemo.lef").read_text())
    rules = parse_rules((TESTDATA / "rules.yaml").read_text())

    cases = enumerate_library(library)
    floorplan = plan_floorplan(cases, library, rules)
    print(f"{len(cases)} cases packed into die {tuple(floorplan.die_area)} "
          f"with case gap {floorplan.case_gap} dbu")

    verilog = emit_verilog(cases)
    def_text = emit_def(cases, floorplan)

    OUT.mkdir(exist_ok=True)
    (OUT / "cases.v").write_text(verilog)
    (OUT / "cases.def").write_text(def_text)
    print(f"wrote {OUT / 'cases.v'} ({len(verilog)} bytes)")
    print(f"wrote {OUT / 'cases.def'} ({len(def_text)} bytes)")

    print("\nfirst lines of the netlist:")
    for line in verilog.splitlines()[:8]:
        print(f"  {line}")

    print("\nfirst placements in the DEF:")
    for line in def_text.splitlines():
        if line.startswith("- "):
            print(f"  {line}")
    design = parse_def(def_text)

    # Byte-identical round trip: parse, then re-render from parsed data.
    again = render_def(design.placements, design.die_area, design.name)
    assert again == def_text
    print(f"\nparsed {len(design.placements)} placements back; "
          "re-rendered DEF is byte-identical")


if __name__ == "__main__":
    main()
