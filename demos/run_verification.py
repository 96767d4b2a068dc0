"""Run the full verification pipeline on two libraries.

seamdemo has cells that are clean standalone but collide at mirrored
seams; under option I (fixed colors from the library) the collisions show
up as same-mask spacing hits plus a lithography hotspot, while option II
(recolor from scratch) finds a legal assignment and everything passes.
oddcycle instead builds a three-shape conflict triangle across a seam, so
no two-coloring exists and option II reports an odd cycle.
"""

import pathlib

from seamcheck import DptOption, parse_library, parse_rules, run_all

TESTDATA = pathlib.Path(__file__).resolve().parent.parent / "testdata"


def report(path: pathlib.Path, rules) -> None:
    library = parse_library(path.read_text())
    print(f"=== {library.name} ===")
    for option in (DptOption.OPTION_I, DptOption.OPTION_II):
        result = run_all(library, rules, option)
        counts = {k: n for k, n in result.counts_by_kind().items() if n}
        print(f"option {option.value}: "
              f"{len(result.cases)} cases, "
              f"drc={result.drc_count} drc+={result.drcplus_count} "
              f"{counts or 'clean'}")
        for v in result.violations:
            print(f"  case {v.case_index}: {v.kind.value} on {v.layer} "
                  f"at {tuple(v.bbox)} shapes {v.shape_ids}"
                  + (f" pattern {v.pattern_name}" if v.pattern_name else ""))
        if result.recolor_diff:
            print(f"  recolored shapes per instance: {result.recolor_diff}")
    print()


def main() -> None:
    rules = parse_rules((TESTDATA / "rules.yaml").read_text())
    for name in ("seamdemo.lef", "oddcycle.lef", "clean.lef"):
        report(TESTDATA / name, rules)


if __name__ == "__main__":
    main()
