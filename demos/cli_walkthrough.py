"""Drive the four CLI subcommands end to end in a scratch directory.

Equivalent shell session:

    seamcheck profile  --libs testdata/seamdemo.lef --out work
    seamcheck generate --libs testdata/seamdemo.lef --rules testdata/rules.yaml --out work
    seamcheck verify   --libs testdata/seamdemo.lef --rules testdata/rules.yaml --out work
    seamcheck report   --out work
"""

import json
import pathlib
import tempfile

from seamcheck.cli import main as cli

TESTDATA = pathlib.Path(__file__).resolve().parent.parent / "testdata"
LIB = str(TESTDATA / "seamdemo.lef")
RULES = str(TESTDATA / "rules.yaml")


def run(argv: list[str]) -> int:
    print(f"$ seamcheck {' '.join(argv)}")
    code = cli(argv)
    print(f"(exit {code})\n")
    return code


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp) / "work"

        run(["profile", "--libs", LIB, "--out", str(work)])
        run(["generate", "--libs", LIB, "--rules", RULES,
             "--out", str(work)])
        # Exit 1 is expected here: seamdemo is dirty under option I.
        run(["verify", "--libs", LIB, "--rules", RULES,
             "--out", str(work)])
        run(["report", "--out", str(work)])

        print("files produced:")
        for p in sorted(work.rglob("*")):
            if p.is_file():
                print(f"  {p.relative_to(work)}  ({p.stat().st_size} bytes)")

        results = json.loads((work / "results.json").read_text())
        print("\nresults.json runs:")
        for lib in results["libraries"]:
            for entry in lib["runs"]:
                print(f"  {lib['name']} option {entry['option']}: "
                      f"drc={entry['drc']} drcplus={entry['drcplus']} "
                      f"seam_attributed={entry['seam_attributed']} "
                      f"residual={entry['residual']}")


if __name__ == "__main__":
    main()
