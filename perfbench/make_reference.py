#!/usr/bin/env python3
"""Record the output facts of the default seed in reference.json.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/make_reference.py

The benchmark then compares every default-seed run against these facts:
violation counts by kind and option, manifest placements and coverage,
and the SHA-256 of the DEF and Verilog.
"""

import json
import sys

import run


def main() -> int:
    reference = {}
    for name, workload in run.WORKLOADS.items():
        paths = run.prepare(name, workload, run.DEFAULT_SEED, trace=False)
        tally = run.Tally()
        run._child_pass(workload, paths, None, tally)
        if tally.failed:
            print(f"{name}: outputs fail their invariants", file=sys.stderr)
            return 1
        reference[name] = {
            step: facts for step in workload.steps
            if (facts := run._check_step(step, workload, paths, None)[1])}
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
