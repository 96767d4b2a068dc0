"""Checks on the files each seamcheck command writes.

Every check returns a list of problems (empty when the output is right)
plus the facts that the stored reference of the default seed pins down.
Invariants hold for any seed; the reference comparison only for the seed
the reference was recorded with.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

OPTIONS = ("I", "II")


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8")), None
    except (OSError, ValueError) as exc:
        return None, f"cannot read {path.name}: {exc}"


def check_verify(out: Path, clean: bool) -> tuple[list[str], dict]:
    """results.json, the JSONL files and summary.txt of one library
    verified under both options; ``clean`` demands zero violations.
    Returns the nonzero violation counts by option and kind."""
    payload, err = _load_json(out / "results.json")
    if err:
        return [err], {}
    problems: list[str] = []
    libraries = payload.get("libraries", [])
    if len(libraries) != 1:
        return [f"expected one library, got {len(libraries)}"], {}
    entry = libraries[0]
    runs = {run["option"]: run for run in entry["runs"]}
    if sorted(runs) != sorted(OPTIONS):
        return [f"expected options I and II, got {sorted(runs)}"], {}
    counts = {}
    for option, run in sorted(runs.items()):
        total = run["drc"] + run["drcplus"]
        counts[option] = {k: v for k, v in run["counts"].items() if v}
        if run["seam_attributed"] + run["residual"] != total:
            problems.append(
                f"option {option}: seam_attributed {run['seam_attributed']} "
                f"+ residual {run['residual']} != drc + drcplus {total}")
        if len(run["violations"]) != total or sum(
                run["counts"].values()) != total:
            problems.append(f"option {option}: violation records and counts "
                            f"disagree with drc + drcplus {total}")
        jsonl = out / f"violations_{entry['name']}_opt{option}.jsonl"
        try:
            lines = jsonl.read_text(encoding="utf-8").count("\n")
        except OSError as exc:
            problems.append(f"cannot read {jsonl.name}: {exc}")
        else:
            if lines != total:
                problems.append(f"{jsonl.name}: {lines} lines, expected "
                                f"{total}")
        if clean and total:
            problems.append(f"option {option}: {total} violations on a "
                            f"library that is clean by construction")
    if not (out / "summary.txt").is_file():
        problems.append("summary.txt missing")
    return problems, counts


def check_report(out: Path, svg_cap: int) -> list[str]:
    """One SVG per violation up to the cap, per option."""
    payload, err = _load_json(out / "results.json")
    if err:
        return [err]
    expected = sum(min(svg_cap, len(run["violations"]))
                   for entry in payload["libraries"] for run in entry["runs"])
    svg_dir = out / "svg"
    found = len(list(svg_dir.glob("*.svg"))) if svg_dir.is_dir() else 0
    if found != expected:
        return [f"{found} SVG files, expected {expected}"]
    return []


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_generate(out: Path, n: int) -> tuple[list[str], dict]:
    """Manifest, DEF and Verilog of one n-cell single-height library:
    4n + 5n(n-1)/2 placements in n(n+1)/2 cases with complete coverage.
    Returns placements, coverage and the SHA-256 of DEF and Verilog."""
    manifests = sorted(out.glob("manifest_*.json"))
    if len(manifests) != 1:
        return [f"expected one manifest, found {len(manifests)}"], {}
    manifest, err = _load_json(manifests[0])
    if err:
        return [err], {}
    library = manifest.get("library")
    problems = []
    placements = 4 * n + 5 * n * (n - 1) // 2
    cases = n * (n + 1) // 2
    for key, want in (("placements", placements),
                      ("expected_placements", placements),
                      ("cases", cases), ("matches_expected", True),
                      ("coverage_complete", True)):
        if manifest.get(key) != want:
            problems.append(f"manifest {key} = {manifest.get(key)!r}, "
                            f"expected {want!r}")
    def_path = out / f"testcases_{library}.def"
    v_path = out / f"testcases_{library}.v"
    try:
        def_text = def_path.read_text(encoding="utf-8")
        v_text = v_path.read_text(encoding="utf-8")
    except OSError as exc:
        return problems + [f"cannot read DEF or Verilog: {exc}"], {}
    m = re.search(r"^COMPONENTS (\d+) ;$", def_text, re.M)
    if m is None or int(m.group(1)) != placements:
        problems.append(f"DEF COMPONENTS {m and m.group(1)}, expected "
                        f"{placements}")
    modules = len(re.findall(r"^module ", v_text, re.M))
    if modules != cases + 1:
        problems.append(f"Verilog has {modules} modules, expected "
                        f"{cases + 1}")
    facts = {"placements": manifest.get("placements"),
             "coverage_classes": manifest.get("coverage_classes"),
             "coverage_complete": manifest.get("coverage_complete"),
             "def_sha256": _sha256(def_path),
             "verilog_sha256": _sha256(v_path)}
    return problems, facts


def compare_reference(facts: dict, reference: dict | None) -> list[str]:
    """Differences between measured facts and the stored reference."""
    if reference is None:
        return []
    return [f"{key} = {facts.get(key)!r}, reference {want!r}"
            for key, want in sorted(reference.items())
            if facts.get(key) != want]
