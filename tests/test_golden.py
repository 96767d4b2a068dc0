"""Golden outputs: ``verify --dpt-option both``, ``report --svg-cap 500``
and ``generate`` on every ``testdata/*.lef`` must give the exit codes,
the stdout and the files recorded in ``golden_outputs.json`` (SHA-256 of
each file under ``--out``). The determinism criterion compares two runs
of one build; this test compares a build with the recorded outputs.

A change that means to alter an output re-records them from the
repository root with ``PYTHONPATH=src python tests/test_golden.py`` and
says why in its change log.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from seamcheck.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_outputs.json"
LIBS = sorted(p.name for p in (REPO / "testdata").glob("*.lef"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(lib: str, out: pathlib.Path) -> dict:
    """Run the three commands on ``testdata/<lib>`` from the repository
    root, with repo-relative paths because ``results.json`` and the
    manifest record them, and digest what they wrote."""
    lef, rules = f"testdata/{lib}", "testdata/rules.yaml"
    argvs = [
        ["verify", "--libs", lef, "--rules", rules, "--out", str(out),
         "--dpt-option", "both"],
        ["report", "--out", str(out), "--svg-cap", "500"],
        ["generate", "--libs", lef, "--rules", rules, "--out", str(out)],
    ]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(stdout):
            codes = [main(argv) for argv in argvs]
    finally:
        os.chdir(cwd)
    files = {p.relative_to(out).as_posix(): _sha256(p.read_bytes())
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit_codes": codes,
            "stdout_sha256": _sha256(stdout.getvalue().encode("utf-8")),
            "files_sha256": files}


def test_golden_file_covers_every_testdata_library():
    assert sorted(json.loads(GOLDEN.read_text())) == LIBS


@pytest.mark.parametrize("lib", LIBS)
def test_outputs_match_golden(lib, tmp_path):
    golden = json.loads(GOLDEN.read_text())[lib]
    got = run_commands(lib, tmp_path / "out")
    assert got["exit_codes"] == golden["exit_codes"]
    assert got["stdout_sha256"] == golden["stdout_sha256"]
    assert sorted(got["files_sha256"]) == sorted(golden["files_sha256"])
    changed = [name for name, digest in got["files_sha256"].items()
               if golden["files_sha256"][name] != digest]
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {lib: run_commands(lib, pathlib.Path(tmp) / lib)
                  for lib in LIBS}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"recorded {sum(len(r['files_sha256']) for r in record.values())} "
          f"file digests for {len(LIBS)} libraries in {GOLDEN}")
