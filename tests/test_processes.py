"""Behaviour that only a fresh interpreter shows: what importing the
package loads, and outputs that must not depend on the hash seed."""

import os
import subprocess
import sys

from conftest import TESTDATA

SRC = TESTDATA.parent / "src"
RULES = str(TESTDATA / "rules.yaml")
LIBS = [str(TESTDATA / "seamdemo.lef"), str(TESTDATA / "mixed.lef")]


def python(args, hash_seed="0"):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_network_or_mail_modules():
    # _hashlib loads OpenSSL, megabytes of a CLI child's peak RSS; the
    # input checksums in results.json use zlib, which is loaded anyway.
    heavy = ("urllib.request", "http.client", "email", "_hashlib")
    done = python(["-c", "import sys, seamcheck, seamcheck.cli\n"
                         f"print([m for m in {heavy!r} if m in sys.modules])"])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """generate, verify and report in fresh processes under two hash
    seeds write the same files, stdout and exit codes."""
    runs = []
    for seed in ("1", "2"):
        out = str(tmp_path / seed)
        steps = [
            ["generate", "--libs", *LIBS, "--rules", RULES, "--out", out],
            ["verify", "--libs", *LIBS, "--rules", RULES, "--out", out,
             "--dpt-option", "both"],
            ["report", "--out", out, "--svg-cap", "500"],
        ]
        codes = []
        for step in steps:
            done = python(["-m", "seamcheck.cli", *step], seed)
            codes.append((done.returncode, done.stdout, done.stderr))
        files = {path.relative_to(out).as_posix(): path.read_bytes()
                 for path in sorted((tmp_path / seed).rglob("*"))
                 if path.is_file()}
        runs.append((codes, files))
    assert [code for code, _, _ in runs[0][0]] == [0, 1, 0]
    assert any(name.startswith("svg/") for name in runs[0][1])
    assert runs[0] == runs[1]
