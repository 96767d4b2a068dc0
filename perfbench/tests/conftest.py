"""Make the benchmark modules and the seamcheck sources importable, and
run each test from the repository root, where the benchmark expects to
be started."""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def at_repo_root(monkeypatch, tmp_path):
    import run

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
