"""Each walkthrough in demos/ runs to completion and prints exactly its
recorded output, ``tests/golden/demos/<name>.txt``.

The Hecke walkthrough prints the whole ``dump()`` of a formal sum, so its
fixture is a byte-level record of coset keys and values.  Rewrite the
fixtures (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
GOLDEN_DEMOS = os.path.join(ROOT, "tests", "golden", "demos")


def fixture_path(path):
    return os.path.join(GOLDEN_DEMOS, os.path.basename(path)[:-3] + ".txt")


def run_demo(path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, path], capture_output=True, env=env, timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr.decode()
    with open(fixture_path(path), "rb") as fh:
        assert proc.stdout == fh.read()
