"""The benchmark under ``bench/`` calls the package by name; a name it uses
that is deleted or renamed fails here, in a short traced run of a
topology-optimization workload and of the CLI sweep workload, and in the
benchmark's self-test, on a copy of the tree."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["topopt-32", "laminate-sweep"])
def test_benchmark_runs_on_this_source(workload, tmp_path):
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def run(*args):
        return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)

    out = run("bench/run.py", "--workload", workload, "--seed", "1",
              "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["correct"] is True, out.stderr
    assert report["failed"] == 0

    out = run("bench/selftest.py")
    assert out.returncode == 0, out.stdout + out.stderr
