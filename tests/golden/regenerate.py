"""Rewrite the golden count ledger ``tests/golden/*.csv`` from the current
code.

The ledger holds the iteration count and termination of every solve that
the session studies of ``tests/test_acceptance.py`` run: the laminate and
cosine sweeps, the motivating cascade, smooth versus sharp, and the
per-record counts, status and step count of the criterion-9 topology
optimization.  ``test_golden_count_ledger`` compares them exactly.  A
change that moves a count must say so and justify it; regenerate only
then, and commit the new files with it.

Run from the repository root::

    python tests/golden/regenerate.py
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    env = dict(os.environ, JFFT_REGENERATE_GOLDEN="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    sys.exit(subprocess.call(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", "test_golden_count_ledger"],
        cwd=ROOT, env=env))
