"""Self-test of the benchmark: `python -m pytest bench/test_bench.py`."""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_smoke():
    """Every workload path at toy sizes: each metric printed by name with its
    unit, stored digests checked, and a corrupted output counted as failed."""
    r = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True, text=True,
                       timeout=600)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().endswith("smoke: ok")
