"""Smoke test of the benchmark harness: one short run of each workload
(probe, fill, sphere and integral, the last one the Smith normal form path)
must check out, so every call the benchmark makes into bnsr runs here.

Only correctness is asserted; timings depend on the host and are not read.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["probe", "fill", "sphere", "integral"])
def test_bench_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
