"""The benchmark runs against the package in this checkout.

``bench/`` imports package names and passes keywords that no other caller
uses, so a rename there would otherwise first show as a failed benchmark
run.  Each case runs one workload for a moment, writing no bytecode, so
nothing lands under ``bench/``, and pins the traced closure-split count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Calls of certify.closure_split in one traced round: resolvable_probe makes
# one per window, 24 images x 255 windows in certify-batch and 12 trials x
# 15 windows in check's lab-resolvability; the other workloads probe none.
CLOSURE_SPLITS = {"check": 180, "certify-batch": 6120, "trace-deep": 0, "witness-roundtrip": 0}


@pytest.mark.parametrize("workload", list(CLOSURE_SPLITS))
def test_workload_runs(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0.01", "--trace", "1"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] > 0 and result["failed"] == 0
    splits = result["metrics"]["certify.closure_splits"]["value"]
    assert splits == CLOSURE_SPLITS[workload]
