"""The benchmark's own output checks, run as tests.

`bench/run.py --trace 1` fails an operation when a traced span it expects
stays silent, when `detect.nms` stops keeping the detections
`greedy_nms_oracle` keeps, or when mAP falls under its floor; it reports them
in the last JSON line of its output.  Each workload runs once for one second
in a child process from the root of the checkout (about 7 s each on a 2-core
host); `bench/` and `tests/_oracles.py` are only read.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["train", "eval-long"])
def test_traced_benchmark_run_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout
