"""The benchmark's traced mode against the program's current names.

``perfbench/tracing.py`` wraps functions by the names their callers look
them up by (``runner.maintain``, ``simulate.active_set``, ...) and reads
fields such as ``RunRecord.generations``; a renamed one shows up only in
traced rounds, which then count as failed. One short traced round per
workload runs on a copy of ``perfbench/`` and ``src/``, so its trace file
stays out of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["desk_maf1", "many_dtlz2", "scenario_study"])
def test_traced_round_is_correct(tmp_path, workload):
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
