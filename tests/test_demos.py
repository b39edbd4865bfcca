import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


# sha256 of the stdout of the demos that print only integers and rounded values
PINNED_STDOUT = {
    "01_reference_lattice": "ce63f6564cd61764eddc34fccb2f17d442fb0e306a92b5619f68085632610553",
    "03_adaptation_engine": "6c0facb56ea11c215dad8526a4736d991a5671062cfc5e427911fe8cae1a0c92",
}


@pytest.mark.parametrize("demo", sorted((REPO / "demos").glob("0*.py")), ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    # demo 05 writes results/ relative to the working directory
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if demo.stem in PINNED_STDOUT:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED_STDOUT[demo.stem]
