import os
import subprocess
import sys
from pathlib import Path

import pytest

import wellscape

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_fields_and_energies.py", "02_branched_seed.py",
                                  "03_cheap_nucleation.py", "04_potential_sequence.py",
                                  "05_inequality_checks.py", "06_critical_depth.py"])
def test_demo_runs(tmp_path, name):
    src = os.path.dirname(os.path.dirname(wellscape.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                         text=True, env=env, cwd=tmp_path, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout
