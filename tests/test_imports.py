"""Importing the package loads numpy only; scipy stays an on-demand oracle."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import machfv, machfv.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import machfv.stepper
print(json.dumps({"scipy_at_import": loaded,
                  "spsolve": callable(machfv.stepper.spla.spsolve),
                  "sparse": machfv.stepper.sp.__name__}))
"""


def test_import_loads_no_scipy_and_spla_resolves_on_demand():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    found = json.loads(out.stdout.strip().splitlines()[-1])
    assert found["scipy_at_import"] == []
    assert found["spsolve"] is True
    assert found["sparse"] == "scipy.sparse"
