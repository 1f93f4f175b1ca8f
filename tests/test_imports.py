"""Importing the package and running a case load numpy only, never scipy."""

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
                  "spsolve": callable(machfv.stepper.spla.spsolve)}))
"""


def test_import_loads_no_scipy_and_spla_resolves_on_demand():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    found = json.loads(out.stdout.strip().splitlines()[-1])
    assert found["scipy_at_import"] == []
    assert found["spsolve"] is True


# Every scipy import raises, as on an install without scipy.
RUN_WITHOUT_SCIPY = """
import json, sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
from machfv.cli import main
code = main(["run", "--config", sys.argv[1], "--output", sys.argv[2],
             "--assert-inequalities"])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"code": code, "scipy_loaded": loaded}))
"""


def test_cli_run_with_fields_and_charts_needs_no_scipy(tmp_path):
    config = tmp_path / "vortex.ini"
    config.write_text("[run]\ncase = vortex\nnx = 16\nny = 16\ngamma = 2.0\n"
                      "eps = 1e-2\nfinal_time = 0.01\noutput_every = 1\n"
                      "emit_fields = true\nemit_svg = true\n")
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY, str(config), str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    assert found == {"code": 0, "scipy_loaded": []}
    snapshots = sorted((out / "fields").glob("step*.npy"))
    assert len(snapshots) >= 2 and snapshots[0].name == "step000000.npy"
    assert (out / "energy.svg").is_file() and (out / "ke_ratio.svg").is_file()
