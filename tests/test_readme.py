"""The README's quick-starts run as printed, and its constants are the code's."""

import re
from pathlib import Path

from machfv import flux, stepper
from machfv.driver import load_run_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:quick-start", "exec"), {})


def test_cli_quick_start_config_loads(tmp_path):
    blocks = re.findall(r"^```ini\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    path = tmp_path / "vortex.ini"
    path.write_text(blocks[0])
    cfg = load_run_config(path)
    assert (cfg.nx, cfg.ny, cfg.params.eps) == (64, 64, 0.01)


def test_readme_states_the_scheme_constants():
    text = README.read_text()
    for module, name in ((stepper, "ETA_SAFETY"), (stepper, "CFL_SAFETY"),
                         (stepper, "BETA"), (stepper, "DT_MAX"),
                         (stepper, "NEWTON_TOL"), (stepper, "NEWTON_MAX_ITER"),
                         (flux, "VISCOUS_SCALE")):
        assert f"`{name} = {getattr(module, name)!r}`" in text, name
