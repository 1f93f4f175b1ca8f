"""The README's quick-starts run as printed, and its constants and API
signatures are the code's."""

import inspect
import re
from pathlib import Path

import machfv
from machfv import cases, driver, flux, stepper
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
                         (stepper, "MAX_DT_HALVINGS"),
                         (stepper, "NEWTON_TOL"), (stepper, "NEWTON_MAX_ITER"),
                         (stepper, "LINEAR_MAX_ITER"),
                         (flux, "VISCOUS_SCALE"), (cases, "CENTER"), (cases, "R1"),
                         (cases, "R2"), (cases, "AMPLITUDE"),
                         (driver, "PEAK_DENSITY_MAX")):
        assert f"`{name} = {getattr(module, name)!r}`" in text, name


def test_readme_api_signatures_are_real():
    # `name(a, b, ...)` with bare identifiers as arguments, possibly wrapped
    # over lines, is a signature; call examples such as
    # `RunConfig(output_every=0)` and maths such as `O(eps^2)` or `P(rho)`
    # (capitalised or with non-identifier arguments) are not.
    found = {}
    for name, args in re.findall(r"`([a-z_]\w*)\(([^`()]*)\)`", README.read_text()):
        args = [arg.strip() for arg in args.split(",")]
        if all(re.fullmatch(r"[A-Za-z_]\w*", arg) for arg in args):
            found[name] = args
    assert {"update_density", "update_velocity", "moving_vortex"} <= set(found)
    for name, args in found.items():
        assert hasattr(machfv, name), name
        params = list(inspect.signature(getattr(machfv, name)).parameters)
        assert params[:len(args)] == args, (name, params)
