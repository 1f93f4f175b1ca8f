"""Config parsing, run orchestration, file outputs, CLI exit codes."""

import io
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields, replace

import numpy as np
import pytest

from machfv import build_mesh, driver, moving_vortex, stepper
from machfv.cases import peak_density
from machfv.cli import main
from machfv.driver import (ConfigError, ConvergenceConfig, InequalityViolation,
                           RunConfig, _config_text, convergence_study, initial_state,
                           load_convergence_config, load_run_config,
                           run_case, write_field_snapshot, write_line_chart)
from machfv.stepper import SchemeParams, SolverError, State, advance

def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def good_run_ini(**overrides):
    base = {"case": "vortex", "nx": 8, "ny": 8, "gamma": 2.0, "eps": 1.0,
            "final_time": 0.01, "output_every": 3, "emit_fields": "true",
            "emit_svg": "true"}
    base.update(overrides)
    lines = ["[run]"] + [f"{k} = {v}" for k, v in base.items()]
    return "\n".join(lines) + "\n"


def test_load_run_config_roundtrip(tmp_path):
    path = write_config(tmp_path, good_run_ini(eps=0.25, nx=12))
    cfg = load_run_config(path)
    assert cfg.case == "vortex" and cfg.nx == 12 and cfg.ny == 8
    assert cfg.params.eps == 0.25 and cfg.params.gamma == 2.0
    assert cfg.output_every == 3 and cfg.emit_fields and cfg.emit_svg


@pytest.mark.parametrize("raw, value", [
    ("Yes", True), ("TRUE", True), ("On", True), ("1", True),
    ("NO", False), ("False", False), ("Off", False), ("0", False),
    ("2", None), ("maybe", None)])
def test_booleans_load_with_configparsers_spellings(tmp_path, raw, value):
    path = write_config(tmp_path, good_run_ini(emit_svg=raw))
    if value is None:
        with pytest.raises(ConfigError, match=rf"emit_svg = '{raw}': expected a boolean$"):
            load_run_config(path)
    else:
        assert load_run_config(path).emit_svg is value


def test_load_run_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="gamma must be > 1"):
        load_run_config(write_config(tmp_path, good_run_ini(gamma=0.5)))
    with pytest.raises(ConfigError, match=r"\[run\] nx"):
        load_run_config(write_config(tmp_path, good_run_ini(nx="eight")))
    path = write_config(tmp_path, good_run_ini(emit_fields="maybe"))
    with pytest.raises(ConfigError, match=r"\[run\] emit_fields = 'maybe': expected a boolean$"):
        load_run_config(path)
    assert main(["run", "--config", str(path)]) == 2
    with pytest.raises(ConfigError, match="unknown keys"):
        load_run_config(write_config(tmp_path, good_run_ini(typo=1)))
    # removed options are unknown keys, named in the error
    with pytest.raises(ConfigError, match=r"unknown keys in \[run\]: seed"):
        load_run_config(write_config(tmp_path, good_run_ini(seed=7)))
    # the controller sets eta, and the scheme's and the Newton solve's
    # constants are not settings
    for key, value in (("picard_relax", 0.5), ("eta_mode", "fixed"), ("eta_value", 7.5),
                       ("eta_safety", 1.5), ("dt_max", 0.05), ("cfl_safety", 0.8),
                       ("beta", 0.1), ("viscous_scale", 2.0), ("newton_tol", 1e-10),
                       ("newton_max_iter", 50)):
        path = write_config(tmp_path, good_run_ini(**{key: value}))
        with pytest.raises(ConfigError, match=rf"unknown keys in \[run\]: {key}$"):
            load_run_config(path)
        assert main(["run", "--config", str(path)]) == 2
    # a config is one section: the old [scheme] section is refused
    path = write_config(tmp_path, good_run_ini() + "\n[scheme]\nnewton_tol = 1e-10\n")
    with pytest.raises(ConfigError, match=r"unknown sections \[scheme\]"):
        load_run_config(path)
    assert main(["run", "--config", str(path)]) == 2
    with pytest.raises(ConfigError, match="missing \\[run\\]"):
        load_run_config(write_config(tmp_path, "[other]\nx = 1\n"))
    with pytest.raises(ConfigError, match="case"):
        load_run_config(write_config(tmp_path, good_run_ini(case="shock_tube")))
    with pytest.raises(ConfigError, match="final_time"):
        load_run_config(write_config(tmp_path, good_run_ini(final_time=-1.0)))
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "missing.ini")


def test_load_config_refuses_unknown_sections(tmp_path):
    # a misspelt section would otherwise drop every key it holds
    misspelt = "[run]\nnx = 8\n[rnu]\neps = 1e-3\n"
    with pytest.raises(ConfigError, match=r"unknown sections \[rnu\]"):
        load_run_config(write_config(tmp_path, misspelt))
    with pytest.raises(ConfigError, match=r"unknown sections \[convergence\]"):
        load_run_config(write_config(
            tmp_path, good_run_ini() + "\n[convergence]\ngrids = 8, 16\n"))
    with pytest.raises(ConfigError, match=r"unknown sections \[run\]"):
        load_convergence_config(write_config(
            tmp_path, "[convergence]\ngrids = 8, 16\n[run]\nnx = 8\n"))
    assert main(["run", "--config", str(write_config(tmp_path, misspelt))]) == 2


@pytest.mark.parametrize("command, text", [
    ("run", good_run_ini(output="elsewhere")),
    ("convergence", "[convergence]\nmode = coupled\ngrids = 4, 8\noutput = elsewhere\n")])
def test_output_is_not_a_config_key(tmp_path, capsys, monkeypatch, command, text):
    # the output directory is --output or output_dir= alone: a config that
    # named one was echoed with a path the run did not write to
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, text)
    assert main([command, "--config", str(path), "--output", str(tmp_path / "never")]) == 2
    assert capsys.readouterr().err == f"config error: unknown keys in [{command}]: output\n"
    assert not (tmp_path / "never").exists() and not (tmp_path / "elsewhere").exists()


def test_load_convergence_config_errors(tmp_path):
    def conv_ini(**overrides):
        base = {"mode": "fixed", "case": "moving_vortex", "grids": "8, 16",
                "final_time": 0.01, "gamma": 2.0, "eps": 1.0}
        base.update(overrides)
        return "[convergence]\n" + "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"

    cfg = load_convergence_config(write_config(tmp_path, conv_ini()))
    assert cfg.grids == (8, 16) and cfg.case == "moving_vortex"
    # grids need not nest: no study compares one grid with another
    assert load_convergence_config(write_config(tmp_path, conv_ini(grids="6, 12, 20"))).grids \
        == (6, 12, 20)
    with pytest.raises(ConfigError, match="increasing"):
        load_convergence_config(write_config(tmp_path, conv_ini(grids="16, 8")))
    with pytest.raises(ConfigError, match=">= 3"):
        load_convergence_config(write_config(tmp_path, conv_ini(grids="2, 8")))
    with pytest.raises(ConfigError, match=r"unknown keys in \[convergence\]: reference$"):
        load_convergence_config(write_config(tmp_path, conv_ini(reference=32)))
    with pytest.raises(ConfigError, match="mode"):
        load_convergence_config(write_config(tmp_path, conv_ini(mode="spacetime")))


def test_coupled_study_refuses_eps_and_reference(tmp_path):
    # a coupled study runs each grid at eps = h, so a file that sets eps
    # would be echoed but never used; no study has a reference grid
    base = "[convergence]\nmode = coupled\ngrids = 4, 8\nfinal_time = 0.01\n"
    for line, match in (("eps = 0.5", r"\[convergence\] eps = .* coupled mode"),
                        ("reference = 128", r"unknown keys in \[convergence\]: reference$")):
        path = write_config(tmp_path, base + line + "\n", name="coupled.ini")
        with pytest.raises(ConfigError, match=match):
            load_convergence_config(path)
        assert main(["convergence", "--config", str(path),
                     "--output", str(tmp_path / "never")]) == 2
    assert not (tmp_path / "never").exists()
    # the defaults, which the config.ini echo writes out, load back
    defaults = load_convergence_config(write_config(
        tmp_path, base + "eps = 1.0\n", name="defaults.ini"))
    assert defaults == load_convergence_config(write_config(tmp_path, base))
    echo = write_config(tmp_path, _config_text(defaults), name="echo.ini")
    assert load_convergence_config(echo) == defaults


@pytest.mark.parametrize("build", [
    lambda: RunConfig(output_every=0),
    lambda: RunConfig(final_time=0.0),
    lambda: RunConfig(case="shock_tube"),
    lambda: ConvergenceConfig(mode="bogus"),
    lambda: ConvergenceConfig(grids=()),
    lambda: ConvergenceConfig(grids=(2, 4)),
    lambda: ConvergenceConfig(grids=(0, 4)),
    lambda: ConvergenceConfig(grids=(8, 8)),
    lambda: ConvergenceConfig(mode="coupled", params=SchemeParams(eps=0.5)),
    lambda: ConvergenceConfig(mode="fixed", case="vortex"),
    lambda: ConvergenceConfig(mode="fixed", case="well_prepared", params=SchemeParams(eps=0.5)),
    lambda: RunConfig(case="moving_vortex", lx=0.7),
    lambda: ConvergenceConfig(case="moving_vortex", ly=0.79),
], ids=["output_every", "final_time", "case", "mode", "no_grids", "grid_small",
        "grid_zero", "grid_repeated", "coupled_eps", "fixed_vortex", "fixed_well_prepared",
        "moving_vortex_lx", "moving_vortex_ly"])
def test_api_refuses_what_the_loader_refuses(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("key, build", [
    ("emit_fields", lambda: RunConfig(emit_fields="false")),
    ("output_every", lambda: RunConfig(output_every=2.5)),
    ("nx", lambda: RunConfig(nx=16.0)),
    ("ny", lambda: RunConfig(ny=True)),
    ("lx", lambda: RunConfig(lx=True)),
    ("final_time", lambda: RunConfig(final_time="0.1")),
    ("case", lambda: RunConfig(case=None)),
    ("grids", lambda: ConvergenceConfig(grids=(8.0, 16))),
    ("grids", lambda: ConvergenceConfig(grids=[8, 16])),
    ("mode", lambda: ConvergenceConfig(mode=b"fixed")),
    ("gamma", lambda: SchemeParams(gamma="2")),
    ("eps", lambda: SchemeParams(eps=True)),
], ids=["bool_text", "int_fraction", "int_float", "int_bool", "float_bool", "float_text",
        "str_none", "grids_float", "grids_list", "str_bytes", "gamma_text", "eps_bool"])
def test_api_refuses_a_value_of_another_type_than_its_field(key, build):
    # each was accepted (and echoed as a config that loads differently or
    # not at all) or failed later with a TypeError; the configs name the key
    # as a ConfigError, SchemeParams as a plain ValueError
    params = key in ("gamma", "eps")
    with pytest.raises(ValueError, match=rf"^{key} must be a real number" if params
                       else rf"^\[\w+\] {key} = .*: expected ") as excinfo:
        build()
    assert isinstance(excinfo.value, ConfigError) is not params


def test_api_admits_numpy_numbers_and_an_integer_length():
    cfg = RunConfig(nx=np.int64(8), ny=np.int32(8), lx=1, final_time=np.float64(0.1),
                    params=SchemeParams(gamma=np.float32(2.0), eps=1))
    assert (cfg.nx, cfg.lx, cfg.params.eps) == (8, 1, 1)
    assert ConvergenceConfig(grids=(np.int64(4), 8)).grids == (4, 8)


@pytest.mark.parametrize("section, key, value, build", [
    ("run", "nx", 2, lambda: RunConfig(nx=2)),
    ("run", "ny", 2, lambda: RunConfig(ny=2)),
    ("run", "lx", 0, lambda: RunConfig(lx=0.0)),
    ("run", "lx", -1, lambda: RunConfig(lx=-1.0)),
    ("run", "lx", "inf", lambda: RunConfig(lx=np.inf)),
    ("run", "ly", "nan", lambda: RunConfig(ly=np.nan)),
    ("run", "final_time", "inf", lambda: RunConfig(final_time=np.inf)),
    ("run", "eps", "inf", lambda: SchemeParams(eps=np.inf)),
    ("run", "gamma", "inf", lambda: SchemeParams(gamma=np.inf)),
    ("run", "eps", "1e-200", lambda: SchemeParams(eps=1e-200)),
    ("run", "eps", "1e200", lambda: SchemeParams(eps=1e200)),
    ("run", "gamma", "1.001", lambda: RunConfig(params=SchemeParams(gamma=1.001))),
    ("run", "gamma", "1e300", lambda: RunConfig(params=SchemeParams(gamma=1e300))),
    ("convergence", "lx", 0, lambda: ConvergenceConfig(lx=0.0)),
    ("convergence", "final_time", "inf", lambda: ConvergenceConfig(final_time=np.inf)),
    ("convergence", "lx", "1e-300", lambda: ConvergenceConfig(lx=1e-300)),
    ("convergence", "lx", "1e300", lambda: ConvergenceConfig(lx=1e300)),
    ("run", "lx", "0.8", lambda: RunConfig(lx=0.8)),
    ("convergence", "ly", "0.85", lambda: ConvergenceConfig(ly=0.85)),
])
def test_out_of_range_values_are_refused_at_the_config_boundary(
        tmp_path, capsys, section, key, value, build):
    # each once failed late (a traceback, a solver failure) or not at all
    # (final_time = inf ran 0 steps; eps = 1e-200 divided by an eps^2 of 0;
    # eps = 1e200, and a coupled study's eps = lx / n at lx = 1e300, raised
    # OverflowError from eps ** 2; lx = 1e-300 failed at the first run; a
    # vortex cut by the periodic seam at lx = 0.8 ran as if it were whole)
    with pytest.raises(ValueError, match=key):  # ConfigError is a ValueError
        build()
    if section == "convergence":
        command = "convergence"
        text = f"[convergence]\nmode = coupled\ngrids = 4, 8\n{key} = {value}\n"
    else:
        command = "run"
        text = good_run_ini(**{key: value})
    path = write_config(tmp_path, text)
    assert main([command, "--config", str(path), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not (tmp_path / "out").exists()


def test_overflowing_initial_data_are_refused_naming_the_bound(tmp_path, capsys):
    # gamma = 1.001 overflows the printed vortex density's peak; at
    # gamma = 1e300 the peak rounds to 1, but the pressure one rounding unit
    # above it does not fit in a double.  Both once failed after the start.
    for gamma in ("1.001", "1e300"):
        path = write_config(tmp_path, good_run_ini(gamma=gamma))
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "never")]) == 2
        err = capsys.readouterr().err
        assert "peak initial density" in err and "exceeds the largest double 1.7976931348623157e+308" in err
    assert not (tmp_path / "never").exists()
    # the moving vortex's balanced density stays near 1 as gamma -> 1
    assert RunConfig(case="moving_vortex", params=SchemeParams(gamma=1.001)).params.gamma == 1.001


def test_vortex_with_runaway_density_ratio_is_refused():
    # At gamma = 1.01 and eps = 1 the printed density peaks at 1.1e25 against 1
    # at the centre; the run was accepted and took dt = 3.3e-23 at 8^2.
    with pytest.raises(ConfigError, match=r"peak initial density 1\.1\d*e\+25 exceeds 10000"):
        RunConfig(case="vortex", params=SchemeParams(gamma=1.01, eps=1.0))
    # just below the bound the vortex is a run that keeps its inequalities
    params = SchemeParams(gamma=1.0276, eps=1.0)
    assert 9e3 < peak_density("vortex", params.gamma, params.eps) < driver.PEAK_DENSITY_MAX
    cfg = RunConfig(case="vortex", nx=8, ny=8, final_time=2e-4, params=params)
    assert run_case(cfg, assert_inequalities=True, write_outputs=False).final_state.time \
        == pytest.approx(2e-4, abs=1e-12)
    # a coupled study checks each grid as a run: at lx = 3, grid 3 runs at eps = 1
    with pytest.raises(ConfigError, match=r"^\[convergence\] grid 3, eps = 1\.0 = lx / n: "
                                          r"case 'vortex' with gamma = 1\.01 .* exceeds 10000"):
        ConvergenceConfig(grids=(3, 6), lx=3.0, ly=3.0, params=SchemeParams(gamma=1.01))
    # from grid 9 on, eps = 1 / 3 and below, the peak (4.1e3 there) is admitted
    assert ConvergenceConfig(grids=(9, 12), lx=3.0, ly=3.0,
                             params=SchemeParams(gamma=1.01)).runs()[0].params.eps == 3.0 / 9


def test_moving_vortex_refuses_a_domain_that_cuts_it(tmp_path, capsys):
    path = write_config(tmp_path, good_run_ini(case="moving_vortex", lx=0.7))
    assert main(["run", "--config", str(path), "--output", str(tmp_path / "never")]) == 2
    assert "lx and ly >= 2 r2 = 0.8" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()
    assert RunConfig(case="moving_vortex", lx=0.8, ly=0.8).lx == 0.8


def test_vortex_at_rest_refuses_a_domain_that_cuts_it(tmp_path, capsys):
    # The vortex centred at (0.5, 0.5) with outer radius 0.4 reaches 0.9 in x
    # and y, and a smaller domain's periodic seam cuts it.  Such runs once
    # exited 0: at 64^2, eps = 0.1 and ly = 1, the initial max |div u| was
    # 0.64 at lx = 0.8 and 6.3 at lx = 0.5, against 0.092 at lx = 1.
    path = write_config(tmp_path, good_run_ini(ly=0.85))
    assert main(["run", "--config", str(path), "--output", str(tmp_path / "never")]) == 2
    assert "case 'vortex' needs lx and ly >= centre + r2 = 0.9" in capsys.readouterr().err
    wp = SchemeParams(eps=0.5)
    with pytest.raises(ConfigError, match="case 'well_prepared' needs lx and ly >= centre"):
        RunConfig(case="well_prepared", lx=0.8, params=wp)
    assert RunConfig(lx=0.9, ly=0.9).lx == 0.9
    assert ConvergenceConfig(lx=0.9, ly=0.9).ly == 0.9
    assert RunConfig(case="well_prepared", lx=0.9, ly=0.9, params=wp).lx == 0.9


def test_every_key_round_trips_through_the_echo(tmp_path):
    params = SchemeParams(gamma=1.4, eps=0.125)
    configs = {
        load_run_config: RunConfig(
            case="well_prepared", nx=12, ny=10, lx=2.0, ly=1.5, params=params,
            final_time=0.25, output_every=4,
            emit_fields=True, emit_svg=True),
        load_convergence_config: ConvergenceConfig(
            mode="fixed", case="moving_vortex", grids=(4, 16), lx=2.0, ly=1.5,
            params=params, final_time=0.25),
    }
    for load, cfg in configs.items():
        for f in fields(cfg):
            assert getattr(cfg, f.name) != f.default, f.name
        for f in fields(params):
            assert getattr(params, f.name) != f.default, f.name
        text = _config_text(cfg)
        path = write_config(tmp_path, text, name=f"{load.__name__}.ini")
        echo = load(path)
        assert echo == cfg
        assert _config_text(echo).encode() == text.encode()


def test_run_case_outputs(tmp_path):
    cfg = load_run_config(write_config(tmp_path, good_run_ini()))
    out = tmp_path / "out"
    result = run_case(cfg, output_dir=out)
    text = (out / "diagnostics.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config_sha256=")
    assert lines[1].startswith("# units:")
    header = lines[2].split(",")
    assert header[:4] == ["step", "time", "dt", "total_energy"]
    assert len(lines) - 3 == len(result.diags)
    # energy column non-increasing
    energies = [float(line.split(",")[3]) for line in lines[3:]]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(energies, energies[1:]))
    # config echo present and loadable
    echo = load_run_config(out / "config.ini")
    assert echo.nx == cfg.nx and echo.params.eps == cfg.params.eps
    # snapshots appear at step 0 and every third step thereafter
    steps = sorted(int(p.stem.split("step")[1])
                   for p in (out / "fields").glob("step*.npy"))
    expected = [0] + [s for s in range(1, len(result.diags) + 1) if s % 3 == 0]
    assert steps == expected
    # SVG charts parse as XML, with one polyline point per accepted step
    for name in ("energy.svg", "ke_ratio.svg"):
        root = ET.parse(out / name).getroot()
        assert root.tag.endswith("svg")
        lines = [child for child in root.iter() if child.tag.endswith("polyline")]
        assert len(lines) == 1
        assert len(lines[0].get("points").split()) == len(result.diags) >= 2


def test_run_outputs_bit_identical(tmp_path):
    cfg = load_run_config(write_config(tmp_path, good_run_ini()))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_case(cfg, output_dir=out1)
    run_case(cfg, output_dir=out2)
    assert (out1 / "diagnostics.csv").read_bytes() == \
        (out2 / "diagnostics.csv").read_bytes()
    assert (out1 / "config.ini").read_bytes() == (out2 / "config.ini").read_bytes()


def snapshot_run_config(**overrides):
    """16^2 vortex, 6 steps, a snapshot after every step."""
    keys = dict(nx=16, ny=16, final_time=0.02, output_every=1, emit_fields=True,
                params=SchemeParams(gamma=2.0, eps=0.1))
    keys.update(overrides)
    return RunConfig(**keys)


def test_in_run_snapshots_load_back_to_collected_states(tmp_path):
    out = tmp_path / "out"
    result = run_case(snapshot_run_config(), output_dir=out, collect_states=True)
    mesh = result.mesh
    written = sorted(p.name for p in (out / "fields").iterdir())
    assert written == [f"step{state.step_index:06d}.npy" for state in result.states]
    assert len(written) == len(result.diags) + 1
    for state in result.states:
        snap = np.load(out / "fields" / f"step{state.step_index:06d}.npy")
        np.testing.assert_array_equal(snap["rho"].ravel(), state.rho)
        np.testing.assert_array_equal(snap["ux"].ravel(), state.u[:, 0])
        np.testing.assert_array_equal(snap["uy"].ravel(), state.u[:, 1])
        assert snap["time"] == state.time
        assert (snap["nx"], snap["ny"]) == (mesh.nx, mesh.ny)
        assert (snap["lx"], snap["ly"]) == (mesh.lx, mesh.ly)


def test_collected_states_are_the_initial_state_and_what_advance_yields():
    cfg = snapshot_run_config(emit_fields=False)
    result = run_case(cfg, collect_states=True, write_outputs=False)
    state0 = initial_state(cfg, result.mesh)
    expected = [state0] + [state for state, _ in
                           advance(result.mesh, state0, cfg.params, cfg.final_time)]
    assert len(result.states) == len(expected) == len(result.diags) + 1
    for mine, ref in zip(result.states, expected):
        assert (mine.time, mine.step_index) == (ref.time, ref.step_index)
        assert mine.rho.tobytes() == ref.rho.tobytes()
        assert mine.u.tobytes() == ref.u.tobytes()
    assert result.final_state is result.states[-1]


def test_repeated_runs_write_identical_field_trees(tmp_path):
    cfg = snapshot_run_config()
    trees = []
    for name in ("a", "b"):
        run_case(cfg, output_dir=tmp_path / name)
        fdir = tmp_path / name / "fields"
        trees.append({p.name: p.read_bytes() for p in sorted(fdir.iterdir())})
    assert len(trees[0]) == 7
    assert trees[0] == trees[1]


def test_snapshot_write_error_reaches_the_caller(tmp_path):
    out = tmp_path / "out"
    (out / "fields" / "step000002.npy").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        run_case(snapshot_run_config(), output_dir=out)
    # the error comes from the write at step 2, after the earlier outputs
    assert (out / "config.ini").is_file()
    assert sorted(p.name for p in (out / "fields").iterdir()) == [
        f"step{k:06d}.npy" for k in range(3)]
    assert (out / "fields" / "step000002.npy").is_dir()


def test_rerun_into_one_directory_removes_the_earlier_runs_outputs(tmp_path):
    # 8^2 vortex to t = 0.01 takes 2 steps: snapshots at steps 0-2 and both
    # charts, then a rerun with output_every = 3 and no charts
    out = tmp_path / "out"
    run_case(load_run_config(write_config(tmp_path, good_run_ini(output_every=1))),
             output_dir=out)
    assert sorted(p.name for p in (out / "fields").iterdir()) == [
        f"step{k:06d}.npy" for k in range(3)]
    own = [out / "notes.txt", out / "fields" / "notes.txt",
           out / "fields" / "step_reference.npy"]
    for path in own:
        path.write_text("kept")
    cfg = load_run_config(write_config(tmp_path, good_run_ini(emit_svg="false")))
    result = run_case(cfg, output_dir=out)
    assert len(result.diags) == 2
    assert sorted(p.name for p in (out / "fields").iterdir()) == [
        "notes.txt", "step000000.npy", "step_reference.npy"]
    assert not (out / "energy.svg").exists()
    assert not (out / "ke_ratio.svg").exists()
    echo = load_run_config(out / "config.ini")
    assert echo.output_every == 3 and echo.emit_svg is False
    # files the run does not write itself are left alone
    assert all(path.read_text() == "kept" for path in own)


def test_inequality_violation_mid_run_surfaces_unchanged(tmp_path, monkeypatch, capsys):
    raised = InequalityViolation("step 3: energy increased")

    def fail_at_step_3(diag, baseline):
        if diag.step_index == 3:
            raise raised

    monkeypatch.setattr("machfv.driver._check_step_inequalities", fail_at_step_3)
    with pytest.raises(InequalityViolation) as excinfo:
        run_case(snapshot_run_config(), output_dir=tmp_path / "api",
                 assert_inequalities=True)
    assert excinfo.value is raised
    # the snapshots before the failing step are all written: steps 0-2
    assert sorted(p.name for p in (tmp_path / "api" / "fields").iterdir()) == [
        f"step{k:06d}.npy" for k in range(3)]

    cfg_path = write_config(tmp_path, good_run_ini(nx=16, ny=16, eps=0.1,
                                                   final_time=0.02, output_every=1,
                                                   emit_svg="false"))
    code = main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "cli"),
                 "--assert-inequalities"])
    assert code == 4
    assert "step 3: energy increased" in capsys.readouterr().err


def first_step_and_baseline():
    """The real (diag, baseline) that the inequality guard checks at step 1."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "_check_step_inequalities",
                      lambda diag, baseline: seen.append((diag, baseline)))
        run_case(snapshot_run_config(final_time=0.005), write_outputs=False,
                 assert_inequalities=True)
    return seen[0]


@pytest.mark.parametrize("violate, message", [
    (lambda d, b: dict(energy_decrement=-1e-9 * b["energy0"]), "energy increased by"),
    (lambda d, b: dict(entropy_decrement=-1e-9 * b["energy0"]), "entropy increased by"),
    (lambda d, b: dict(total_mass=b["mass0"] * (1.0 + 1e-9)), "total mass drifted"),
    (lambda d, b: dict(total_momentum=d.total_momentum
                       + [0.0, 1e-9 * b["momentum_scale"]]), "total momentum drifted"),
], ids=["energy", "entropy", "mass", "momentum"])
def test_inequality_guard_names_each_violation(violate, message):
    diag, baseline = first_step_and_baseline()
    assert diag.step_index == 1
    driver._check_step_inequalities(diag, baseline)  # the real step passes
    bad = replace(diag, **violate(diag, baseline))
    with pytest.raises(InequalityViolation, match=rf"^step 1: {message}"):
        driver._check_step_inequalities(bad, baseline)


def test_inequality_guard_allows_round_off_and_lists_every_problem():
    diag, baseline = first_step_and_baseline()
    slack = driver.INEQUALITY_SLACK * baseline["energy0"]
    driver._check_step_inequalities(
        replace(diag, energy_decrement=-0.5 * slack, entropy_decrement=-0.5 * slack),
        baseline)
    bad = replace(diag, energy_decrement=-2.0 * slack, entropy_decrement=-2.0 * slack)
    with pytest.raises(InequalityViolation,
                       match=r"^step 1: energy increased by .*; entropy increased by"):
        driver._check_step_inequalities(bad, baseline)


@pytest.mark.parametrize("patch, message", [
    (("update_density", lambda mesh, rho, *rest: np.zeros_like(rho)),
     "conservative density update lost positivity or finiteness"),
    (("update_density", lambda mesh, rho, *rest: np.full_like(rho, np.nan)),
     "conservative density update lost positivity or finiteness"),
    (("enforce_conditions",
      lambda *args: stepper.ConditionReport(True, False, True, 1.0, -1.0, 1.0, 0.5)),
     r"stability conditions violated \(eta_ok=True, flux_cfl_ok=False, dt_cfl_ok=True\)"),
], ids=["positivity", "positivity_nan", "conditions"])
def test_stepper_refuses_each_violation_without_the_flag(monkeypatch, patch, message):
    # The guard leaves positivity and the three conditions to the stepper,
    # which refuses them on every run, asserted or not.
    monkeypatch.setattr(stepper, *patch)
    with pytest.raises(SolverError, match=rf"^step rejected after 8 dt halvings: {message}$"):
        run_case(snapshot_run_config(final_time=0.005), write_outputs=False)


def test_field_snapshot_roundtrip(tmp_path):
    mesh = build_mesh(4, 3, 1.0, 0.75)
    rho = 1.0 + np.arange(12, dtype=float) / 7.0
    u = np.stack([np.arange(12) / 3.0, -np.arange(12) / 11.0], axis=1)  # -0.0 first
    state = State(0.125, rho, u, step_index=5)
    path = tmp_path / "field.npy"
    write_field_snapshot(path, mesh, state)
    snap = np.load(path)
    # field order, dtypes and shapes
    assert snap.shape == ()
    assert snap.dtype == np.dtype([("rho", "<f8", (3, 4)), ("ux", "<f8", (3, 4)),
                                   ("uy", "<f8", (3, 4)), ("time", "<f8"), ("nx", "<i8"),
                                   ("ny", "<i8"), ("lx", "<f8"), ("ly", "<f8")])
    assert snap["rho"].tobytes() == rho.tobytes()
    assert snap["ux"].tobytes() == u[:, 0].tobytes()
    assert snap["uy"].tobytes() == u[:, 1].tobytes()
    assert (snap["time"], snap["nx"], snap["ny"], snap["lx"], snap["ly"]) == \
        (0.125, 4, 3, 1.0, 0.75)
    # an int lx is stored as a float: the same bytes as the float mesh's
    write_field_snapshot(tmp_path / "int_lx.npy", build_mesh(4, 3, 1, 0.75), state)
    assert (tmp_path / "int_lx.npy").read_bytes() == path.read_bytes()
    # a state of another mesh's size is refused
    with pytest.raises(ValueError):
        write_field_snapshot(tmp_path / "other.npy", build_mesh(5, 3, 1.0, 0.75), state)
    assert not (tmp_path / "other.npy").exists()


def random_state(rng, mesh):
    n = mesh.n_cells
    return State(rng.uniform(0.0, 10.0), rng.uniform(0.5, 2.0, n), rng.standard_normal((n, 2)))


def test_field_snapshot_path_gets_the_npy_suffix(tmp_path):
    mesh = build_mesh(5, 3, 1.0, 0.75)
    state = random_state(np.random.default_rng(3), mesh)
    write_field_snapshot(tmp_path / "snap", mesh, state)
    write_field_snapshot(str(tmp_path / "snap.dat"), mesh, state)
    write_field_snapshot(tmp_path / "ref.npy", mesh, state)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.npy", "snap.dat.npy", "snap.npy"]
    for name in ("snap.npy", "snap.dat.npy"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "ref.npy").read_bytes()


@pytest.mark.parametrize("nx, ny, lx", [(4, 3, 1.0), (7, 5, 1.3), (4, 3, 1)],
                         ids=["4x3", "7x5", "int_lx"])
def test_field_snapshot_bytes_are_np_save_bytes(tmp_path, nx, ny, lx):
    # the per-grid header and the record's bytes are what np.save writes
    mesh = build_mesh(nx, ny, lx, 0.75)
    state = random_state(np.random.default_rng(nx * ny), mesh)
    grid = (ny, nx)
    record = np.array((state.rho.reshape(grid), state.u[:, 0].reshape(grid),
                       state.u[:, 1].reshape(grid), state.time, nx, ny, lx, 0.75),
                      [("rho", "<f8", grid), ("ux", "<f8", grid), ("uy", "<f8", grid),
                       ("time", "<f8"), ("nx", "<i8"), ("ny", "<i8"),
                       ("lx", "<f8"), ("ly", "<f8")])
    np.save(tmp_path / "reference.npy", record)
    expected = (tmp_path / "reference.npy").read_bytes()
    for path in (str(tmp_path / "a"), str(tmp_path / "b.npy"), tmp_path / "c",
                 tmp_path / "d.npy"):
        write_field_snapshot(path, mesh, state)
    for name in ("a.npy", "b.npy", "c.npy", "d.npy"):
        assert (tmp_path / name).read_bytes() == expected, name


def test_well_prepared_case_runs(tmp_path):
    cfg = RunConfig(case="well_prepared", nx=8, ny=8, final_time=0.005,
                    params=SchemeParams(gamma=1.4, eps=0.1))
    result = run_case(cfg, output_dir=tmp_path / "wp", assert_inequalities=True)
    assert result.final_state.time == pytest.approx(0.005, abs=1e-12)
    assert all(d.min_density > 0.0 for d in result.diags)


def test_convergence_study_coupled_layout(tmp_path):
    cfg = ConvergenceConfig(mode="coupled", grids=(4, 8), final_time=0.01,
                            params=SchemeParams(gamma=2.0))
    rows = convergence_study(cfg, output_dir=tmp_path / "conv")
    assert [row["n"] for row in rows] == [4, 8]
    assert rows[0]["eps"] == pytest.approx(0.25)  # eps = h in coupled mode
    assert rows[0]["eoc_rho_supl2"] is None
    assert rows[1]["eoc_rho_supl2"] is not None
    text = (tmp_path / "conv" / "convergence.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config_sha256=")
    assert lines[2].startswith("n,h,eps,rel_energy_sup,eoc,")
    first_row = lines[3].split(",")
    assert first_row[0] == "4"
    assert first_row[4] == ""  # no EOC on the first grid


@pytest.mark.parametrize("mode", ["coupled", "fixed"])
def test_study_runs_exactly_the_configs_of_runs(tmp_path, monkeypatch, mode):
    cfg = ConvergenceConfig(mode=mode, case="moving_vortex", grids=(4, 6), final_time=0.01,
                            params=SchemeParams(gamma=1.4))
    seen, real_run_case = [], driver.run_case

    def recording_run_case(run_cfg, **kwargs):
        seen.append((run_cfg, kwargs))
        return real_run_case(run_cfg, **kwargs)

    monkeypatch.setattr(driver, "run_case", recording_run_case)
    out = tmp_path / "study"
    rows = convergence_study(cfg, output_dir=out)
    runs = cfg.runs()
    assert [run_cfg for run_cfg, _ in seen] == runs
    assert [kwargs for _, kwargs in seen] == [
        dict(output_dir=out / f"grid_{n:04d}", collect_states=True) for n in (4, 6)]
    assert [(run.nx, run.ny) for run in runs] == [(4, 4), (6, 6)]
    eps = [1.0 / 4, 1.0 / 6] if mode == "coupled" else [1.0, 1.0]
    assert [run.params.eps for run in runs] == [row["eps"] for row in rows] == eps
    for run in runs:
        assert (run.case, run.params.gamma, run.final_time) == ("moving_vortex", 1.4, 0.01)
        assert load_run_config(out / f"grid_{run.nx:04d}" / "config.ini") == run


def test_study_outputs_do_not_depend_on_where_the_study_is_written(tmp_path):
    # each grid's config.ini once echoed its output path, so the echo and the
    # config_sha256 line of its diagnostics.csv changed with the directory
    cfg = ConvergenceConfig(mode="coupled", grids=(4, 8), final_time=0.01)
    trees = []
    for out in (tmp_path / "a", tmp_path / "deeper" / "still" / "b"):
        convergence_study(cfg, output_dir=out)
        trees.append({p.relative_to(out): p.read_bytes() if p.is_file() else None
                      for p in out.rglob("*")})
    assert sorted(map(str, trees[0])) == [
        "config.ini", "convergence.csv", "grid_0004", "grid_0004/config.ini",
        "grid_0004/diagnostics.csv", "grid_0008", "grid_0008/config.ini",
        "grid_0008/diagnostics.csv"]
    assert trees[0] == trees[1]


def test_convergence_study_single_grid_has_errors_no_eoc(tmp_path):
    cfg = ConvergenceConfig(mode="fixed", case="moving_vortex", grids=(4,),
                            final_time=0.01)
    rows = convergence_study(cfg, output_dir=tmp_path / "single")
    assert len(rows) == 1
    assert rows[0]["rho_supl2"] > 0.0
    assert rows[0]["eoc_rho_supl2"] is None


def test_convergence_csv_has_one_header_in_both_modes(tmp_path):
    headers = set()
    for mode in ("coupled", "fixed"):
        cfg = ConvergenceConfig(mode=mode, case="moving_vortex", grids=(4, 8),
                                final_time=0.01)
        convergence_study(cfg, output_dir=tmp_path / mode)
        headers.add((tmp_path / mode / "convergence.csv").read_text().splitlines()[2])
    assert headers == {"n,h,eps,rel_energy_sup,eoc,rho_l2l2,eoc,rho_supl2,eoc,"
                       "u_l2l2,eoc,u_supl2,eoc"}


def test_fixed_study_measures_against_the_exact_compressible_solution(tmp_path):
    # The exact moving vortex's density is 1 + O(eps^2), not 1: a fixed study
    # measures against it, a coupled study against unit density at eps = h.
    study = {}
    for mode in ("coupled", "fixed"):
        cfg = ConvergenceConfig(mode=mode, case="moving_vortex", grids=(8,),
                                final_time=0.01)
        study[mode] = convergence_study(cfg, output_dir=tmp_path / mode)[0]
    assert study["coupled"]["eps"] == 0.125 and study["fixed"]["eps"] == 1.0
    mesh = build_mesh(8, 8, 1.0, 1.0)
    exact = moving_vortex(mesh, 2.0, 1.0)
    gap = np.sqrt(mesh.cell_volume * ((exact.rho - 1.0) ** 2).sum())
    # two steps move the density far less than its distance from 1 (0.07x)
    assert study["fixed"]["rho_supl2"] < 0.2 * gap


@pytest.mark.parametrize("case", ["vortex", "well_prepared"])
def test_fixed_study_refuses_a_case_without_exact_solution(tmp_path, capsys, case):
    path = write_config(tmp_path, f"[convergence]\nmode = fixed\ncase = {case}\n"
                                  f"grids = 4, 8\neps = 0.5\n")
    assert main(["convergence", "--config", str(path),
                 "--output", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "moving_vortex" in err
    assert not (tmp_path / "never").exists()


def test_convergence_study_fixed_reports_the_scheme_eps(tmp_path):
    cfg = ConvergenceConfig(mode="fixed", case="moving_vortex", grids=(4,),
                            final_time=0.01, params=SchemeParams(eps=0.5))
    rows = convergence_study(cfg, output_dir=tmp_path / "fixed")
    assert rows[0]["eps"] == 0.5
    row = (tmp_path / "fixed" / "convergence.csv").read_text().splitlines()[3]
    assert row.split(",")[2] == "0.5"
    echo = load_convergence_config(tmp_path / "fixed" / "config.ini")
    assert echo.params.eps == 0.5


def test_convergence_runs_its_grids_serially_with_no_threads_option(tmp_path, capsys):
    cfg = ConvergenceConfig(mode="coupled", grids=(4, 8), final_time=0.01)
    with pytest.raises(TypeError):
        convergence_study(cfg, output_dir=tmp_path / "conv", threads=2)
    path = write_config(tmp_path, _config_text(cfg), name="conv.ini")
    with pytest.raises(SystemExit) as exit_:
        main(["convergence", "--config", str(path), "--threads", "2"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "conv").exists()


def test_write_line_chart_degenerate_series(tmp_path):
    path = tmp_path / "flat.svg"
    write_line_chart(path, "flat", "x", "y", [("f", [0.0, 1.0], [2.0, 2.0])])
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")


def test_one_step_run_writes_both_charts(tmp_path):
    # one step gives each chart a single point, so its x range is empty
    cfg = load_run_config(write_config(tmp_path, good_run_ini(final_time=1e-4)))
    result = run_case(cfg, output_dir=tmp_path / "out")
    assert len(result.diags) == 1
    for name in ("energy.svg", "ke_ratio.svg"):
        root = ET.parse(tmp_path / "out" / name).getroot()
        assert any(child.tag.endswith("polyline") for child in root.iter())


def test_final_time_below_the_landing_margin_takes_one_step(tmp_path, capsys):
    # advance once stopped within 1e-12 of final_time in absolute terms, so a
    # run to 1e-13 exited 0 after no step and a study of it had no error to
    # measure
    path = write_config(tmp_path, good_run_ini(final_time=1e-13))
    assert main(["run", "--config", str(path), "--output", str(tmp_path / "run")]) == 0
    assert "1 steps to t=1e-13" in capsys.readouterr().out
    rows = (tmp_path / "run" / "diagnostics.csv").read_text().strip().split("\n")
    assert rows[3].startswith("1,1e-13,1e-13,") and len(rows) == 4
    study = write_config(tmp_path, "[convergence]\nmode = coupled\ngrids = 4, 8\n"
                         "final_time = 1e-13\n", name="study.ini")
    assert main(["convergence", "--config", str(study), "--output", str(tmp_path / "study")]) == 0


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = write_config(tmp_path, good_run_ini(emit_fields="false",
                                                   emit_svg="false"))
    out = tmp_path / "cli_out"
    code = main(["run", "--config", str(cfg_path), "--output", str(out),
                 "--assert-inequalities"])
    assert code == 0
    captured = capsys.readouterr()
    assert "run complete" in captured.out
    assert (out / "diagnostics.csv").exists()
    # the echo names no output path and loads back to the run's config
    assert not any(line.startswith("output ")
                   for line in (out / "config.ini").read_text().splitlines())
    assert load_run_config(out / "config.ini") == load_run_config(cfg_path)


def assert_output_error(err, path):
    """One stderr line: `output error: ` and the OSError, which names `path`."""
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert repr(str(path)) in err


@pytest.mark.parametrize("command", ["run", "convergence"])
@pytest.mark.parametrize("where", ["flag_file", "flag_below_file"])
def test_output_path_that_cannot_be_a_directory_is_a_config_error(
        tmp_path, capsys, monkeypatch, command, where):
    # mkdir's OSError used to end in a traceback (exit 1)
    afile = write_config(tmp_path, "a regular file", name="afile")
    output = afile / "sub" if where == "flag_below_file" else afile
    text = (good_run_ini() if command == "run" else
            "[convergence]\nmode = coupled\ngrids = 4, 8\n")
    argv = [command, "--config", str(write_config(tmp_path, text)), "--output", str(output)]
    monkeypatch.setattr(driver, "advance", lambda *args: pytest.fail("a step was taken"))
    assert main(argv) == 2
    assert_output_error(capsys.readouterr().err, output)
    assert afile.read_text() == "a regular file"


def test_fields_path_that_cannot_be_a_directory_is_a_config_error(
        tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "fields").write_text("a regular file")
    monkeypatch.setattr(driver, "advance", lambda *args: pytest.fail("a step was taken"))
    argv = ["run", "--config", str(write_config(tmp_path, good_run_ini())),
            "--output", str(out)]
    assert main(argv) == 2
    assert_output_error(capsys.readouterr().err, out / "fields")
    assert (out / "fields").read_text() == "a regular file"


@pytest.mark.parametrize("name, before_any_step", [
    ("config.ini", True), ("fields/step000000.npy", True),
    ("fields/step000001.npy", False), ("diagnostics.csv", False),
    ("energy.svg", False), ("ke_ratio.svg", False)])
def test_run_output_file_that_is_a_directory_exits_2(
        tmp_path, capsys, monkeypatch, name, before_any_step):
    # config.ini and the step-0 snapshot fail before any step, the rest later
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg_path = write_config(tmp_path, good_run_ini(output_every=1))
    if before_any_step:
        monkeypatch.setattr(driver, "advance", lambda *args: pytest.fail("a step was taken"))
    assert main(["run", "--config", str(cfg_path), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_output_error(captured.err, out / name)
    assert (out / name).is_dir()
    # the library raises the OSError itself
    with pytest.raises(IsADirectoryError):
        run_case(load_run_config(cfg_path), output_dir=out)


def test_convergence_csv_that_is_a_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "study"
    (out / "convergence.csv").mkdir(parents=True)
    path = write_config(tmp_path, "[convergence]\nmode = coupled\ngrids = 4, 8\n"
                                  "final_time = 0.01\n")
    assert main(["convergence", "--config", str(path), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_output_error(captured.err, out / "convergence.csv")
    # every grid ran before the table was written
    assert (out / "grid_0008" / "diagnostics.csv").is_file()


def test_closed_stdout_is_not_an_output_error(tmp_path, monkeypatch):
    class ClosedStdout(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    path = write_config(tmp_path, good_run_ini(emit_fields="false", emit_svg="false"))
    with pytest.raises(BrokenPipeError):
        main(["run", "--config", str(path), "--output", str(tmp_path / "out")])
    assert (tmp_path / "out" / "diagnostics.csv").is_file()


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = write_config(tmp_path, good_run_ini(gamma=0.5))
    code = main(["run", "--config", str(bad), "--output", str(tmp_path / "x")])
    assert code == 2
    assert "config error" in capsys.readouterr().err

    missing = tmp_path / "nope.ini"
    assert main(["run", "--config", str(missing)]) == 2

    not_ini = write_config(tmp_path, "case = vortex\n", name="broken.ini")
    assert main(["run", "--config", str(not_ini)]) == 2


@pytest.mark.parametrize("n", [8, 16])
def test_cli_well_prepared_eps_one_is_config_error(tmp_path, capsys, n):
    # rho = 1 + eps^2 g reaches 0 at eps = 1: refused before any step
    cfg_path = write_config(tmp_path, good_run_ini(
        case="well_prepared", nx=n, ny=n, eps=1.0, emit_fields="false",
        emit_svg="false"))
    code = main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "wp")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "eps" in err


def test_well_prepared_eps_at_least_one_rejected_everywhere(tmp_path):
    mesh = build_mesh(8, 8, 1.0, 1.0)
    for eps in (1.0, 1.5):
        with pytest.raises(ConfigError, match="eps"):
            cfg = RunConfig(case="well_prepared", nx=8, ny=8,
                            params=SchemeParams(gamma=1.4, eps=eps))
            initial_state(cfg, mesh)
    assert initial_state(RunConfig(case="well_prepared",
                                   params=SchemeParams(eps=0.5)), mesh).rho.min() > 0.0
    fixed = ("[convergence]\nmode = fixed\ncase = well_prepared\ngrids = 8\n"
             "eps = 1.0\n")
    with pytest.raises(ConfigError, match="eps"):
        load_convergence_config(write_config(tmp_path, fixed, name="fixed.ini"))
    # a coupled study runs at eps = lx / n: 4 / 4 = 1 on its first grid
    coupled = ("[convergence]\nmode = coupled\ncase = well_prepared\n"
               "grids = 4, 8\nlx = 4.0\nly = 4.0\n")
    with pytest.raises(ConfigError, match="eps"):
        load_convergence_config(write_config(tmp_path, coupled, name="coupled.ini"))


def test_cli_convergence_subcommand(tmp_path, capsys):
    ini = ("[convergence]\nmode = coupled\ngrids = 4, 8\n"
           "final_time = 0.01\ngamma = 2.0\n")
    cfg_path = write_config(tmp_path, ini, name="conv.ini")
    out = tmp_path / "conv_out"
    code = main(["convergence", "--config", str(cfg_path), "--output", str(out)])
    assert code == 0
    assert (out / "convergence.csv").exists()
    printed = capsys.readouterr().out
    assert "n=    4" in printed and "n=    8" in printed


def test_cli_solver_failure_exit_3(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, good_run_ini())

    def boom(*args, **kwargs):
        raise SolverError("manufactured failure at step 3")

    monkeypatch.setattr("machfv.cli.run_case", boom)
    code = main(["run", "--config", str(cfg_path)])
    assert code == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("eps", [1e-100, 1e-150])
def test_cli_overflowing_velocity_update_is_solver_failure(tmp_path, capsys, eps):
    # At these eps the explicit velocity update of step 2 overflows while
    # the density stays finite; the step names the field and the CLI exits 3.
    # Warnings are silenced for this call only: the overflow itself is the
    # input under test.
    cfg_path = write_config(tmp_path, good_run_ini(eps=eps, emit_fields="false",
                                                   emit_svg="false"))
    with np.errstate(all="ignore"):
        code = main(["run", "--config", str(cfg_path), "--output",
                     str(tmp_path / "overflow")])
    assert code == 3
    err = capsys.readouterr().err
    assert "solver failure: step 2" in err
    assert "velocity contains non-finite values" in err


def test_cli_inequality_violation_exit_4(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, good_run_ini())

    def boom(*args, **kwargs):
        raise InequalityViolation("step 5: energy increased")

    monkeypatch.setattr("machfv.cli.run_case", boom)
    code = main(["run", "--config", str(cfg_path), "--assert-inequalities"])
    assert code == 4
    assert "inequality violation" in capsys.readouterr().err


def test_solver_failure_organic_exit_3(tmp_path, monkeypatch):
    # a one-iteration Newton budget cannot reach a 1e-14 tolerance even
    # after all controller dt halvings, so the run fails cleanly
    monkeypatch.setattr(stepper, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(stepper, "NEWTON_TOL", 1e-14)
    ini = good_run_ini(eps=0.01, final_time=0.05, emit_fields="false",
                       emit_svg="false")
    cfg_path = write_config(tmp_path, ini)
    code = main(["run", "--config", str(cfg_path), "--output",
                 str(tmp_path / "fail_out")])
    assert code == 3
