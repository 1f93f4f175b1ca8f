"""Run orchestration: config files, case runs, convergence studies, output.

Configs are INI files.  A run config has a [run] section (case, mesh, gas,
final time, output options) and an optional [scheme] section overriding
solver parameters.  A convergence config replaces [run] with [convergence]
(mode, grid list, reference grid).  Every CSV written here starts with a
comment line carrying the sha256 of the effective config, so outputs are
traceable to their inputs; rows are formatted with shortest round-trip float
representations, which makes repeated runs byte-identical.
"""

import configparser
import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cases import (vortex_compressible_init, vortex_incompressible_exact,
                    well_prepared_perturbation)
from .diagnostics import energy_report, eoc, error_norms
from .mesh import StructuredMesh, build_mesh, cell_grid
from .stepper import SchemeParams, advance

CASES = ("vortex", "well_prepared")
INEQUALITY_SLACK = 1e-12
CONSERVATION_TOL = 1e-12


class ConfigError(ValueError):
    """A config file is syntactically or semantically invalid."""


class InequalityViolation(RuntimeError):
    """A run violated an asserted stability inequality."""


@dataclass(frozen=True)
class RunConfig:
    case: str = "vortex"
    nx: int = 32
    ny: int = 32
    lx: float = 1.0
    ly: float = 1.0
    final_time: float = 0.1
    params: SchemeParams = field(default_factory=SchemeParams)
    output: str = "machfv_out"
    output_every: int = 10
    emit_fields: bool = False
    emit_svg: bool = False


@dataclass(frozen=True)
class ConvergenceConfig:
    mode: str = "coupled"
    case: str = "vortex"
    grids: tuple = (8, 16, 32)
    lx: float = 1.0
    ly: float = 1.0
    final_time: float = 0.1
    reference: int = 64
    params: SchemeParams = field(default_factory=SchemeParams)
    output: str = "machfv_convergence"


def _check_case_eps(case: str, eps: float):
    """Reject an eps at which the case's initial density is not positive."""
    if case == "well_prepared" and not eps < 1.0:
        # rho = 1 + eps^2 g with max|g| = 1 reaches 0 at eps = 1.
        raise ConfigError(
            f"case 'well_prepared' needs eps < 1, got eps = {eps!r}: its "
            f"density 1 + eps^2 g, with max|g| = 1, is not positive at eps >= 1")


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as err:
        # configparser reports offending line numbers in its message
        raise ConfigError(str(err)) from err
    return parser


class _Section:
    """Typed access to one INI section with error messages naming the key."""

    def __init__(self, parser, name):
        self.name = name
        self.data = dict(parser[name]) if parser.has_section(name) else {}

    def _fetch(self, key, default, convert, describe):
        if key not in self.data:
            return default
        raw = self.data.pop(key)
        try:
            return convert(raw)
        except ValueError as err:
            raise ConfigError(
                f"[{self.name}] {key} = {raw!r}: expected {describe}") from err

    def get_int(self, key, default):
        return self._fetch(key, default, int, "an integer")

    def get_float(self, key, default):
        return self._fetch(key, default, float, "a number")

    def get_str(self, key, default):
        return self._fetch(key, default, str, "a string")

    def get_bool(self, key, default):
        def conv(raw):
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return self._fetch(key, default, conv, "a boolean")

    def get_int_list(self, key, default):
        def conv(raw):
            return tuple(int(part) for part in raw.replace(",", " ").split())
        return self._fetch(key, default, conv, "a comma-separated integer list")

    def reject_unknown(self):
        if self.data:
            unknown = ", ".join(sorted(self.data))
            raise ConfigError(f"unknown keys in [{self.name}]: {unknown}")


def _scheme_params(parser, gamma, eps) -> SchemeParams:
    sec = _Section(parser, "scheme")
    eta_mode = sec.get_str("eta_mode", "auto")
    eta_value = sec.get_float("eta_value", None)
    kwargs = dict(
        gamma=gamma,
        eps=eps,
        eta_mode=eta_mode,
        eta_value=eta_value,
        eta_safety=sec.get_float("eta_safety", 1.1),
        newton_tol=sec.get_float("newton_tol", 1e-10),
        newton_max_iter=sec.get_int("newton_max_iter", 50),
        dt_max=sec.get_float("dt_max", 0.1),
        cfl_safety=sec.get_float("cfl_safety", 0.9),
        beta=sec.get_float("beta", 0.05),
        viscous_scale=sec.get_float("viscous_scale", 1.0),
    )
    sec.reject_unknown()
    try:
        return SchemeParams(**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def load_run_config(path) -> RunConfig:
    parser = _read_ini(path)
    if not parser.has_section("run"):
        raise ConfigError(f"{path}: missing [run] section")
    sec = _Section(parser, "run")
    case = sec.get_str("case", "vortex")
    if case not in CASES:
        raise ConfigError(f"[run] case must be one of {CASES}, got {case!r}")
    gamma = sec.get_float("gamma", 2.0)
    eps = sec.get_float("eps", 1.0)
    cfg = RunConfig(
        case=case,
        nx=sec.get_int("nx", 32),
        ny=sec.get_int("ny", 32),
        lx=sec.get_float("lx", 1.0),
        ly=sec.get_float("ly", 1.0),
        final_time=sec.get_float("final_time", 0.1),
        params=_scheme_params(parser, gamma, eps),
        output=sec.get_str("output", "machfv_out"),
        output_every=sec.get_int("output_every", 10),
        emit_fields=sec.get_bool("emit_fields", False),
        emit_svg=sec.get_bool("emit_svg", False),
    )
    sec.reject_unknown()
    if cfg.final_time <= 0.0:
        raise ConfigError(f"[run] final_time must be positive, got {cfg.final_time}")
    if cfg.output_every < 1:
        raise ConfigError(f"[run] output_every must be >= 1, got {cfg.output_every}")
    _check_case_eps(cfg.case, cfg.params.eps)
    return cfg


def load_convergence_config(path) -> ConvergenceConfig:
    parser = _read_ini(path)
    if not parser.has_section("convergence"):
        raise ConfigError(f"{path}: missing [convergence] section")
    sec = _Section(parser, "convergence")
    mode = sec.get_str("mode", "coupled")
    if mode not in ("coupled", "fixed"):
        raise ConfigError(f"[convergence] mode must be 'coupled' or 'fixed', got {mode!r}")
    case = sec.get_str("case", "vortex")
    if case not in CASES:
        raise ConfigError(f"[convergence] case must be one of {CASES}, got {case!r}")
    gamma = sec.get_float("gamma", 2.0)
    eps = sec.get_float("eps", 1.0)
    cfg = ConvergenceConfig(
        mode=mode,
        case=case,
        grids=sec.get_int_list("grids", (8, 16, 32)),
        lx=sec.get_float("lx", 1.0),
        ly=sec.get_float("ly", 1.0),
        final_time=sec.get_float("final_time", 0.1),
        reference=sec.get_int("reference", 64),
        params=_scheme_params(parser, gamma, eps),
        output=sec.get_str("output", "machfv_convergence"),
    )
    sec.reject_unknown()
    if len(cfg.grids) < 1:
        raise ConfigError("[convergence] grids must list at least one mesh size")
    for n in cfg.grids:
        if n < 3 or (n & (n - 1)) != 0:
            raise ConfigError(f"[convergence] grids must be powers of two >= 4, got {n}")
    if any(b <= a for a, b in zip(cfg.grids, cfg.grids[1:])):
        raise ConfigError(f"[convergence] grids must be strictly increasing, got {cfg.grids}")
    if cfg.mode == "fixed":
        if cfg.reference <= max(cfg.grids):
            raise ConfigError(
                f"[convergence] reference grid {cfg.reference} must be finer "
                f"than every study grid {cfg.grids}")
        if (cfg.reference & (cfg.reference - 1)) != 0:
            raise ConfigError(f"[convergence] reference must be a power of two, got {cfg.reference}")
    if cfg.final_time <= 0.0:
        raise ConfigError(f"[convergence] final_time must be positive, got {cfg.final_time}")
    # Coupled studies run at eps = h, the largest on the first grid.
    _check_case_eps(cfg.case, cfg.params.eps if cfg.mode == "fixed"
                    else cfg.lx / cfg.grids[0])
    return cfg


def _effective_run_text(cfg: RunConfig) -> str:
    p = cfg.params
    return (
        "[run]\n"
        f"case = {cfg.case}\nnx = {cfg.nx}\nny = {cfg.ny}\n"
        f"lx = {cfg.lx!r}\nly = {cfg.ly!r}\n"
        f"gamma = {p.gamma!r}\neps = {p.eps!r}\n"
        f"final_time = {cfg.final_time!r}\noutput = {cfg.output}\n"
        f"output_every = {cfg.output_every}\nemit_fields = {cfg.emit_fields}\n"
        f"emit_svg = {cfg.emit_svg}\n\n"
        + _scheme_text(p)
    )


def _scheme_text(p: SchemeParams) -> str:
    return (
        "[scheme]\n"
        f"eta_mode = {p.eta_mode}\n"
        + (f"eta_value = {p.eta_value!r}\n" if p.eta_value is not None else "")
        + f"eta_safety = {p.eta_safety!r}\nnewton_tol = {p.newton_tol!r}\n"
        f"newton_max_iter = {p.newton_max_iter}\n"
        f"dt_max = {p.dt_max!r}\ncfl_safety = {p.cfl_safety!r}\n"
        f"beta = {p.beta!r}\nviscous_scale = {p.viscous_scale!r}\n"
    )


def _effective_convergence_text(cfg: ConvergenceConfig) -> str:
    p = cfg.params
    return (
        "[convergence]\n"
        f"mode = {cfg.mode}\ncase = {cfg.case}\n"
        f"grids = {', '.join(str(n) for n in cfg.grids)}\n"
        f"lx = {cfg.lx!r}\nly = {cfg.ly!r}\n"
        f"gamma = {p.gamma!r}\neps = {p.eps!r}\n"
        f"final_time = {cfg.final_time!r}\nreference = {cfg.reference}\n"
        f"output = {cfg.output}\n\n"
        + _scheme_text(p)
    )


def _config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def initial_state(cfg: RunConfig, mesh: StructuredMesh):
    if cfg.case == "vortex":
        return vortex_compressible_init(mesh, cfg.params.gamma, cfg.params.eps)
    if cfg.case == "well_prepared":
        _check_case_eps(cfg.case, cfg.params.eps)
        v0, _ = vortex_incompressible_exact(mesh)
        return well_prepared_perturbation(mesh, v0, cfg.params.eps)
    raise ConfigError(f"unknown case {cfg.case!r}")


@dataclass
class RunResult:
    mesh: StructuredMesh
    config: RunConfig
    final_state: object
    diags: list
    states: list | None
    output_dir: Path | None


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_field_snapshot(path, mesh: StructuredMesh, values, time: float):
    """Plain-text snapshot: header with mesh and time, row-major values."""
    lines = [f"# nx={mesh.nx} ny={mesh.ny} lx={mesh.lx!r} ly={mesh.ly!r} time={time!r}"]
    for row in cell_grid(mesh, np.asarray(values, dtype=float)).tolist():
        lines.append(" ".join(map(repr, row)))
    Path(path).write_text("\n".join(lines) + "\n")


def _emit_fields(out_dir, mesh, state):
    fdir = out_dir / "fields"
    fdir.mkdir(exist_ok=True)
    tag = f"step{state.step_index:06d}"
    write_field_snapshot(fdir / f"rho_{tag}.dat", mesh, state.rho, state.time)
    write_field_snapshot(fdir / f"ux_{tag}.dat", mesh, state.u[:, 0], state.time)
    write_field_snapshot(fdir / f"uy_{tag}.dat", mesh, state.u[:, 1], state.time)


def write_line_chart(path, title, xlabel, ylabel, series):
    """Minimal dependency-free SVG polyline chart."""
    width, height = 640, 420
    x0, x1, y0, y1 = 80, 600, 360, 50
    xs_all = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in series])
    xmin, xmax = float(xs_all.min()), float(xs_all.max())
    ymin, ymax = float(ys_all.min()), float(ys_all.max())
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    def px(x):
        return x0 + (x - xmin) / (xmax - xmin) * (x1 - x0)

    def py(y):
        return y0 + (y - ymin) / (ymax - ymin) * (y1 - y0)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(x0 + x1) / 2}" y="25" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2}" y="{y0 + 35}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="20" y="{(y0 + y1) / 2}" font-size="12" '
        f'transform="rotate(-90 20 {(y0 + y1) / 2})" text-anchor="middle">{ylabel}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = xmin + frac * (xmax - xmin)
        yv = ymin + frac * (ymax - ymin)
        parts.append(f'<line x1="{px(xv)}" y1="{y0}" x2="{px(xv)}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(xv)}" y="{y0 + 18}" text-anchor="middle" '
                     f'font-size="10">{xv:.3g}</text>')
        parts.append(f'<line x1="{x0 - 5}" y1="{py(yv)}" x2="{x0}" y2="{py(yv)}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{py(yv) + 3}" text-anchor="end" '
                     f'font-size="10">{yv:.4g}</text>')
    for idx, (label, xs, ys) in enumerate(series):
        color = colors[idx % len(colors)]
        points = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{x1 - 150}" y="{y1 + 15 * idx}" font-size="11" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _check_step_inequalities(diag, baseline):
    slack = INEQUALITY_SLACK * baseline["energy0"]
    problems = []
    if not diag.conditions.all_ok:
        problems.append(f"stability conditions violated {diag.conditions.as_tuple()}")
    if diag.energy_decrement < -slack:
        problems.append(f"energy increased by {-diag.energy_decrement!r}")
    if diag.entropy_decrement < -slack:
        problems.append(f"entropy increased by {-diag.entropy_decrement!r}")
    if not diag.min_density > 0.0:
        problems.append(f"density positivity lost (min {diag.min_density!r})")
    if abs(diag.total_mass - baseline["mass0"]) > CONSERVATION_TOL * abs(baseline["mass0"]):
        problems.append("total mass drifted")
    mom_tol = CONSERVATION_TOL * baseline["momentum_scale"]
    if np.abs(diag.total_momentum - baseline["momentum0"]).max() > mom_tol:
        problems.append("total momentum drifted")
    if problems:
        raise InequalityViolation(f"step {diag.step_index}: " + "; ".join(problems))


def run_case(cfg: RunConfig, output_dir=None, assert_inequalities: bool = False,
             collect_states: bool = False, write_outputs: bool = True) -> RunResult:
    """Advance one configured case and (optionally) write its outputs."""
    mesh = build_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    state0 = initial_state(cfg, mesh)
    gas = cfg.params.gas()
    report0 = energy_report(mesh, gas, state0.rho, state0.u, cfg.params.eps)
    vol = mesh.cell_volume
    baseline = {
        "energy0": report0.total,
        "mass0": vol * state0.rho.sum(),
        "momentum0": vol * (state0.rho[:, None] * state0.u).sum(axis=0),
        "momentum_scale": max(vol * (np.abs(state0.rho[:, None] * state0.u)).sum(),
                              vol * state0.rho.sum()),
        "ke0": report0.kinetic,
    }

    out = Path(output_dir if output_dir is not None else cfg.output)
    if write_outputs:
        out.mkdir(parents=True, exist_ok=True)
        text = _effective_run_text(cfg)
        (out / "config.ini").write_text(text)
        cfg_hash = _config_hash(text)
        if cfg.emit_fields:
            _emit_fields(out, mesh, state0)

    rows = []

    def on_step(before, after, diag):
        if assert_inequalities:
            _check_step_inequalities(diag, baseline)
        ke0 = baseline["ke0"]
        ke_ratio = diag.kinetic_energy / ke0 if ke0 > 0.0 else float("nan")
        rows.append([
            diag.step_index, diag.time, diag.dt_used, diag.total_energy,
            diag.total_entropy, diag.total_mass, diag.min_density,
            diag.newton_iters, diag.final_residual,
            diag.conditions.eta_ok, diag.conditions.flux_cfl_ok,
            diag.conditions.dt_cfl_ok, ke_ratio,
        ])
        if write_outputs and cfg.emit_fields and diag.step_index % cfg.output_every == 0:
            _emit_fields(out, mesh, after)

    final_state, diags, states = advance(
        mesh, state0, cfg.params, cfg.final_time,
        collect_states=collect_states, on_step=on_step)

    if write_outputs:
        header = ("step,time,dt,total_energy,total_entropy,total_mass,"
                  "min_density,newton_iters,final_residual,cond_eta,"
                  "cond_flux_cfl,cond_dt_cfl,ke_ratio")
        lines = [f"# config_sha256={cfg_hash}",
                 "# units: all quantities nondimensional",
                 header]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        (out / "diagnostics.csv").write_text("\n".join(lines) + "\n")
        if cfg.emit_svg and rows:
            times = [r[1] for r in rows]
            write_line_chart(out / "energy.svg", "Total energy", "time",
                             "energy", [("total energy", times, [r[3] for r in rows])])
            write_line_chart(out / "ke_ratio.svg", "Kinetic energy ratio", "time",
                             "KE(t)/KE(0)", [("ke ratio", times, [r[12] for r in rows])])

    return RunResult(mesh=mesh, config=cfg, final_state=final_state,
                     diags=diags, states=states,
                     output_dir=out if write_outputs else None)


def restrict_to_coarse(fine_values: np.ndarray, fine_mesh: StructuredMesh,
                       coarse_mesh: StructuredMesh) -> np.ndarray:
    """Exact block average of a fine cell field onto a nested coarser mesh."""
    if not (np.isclose(fine_mesh.lx, coarse_mesh.lx)
            and np.isclose(fine_mesh.ly, coarse_mesh.ly)):
        raise ValueError("meshes cover different domains")
    if fine_mesh.nx % coarse_mesh.nx or fine_mesh.ny % coarse_mesh.ny:
        raise ValueError(
            f"fine mesh {fine_mesh.nx}x{fine_mesh.ny} is not a refinement of "
            f"{coarse_mesh.nx}x{coarse_mesh.ny}")
    rx = fine_mesh.nx // coarse_mesh.nx
    ry = fine_mesh.ny // coarse_mesh.ny
    grid = cell_grid(fine_mesh, fine_values)
    return grid.reshape(coarse_mesh.ny, ry, coarse_mesh.nx, rx).mean(axis=(1, 3)).ravel()


def _coupled_grid_job(args):
    cfg, n, out_sub = args
    h = cfg.lx / n
    run_cfg = RunConfig(
        case=cfg.case, nx=n, ny=n, lx=cfg.lx, ly=cfg.ly,
        final_time=cfg.final_time,
        params=replace(cfg.params, eps=h),
        output=str(out_sub), emit_fields=False, emit_svg=False)
    result = run_case(run_cfg, collect_states=True)
    v_exact, _ = vortex_incompressible_exact(result.mesh)
    report = error_norms(result.mesh, run_cfg.params.gas(), result.states,
                         v_exact, run_cfg.params.eps)
    return n, report.as_dict()


def _fixed_grid_job(args):
    cfg, n, out_sub = args
    run_cfg = RunConfig(
        case=cfg.case, nx=n, ny=n, lx=cfg.lx, ly=cfg.ly,
        final_time=cfg.final_time, params=cfg.params,
        output=str(out_sub), emit_fields=False, emit_svg=False)
    result = run_case(run_cfg)
    st = result.final_state
    return n, {"rho": st.rho, "mom_x": st.rho * st.u[:, 0],
               "mom_y": st.rho * st.u[:, 1]}


def _l2_diff(mesh, a, b):
    return float(np.sqrt(mesh.cell_volume * ((np.asarray(a) - np.asarray(b)) ** 2).sum()))


def convergence_study(cfg: ConvergenceConfig, output_dir=None, threads: int = 1):
    """Run the configured grid sequence and tabulate errors with EOC columns.

    mode "coupled" ties eps = h and measures errors against the projected
    incompressible vortex; mode "fixed" keeps eps fixed and compares final
    fields against a block-averaged finer reference run.  Returns the list
    of row dicts and writes convergence.csv.
    """
    out = Path(output_dir if output_dir is not None else cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    text = _effective_convergence_text(cfg)
    (out / "config.ini").write_text(text)
    cfg_hash = _config_hash(text)

    if cfg.mode == "coupled":
        jobs = [(cfg, n, out / f"grid_{n:04d}") for n in cfg.grids]
        results = _run_jobs(_coupled_grid_job, jobs, threads)
        columns = ["rel_energy_sup", "rho_l2l2", "rho_supl2", "u_l2l2", "u_supl2"]
        rows = []
        for n, errs in results:
            row = {"n": n, "h": cfg.lx / n, "eps": cfg.lx / n}
            row.update({c: errs[c] for c in columns})
            rows.append(row)
    else:
        ref_job = (cfg, cfg.reference, out / f"reference_{cfg.reference:04d}")
        jobs = [(cfg, n, out / f"grid_{n:04d}") for n in cfg.grids]
        results = _run_jobs(_fixed_grid_job, jobs + [ref_job], threads)
        fields = dict(results)
        ref_fields = fields.pop(cfg.reference)
        ref_mesh = build_mesh(cfg.reference, cfg.reference, cfg.lx, cfg.ly)
        columns = ["rho", "mom_x", "mom_y"]
        rows = []
        for n in cfg.grids:
            mesh_n = build_mesh(n, n, cfg.lx, cfg.ly)
            row = {"n": n, "h": cfg.lx / n, "eps": cfg.params.eps}
            for c in columns:
                restricted = restrict_to_coarse(ref_fields[c], ref_mesh, mesh_n)
                row[c] = _l2_diff(mesh_n, fields[n][c], restricted)
            rows.append(row)

    for c in columns:
        rates = eoc([(row["h"], row[c]) for row in rows])
        rows[0][f"eoc_{c}"] = None
        for row, rate in zip(rows[1:], rates):
            row[f"eoc_{c}"] = rate

    header = "n,h,eps," + ",".join(f"{c},eoc" for c in columns)
    lines = [f"# config_sha256={cfg_hash}",
             "# units: all quantities nondimensional; eoc columns are "
             "log-ratios of consecutive errors",
             header]
    for row in rows:
        cells = [str(row["n"]), _fmt(row["h"]), _fmt(row["eps"])]
        for c in columns:
            cells.append(_fmt(row[c]))
            rate = row[f"eoc_{c}"]
            cells.append("" if rate is None else f"{rate:.3f}")
        lines.append(",".join(cells))
    (out / "convergence.csv").write_text("\n".join(lines) + "\n")
    return rows


def _run_jobs(fn, jobs, threads):
    if threads > 1:
        # Imported here: serial runs need no process pool machinery.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]
