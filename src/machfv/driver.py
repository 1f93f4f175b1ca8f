"""Run orchestration: config files, case runs, convergence studies, output.

Configs are INI files of one section.  A run config is a [run] section
(case, mesh, gas, final time, output options); a convergence config is a
[convergence] section (mode, case, grid list, gas, final time).  Any other
section is refused.  No config names an output directory: run_case and
convergence_study take it as output_dir.  The dataclasses RunConfig,
ConvergenceConfig and SchemeParams are the schema: each key, its type and
its default is one of their fields, the loader and the config.ini echo walk
those fields in order, and their __post_init__ checks refuse the same values
whether they come from a file or from Python (ConfigError, or ValueError
from SchemeParams outside a file).  Every CSV written here starts with a
comment line carrying the sha256 of the effective config, so outputs are
traceable to their inputs; rows are formatted with shortest round-trip float
representations, which makes repeated runs byte-identical.

A convergence study runs ConvergenceConfig.runs(), one n x n RunConfig per
grid, and measures each by error_norms against the exact solution of its
case: at eps = h against the incompressible limit (mode "coupled"), at a
fixed eps against the exact compressible solution (only the moving vortex).

Field snapshots are binary: write_field_snapshot writes one
fields/stepNNNNNN.npy per snapshot, in process, np.save's bytes for a 0-d
structured record holding rho, ux and uy as (ny, nx) fields and the time and
mesh as scalars, so np.load(path)["rho"] reads a field back.  The dtype is
spelled out, so the bytes do not depend on the platform, and np.save stamps
no time, so runs write byte-identical files; dtype and header are per grid.
"""

import configparser
import functools
import hashlib
import io
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .cases import (CENTER, R2, moving_vortex, peak_density, vortex_compressible_init,
                    vortex_incompressible_exact, well_prepared_perturbation)
from .diagnostics import ErrorReport, energy_report, eoc, error_norms, total_momentum
from .mesh import StructuredMesh, build_mesh, cell_grid
from .stepper import SchemeParams, advance

CASES = ("vortex", "well_prepared", "moving_vortex")
INEQUALITY_SLACK = 1e-12
CONSERVATION_TOL = 1e-12
PEAK_DENSITY_MAX = 1e4  # the vortex's largest density ratio; the README says why


class ConfigError(ValueError):
    """A config file is syntactically or semantically invalid."""


class InequalityViolation(RuntimeError):
    """A run violated an asserted stability inequality."""


def _check_case(cfg):
    """Reject an unknown case, a domain that cuts the vortex, or an eps and
    gamma at which its initial density is not positive, overflows or peaks too high."""
    case, gamma, eps = cfg.case, cfg.params.gamma, cfg.params.eps
    if case not in CASES:
        raise ConfigError(f"[run] case must be one of {CASES}, got {case!r}")
    if case == "well_prepared" and not eps < 1.0:
        # rho = 1 + eps^2 g with max|g| = 1 reaches 0 at eps = 1.
        raise ConfigError(
            f"[run] case 'well_prepared' needs eps < 1, got eps = {eps!r}: its "
            f"density 1 + eps^2 g, with max|g| = 1, is not positive at eps >= 1")
    # The vortex at rest reaches CENTER + R2; the moving one must miss its images.
    name, span = (("2 r2", 2.0 * R2) if case == "moving_vortex"
                  else ("centre + r2", max(CENTER) + R2))
    if not min(cfg.lx, cfg.ly) >= span:
        raise ConfigError(
            f"[run] case {case!r} needs lx and ly >= {name} = {span!r}, got "
            f"{cfg.lx!r} x {cfg.ly!r}: the vortex would reach past one period of the domain")
    # The pressure law is read one rounding unit above the peak, since every
    # density the solver computes carries that error: at gamma = 1e300 the
    # peak rounds to 1, where p = 1 is finite, but p(1 + 2^-52) is not.
    peak = peak_density(case, gamma, eps)
    top = np.nextafter(peak, np.inf)
    with np.errstate(over="ignore"):
        finite = np.isfinite([peak, top ** gamma, gamma * top ** (gamma - 1.0)]).all()
    if not finite:
        raise ConfigError(
            f"[run] case {case!r} with gamma = {gamma!r} and eps = {eps!r}: "
            f"its peak initial density {peak!r}, or the pressure rho**gamma or its "
            f"derivative one rounding unit above it, exceeds the largest double "
            f"{float(np.finfo(float).max)!r}")
    if case == "vortex" and peak > PEAK_DENSITY_MAX:
        raise ConfigError(f"[run] case 'vortex' with gamma = {gamma!r} and eps = {eps!r}: its "
                          f"peak initial density {peak!r} exceeds {PEAK_DENSITY_MAX:g} times "
                          f"its centre value 1, and the controller's dt falls as it rises")


@dataclass(frozen=True)
class RunConfig:
    """One case run; fields are the keys of a [run] file, in file order."""

    section: ClassVar[str] = "run"
    case: str = "vortex"
    nx: int = 32
    ny: int = 32
    lx: float = 1.0
    ly: float = 1.0
    params: SchemeParams = field(default_factory=SchemeParams)
    final_time: float = 0.1
    output_every: int = 10
    emit_fields: bool = False
    emit_svg: bool = False

    def __post_init__(self):
        _check_types(self)
        if self.nx < 3 or self.ny < 3:
            raise ConfigError(f"[run] nx and ny must be >= 3, got {self.nx} x {self.ny}")
        for name in ("lx", "ly", "final_time"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ConfigError(f"[run] {name} must be positive and finite, got {value!r}")
        _check_case(self)
        if self.output_every < 1:
            raise ConfigError(f"[run] output_every must be >= 1, got {self.output_every}")


@dataclass(frozen=True)
class ConvergenceConfig:
    """A grid study; fields are the keys of a [convergence] file, in file order."""

    section: ClassVar[str] = "convergence"
    mode: str = "coupled"
    case: str = "vortex"
    grids: tuple[int, ...] = (8, 16, 32)
    lx: float = 1.0
    ly: float = 1.0
    params: SchemeParams = field(default_factory=SchemeParams)
    final_time: float = 0.1

    def __post_init__(self):
        _check_types(self)
        if self.mode not in ("coupled", "fixed"):
            raise ConfigError(f"[convergence] mode must be 'coupled' or 'fixed', got {self.mode!r}")
        if not self.grids or any(b <= a for a, b in zip((0, *self.grids), self.grids)):
            raise ConfigError(f"[convergence] grids must be > 0 and strictly increasing, "
                              f"got {self.grids}")
        if self.mode == "coupled" and self.params.eps != SchemeParams.eps:
            raise ConfigError(
                f"[convergence] eps = {self.params.eps!r} has no effect in coupled "
                f"mode, which runs each grid at eps = h; leave eps unset")
        self.runs()  # each grid must be a valid run
        if self.mode == "fixed" and self.case != "moving_vortex":
            raise ConfigError(
                f"[convergence] fixed mode measures against the exact compressible "
                f"solution, which case {self.case!r} does not have; use case "
                f"'moving_vortex'")

    def runs(self) -> list[RunConfig]:
        """The study's runs, one n x n RunConfig per grid n: at eps = h = lx / n
        in coupled mode, at the configured eps in fixed mode."""
        runs, coupled = [], self.mode == "coupled"
        for n in self.grids:
            eps = self.lx / n if coupled else self.params.eps
            try:
                runs.append(RunConfig(case=self.case, nx=n, ny=n, lx=self.lx, ly=self.ly,
                                      params=replace(self.params, eps=eps),
                                      final_time=self.final_time))
            except ValueError as err:
                raise ConfigError(f"[convergence] grid {n}, eps = {eps!r}"
                                  f"{' = lx / n' if coupled else ''}: "
                                  f"{str(err).removeprefix('[run] ')}") from None
        return runs


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


def _to_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _integral(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# Field annotation -> (INI text converter, what the error message expects,
# whether a value built in Python has the field's type).
_CONVERTERS = {
    int: (int, "an integer", _integral),
    float: (float, "a number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    str: (str, "a string", lambda v: isinstance(v, str)),
    bool: (_to_bool, "a boolean", lambda v: isinstance(v, bool)),
    tuple[int, ...]: (lambda raw: tuple(int(part) for part in raw.replace(",", " ").split()),
                      "a comma-separated integer list",
                      lambda v: isinstance(v, tuple) and all(map(_integral, v))),
}


def _schema(cls):
    """(field, in params) for every key of a `cls` file, in file order."""
    for f in fields(cls):
        if f.name != "params":
            yield f, False
        else:
            yield from ((p, True) for p in fields(SchemeParams))


def _check_types(cfg):
    """Refuse a value of another type than its field; SchemeParams checks its own."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name != "params" and not _CONVERTERS[f.type][2](value):
            raise ConfigError(f"[{cfg.section}] {f.name} = {value!r}: "
                              f"expected {_CONVERTERS[f.type][1]}")


def _convert(section: str, f, raw: str):
    convert, describe, _ = _CONVERTERS[f.type]
    try:
        return convert(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {f.name} = {raw!r}: expected {describe}") from err


def _load_config(path, cls):
    parser = _read_ini(path)
    if not parser.has_section(cls.section):
        raise ConfigError(f"{path}: missing [{cls.section}] section")
    unknown = [f"[{name}]" for name in parser.sections() if name != cls.section]
    if unknown:
        raise ConfigError(f"{path}: unknown sections {', '.join(unknown)}; "
                          f"a {cls.section} config has [{cls.section}] only")
    raw = dict(parser[cls.section])
    kwargs, param_kwargs = {}, {}
    for f, in_params in _schema(cls):
        if f.name in raw:
            value = _convert(cls.section, f, raw.pop(f.name))
            (param_kwargs if in_params else kwargs)[f.name] = value
    if raw:
        raise ConfigError(f"unknown keys in [{cls.section}]: {', '.join(sorted(raw))}")
    try:
        params = SchemeParams(**param_kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return cls(**kwargs, params=params)


def load_run_config(path) -> RunConfig:
    return _load_config(path, RunConfig)


def load_convergence_config(path) -> ConvergenceConfig:
    return _load_config(path, ConvergenceConfig)


def _config_text(cfg) -> str:
    """The config as INI text that loads back to it."""
    lines = [f"[{cfg.section}]\n"]
    for f, in_params in _schema(type(cfg)):
        value = getattr(cfg.params if in_params else cfg, f.name)
        if isinstance(value, (tuple, list)):
            value = ", ".join(map(str, value))
        lines.append(f"{f.name} = {value}\n")
    return "".join(lines)


def _echo_config(cfg, out: Path) -> str:
    """Make `out`, echo `cfg` into out/config.ini and return the echo's sha256."""
    out.mkdir(parents=True, exist_ok=True)
    text = _config_text(cfg)
    (out / "config.ini").write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _write_csv(path: Path, cfg_hash: str, units: str, header: str, rows):
    """A CSV of string cells under the config hash and units comment lines."""
    lines = [f"# config_sha256={cfg_hash}", f"# units: {units}", header]
    lines += [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def initial_state(cfg: RunConfig, mesh: StructuredMesh):
    if cfg.case == "vortex":
        return vortex_compressible_init(mesh, cfg.params.gamma, cfg.params.eps)
    if cfg.case == "moving_vortex":
        return moving_vortex(mesh, cfg.params.gamma, cfg.params.eps)
    return well_prepared_perturbation(mesh, cfg.params.eps)


@dataclass
class RunResult:
    mesh: StructuredMesh
    config: RunConfig
    final_state: object
    diags: list
    states: list | None
    output_dir: Path | None


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):  # a bool writes as 1 or 0
        return str(int(x))
    return repr(float(x))


@functools.cache
def _snapshot_layout(ny: int, nx: int):
    """The record dtype of an (ny, nx) snapshot and np.save's header for it."""
    grid = (ny, nx)
    dtype = np.dtype([("rho", "<f8", grid), ("ux", "<f8", grid), ("uy", "<f8", grid),
                      ("time", "<f8"), ("nx", "<i8"), ("ny", "<i8"),
                      ("lx", "<f8"), ("ly", "<f8")])
    npy = io.BytesIO()
    np.save(npy, np.zeros((), dtype))
    return dtype, npy.getvalue()[:-dtype.itemsize]


def write_field_snapshot(path, mesh: StructuredMesh, state):
    """Binary snapshot of `state`: np.save's bytes for a 0-d structured record
    holding rho, ux and uy as (ny, nx) fields and the time and mesh as
    scalars.  As np.save does, it appends .npy to a path that lacks it."""
    dtype, header = _snapshot_layout(mesh.ny, mesh.nx)
    record = np.array((cell_grid(mesh, state.rho), cell_grid(mesh, state.u[:, 0]),
                       cell_grid(mesh, state.u[:, 1]), state.time,
                       mesh.nx, mesh.ny, mesh.lx, mesh.ly), dtype)
    path = os.fspath(path)
    with open(path if path.endswith(".npy") else path + ".npy", "wb") as npy:
        npy.write(header + record.tobytes())


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
    """--assert-inequalities' conservation and decay checks; step refuses the rest."""
    slack = INEQUALITY_SLACK * baseline["energy0"]
    problems = []
    if diag.energy_decrement < -slack:
        problems.append(f"energy increased by {-diag.energy_decrement!r}")
    if diag.entropy_decrement < -slack:
        problems.append(f"entropy increased by {-diag.entropy_decrement!r}")
    if abs(diag.total_mass - baseline["mass0"]) > CONSERVATION_TOL * abs(baseline["mass0"]):
        problems.append("total mass drifted")
    mom_tol = CONSERVATION_TOL * baseline["momentum_scale"]
    if np.abs(diag.total_momentum - baseline["momentum0"]).max() > mom_tol:
        problems.append("total momentum drifted")
    if problems:
        raise InequalityViolation(f"step {diag.step_index}: " + "; ".join(problems))


def run_case(cfg: RunConfig, output_dir="machfv_out", assert_inequalities: bool = False,
             collect_states: bool = False, write_outputs: bool = True) -> RunResult:
    """Advance one configured case and (optionally) write its outputs: one loop
    over advance's accepted steps, then diagnostics.csv and the charts from the
    kept diags.  A path that cannot be made or written raises its OSError, for
    config.ini and the output directories before any step."""
    mesh = build_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    state0 = initial_state(cfg, mesh)
    report0 = energy_report(mesh, cfg.params.gas(), state0.rho, state0.u, cfg.params.eps)
    vol = mesh.cell_volume
    baseline = {
        "energy0": report0.total,
        "mass0": vol * state0.rho.sum(),
        "momentum0": total_momentum(mesh, state0.rho, state0.u),
        "momentum_scale": max(total_momentum(mesh, state0.rho, np.abs(state0.u)).sum(),
                              vol * state0.rho.sum()),
    }
    ke0 = report0.kinetic

    out = Path(output_dir)
    snapshots = write_outputs and cfg.emit_fields

    def snapshot(state):
        write_field_snapshot(out / "fields" / f"step{state.step_index:06d}.npy",
                             mesh, state)

    if write_outputs:
        cfg_hash = _echo_config(cfg, out)
        # An earlier run into this directory must not leave snapshots or
        # charts beside this run's config.ini.  Only regular files go: a
        # directory in the way stays, and the write that needs its name
        # raises its OSError.
        for stale in [*out.glob("fields/step[0-9][0-9][0-9][0-9][0-9][0-9].npy"),
                      out / "energy.svg", out / "ke_ratio.svg"]:
            if stale.is_file():
                stale.unlink()
    if snapshots:
        (out / "fields").mkdir(exist_ok=True)
        snapshot(state0)

    diags = []
    states = [state0] if collect_states else None
    state = state0
    for state, diag in advance(mesh, state0, cfg.params, cfg.final_time):
        if assert_inequalities:
            _check_step_inequalities(diag, baseline)
        if snapshots and diag.step_index % cfg.output_every == 0:
            snapshot(state)
        diags.append(diag)
        if collect_states:
            states.append(state)

    if write_outputs:
        ke_ratios = [d.energy.kinetic / ke0 if ke0 > 0.0 else float("nan") for d in diags]
        _write_csv(out / "diagnostics.csv", cfg_hash, "all quantities nondimensional",
                   "step,time,dt,total_energy,total_entropy,total_mass,"
                   "min_density,newton_iters,final_residual,cond_eta,"
                   "cond_flux_cfl,cond_dt_cfl,ke_ratio",
                   [map(_fmt, (d.step_index, d.time, d.dt_used, d.energy.total,
                               d.energy.entropy_total, d.total_mass, d.min_density,
                               d.newton_iters, d.final_residual, d.conditions.eta_ok,
                               d.conditions.flux_cfl_ok, d.conditions.dt_cfl_ok, ke))
                    for d, ke in zip(diags, ke_ratios)])
        if cfg.emit_svg:
            times = [d.time for d in diags]
            write_line_chart(out / "energy.svg", "Total energy", "time", "energy",
                             [("total energy", times, [d.energy.total for d in diags])])
            write_line_chart(out / "ke_ratio.svg", "Kinetic energy ratio", "time",
                             "KE(t)/KE(0)", [("ke ratio", times, ke_ratios)])

    return RunResult(mesh=mesh, config=cfg, final_state=state,
                     diags=diags, states=states,
                     output_dir=out if write_outputs else None)


def _point_errors(cfg: ConvergenceConfig, run_cfg: RunConfig, grid_dir) -> dict:
    """error_norms of one study run against the exact solution of its case:
    compressible in fixed mode, the incompressible limit in coupled mode."""
    result = run_case(run_cfg, output_dir=grid_dir, collect_states=True)
    mesh, gamma, eps = result.mesh, run_cfg.params.gamma, run_cfg.params.eps
    density, velocity = 1.0, lambda t: moving_vortex(mesh, gamma, eps, t).u
    if cfg.case != "moving_vortex":
        velocity = vortex_incompressible_exact(mesh)[0]
    elif cfg.mode == "fixed":
        density = lambda t: moving_vortex(mesh, gamma, eps, t).rho
    report = error_norms(mesh, run_cfg.params.gas(), result.states, velocity, eps,
                         exact_density=density)
    return asdict(report)


def convergence_study(cfg: ConvergenceConfig, output_dir="machfv_convergence"):
    """Run cfg.runs(), one per grid, and tabulate errors with EOC columns.

    Mode "coupled" runs each grid at eps = h and measures against the
    incompressible limit of the case (unit density); mode "fixed" keeps the
    configured eps and measures against the exact compressible moving
    vortex.  Both report the error_norms columns, so convergence.csv has one
    header.  Returns the list of row dicts and writes convergence.csv.
    """
    out = Path(output_dir)
    cfg_hash = _echo_config(cfg, out)

    columns = [f.name for f in fields(ErrorReport)]
    rows = []
    for run in cfg.runs():
        row = {"n": run.nx, "h": run.lx / run.nx, "eps": run.params.eps}
        row.update(_point_errors(cfg, run, out / f"grid_{run.nx:04d}"))
        rows.append(row)

    table = [[str(row["n"]), _fmt(row["h"]), _fmt(row["eps"])] for row in rows]
    for c in columns:
        rates = [None, *eoc([(row["h"], row[c]) for row in rows])]
        for row, cells, rate in zip(rows, table, rates):
            row[f"eoc_{c}"] = rate
            cells += [_fmt(row[c]), "" if rate is None else f"{rate:.3f}"]
    _write_csv(out / "convergence.csv", cfg_hash,
               "all quantities nondimensional; eoc columns are log-ratios of "
               "consecutive errors",
               "n,h,eps," + ",".join(f"{c},eoc" for c in columns), table)
    return rows
