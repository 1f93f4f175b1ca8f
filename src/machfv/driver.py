"""Run orchestration: config files, case runs, convergence studies, output.

Configs are INI files of one section.  A run config is a [run] section
(case, mesh, gas, final time, output options); a convergence config is a
[convergence] section (mode, case, grid list, gas, final time).  Any other
section is refused.  The dataclasses RunConfig,
ConvergenceConfig and SchemeParams are the schema: each key, its type and
its default is one of their fields, the loader and the config.ini echo
walk those fields in order, and their __post_init__ checks refuse the same
values whether they come from a file or from Python (ConfigError, or
ValueError from SchemeParams outside a file).  Every CSV written here
starts with a comment line carrying the sha256 of the effective config, so
outputs are traceable to their inputs; rows are formatted with shortest
round-trip float representations, which makes repeated runs
byte-identical.

A convergence study is a list of (n, eps) points, one n x n run each, each
measured by error_norms against the exact solution of its case: eps = h
against the incompressible limit (mode "coupled"), or a fixed eps against
the exact compressible solution, which only the moving vortex has.

Field snapshots are binary: write_field_snapshot writes one uncompressed
fields/stepNNNNNN.npz per snapshot, in process, holding rho, ux and uy as
(ny, nx) arrays and the time and mesh as 0-d arrays.  Its bytes are exactly
np.savez's for the same arrays: a mesh fixes every header, size and offset,
so np.savez writes a template once per mesh and each snapshot refills the
array bytes and CRC-32s of rho, ux, uy and time in a copy of it.  np.savez
stamps no time on its entries, so repeated runs write byte-identical files.
"""

import configparser
import functools
import hashlib
import io
import struct
import zlib
from dataclasses import dataclass, field, fields, replace
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


class ConfigError(ValueError):
    """A config file is syntactically or semantically invalid."""


class InequalityViolation(RuntimeError):
    """A run violated an asserted stability inequality."""


def _check_case(cfg, eps: float):
    """Reject an unknown case, a domain that cuts the vortex, or an
    eps and gamma at which its initial density is not positive or overflows."""
    case, gamma = cfg.case, cfg.params.gamma
    if case not in CASES:
        raise ConfigError(f"[{cfg.section}] case must be one of {CASES}, got {case!r}")
    if case == "well_prepared" and not eps < 1.0:
        # rho = 1 + eps^2 g with max|g| = 1 reaches 0 at eps = 1.
        raise ConfigError(
            f"case 'well_prepared' needs eps < 1, got eps = {eps!r}: its "
            f"density 1 + eps^2 g, with max|g| = 1, is not positive at eps >= 1")
    # The vortex at rest reaches CENTER + R2; the moving one must miss its images.
    name, span = (("2 r2", 2.0 * R2) if case == "moving_vortex"
                  else ("centre + r2", max(CENTER) + R2))
    if not min(cfg.lx, cfg.ly) >= span:
        raise ConfigError(
            f"[{cfg.section}] case {case!r} needs lx and ly >= {name} = {span!r}, got "
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
            f"[{cfg.section}] case {case!r} with gamma = {gamma!r} and eps = {eps!r}: "
            f"its peak initial density {peak!r}, or the pressure rho**gamma or its "
            f"derivative one rounding unit above it, exceeds the largest double "
            f"{float(np.finfo(float).max)!r}")


def _check_extents(cfg):
    """Reject a domain length or final time that is not positive and finite."""
    for name in ("lx", "ly", "final_time"):
        value = getattr(cfg, name)
        if not 0.0 < value < np.inf:
            raise ConfigError(f"[{cfg.section}] {name} must be positive and finite, "
                              f"got {value!r}")


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
    output: str = "machfv_out"
    output_every: int = 10
    emit_fields: bool = False
    emit_svg: bool = False

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ConfigError(f"[run] nx and ny must be >= 3, got {self.nx} x {self.ny}")
        _check_extents(self)
        _check_case(self, self.params.eps)
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
    output: str = "machfv_convergence"

    def __post_init__(self):
        _check_extents(self)
        if self.mode not in ("coupled", "fixed"):
            raise ConfigError(f"[convergence] mode must be 'coupled' or 'fixed', got {self.mode!r}")
        if not self.grids or min(self.grids) < 3:
            raise ConfigError(f"[convergence] grids must list mesh sizes >= 3, got {self.grids}")
        if any(b <= a for a, b in zip(self.grids, self.grids[1:])):
            raise ConfigError(f"[convergence] grids must be strictly increasing, got {self.grids}")
        if self.mode == "coupled" and self.params.eps != SchemeParams.eps:
            raise ConfigError(
                f"[convergence] eps = {self.params.eps!r} has no effect in coupled "
                f"mode, which runs each grid at eps = h; leave eps unset")
        if self.mode == "coupled":  # eps = h = lx / n, from the first grid to the last
            for n in (self.grids[0], self.grids[-1]):
                try:
                    replace(self.params, eps=self.lx / n)
                except ValueError as err:
                    raise ConfigError(f"[convergence] lx = {self.lx!r}: {err}") from None
        # Coupled studies run at eps = h, the largest on the first grid.
        _check_case(self, self.params.eps if self.mode == "fixed"
                    else self.lx / self.grids[0])
        if self.mode == "fixed" and self.case != "moving_vortex":
            raise ConfigError(
                f"[convergence] fixed mode measures against the exact compressible "
                f"solution, which case {self.case!r} does not have; use case "
                f"'moving_vortex'")


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
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


# Field annotation -> (INI text converter, what the error message expects).
_CONVERTERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    str: (str, "a string"),
    bool: (_to_bool, "a boolean"),
    tuple[int, ...]: (lambda raw: tuple(int(part) for part in raw.replace(",", " ").split()),
                      "a comma-separated integer list"),
}


def _schema(cls):
    """(field, in params) for every key of a `cls` file, in file order."""
    for f in fields(cls):
        if f.name != "params":
            yield f, False
        else:
            yield from ((p, True) for p in fields(SchemeParams))


def _convert(section: str, f, raw: str):
    convert, describe = _CONVERTERS[f.type]
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


def _config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


@functools.lru_cache(maxsize=1, typed=True)
def _snapshot_template(nx, ny, lx, ly):
    """np.savez's bytes for zero fields at time 0, and for rho, ux, uy and time the
    (start, array start, end) of its .npy bytes and the offsets of its CRC-32
    (PKWARE APPNOTE.TXT 4.3.7, 4.3.12, 4.3.16).  Typed: an int lx saves as int."""
    grid = np.zeros((ny, nx))
    buf = io.BytesIO()
    np.savez(buf, rho=grid, ux=grid, uy=grid, time=0.0, nx=nx, ny=ny, lx=lx, ly=ly)
    data = buf.getvalue()
    entry, = struct.unpack_from("<I", data, len(data) - 22 + 16)  # central directory
    members = []
    for nbytes in (grid.nbytes,) * 3 + (8,):
        size, name_len, extra_len, comment_len = struct.unpack_from("<I3H", data, entry + 24)
        local, = struct.unpack_from("<I", data, entry + 42)
        start = local + 30 + sum(struct.unpack_from("<2H", data, local + 26))
        members.append((start, start + size - nbytes, start + size, (local + 14, entry + 16)))
        entry += 46 + name_len + extra_len + comment_len
    return data, tuple(members)


def write_field_snapshot(path, mesh: StructuredMesh, state):
    """Binary snapshot of `state`: rho, ux, uy as (ny, nx) arrays, time and mesh
    as 0-d, byte for byte what np.savez writes, including its .npz suffix rule."""
    data, members = _snapshot_template(mesh.nx, mesh.ny, mesh.lx, mesh.ly)
    buf = bytearray(data)
    values = (cell_grid(mesh, state.rho), cell_grid(mesh, state.u[:, 0]),
              cell_grid(mesh, state.u[:, 1]), state.time)
    for value, (start, array_start, end, crc_offsets) in zip(values, members):
        view = np.frombuffer(buf, np.float64, (end - array_start) // 8, array_start)
        view.reshape(np.shape(value))[...] = value  # C order, as np.save writes
        crc = zlib.crc32(memoryview(buf)[start:end])
        for offset in crc_offsets:
            struct.pack_into("<I", buf, offset, crc)
    with open(path if str(path).endswith(".npz") else f"{path}.npz", "wb") as fh:
        fh.write(buf)


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
        "momentum0": total_momentum(mesh, state0.rho, state0.u),
        "momentum_scale": max(total_momentum(mesh, state0.rho, np.abs(state0.u)).sum(),
                              vol * state0.rho.sum()),
        "ke0": report0.kinetic,
    }

    out = Path(output_dir if output_dir is not None else cfg.output)
    snapshots = write_outputs and cfg.emit_fields

    def snapshot(state):
        write_field_snapshot(out / "fields" / f"step{state.step_index:06d}.npz",
                             mesh, state)

    if write_outputs:
        out.mkdir(parents=True, exist_ok=True)
        # An earlier run into this directory must not leave snapshots or
        # charts beside this run's config.ini.  Only regular files go: a
        # directory in the way fails at the write that needs its name.
        for stale in [*out.glob("fields/step[0-9][0-9][0-9][0-9][0-9][0-9].npz"),
                      out / "energy.svg", out / "ke_ratio.svg"]:
            if stale.is_file():
                stale.unlink()
        text = _config_text(cfg)
        (out / "config.ini").write_text(text)
        cfg_hash = _config_hash(text)
    if snapshots:
        (out / "fields").mkdir(exist_ok=True)
        snapshot(state0)

    rows = []

    def on_step(before, after, diag):
        if assert_inequalities:
            _check_step_inequalities(diag, baseline)
        ke0 = baseline["ke0"]
        ke_ratio = diag.energy.kinetic / ke0 if ke0 > 0.0 else float("nan")
        rows.append([
            diag.step_index, diag.time, diag.dt_used, diag.energy.total,
            diag.energy.entropy_total, diag.total_mass, diag.min_density,
            diag.newton_iters, diag.final_residual,
            diag.conditions.eta_ok, diag.conditions.flux_cfl_ok,
            diag.conditions.dt_cfl_ok, ke_ratio,
        ])
        if snapshots and diag.step_index % cfg.output_every == 0:
            snapshot(after)

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


def _point_errors(cfg: ConvergenceConfig, n: int, eps: float, out_sub) -> dict:
    """error_norms of one n x n run at eps against the exact solution of its
    case: compressible in fixed mode, the incompressible limit in coupled mode."""
    run_cfg = RunConfig(
        case=cfg.case, nx=n, ny=n, lx=cfg.lx, ly=cfg.ly,
        final_time=cfg.final_time,
        params=replace(cfg.params, eps=eps),
        output=str(out_sub), emit_fields=False, emit_svg=False)
    result = run_case(run_cfg, collect_states=True)
    mesh, gamma = result.mesh, cfg.params.gamma
    density, velocity = 1.0, lambda t: moving_vortex(mesh, gamma, eps, t).u
    if cfg.case != "moving_vortex":
        velocity = vortex_incompressible_exact(mesh)[0]
    elif cfg.mode == "fixed":
        density = lambda t: moving_vortex(mesh, gamma, eps, t).rho
    report = error_norms(mesh, run_cfg.params.gas(), result.states, velocity, eps,
                         exact_density=density)
    return report.as_dict()


def convergence_study(cfg: ConvergenceConfig, output_dir=None):
    """Run the configured grid sequence and tabulate errors with EOC columns.

    Each grid n is one study point (n, eps): mode "coupled" ties eps = h and
    measures against the incompressible limit of the case (unit density);
    mode "fixed" keeps the configured eps and measures against the exact
    compressible moving vortex.  Both report the error_norms columns, so
    convergence.csv has one header.  Returns the list of row dicts and
    writes convergence.csv.
    """
    out = Path(output_dir if output_dir is not None else cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    text = _config_text(cfg)
    (out / "config.ini").write_text(text)
    cfg_hash = _config_hash(text)

    columns = [f.name for f in fields(ErrorReport)]
    rows = []
    for n in cfg.grids:
        eps = cfg.lx / n if cfg.mode == "coupled" else cfg.params.eps
        row = {"n": n, "h": cfg.lx / n, "eps": eps}
        row.update(_point_errors(cfg, n, eps, out / f"grid_{n:04d}"))
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
