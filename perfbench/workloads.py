"""The benchmark's workloads and the mapping from a seed to a run's inputs.

Both workloads run the rotating-column vortex at gamma = 2.  The seed
draws the domain lengths lx and ly from DOMAIN_BAND.  That changes the cell
aspect ratio and where the vortex (centre (0.5, 0.5), outer radius 0.4)
sits relative to the cells, while the vortex still fits in the domain.
The band is narrow because the controller's dt scales with the cell size,
so a wider band would spread the step count, and with it the time to
solution, across seeds.  Even 2% moves the vortex centre by over a cell at
64^2 and 128^2, which alone spreads limit_rel_energy by about +-10% across
seeds.

This module imports nothing from machfv: the solver only ever sees the
RunConfig keywords or the INI text built here.
"""

import random
from dataclasses import dataclass

DOMAIN_BAND = (1.0, 1.02)
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    eps: float
    final_time: float
    cli: bool
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("lowmach_128", 128, 1e-2, 0.004, False,
             "run_case at 128^2, eps=1e-2: the sparse direct solve is about "
             "88% of wall time, so a faster linear solve shows here"),
    Workload("cli_lowmach_64", 64, 1e-4, 0.05, True,
             "machfv run at 64^2, eps=1e-4, snapshots and SVG every step: output, "
             "config loading and the non-solver layers (about half of wall time) "
             "show here, at the low-Mach noise floor"),
)}


def run_keys(workload: Workload, seed: int) -> dict:
    """The [run] keys of one run; the same seed gives the same keys."""
    rng = random.Random(seed)
    lo, hi = DOMAIN_BAND
    keys = dict(case="vortex", nx=workload.n, ny=workload.n,
                lx=lo + (hi - lo) * rng.random(),
                ly=lo + (hi - lo) * rng.random(),
                gamma=2.0, eps=workload.eps, final_time=workload.final_time)
    if workload.cli:
        keys.update(output_every=1, emit_fields=True, emit_svg=True)
    return keys


def ini_text(keys: dict) -> str:
    """INI file holding the keys, floats written exactly (shortest repr)."""
    lines = ["[run]"]
    for key, value in keys.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
