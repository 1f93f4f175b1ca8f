"""Mach sweep at fixed mesh: the incompressible regime emerges as eps -> 0.

Two signatures of correct low-Mach behaviour, both on one 32x32 mesh:

1. The density stays within O(eps^2) of the constant state, so the
   deviation sup_t ||rho - 1||_L2 collapses quadratically with eps
   instead of merely linearly (no acoustic pile-up on the grid).
2. The flow itself becomes independent of eps: the normalised kinetic
   energy histories KE(t)/KE(0) for eps = 1, 0.1, 0.01, 0.001 land on one
   curve.  A scheme that loses accuracy at low Mach shows runaway damping
   here; this one dissipates the same few percent regardless of eps.

Prints both tables and writes an overlay chart of the KE histories to
demo_output/04_low_mach_overlap/ke_overlap.svg.
"""

import math
from pathlib import Path

import numpy as np

from machfv import (RunConfig, SchemeParams, energy_report, run_case,
                    write_line_chart)

OUT = Path("demo_output/04_low_mach_overlap")
EPS_SWEEP = (1.0, 0.1, 0.01, 0.001)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    series = []
    deviations = {}
    curves = {}
    grid = np.linspace(0.0, 0.1, 201)
    for eps in EPS_SWEEP:
        cfg = RunConfig(case="vortex", nx=32, ny=32, final_time=0.1,
                        params=SchemeParams(gamma=2.0, eps=eps))
        print(f"running 32x32 vortex at eps = {eps:g} ...")
        result = run_case(cfg, collect_states=True, write_outputs=False)
        mesh, params = result.mesh, result.config.params
        s0 = result.states[0]
        ke0 = energy_report(mesh, params.gas(), s0.rho, s0.u, params.eps).kinetic
        times = [0.0] + [d.time for d in result.diags]
        ratios = [1.0] + [d.energy.kinetic / ke0 for d in result.diags]
        series.append((f"eps = {eps:g}", times, ratios))
        curves[eps] = np.interp(grid, times, ratios)
        vol = mesh.cell_volume
        deviations[eps] = max(math.sqrt(vol * ((s.rho - 1.0) ** 2).sum())
                              for s in result.states)

    print("\ndensity deviation collapses like eps^2:")
    print(f"{'eps':>8} {'sup_t ||rho-1||_L2':>20} {'/ eps':>12} {'/ eps^2':>12}")
    for eps in EPS_SWEEP:
        d = deviations[eps]
        print(f"{eps:8g} {d:20.6e} {d / eps:12.4e} {d / eps ** 2:12.4f}")

    worst = max(float(np.abs(curves[a] - curves[b]).max())
                for i, a in enumerate(EPS_SWEEP) for b in EPS_SWEEP[i + 1:])
    print(f"\nkinetic-energy histories: KE(T)/KE(0) = "
          + ", ".join(f"{curves[eps][-1]:.4f} (eps={eps:g})" for eps in EPS_SWEEP))
    print(f"largest pairwise gap between the four curves: {worst:.4f}")

    write_line_chart(OUT / "ke_overlap.svg", "KE(t)/KE(0) across the Mach sweep",
                     "time", "KE ratio", series)
    print(f"overlay chart in {OUT}/ke_overlap.svg")


if __name__ == "__main__":
    main()
