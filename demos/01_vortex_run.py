"""Run the stationary-vortex benchmark and read its diagnostics.

The initial datum is the `vortex` case: a mean-free angular velocity
profile supported in an annulus, with the paper's printed density
rho^(gamma-1) = 1 + (gamma/(gamma-1)) eps^2 pi(r).  That density does not
balance the centrifugal term (the balance needs (gamma-1)/gamma in place of
gamma/(gamma-1)), so the compressible flow is not stationary: the density
relaxes through an O(eps^2) transient while the velocity stays close to
the steady incompressible vortex.  The scheme also dissipates a little
kinetic energy through its upwind and stabilisation terms, and this script
shows exactly how much while checking the advertised step-by-step
guarantees:

* total mass and momentum conserved to round-off,
* total energy and relative entropy non-increasing,
* density positive,
* all three stability conditions satisfied by the adaptive step.

Outputs (diagnostics.csv, field snapshots, SVG charts) land in
demo_output/01_vortex_run/.
"""

from pathlib import Path

import numpy as np

from machfv import RunConfig, SchemeParams, energy_report, run_case

OUT = Path("demo_output/01_vortex_run")


def main():
    cfg = RunConfig(case="vortex", nx=48, ny=48, final_time=0.1,
                    params=SchemeParams(gamma=2.0, eps=1.0),
                    output_every=20, emit_fields=True, emit_svg=True)
    print(f"advancing a {cfg.nx}x{cfg.ny} vortex at eps={cfg.params.eps}, "
          f"gamma={cfg.params.gamma} to t={cfg.final_time} ...")
    result = run_case(cfg, output_dir=OUT, assert_inequalities=True,
                      collect_states=True)

    mesh, params = result.mesh, result.config.params
    s0 = result.states[0]
    report0 = energy_report(mesh, params.gas(), s0.rho, s0.u, params.eps)
    vol = mesh.cell_volume
    mass0 = vol * s0.rho.sum()

    diags = result.diags
    print(f"done: {len(diags)} accepted steps, final t = {result.final_state.time:.6f}")
    print(f"initial energy {report0.total:.10f} "
          f"(kinetic {report0.kinetic:.3e}, internal/eps^2 {report0.internal_scaled:.6f})")
    print(f"final   energy {diags[-1].energy.total:.10f} "
          f"(dissipated {report0.total - diags[-1].energy.total:.3e})")

    mass_drift = max(abs(d.total_mass - mass0) for d in diags) / mass0
    decl = all(b.energy.total <= a.energy.total for a, b in zip(diags, diags[1:]))
    print(f"relative mass drift over the run: {mass_drift:.2e}")
    print(f"energy monotone non-increasing:   {decl}")
    print(f"kinetic energy kept: {diags[-1].energy.kinetic / report0.kinetic:.4f} of KE(0)")
    print(f"minimum density seen: {min(d.min_density for d in diags):.6f}")

    etas = np.array([d.eta_used for d in diags])
    dts = np.array([d.dt_used for d in diags])
    print(f"auto-tuned eta in [{etas.min():.4f}, {etas.max():.4f}] "
          f"(tracks 3 x the largest face average of 1/rho)")
    print(f"adaptive dt in [{dts.min():.3e}, {dts.max():.3e}]")
    print(f"outputs in {result.output_dir}/ (diagnostics.csv, fields/, *.svg)")


if __name__ == "__main__":
    main()
