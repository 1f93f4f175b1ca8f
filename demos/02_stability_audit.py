"""Inspect the stability conditions and audit a recorded step's energy balance.

The scheme's energy decay rests on three explicit per-step conditions:

1. the stabilisation weight eta exceeds 3 times the largest face average
   of 1/rho at the new time level,
2. a flux CFL condition (the time step is small against the mass fluxes
   crossing each cell boundary),
3. a second CFL condition tying dt to the new density and cell perimeter.

Every accepted step records a ConditionReport with the margin by which each
condition holds.  This script prints those margins on a deliberately coarse
low-Mach run, then feeds one recorded step (its two states and its record)
to ``audit_energy_balances``.  The audit re-solves the step's density, which
gives the step's fluxes bit for bit, runs the stepper's own update kernels
again in extended precision and evaluates the discrete energy identity on
that replay:

* the per-cell internal-energy remainder (a Bregman distance plus a jump
  penalty) must be non-negative -- this is the cellwise source of entropy
  decay, not just a global average,
* the assembled identity (decrement = stabilisation dissipation + upwind
  dissipation + remainders) must close to round-off,
* the recomputed decrement must match what the step reported.
"""

from machfv import RunConfig, SchemeParams, audit_energy_balances, run_case

EPS = 1e-2


def main():
    cfg = RunConfig(case="vortex", nx=16, ny=16, final_time=0.02,
                    params=SchemeParams(gamma=2.0, eps=EPS))
    print(f"running a 16x16 vortex at eps={EPS} with states kept ...")
    result = run_case(cfg, collect_states=True, write_outputs=False)
    mesh, params = result.mesh, result.config.params

    print("\nper-step stability margins (all must stay positive):")
    print("step      dt        eta     eta margin  flux-CFL margin  dt-CFL margin")
    for diag in result.diags[:8]:
        c = diag.conditions
        print(f"{diag.step_index:4d}  {diag.dt_used:.3e}  {diag.eta_used:6.3f}"
              f"  {c.eta_margin:10.4f}  {c.flux_cfl_margin:15.6f}"
              f"  {c.dt_cfl_margin:13.6f}")

    # audit the third recorded step
    i = 2
    diag = result.diags[i]
    audit = audit_energy_balances(mesh, params, result.states[i],
                                  result.states[i + 1], diag)
    dt = diag.dt_used
    print(f"\nextended-precision energy audit of step {diag.step_index} "
          "(decrement = stabilisation + remainders - transport - solver defect):")
    print(f"  energy decrement                  {audit.energy_decrement:.6e}")
    print(f"  stabilisation dissipation (x dt)  {dt * audit.stabilisation_dissipation_rate:.6e}")
    print(f"  internal remainders (x dt/eps^2)  {dt * audit.internal_remainder_total / EPS ** 2:.6e}")
    print(f"  transport terms (x -dt)           {-dt * audit.transport_term_rate:.6e}")
    print(f"  assembled decrement               {audit.assembled_decrement:.6e}")
    print(f"  relative closure defect           {audit.identity_rel_defect:.3e}")
    print(f"  smallest per-cell remainder       {audit.min_internal_remainder:.3e} (>= 0 up to round-off)")
    print(f"  closed-form remainder defect      {audit.remainder_formula_defect:.3e}")
    print(f"  kinetic-identity residual         {audit.max_kinetic_residual:.3e}")


if __name__ == "__main__":
    main()
