"""Print digests of fixed solver trajectories, to check a change keeps them bit for bit.

    python3 tools/trajectory_digest.py

Imports machfv from this checkout's src/ and runs, without writing output:
the vortex at 32^2 to t = 0.05 with eps = 1, 1e-2 and 1e-4, and the seed-0
inputs of both benchmark workloads (perfbench/workloads.py).  For each run it
prints the number of steps and a sha256 over the exact bytes of every
step's dt, eta, Newton iterations, final residual and energy report, then
of the final rho and u; the last line is a sha256 over all runs.  Run it in
two checkouts: equal output means equal trajectories.  Total mass and
momentum are left out, being sums whose round-off is not part of the
trajectory.
"""

import hashlib
import struct
import sys
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from machfv import RunConfig, SchemeParams, run_case  # noqa: E402
from workloads import WORKLOADS, run_keys  # noqa: E402


def runs():
    """(name, RunConfig) of every digested run, in a fixed order."""
    for eps in (1.0, 1e-2, 1e-4):
        yield (f"vortex_32_eps{eps:g}",
               RunConfig(case="vortex", nx=32, ny=32, final_time=0.05,
                         params=SchemeParams(gamma=2.0, eps=eps)))
    for name, workload in WORKLOADS.items():
        keys = run_keys(workload, 0)
        params = SchemeParams(gamma=keys.pop("gamma"), eps=keys.pop("eps"))
        yield f"{name}_seed0", RunConfig(**keys, params=params)


def trajectory_digest(result) -> str:
    digest = hashlib.sha256()
    for diag in result.diags:
        digest.update(struct.pack("<ddqd", diag.dt_used, diag.eta_used,
                                  diag.newton_iters, diag.final_residual))
        digest.update(struct.pack("<5d", *astuple(diag.energy)))
    digest.update(result.final_state.rho.tobytes())
    digest.update(result.final_state.u.tobytes())
    return digest.hexdigest()


def main():
    overall = hashlib.sha256()
    for name, cfg in runs():
        result = run_case(cfg, write_outputs=False)
        line = f"{name:<22} {len(result.diags):>4} steps  {trajectory_digest(result)}"
        print(line, flush=True)
        overall.update(line.encode())
    print(f"{'all':<33} {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
