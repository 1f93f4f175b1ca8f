"""Run one benchmark workload once, in this fresh process, and check it.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --run-id ID --trace 0|1

Imports machfv from the checkout's src/, generates the run's inputs from the
seed, runs the workload with every inequality asserted, checks the result
and writes DIR/result.json (and DIR/spans.jsonl when tracing).  The
timestamps it records come from time.monotonic(), the system-wide clock the
parent also reads, so the parent can time set-up from the moment it
spawned this process.
"""

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, install  # noqa: E402
from workloads import WORKLOADS, ini_text, run_keys  # noqa: E402

# Share of the initial deviation max|rho0 - 1| / eps^2 the steady vortex may
# grow by before the run counts as having lost the eps^2 scaling.
DEVIATION_GROWTH = 2.0


def deviation_band(rho0, eps, diags, mass_tol):
    """Band for max|rho - 1| / eps^2 at the final time.

    Lower end: mass is conserved, so max|rho - 1| >= |mean(rho0) - 1| less
    the conservation tolerance.  Upper end: the well-prepared vortex keeps
    an O(eps^2) deviation (DEVIATION_GROWTH times the initial one), plus
    what inexact density solves may add: each step's conservative update
    moves the density by at most dt * final_residual away from the solved
    one.
    """
    rho0 = np.asarray(rho0, dtype=float)
    mean = rho0.mean()
    lower = (abs(mean - 1.0) - mass_tol * mean) / eps ** 2
    initial = np.abs(rho0 - 1.0).max() / eps ** 2
    solve_error = sum(d.dt_used * d.final_residual for d in diags) / eps ** 2
    return float(lower), float(DEVIATION_GROWTH * initial + solve_error)


def check_run(result, final_time):
    """Correctness checks beyond the asserted inequalities; returns (problems, facts)."""
    from machfv.cases import vortex_incompressible_exact
    from machfv.diagnostics import relative_energy_to_limit
    from machfv.driver import CONSERVATION_TOL, initial_state

    params = result.config.params
    state = result.final_state
    problems = []
    margin = 1e-12 * max(1.0, abs(final_time))
    if abs(state.time - final_time) > margin:
        problems.append(f"final time {state.time!r} != {final_time!r}")
    rho0 = initial_state(result.config, result.mesh).rho
    lower, upper = deviation_band(rho0, params.eps, result.diags,
                                  CONSERVATION_TOL)
    deviation = float(np.abs(state.rho - 1.0).max()) / params.eps ** 2
    if not lower <= deviation <= upper:
        problems.append(f"max|rho-1|/eps^2 = {deviation!r} outside [{lower!r}, {upper!r}]")
    v_exact, _ = vortex_incompressible_exact(result.mesh)
    limit = relative_energy_to_limit(result.mesh, params.gas(), state.rho,
                                     state.u, v_exact, params.eps)
    if not math.isfinite(limit):
        problems.append(f"limit_rel_energy is {limit!r}")
    facts = {"limit_rel_energy": limit, "deviation": deviation,
             "deviation_band": [lower, upper],
             "accepted_steps": len(result.diags)}
    return problems, facts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)

    import machfv
    import machfv.cli
    import machfv.driver
    from machfv.driver import InequalityViolation
    from machfv.eos import PositivityError
    from machfv.stepper import SchemeParams, SolverError

    source = (ROOT / "src" / "machfv").resolve()
    if Path(machfv.__file__).resolve().parent != source:
        raise SystemExit(f"machfv imported from {machfv.__file__}, not {source}")

    tracer = Tracer(args.run_id) if args.trace else None
    if tracer is not None:
        install(tracer)

    marks = {}
    captured = {}
    advance = machfv.driver.advance

    def marked_advance(*a, **k):
        marks.setdefault("first_step", time.monotonic())
        return advance(*a, **k)

    cli_run_case = machfv.cli.run_case

    def marked_cli_run_case(*a, **k):
        captured["result"] = cli_run_case(*a, **k)
        marks["end"] = time.monotonic()
        return captured["result"]

    machfv.driver.advance = marked_advance
    machfv.cli.run_case = marked_cli_run_case

    workload = WORKLOADS[args.workload]
    keys = run_keys(workload, args.seed)
    failure = None
    output_dir = workdir / "out"
    try:
        if workload.cli:
            ini = workdir / "run.ini"
            ini.write_text(ini_text(keys))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = machfv.cli.main(["run", "--config", str(ini), "--output",
                                        str(output_dir), "--assert-inequalities"])
            if code != 0:
                failure = f"machfv run exited with code {code}: {stderr.getvalue().strip()}"
        else:
            cfg = machfv.RunConfig(
                case=keys["case"], nx=keys["nx"], ny=keys["ny"],
                lx=keys["lx"], ly=keys["ly"], final_time=keys["final_time"],
                params=SchemeParams(gamma=keys["gamma"], eps=keys["eps"]))
            captured["result"] = machfv.driver.run_case(
                cfg, assert_inequalities=True, write_outputs=False)
            marks["end"] = time.monotonic()
    except (SolverError, PositivityError, InequalityViolation) as err:
        failure = f"{type(err).__name__}: {err}"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"run_id": args.run_id, "failure": failure, "peak_rss_mb": peak_rss_mb,
              "keys": keys, **marks}
    if tracer is not None:
        tracer.dump(workdir / "spans.jsonl")
    if failure is None:
        problems, facts = check_run(captured["result"], keys["final_time"])
        record.update(facts)
        if problems:
            record["failure"] = "; ".join(problems)
    record["output_bytes"] = sum(p.stat().st_size for p in output_dir.rglob("*")
                                 if p.is_file()) if output_dir.exists() else 0
    (workdir / "result.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
