"""Time machfv end to end on one workload and print every metric.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout that holds src/machfv.  Each run of the
workload executes in its own fresh Python process (perfbench/worker.py),
one at a time, until --seconds have passed; runs are started as long as
time is left, so the last one may end after the window.  Every run is
checked (see worker.py); a run that fails a check or raises counts as
failed, and its timings are listed apart from the medians.

--trace 0 reports the end-to-end metrics, medians over the runs that
passed.  The two times are scaled to a fixed host speed, measured with
reference kernels between the runs (see reference.py); the raw wall-time
medians are printed beside them.  --trace 1 alternates untraced and traced
runs and reports the per-layer metrics of the traced ones plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import collections
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import reference
from workloads import DEFAULT_SEED, WORKLOADS, run_keys

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
RUN_TIMEOUT_S = 60

# name -> (unit, meaning).  run_failure_rate is printed with these but is
# carried in the result line by "attempted" and "failed".
END_TO_END = {
    "time_to_solution_s": ("s", "first step to final_time, checks on, at reference host speed"),
    "setup_s": ("s", "process start to the first step, at reference host speed"),
    "peak_rss_mb": ("MB", "ru_maxrss of the process that did the run"),
    "limit_rel_energy": ("1", "relative energy of the final state to the incompressible limit"),
}
SCALED = ("time_to_solution_s", "setup_s")


def worker_env():
    """Environment of the worker processes.

    One solver thread per run, so runs on a shared machine do not compete
    with themselves, and bytecode caching on, as in an installed package.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def launch(workload, seed, workdir, run_id, trace):
    """Run the workload once in a fresh process; returns its result record."""
    workdir.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--run-id", run_id,
           "--trace", str(int(trace))]
    log = workdir / "worker.log"
    with open(log, "w") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result_file = workdir / "result.json"
    if code != 0 or not result_file.exists():
        tail = log.read_text().strip().splitlines()[-1:] or ["no output"]
        return {"run_id": run_id, "trace": trace,
                "failure": f"worker exited with {code}: {tail[0]}"}
    record = json.loads(result_file.read_text())
    record["trace"] = trace
    if "first_step" in record:
        record["setup_s"] = record["first_step"] - spawned
        if "end" in record:
            record["time_to_solution_s"] = record["end"] - record["first_step"]
    if trace and record["failure"] is None:
        with open(workdir / "spans.jsonl") as fh:
            record["spans"] = [json.loads(line) for line in fh]
    csv = workdir / "out" / "diagnostics.csv"
    if csv.exists():
        record["csv"] = csv.read_bytes()
    return record


def check_identical_outputs(runs):
    """diagnostics.csv must be byte-identical across the runs of one invocation."""
    reference = next((r["csv"] for r in runs if r["failure"] is None and "csv" in r), None)
    for run in runs:
        if run["failure"] is None and "csv" in run and run["csv"] != reference:
            run["failure"] = "diagnostics.csv differs from the first run's"


def scaled(run, name):
    """The run's value of an end-to-end metric; times at reference host speed."""
    return run[name] / run["host_slowdown"] if name in SCALED else run[name]


def end_to_end(runs):
    ok = [r for r in runs if r["failure"] is None and not r["trace"]]
    return {name: {"value": layers.median([scaled(r, name) for r in ok]) if ok else None,
                   "unit": unit} for name, (unit, _) in END_TO_END.items()}


def describe(values):
    if not values:
        return "no samples"
    return (f"median {layers.median(values):.6g}, min {min(values):.6g}, "
            f"max {max(values):.6g}, n={len(values)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running worker is
    # killed and reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "machfv" / "__init__.py").is_file():
        print(f"error: no machfv sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    keys = run_keys(WORKLOADS[args.workload], args.seed)
    print(f"workload {args.workload}, seed {args.seed}: "
          + ", ".join(f"{k}={v!r}" for k, v in keys.items()))
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    runs = []
    try:
        # Compile bytecode and warm the file cache once, untimed: a user pays
        # for that once per installation, not once per run.
        subprocess.run([sys.executable, "-c", "import machfv.cli, scipy.sparse.linalg, tracer"],
                       cwd=ROOT, check=True, timeout=RUN_TIMEOUT_S,
                       env={**worker_env(), "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{HERE}"})
        deadline = time.monotonic() + args.seconds
        before = reference.slowdown(reference.measure())
        while time.monotonic() < deadline or len(runs) < 1 + args.trace:
            trace = bool(args.trace) and len(runs) % 2 == 1
            run_id = f"{args.workload}-{args.seed}-{len(runs)}"
            run = launch(args.workload, args.seed, tmp / run_id, run_id, trace)
            after = reference.slowdown(reference.measure())
            run["host_slowdown"] = (before + after) / 2
            runs.append(run)
            before = after
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    check_identical_outputs(runs)
    failed = [r for r in runs if r["failure"] is not None]
    for run in runs:
        kind = "traced" if run["trace"] else "untraced"
        timing = ", ".join(f"{k}={run[k]:.6g}" for k in
                           ("setup_s", "time_to_solution_s", "peak_rss_mb", "host_slowdown")
                           if k in run)
        print(f"run {run['run_id']} ({kind}): {timing}"
              + (f"  FAILED: {run['failure']}" if run["failure"] else ""))
    if failed:
        print("failed runs are left out of every median below")

    untraced = [r for r in runs if not r["trace"] and r["failure"] is None]
    print(f"\nend to end (untraced runs that passed, {len(untraced)} of {len(runs)} runs):")
    for name, (unit, meaning) in END_TO_END.items():
        print(f"  {name} [{unit}]: {describe([scaled(r, name) for r in untraced])}  ({meaning})")
    for name in SCALED:
        print(f"  {name} as wall time [s]: {describe([r[name] for r in untraced])}")
    print(f"  run_failure_rate [fraction]: {len(failed) / len(runs):.6g} "
          f"({len(failed)} failed of {len(runs)} attempted)")

    if args.trace:
        metrics = trace_report(runs)
    else:
        metrics = end_to_end(runs)
    print(json.dumps({"correct": not failed and all(m["value"] is not None
                                                    for m in metrics.values()),
                      "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def trace_report(runs):
    traced = [r for r in runs if r["trace"] and r["failure"] is None]
    untraced = [r for r in runs if not r["trace"] and r["failure"] is None]
    if not traced or not untraced:
        return {name: {"value": None, "unit": unit}
                for name, (unit, _) in layers.LAYER_METRICS.items()}
    values, n_steps = layers.aggregate(
        [(r["spans"], r["output_bytes"]) for r in traced],
        [r["time_to_solution_s"] for r in traced],
        [r["time_to_solution_s"] for r in untraced])
    print(f"\nper layer (medians over {len(traced)} traced runs; step percentiles "
          f"over {n_steps} accepted steps; overhead against {len(untraced)} untraced runs):")
    for name, (unit, base) in layers.LAYER_METRICS.items():
        print(f"  {name} [{unit}]: {values[name]:.6g}  ({base})")
    counts = collections.Counter(s["name"] for s in traced[0]["spans"])
    print("  calls at each boundary in the first traced run: "
          + ", ".join(f"{name}={n}" for name, n in sorted(counts.items())))
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in layers.LAYER_METRICS.items()}


if __name__ == "__main__":
    sys.exit(main())
