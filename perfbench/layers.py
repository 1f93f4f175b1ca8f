"""Arithmetic of the benchmark: percentiles, span self time, per-layer metrics.

Spans are dicts as tracer.Tracer writes them: id, name, start_ns, end_ns,
parent (id or None), error, plus optional fields (nnz, iters).

The timed window of a run starts when ``stepper.advance`` is entered and ends
when ``driver.run_case`` returns, the same interval as the end-to-end
time_to_solution_s.  Every "per step" metric sums the spans that lie in that
window and divides by the number of accepted steps, the ``stepper.step``
spans that returned.
"""

import math

NS_PER_MS = 1e6

OUTPUT_SPANS = ("driver.write_field_snapshot", "driver.write_line_chart",
                "driver.write_text")

# name -> (unit, base the value is a ratio of).  The order is the order in
# which the traced report lists them.
LAYER_METRICS = {
    "linsolve.calls_per_step": ("count", "spsolve calls / accepted steps"),
    "linsolve.ms_per_call": ("ms", "spsolve time / spsolve calls"),
    "linsolve.share": ("1", "spsolve time / traced time to solution"),
    "linsolve.matrix_nnz": ("count", "median nonzeros of the matrices solved"),
    "stepper.newton_iters_per_step": (
        "count", "Newton iterations of converged solve_density calls / accepted steps"),
    "stepper.residual_evals_per_step": ("count", "assemble_fluxes calls / accepted steps"),
    "stepper.solve_density_ms_per_step": ("ms", "solve_density time / accepted steps"),
    "stepper.solve_density_self_ms_per_step": (
        "ms", "solve_density self time / accepted steps"),
    "stepper.accepted_steps": ("count", "stepper.step calls that returned"),
    "stepper.attempts_per_step": ("count", "solve_density calls / accepted steps"),
    "stepper.controller_ms_per_step": (
        "ms", "auto_eta + compute_dt time / accepted steps"),
    "stepper.enforce_conditions_ms_per_step": (
        "ms", "enforce_conditions time / accepted steps"),
    "stepper.update_velocity_ms_per_step": ("ms", "update_velocity time / accepted steps"),
    "stepper.step_ms_p50": ("ms", "median step time over the accepted steps of all traced runs"),
    "stepper.step_ms_p90": ("ms", "90th percentile of the same step times"),
    "flux.assemble_fluxes_us_per_call": ("us", "assemble_fluxes time / calls"),
    "flux.self_ms_per_step": ("ms", "assemble_fluxes self time / accepted steps"),
    "mesh.calls_per_step": ("count", "mesh operator calls / accepted steps"),
    "mesh.ms_per_step": ("ms", "mesh operator time / accepted steps"),
    "mesh.sum_over_cell_faces_us_per_call": ("us", "sum_over_cell_faces time / calls"),
    "mesh.build_mesh_ms": ("ms", "one build_mesh call in set-up"),
    "eos.calls_per_step": ("count", "GasLaw method calls / accepted steps"),
    "eos.us_per_call": ("us", "GasLaw method time / calls"),
    "diagnostics.energy_report_calls_per_step": ("count", "energy_report calls / accepted steps"),
    "diagnostics.energy_report_ms_per_step": ("ms", "energy_report time / accepted steps"),
    "cases.init_ms": ("ms", "one vortex_compressible_init call in set-up"),
    "driver.load_run_config_ms": ("ms", "one load_run_config call; 0 when no config file is read"),
    "driver.output_ms_per_step": (
        "ms", "field snapshot, SVG and file-write time (outermost) / accepted steps"),
    "driver.output_bytes_per_step": ("B", "bytes of all files written / accepted steps"),
    "trace.overhead_s": ("s", "median traced - median untraced time to solution"),
    "trace.overhead_share": ("1", "trace.overhead_s / median untraced time to solution"),
}


def percentile(values, q):
    """q-th percentile (0..100), linear between closest ranks (numpy's default)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def self_times(spans):
    """Span id -> self time in ns: its duration minus its children's.

    Calls run one after another on one thread, so children never overlap.
    """
    out = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for span in spans:
        if span["parent"] is not None:
            out[span["parent"]] -= span["end_ns"] - span["start_ns"]
    return out


def timed_window(spans):
    """(start_ns, end_ns) of the time-to-solution window of one run."""
    by_name = {s["name"]: s for s in spans
               if s["name"] in ("stepper.advance", "driver.run_case")}
    return by_name["stepper.advance"]["start_ns"], by_name["driver.run_case"]["end_ns"]


def step_times_ms(spans):
    return [(s["end_ns"] - s["start_ns"]) / NS_PER_MS for s in spans
            if s["name"] == "stepper.step" and not s["error"]]


def run_layer_metrics(spans, output_bytes):
    """Per-layer metrics of one traced run, without the invocation-level ones.

    The step percentiles and the tracing overhead need every run of an
    invocation, so aggregate() adds them.
    """
    start, end = timed_window(spans)
    window = [s for s in spans if s["start_ns"] >= start and s["end_ns"] <= end]
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    steps = len(step_times_ms(window))

    def pick(prefix):
        return [s for s in window if s["name"].startswith(prefix)]

    def total_ms(group):
        return sum(s["end_ns"] - s["start_ns"] for s in group) / NS_PER_MS

    def mean_us(group):
        return 1e3 * total_ms(group) / len(group) if group else 0.0

    def setup_ms(name):
        return total_ms([s for s in spans if s["name"] == name])

    linsolve = pick("linsolve.spsolve")
    solves = pick("stepper.solve_density")
    fluxes = pick("flux.assemble_fluxes")
    meshes = pick("mesh.")
    gas = pick("eos.")
    reports = pick("diagnostics.energy_report")
    # A file write inside a snapshot or chart is already in its parent's time.
    outputs = [s for s in window if s["name"] in OUTPUT_SPANS
               and by_id[s["parent"]]["name"] not in OUTPUT_SPANS]
    window_ms = (end - start) / NS_PER_MS
    return {
        "linsolve.calls_per_step": len(linsolve) / steps,
        "linsolve.ms_per_call": total_ms(linsolve) / len(linsolve) if linsolve else 0.0,
        "linsolve.share": total_ms(linsolve) / window_ms,
        "linsolve.matrix_nnz": median([s["nnz"] for s in linsolve]) if linsolve else 0.0,
        "stepper.newton_iters_per_step":
            sum(s["iters"] for s in solves if not s["error"]) / steps,
        "stepper.residual_evals_per_step": len(fluxes) / steps,
        "stepper.solve_density_ms_per_step": total_ms(solves) / steps,
        "stepper.solve_density_self_ms_per_step":
            sum(selfs[s["id"]] for s in solves) / NS_PER_MS / steps,
        "stepper.accepted_steps": float(steps),
        "stepper.attempts_per_step": len(solves) / steps,
        "stepper.controller_ms_per_step":
            total_ms(pick("stepper.auto_eta") + pick("stepper.compute_dt")) / steps,
        "stepper.enforce_conditions_ms_per_step":
            total_ms(pick("stepper.enforce_conditions")) / steps,
        "stepper.update_velocity_ms_per_step":
            total_ms(pick("stepper.update_velocity")) / steps,
        "flux.assemble_fluxes_us_per_call": mean_us(fluxes),
        "flux.self_ms_per_step": sum(selfs[s["id"]] for s in fluxes) / NS_PER_MS / steps,
        "mesh.calls_per_step": len(meshes) / steps,
        "mesh.ms_per_step": total_ms(meshes) / steps,
        "mesh.sum_over_cell_faces_us_per_call": mean_us(pick("mesh.sum_over_cell_faces")),
        "mesh.build_mesh_ms": setup_ms("mesh.build_mesh"),
        "eos.calls_per_step": len(gas) / steps,
        "eos.us_per_call": mean_us(gas),
        "diagnostics.energy_report_calls_per_step": len(reports) / steps,
        "diagnostics.energy_report_ms_per_step": total_ms(reports) / steps,
        "cases.init_ms": setup_ms("cases.vortex_compressible_init"),
        "driver.load_run_config_ms": setup_ms("driver.load_run_config"),
        "driver.output_ms_per_step": total_ms(outputs) / steps,
        "driver.output_bytes_per_step": output_bytes / steps,
    }


def aggregate(traced_runs, traced_tts, untraced_tts):
    """Invocation-level per-layer metrics.

    traced_runs is a list of (spans, output_bytes) of the traced runs that
    passed their checks; traced_tts and untraced_tts are the time-to-solution
    values (s) of the traced and untraced runs.  Each per-run metric is the
    median over the traced runs; the step percentiles pool the accepted
    steps of all traced runs.
    """
    per_run = [run_layer_metrics(spans, nbytes) for spans, nbytes in traced_runs]
    out = {name: median([m[name] for m in per_run]) for name in per_run[0]}
    steps = [t for spans, _ in traced_runs for t in step_times_ms(spans)]
    out["stepper.step_ms_p50"] = percentile(steps, 50.0)
    out["stepper.step_ms_p90"] = percentile(steps, 90.0)
    overhead = median(traced_tts) - median(untraced_tts)
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = overhead / median(untraced_tts)
    return {name: out[name] for name in LAYER_METRICS}, len(steps)
