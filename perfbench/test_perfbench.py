"""Unit tests of the benchmark's own arithmetic; none of them runs a workload."""

import json
from pathlib import Path

import numpy as np
import pytest

import layers
import reference
import run
import worker
from tracer import Tracer
from workloads import DOMAIN_BAND, WORKLOADS, ini_text, run_keys


def span(id_, name, start, end, parent=None, error=False, **extra):
    return {"id": id_, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "error": error, **extra}


def test_percentile_matches_numpy_linear_interpolation():
    values = [7.0, 1.0, 3.0, 10.0, 4.0, 2.5]
    for q in (0, 10, 25, 50, 90, 100):
        assert layers.percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert layers.median([3.0, 1.0]) == 2.0
    with pytest.raises(ValueError):
        layers.percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    spans = [span(0, "a", 0, 100),
             span(1, "b", 10, 30, parent=0),
             span(2, "c", 40, 50, parent=0),
             span(3, "e", 12, 14, parent=1)]
    assert layers.self_times(spans) == {0: 70, 1: 18, 2: 10, 3: 2}


def traced_run_spans():
    """Set-up spans, then two accepted steps, then a CSV write; times in ms."""
    ms = 1_000_000
    return [
        span(0, "driver.run_case", 0, 100 * ms),
        span(1, "mesh.build_mesh", 1 * ms, 2 * ms, parent=0),
        span(2, "diagnostics.energy_report", 3 * ms, 4 * ms, parent=0),
        span(3, "stepper.advance", 10 * ms, 90 * ms, parent=0),
        span(4, "stepper.step", 10 * ms, 40 * ms, parent=3),
        span(5, "stepper.solve_density", 11 * ms, 31 * ms, parent=4, iters=2),
        span(6, "linsolve.spsolve", 12 * ms, 22 * ms, parent=5, nnz=45),
        span(7, "flux.assemble_fluxes", 23 * ms, 27 * ms, parent=5),
        span(8, "mesh.face_jump", 24 * ms, 25 * ms, parent=7),
        span(9, "diagnostics.energy_report", 32 * ms, 34 * ms, parent=4),
        span(10, "eos.internal_energy", 32 * ms, 33 * ms, parent=9),
        span(11, "stepper.step", 40 * ms, 80 * ms, parent=3),
        span(12, "stepper.solve_density", 41 * ms, 45 * ms, parent=11, error=True),
        span(13, "stepper.solve_density", 46 * ms, 76 * ms, parent=11, iters=1),
        span(14, "linsolve.spsolve", 47 * ms, 67 * ms, parent=13, nnz=45),
        span(15, "driver.write_field_snapshot", 81 * ms, 85 * ms, parent=3),
        span(16, "driver.write_text", 83 * ms, 85 * ms, parent=15),
        span(17, "driver.write_text", 92 * ms, 93 * ms, parent=0),
    ]


def test_run_layer_metrics_counts_only_the_timed_window():
    metrics = layers.run_layer_metrics(traced_run_spans(), output_bytes=1000)
    assert metrics["stepper.accepted_steps"] == 2
    assert metrics["linsolve.calls_per_step"] == 1.0
    assert metrics["linsolve.ms_per_call"] == pytest.approx(15.0)
    assert metrics["linsolve.share"] == pytest.approx(30.0 / 90.0)
    assert metrics["linsolve.matrix_nnz"] == 45
    assert metrics["stepper.newton_iters_per_step"] == pytest.approx(1.5)
    assert metrics["stepper.attempts_per_step"] == pytest.approx(1.5)
    assert metrics["stepper.solve_density_ms_per_step"] == pytest.approx(27.0)
    # solve_density self time: (20 - 10 - 4) + 4 + (30 - 20) = 20 ms.
    assert metrics["stepper.solve_density_self_ms_per_step"] == pytest.approx(10.0)
    assert metrics["flux.self_ms_per_step"] == pytest.approx(1.5)
    # The set-up energy report and build_mesh lie before the window.
    assert metrics["diagnostics.energy_report_calls_per_step"] == 0.5
    assert metrics["mesh.calls_per_step"] == 0.5
    assert metrics["mesh.build_mesh_ms"] == pytest.approx(1.0)
    assert metrics["eos.us_per_call"] == pytest.approx(1000.0)
    # The write_text inside the snapshot is not counted twice.
    assert metrics["driver.output_ms_per_step"] == pytest.approx((4.0 + 1.0) / 2)
    assert metrics["driver.output_bytes_per_step"] == 500
    assert metrics["driver.load_run_config_ms"] == 0.0


def test_aggregate_pools_steps_and_reports_overhead_against_untraced_runs():
    spans = traced_run_spans()
    values, n_steps = layers.aggregate([(spans, 0), (spans, 0)],
                                       traced_tts=[1.1, 1.3], untraced_tts=[1.0, 1.0, 1.4])
    assert n_steps == 4
    assert list(values) == list(layers.LAYER_METRICS)
    assert values["stepper.step_ms_p50"] == pytest.approx(35.0)
    assert values["stepper.step_ms_p90"] == pytest.approx(40.0)
    assert values["trace.overhead_s"] == pytest.approx(0.2)
    assert values["trace.overhead_share"] == pytest.approx(0.2)


def test_tracer_records_parents_errors_and_attributes():
    tracer = Tracer("r1")

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    traced_inner = tracer.wrap("inner", inner, attrs=lambda args, result: {"out": result})
    outer = tracer.wrap("outer", lambda x: traced_inner(x) + 1)
    assert outer(3) == 7
    with pytest.raises(ValueError):
        outer(-1)
    by_name = [(s["name"], s["parent"], s["error"], s.get("out")) for s in tracer.spans]
    assert by_name == [("inner", 0, False, 6), ("outer", None, False, None),
                       ("inner", 2, True, None), ("outer", None, True, None)]


def test_seed_maps_to_the_same_config_and_stays_in_band():
    for workload in WORKLOADS.values():
        assert run_keys(workload, 7) == run_keys(workload, 7)
        assert run_keys(workload, 7) != run_keys(workload, 8)
        for seed in range(20):
            keys = run_keys(workload, seed)
            assert DOMAIN_BAND[0] <= keys["lx"] <= DOMAIN_BAND[1]
            assert DOMAIN_BAND[0] <= keys["ly"] <= DOMAIN_BAND[1]


def test_ini_text_loads_to_the_generated_keys(tmp_path):
    from machfv.driver import load_run_config

    keys = run_keys(WORKLOADS["cli_lowmach_64"], 3)
    path = tmp_path / "run.ini"
    path.write_text(ini_text(keys))
    cfg = load_run_config(path)
    assert (cfg.nx, cfg.ny, cfg.lx, cfg.ly) == (keys["nx"], keys["ny"], keys["lx"], keys["ly"])
    assert (cfg.params.gamma, cfg.params.eps) == (keys["gamma"], keys["eps"])
    assert cfg.final_time == keys["final_time"]
    assert (cfg.output_every, cfg.emit_fields, cfg.emit_svg) == (1, True, True)


def test_deviation_band_from_conservation_and_solve_residuals():
    class Diag:
        def __init__(self, dt, res):
            self.dt_used, self.final_residual = dt, res

    eps = 0.1
    rho0 = [1.0, 1.02, 1.04, 1.02]
    lower, upper = worker.deviation_band(rho0, eps, [Diag(0.5, 2e-3), Diag(0.5, 2e-3)], 0.0)
    assert lower == pytest.approx(0.02 / eps ** 2)
    assert upper == pytest.approx(worker.DEVIATION_GROWTH * 0.04 / eps ** 2 + 2e-3 / eps ** 2)


def test_times_are_scaled_by_the_host_slowdown_and_nothing_else_is():
    assert reference.slowdown({k: 2 * v for k, v in reference.NOMINAL_MS.items()}) == \
        pytest.approx(2.0)
    record = {"time_to_solution_s": 3.0, "setup_s": 0.5, "peak_rss_mb": 70.0,
              "limit_rel_energy": 1e-5, "host_slowdown": 1.5}
    assert {name: run.scaled(record, name) for name in run.END_TO_END} == pytest.approx(
        {"time_to_solution_s": 2.0, "setup_s": 0.5 / 1.5, "peak_rss_mb": 70.0,
         "limit_rel_energy": 1e-5})


def test_differing_diagnostics_csv_fails_the_run():
    runs = [{"failure": None, "csv": b"a"}, {"failure": None, "csv": b"a"},
            {"failure": None, "csv": b"b"}, {"failure": None}]
    run.check_identical_outputs(runs)
    assert [r["failure"] is None for r in runs] == [True, True, False, True]


def test_benchmark_json_names_what_the_code_reports():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: unit for name, (unit, _) in layers.LAYER_METRICS.items()}
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
