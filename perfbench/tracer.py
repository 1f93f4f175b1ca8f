"""Spans at machfv's layer boundaries, recorded from outside the program.

A Tracer replaces public functions at the names their callers look them up
by (for example ``machfv.stepper.assemble_fluxes`` or
``machfv.stepper.spla.spsolve``) with wrappers that record one span per
call: name, start, end, parent span and whether the call raised.  Spans
stay in memory and are written out once, when the run ends.  Private
helpers are not wrapped, so their time stays in their caller's self time.
Install it only in a worker process that runs a single benchmark run.
"""

import functools
import importlib
import inspect
import json
import pathlib
import time

MESH_CALLERS = ("stepper", "flux", "diagnostics", "driver", "cases")
GAS_METHODS = ("pressure", "pressure_derivative", "internal_energy",
               "relative_internal_energy")


class Tracer:
    """In-memory spans of one run; all spans share the run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn, attrs=None):
        """Wrap fn so each call records a span; attrs(args, result) adds fields."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = None
            error = True
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                span = {"id": span_id, "name": name, "start_ns": start,
                        "end_ns": end, "parent": parent, "error": error}
                if attrs is not None and not error:
                    span.update(attrs(args, result))
                self.spans.append(span)
        return traced

    def patch(self, owner, attr, name, attrs=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"run": self.run_id, **span}) + "\n")


def install(tracer: Tracer):
    """Wrap every layer boundary of machfv that a vortex run crosses."""
    import machfv.cli as cli
    import machfv.driver as driver
    import machfv.eos as eos
    import machfv.mesh as mesh
    import machfv.stepper as stepper

    tracer.patch(cli, "load_run_config", "driver.load_run_config")
    tracer.patch(cli, "run_case", "driver.run_case")
    tracer.patch(driver, "run_case", "driver.run_case")
    tracer.patch(driver, "vortex_compressible_init", "cases.vortex_compressible_init")
    tracer.patch(driver, "energy_report", "diagnostics.energy_report")
    tracer.patch(driver, "advance", "stepper.advance")
    tracer.patch(driver, "write_field_snapshot", "driver.write_field_snapshot")
    tracer.patch(driver, "write_line_chart", "driver.write_line_chart")
    driver.Path = _traced_path_class(tracer)

    for name in ("step", "auto_eta", "compute_dt", "enforce_conditions",
                 "update_velocity"):
        tracer.patch(stepper, name, f"stepper.{name}")
    tracer.patch(stepper, "solve_density", "stepper.solve_density",
                 attrs=lambda args, result: {"iters": int(result[1])})
    tracer.patch(stepper, "assemble_fluxes", "flux.assemble_fluxes")
    tracer.patch(stepper.spla, "spsolve", "linsolve.spsolve",
                 attrs=lambda args, result: {"nnz": int(args[0].nnz)})
    tracer.patch(stepper.diagnostics, "energy_report", "diagnostics.energy_report")

    mesh_functions = {name: fn for name, fn in vars(mesh).items()
                      if inspect.isfunction(fn) and fn.__module__ == mesh.__name__
                      and not name.startswith("_")}
    for caller in MESH_CALLERS:
        module = importlib.import_module(f"machfv.{caller}")
        for name, fn in mesh_functions.items():
            if getattr(module, name, None) is fn:
                tracer.patch(module, name, f"mesh.{name}")

    for name in GAS_METHODS:
        tracer.patch(eos.GasLaw, name, f"eos.{name}")


def _traced_path_class(tracer):
    """Path class whose write_text records a driver.write_text span."""
    base = type(pathlib.Path())

    class TracedPath(base):
        pass

    TracedPath.write_text = tracer.wrap("driver.write_text", base.write_text)
    return TracedPath
