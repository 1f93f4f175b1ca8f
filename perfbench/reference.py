"""Host speed, measured with fixed reference kernels between the timed runs.

The benchmark runs on a few cores of a shared host whose speed swings by
tens of percent for tens of seconds to minutes at a time, so medians of raw
wall time taken a minute apart differ by more than any useful regression
bound.  Before the first run and after every run, run.py measures how long
three fixed kernels take, each a kind of work the solver does per step:
small numpy array arithmetic, a sparse LU solve and plain interpreter
bytecode.  Their times against NOMINAL_MS give the host's slowdown at that
moment; each run's times are divided by the mean slowdown measured just
before and just after it.

The kernels import nothing from machfv, so a change to the program cannot
change the reference it is measured against.
"""

import time
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median time of each kernel on the 2-vCPU Intel Xeon virtual machine where
# the benchmark was written, with nothing else running in the machine.  A
# scaled time is the wall time the run would have taken on that host at
# that speed.
NOMINAL_MS = {"numpy": 1.74, "sparse_lu": 8.30, "interpreter": 2.07}

_N = 48
_LAPLACIAN = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-_N, -1, 0, 1, _N],
                      shape=(_N * _N, _N * _N), format="csc")
_RHS = np.ones(_N * _N)
_CELLS = np.linspace(0.0, 1.0, 64 * 64)


def _numpy():
    x = _CELLS
    for _ in range(100):
        x = np.sqrt(x * x + 1.0) - 0.5 * x


def _sparse_lu():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spla.spsolve(_LAPLACIAN, _RHS)


def _interpreter():
    total = 0
    for i in range(30000):
        total += i % 7


KERNELS = {"numpy": _numpy, "sparse_lu": _sparse_lu, "interpreter": _interpreter}


def slowdown(measured_ms):
    """Mean over the kernels of measured time / nominal time."""
    return sum(measured_ms[k] / NOMINAL_MS[k] for k in NOMINAL_MS) / len(NOMINAL_MS)


def measure(seconds=0.6):
    """Run the kernels in turn for about `seconds`; median ms of each."""
    times = {name: [] for name in KERNELS}
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        for name, kernel in KERNELS.items():
            start = time.perf_counter()
            kernel()
            times[name].append((time.perf_counter() - start) * 1e3)
    return {name: float(np.median(t)) for name, t in times.items()}
