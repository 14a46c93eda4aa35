"""Machine-speed references that timed runs are paced by.

This host shares its cores with other tenants, and their load moves the
speed of the work here by up to 1.7x over minutes, which no amount of work
in one run averages out.  So a timed run also times a fixed reference
routine, benchmark code that never calls the library, between its ops,
and multiplies every time it reports by the reference's nominal time over
the run's median reference time.  A change to the library moves the op
times and leaves the reference alone, so it shows in full; a slow spell of
the host moves both and cancels.

Each workload uses the reference that tracked it best in trials: a
pure-Python loop for `sweep`, `scale` and `cli_cold`, a numpy shuffle and
scatter for `clt`, and for `setup_s` a fresh interpreter importing numpy.
Nominal times are medians on a quiet spell of a 2-vCPU Intel Xeon VM with
Python 3.11.7 and numpy 2.4.6, so paced times read as times on that machine.
"""

from __future__ import annotations

import sys
from statistics import median
from time import perf_counter

import numpy as np

PROBE_EVERY_S = 0.05  # one probe per this much op time
MAX_PROBES_PER_OP = 10


def _python_loop():
    s = 0
    for i in range(30000):
        s += i * i


_RNG = np.random.default_rng(0)
_ROWS = np.tile(np.arange(800), (128, 1))


def _numpy_scatter():
    shuffled = _RNG.permuted(_ROWS, axis=1)
    out = np.empty_like(shuffled)
    np.put_along_axis(out, shuffled, _ROWS, axis=1)


REFERENCES = {"python": (_python_loop, 2.0e-3), "numpy": (_numpy_scatter, 2.3e-3)}

IMPORT_NOMINAL_S = 0.08


class Pace:
    def __init__(self, reference):
        self.fn, self.nominal = REFERENCES[reference]
        self.times = []
        self.owed = 0.0

    def probe(self):
        t0 = perf_counter()
        self.fn()
        self.times.append(perf_counter() - t0)

    def after(self, seconds):
        """Probe in proportion to the op time just spent."""
        self.owed = min(self.owed + seconds / PROBE_EVERY_S, MAX_PROBES_PER_OP)
        while self.owed >= 1:
            self.probe()
            self.owed -= 1

    def factor(self):
        """Multiply a measured time by this to pace it."""
        return self.nominal / median(self.times)


def child_import_s(call_child, module="numpy"):
    """Seconds a fresh interpreter takes to import `module`, timed inside
    it; with numpy, the reference `setup_s` is paced by."""
    code = ("import time\n_t = time.perf_counter()\n"
            f"import {module}\nprint(time.perf_counter() - _t)\n")
    rc, out, _ = call_child([sys.executable, "-c", code])
    if rc != 0:
        raise RuntimeError(f"importing {module} failed: {out.strip()[-300:]}")
    return float(out.split()[-1])
