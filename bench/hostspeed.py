"""Host speed probe: a fixed kernel timed between units, so that unit times
can be stated at one reference host speed.

The benchmark runs on a few cores of a shared host, and the speed those
cores give a single thread drifts by tens of percent over seconds and
minutes (a fixed pure-Python loop measured 40-57 ms per 5-second window on
the reference machine, two cores of an Intel Xeon).  That drift is the
host's, not the program's.  The probe is a fixed run of small complex
numpy calls of the kind the ``vnalg`` hot paths make, and it uses nothing
from ``vnalg``, so a change to the package does not change
it.  A unit's host factor is the mean of the probe times just before and
just after it, over ``REFERENCE_S``; the unit's normalised latency is its
measured latency divided by that factor.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the reference machine (two cores of an Intel Xeon,
# one BLAS thread).  A fixed constant, so that normalised times of runs at
# different moments, and of different commits, are comparable.
REFERENCE_S = 0.015
# Probe again once this much unit time has passed since the last probe.
PROBE_EVERY_S = 0.25

def _kernel() -> None:
    # Square root of |H| by eigendecomposition, a Hermiticity test and an
    # operator norm: the shape of the package's small-matrix hot path.  Of
    # the probes tried (a pure-Python loop, object and dict churn, real 4x4
    # products with eigvalsh, larger complex eigh and matmul, and this
    # one), this one tracked the workloads' own slow-downs best, within one
    # process over 150 s.  H is built afresh each time, so that where it
    # lands in memory varies within a run rather than between runs.
    rng = np.random.default_rng(20240501)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = z + z.conj().T
    for _ in range(200):
        w, v = np.linalg.eigh(h)
        x = (v * np.sqrt(np.abs(w))) @ v.conj().T
        np.allclose(x, x.conj().T)
        np.linalg.norm(x, 2)


def probe() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class HostClock:
    """Probes the host between units and gives each unit its host factor.

    Call ``unit_done(record)`` after each timed unit, and ``finish()`` once
    after the last; every record then has ``host_factor``.
    """

    def __init__(self):
        self.last = probe()
        self.pending: list[dict] = []
        self.since = 0.0
        self.probes = [self.last]

    def unit_done(self, record: dict) -> None:
        self.pending.append(record)
        self.since += record["latency_s"]
        if self.since >= PROBE_EVERY_S:
            self._close()

    def finish(self) -> None:
        if self.pending:
            self._close()

    def _close(self) -> None:
        now = probe()
        factor = 0.5 * (self.last + now) / REFERENCE_S
        for record in self.pending:
            record["host_factor"] = factor
        self.probes.append(now)
        self.last, self.pending, self.since = now, [], 0.0
