"""The primitives table: median microseconds per call of single layer
operations at a desk size (M3) and a stretch size (M8).

These are the rows of the roadmap's baseline table.  They are per-layer
numbers taken untraced after the traced replay, not gated workloads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from vnalg import algebra, division, maps, measurement, projections, sampling, spectral

TOL = algebra.DEFAULT_TOL
SIZES = (("M3", 3), ("M8", 8))
BATCH_S = 0.02      # a timed batch repeats the call for about this long
BUDGET_S = 1.0      # per row; a call slower than this is timed once
MAX_SAMPLES = 7


def _rows(alg, rng):
    p, q = sampling.random_effect(alg, rng), sampling.random_effect(alg, rng)
    a = sampling.random_element(alg, rng)
    pos = sampling.random_positive(alg, rng)
    e, f = sampling.random_projection(alg, rng), sampling.random_projection(alg, rng)
    b = sampling.random_element(alg, rng)
    ab = algebra.mul(a, b)
    return [
        ("seq_product", lambda: measurement.seq_product(p, q, TOL)),
        ("operator_norm", lambda: algebra.operator_norm(a)),
        ("is_positive", lambda: algebra.is_positive(pos, TOL)),
        ("sqrt", lambda: spectral.sqrt(pos, TOL)),
        ("ceiling", lambda: projections.ceiling(pos, TOL)),
        ("join", lambda: projections.join([e, f], TOL)),
        ("divide", lambda: division.divide(ab, b, TOL)),
    ]


def time_call(fn) -> tuple[float, int]:
    """Median seconds per call over up to MAX_SAMPLES batches, and the count."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    if first >= BUDGET_S:
        return first, 1
    batch = max(1, int(BATCH_S / max(first, 1e-7)))
    samples = []
    spent = 0.0
    while len(samples) < MAX_SAMPLES and (spent < BUDGET_S or len(samples) < 3):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        dt = time.perf_counter() - t0
        spent += dt
        samples.append(dt / batch)
    return statistics.median(samples), len(samples)


def measure(seed: int, smoke: bool) -> dict:
    """{row name: {"us": median microseconds, "samples": batches timed}}."""
    rng = np.random.default_rng(seed)
    rows = []
    for label, n in SIZES[:1] if smoke else SIZES:
        rows += [(f"{name}.{label}", fn) for name, fn in _rows(algebra.make_algebra([n]), rng)]
    if not smoke:
        m8 = algebra.make_algebra([8])
        ident = maps.identity_map(m8)
        rows.append(("is_multiplicative_id.M8", lambda: maps.is_multiplicative(ident, TOL)))
        rows.append(("centre.M8", lambda: projections.centre(m8, TOL)))
    table = {}
    for name, fn in rows:
        sec, count = time_call(fn)
        table[name] = {"us": sec * 1e6, "samples": count}
    return table
