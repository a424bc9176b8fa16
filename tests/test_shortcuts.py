"""Pins on two numerical shortcuts, so that a change to either is deliberate.

``_range_isometry`` quantizes pivot norms and phase entries to 6 decimals, so
that projections equal up to roundoff pick the same pivots.
``_below_complement`` decides e a e = 0 against the absolute threshold
``100 * eps_abs``, which does not scale with a and e.
"""

import numpy as np
import pytest

from vnalg import make_algebra
from vnalg.algebra import DEFAULT_TOL
from vnalg.measurement import _below_complement, _range_isometry


def test_range_isometry_keeps_its_pivots_across_roundoff():
    # P = vv* with v = (1, i)/sqrt(2): both columns and both entries of v tie in
    # magnitude.  Shifts of 1e-12 either way flip every raw argmax, which would
    # turn the isometry by the phase -i; the quantized pivots do not move.
    v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    p = np.outer(v, v.conj())
    shift = 1e-12 * np.diag([1.0, -1.0])
    up, down = p + shift, p - shift
    assert np.argmax(np.linalg.norm(up, axis=0)) != np.argmax(np.linalg.norm(down, axis=0))
    w_up, w_down = _range_isometry(up, 1), _range_isometry(down, 1)
    assert np.abs(w_up - w_down).max() < 1e-11
    assert np.allclose(w_up[:, 0], v, atol=1e-11)


@pytest.mark.parametrize("scale, defect, below", [
    (1e-8, 0.5e-10, True),   # e a e at 0.5% of the scale counts as zero
    (1e-8, 2e-10, False),
    (1.0, 0.5e-10, True),
    (1.0, 2e-10, False),
    (1e8, 0.5e-10, True),
    (1e8, 2e-10, False),     # e a e at 2e-18 of the scale does not
])
def test_below_complement_threshold_is_absolute(scale, defect, below):
    alg = make_algebra([2])
    e = alg.element([np.diag([1.0, 0.0])])
    a = alg.element([np.diag([defect, scale])])
    assert _below_complement(a, e, DEFAULT_TOL) is below
