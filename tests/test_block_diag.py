"""Differential test: ``algebra._block_diag`` against ``scipy.linalg.block_diag``.

The helper must build what scipy builds: the same shape (size-0 blocks
included), the same dtype, the same values and the same sign on every zero.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from vnalg.algebra import _block_diag

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)
ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, -7e12])
SHAPES = st.one_of(st.sampled_from([(0, 0), (1, 0), (0, 1), (0,), ()]),
                   array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5))


@st.composite
def blocks(draw):
    shape = draw(SHAPES)
    dtype = draw(st.sampled_from([np.float64, np.float32, np.complex128, np.complex64]))
    real = draw(arrays(np.float64, shape, elements=ENTRIES))
    if np.dtype(dtype).kind == "f":
        return real.astype(dtype)
    out = np.empty(shape, dtype=dtype)
    out.real, out.imag = real, draw(arrays(np.float64, shape, elements=ENTRIES))
    return out


@SETTINGS
@given(st.lists(blocks(), min_size=1, max_size=5))
def test_block_diag_builds_what_scipy_builds(mats):
    got, want = _block_diag(*mats), scipy.linalg.block_diag(*mats)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
