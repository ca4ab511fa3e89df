"""The folded closed-form kernels against their conjugate-pair reference.

_Coefficients._v1 and GeneralSolution._antiderivative evaluate the complex-log
pair a L + conj(a) conj(L) as 2 Re(a L).  tests/oracles.py keeps the pair
evaluated in full, with the imaginary-residue test the kernels had.  The two
must agree bit for bit, errors included, and the pair's imaginary part must
be exactly 0.0 at finite slopes (NaN at most where a slope is not finite),
so that the residue test could never fire.

Bit for bit leaves out the sign of a zero and of a NaN.  Where the two
halves cancel to zero, x - x is +0.0 in both, so one half's zero need not be
the other's negation: a L and conj(a) conj(L) can hold real parts -0.0 and
+0.0, whose sum is +0.0 while the fold keeps -0.0 (v1 at its base slope y0
with M2 = 0 and |y0| >= 1, say).  Likewise, at a non-finite slope the halves
can hold NaNs of opposite sign.
"""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ternion import dynamics  # noqa: E402

from oracles import (  # noqa: E402
    antiderivative_conjugate_pair,
    antiderivative_pair,
    v1_conjugate_pair,
    v1_pair,
)
from test_quadrature import rerun_under_reduced_dispatch  # noqa: E402

SIGN = st.sampled_from((1.0, -1.0))
# |M1| and |M2| from 1e-14 to 1e3, or zero (M2 = 0 has no pole)
COMPONENT = st.one_of(st.just(0.0), st.builds(lambda s, e: s * 10.0**e, SIGN, st.floats(-14.0, 3.0)))
NON_FINITE = (math.nan, math.inf, -math.inf)


def _slopes(pole):
    """Slopes next to the pole (1e-16 to 1 relative, and on it), far out
    (|y| from 1 to 1e200), everyday values, signed zeros and non-finite."""
    return st.one_of(
        st.builds(lambda s, e: pole + s * (1.0 + abs(pole)) * 10.0**e, SIGN, st.floats(-16.0, 0.0)),
        st.builds(lambda s, e: s * 10.0**e, SIGN, st.floats(0.0, 200.0)),
        st.floats(-5.0, 5.0),
        st.sampled_from((pole, 0.0, -0.0, *NON_FINITE)),
    )


@st.composite
def cases(draw):
    """(g, M1, M2, y0, slopes)."""
    m1, m2 = draw(COMPONENT), draw(COMPONENT)
    assume(m1 != 0.0 or m2 != 0.0)
    slope = _slopes(-m1 / m2 if m2 != 0.0 else 0.0)
    g = draw(SIGN) * draw(st.floats(0.1, 3.0))
    return g, m1, m2, draw(slope), draw(st.lists(slope, min_size=1, max_size=6))


def _outcome(f, *args):
    """The value's type, shape and bytes, with every zero read as +0.0 and
    every NaN as numpy's NaN, or the error's type and message; and the
    categories of the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = f(*args)
            bits = np.asarray(value)
            bits = np.where(np.isnan(bits), np.nan, bits + 0.0)
            got = (type(value), bits.shape, bits.tobytes())
        except Exception as exc:
            got = (type(exc), str(exc))
    return got, {w.category for w in caught}


def _agree(folded, reference, *args):
    """Same bits or error, and no warning category the reference lacks."""
    got, got_warnings = _outcome(folded, *args)
    want, want_warnings = _outcome(reference, *args)
    assert got == want, args
    assert got_warnings <= want_warnings, args


def _real_pair(pair, y, y0):
    """pair() at the slopes y and y0 has imaginary parts 0.0, or NaN where a
    slope is not finite; or it raises, as both kernels then do."""
    with np.errstate(all="ignore"):
        try:
            imag = pair().imag
        except ValueError:  # cmath.log(0), past an infinite slope
            assert not (math.isfinite(y) and math.isfinite(y0))
            return
    finite = np.isfinite(y) & np.isfinite(y0)
    assert np.all((imag == 0.0) | (np.isnan(imag) & ~finite)), (imag, y, y0)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=cases())
@example(case=(1.0, -1.0, 0.9, 0.5, [0.0, 0.8, 1.0, 1.2, 1e200]))
@example(case=(1.0, 1e-14, 0.0, -0.3, [0.3, -1e-300, 1e200, math.nan]))
def test_folded_kernels_match_the_conjugate_pair(case):
    g, m1, m2, y0, ys = case
    coeffs = dynamics._Coefficients(m1, m2)
    for y in ys:
        # the solve evaluates v1 at y1 for trial bases, a solution at y for its base
        for a, b in ((y, y0), (y0, y)):
            _agree(
                lambda g, y, y0: coeffs._v1(g, complex(y, -1.0), m1 + m2 * y, complex(y0, -1.0), m1 + m2 * y0),
                lambda *args: v1_conjugate_pair(coeffs, *args),
                g,
                a,
                b,
            )
            _real_pair(lambda: v1_pair(coeffs, a, b), a, b)
    if not math.isfinite(y0):
        # a solution rejects a base slope that is not finite, so its
        # antiderivative never meets one
        with pytest.raises(dynamics.DomainError, match="finite y0"):
            dynamics.general_solution(g, 1.0, m1, m2, y0, y0)
        return
    try:
        sol = dynamics.general_solution(g, 1.0, m1, m2, y0, y0)
    except dynamics.PoleOnRange:  # y0 on the pole
        return
    arrays = (np.array(ys), np.array(ys)[:, None] + np.zeros((1, 2)))
    for y, m in [(y, math) for y in ys] + [(y, np) for y in arrays]:
        _agree(sol._antiderivative, lambda *args: antiderivative_conjugate_pair(sol, *args), y, m)
        _real_pair(lambda: antiderivative_pair(sol, y, m), y, y0)


def test_folded_kernels_match_the_conjugate_pair_under_a_reduced_simd_dispatch():
    # numpy's complex division, product and log follow the SIMD dispatch;
    # under each, the array path's pair must stay exactly real
    rerun_under_reduced_dispatch(__file__, "conjugate_pair and not reduced")
