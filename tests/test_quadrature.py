import hashlib
import math

import numpy as np
import pytest

from ternion import algebra as ta
from ternion.calculus import (
    TernaryField,
    cubic_band_patch,
    line_integral,
    polar_band_patch,
    sphere_patch,
    surface_integral_2form,
    trisectrice_loop,
    volume_integral_3form,
)
from ternion.dynamics import general_solution, planar_solution
from ternion.errors import QuadratureFailure
from ternion.quadrature import adaptive_quad, adaptive_quad_2d, adaptive_quad_3d

from oracles import pointwise

reciprocal = TernaryField(ta.inverse, name="1/z")
inverse_conjugate = TernaryField(lambda z: ta.scale(z, 1.0 / ta.norm_cubed(z)), name="z/||z||^3")
identity = TernaryField(lambda z: z, name="z")
C0, C1 = ta.Ternary(0.3, -0.7, 0.2), ta.Ternary(-0.4, 0.9, 0.6)
quadratic = TernaryField(lambda z: ta.mul(C1, ta.mul(z, z)) + C0, name="c1 z^2 + c0")


def _floats(value):
    return tuple(float(c) for c in value.components())


def test_quadrature_bits_are_pinned():
    # every quadrature path, bit for bit (repr keeps signed zeros and the
    # last bits); the values below sum cells in the order the refinement
    # leaves them, so a change of rule, sum order or loop shows here
    values = [
        _floats(line_integral(reciprocal, trisectrice_loop(1.3, 0.2), tol=1e-9)),
        _floats(surface_integral_2form(inverse_conjugate, cubic_band_patch(1.1, 0.8, 2.0), tol=1e-9)),
        _floats(surface_integral_2form(inverse_conjugate, polar_band_patch(0.9, -0.3, 0.2), tol=1e-9)),
        _floats(surface_integral_2form(identity, sphere_patch(ta.Ternary(0.0, 0.0, 2.0), 0.5), tol=1e-9)),
        _floats(volume_integral_3form(quadratic, ((-0.5, 0.4), (0.1, 1.2), (-1.0, 0.3)), tol=1e-9)),
        planar_solution(1.0, 1.0, 1.0, 2.0).t(1.25),
        general_solution(1.0, 0.5, -1.0, 0.8, 0.9, 0.1).t(1.0),
    ]
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == "d494933c9b42559ddf374246896a94d8cb70e7867dca2446cabb08c911c1790c"


def test_non_finite_integrand_fails_1d():
    with pytest.raises(QuadratureFailure, match="non-finite integrand"):
        adaptive_quad(pointwise(lambda x: (math.inf,)), 0.0, 1.0)


def test_non_finite_integrand_fails_2d():
    with pytest.raises(QuadratureFailure, match="non-finite integrand"):
        adaptive_quad_2d(pointwise(lambda u, v: (1.0, math.nan)), (0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize("shape", [(15,), (1, 15), (14, 1)])
def test_integrand_of_the_wrong_shape_is_rejected(shape):
    # integrands are batched: one row of values per node
    with pytest.raises(ValueError, match=r"integrand returned shape .*; expected \(15, m\)"):
        adaptive_quad(lambda x: np.ones(shape), 0.0, 1.0)


def test_batched_integrand_gets_one_call_per_cell():
    calls = []

    def f(x):
        calls.append(x.shape)
        return (x * x)[:, None]

    assert adaptive_quad(f, 0.0, 1.0)[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert calls == [(15,)]


def _counting(f):
    def counted(*args):
        counted.n += 1
        return f(*args)

    counted.n = 0
    return counted


def test_budget_exhaustion_fails():
    # far too fast an oscillation to resolve: the evaluation budget ends it,
    # 15 evaluations per interval, never more than 10**6
    f = _counting(lambda x: (math.sin(1e8 * x),))
    with pytest.raises(QuadratureFailure, match="budget"):
        adaptive_quad(pointwise(f), 0.0, 1.0, 1e-10)
    assert f.n == 10**6 // 15 * 15


def test_volume_budget_is_shared_by_the_inner_rules():
    # no cell ever converges on x0, so only the one budget of the call stops
    # the refinement: 15**3 evaluations per cell, never more than 10**6
    f = _counting(lambda x0, x1, x2: (math.sin(1e8 * x0),))
    with pytest.raises(QuadratureFailure, match="budget"):
        adaptive_quad_3d(pointwise(f), ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), 1e-10)
    assert 9 * 10**5 < f.n <= 10**6


def _smooth(*x):
    # neither even nor odd on any axis of the boxes below
    return (math.exp(x[0]) * math.cos(sum(x[1:])), x[0] * sum(x[1:]) + x[-1] ** 3)


_QUADS = {
    1: lambda f, box, tol: adaptive_quad(f, *box[0], tol),
    2: lambda f, box, tol: adaptive_quad_2d(f, *box, tol),
    3: adaptive_quad_3d,
}


@pytest.mark.parametrize("d, axis", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_reversed_axis_negates_the_value(d, axis):
    tol = 1e-10
    box = [(-0.3, 0.8), (0.2, 1.1), (-0.9, 0.4)][:d]
    flipped = list(box)
    flipped[axis] = box[axis][::-1]
    value = _QUADS[d](pointwise(_smooth), box, tol)
    reversed_value = _QUADS[d](pointwise(_smooth), flipped, tol)
    assert abs(value[0]) > 0.1
    assert max(abs(reversed_value + value)) <= tol
