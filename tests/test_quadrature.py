import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ternion import algebra as ta
from ternion import quadrature
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
from ternion.errors import DomainError, QuadratureFailure
from ternion.quadrature import BUDGET, adaptive_quad, adaptive_quad_2d, adaptive_quad_3d

from oracles import integrate_one_call_per_cell, pointwise

reciprocal = TernaryField(ta.inverse, name="1/z")
inverse_conjugate = TernaryField(lambda z: ta.scale(z, 1.0 / ta.norm_cubed(z)), name="z/||z||^3")
identity = TernaryField(lambda z: z, name="z")
C0, C1 = ta.Ternary(0.3, -0.7, 0.2), ta.Ternary(-0.4, 0.9, 0.6)
quadratic = TernaryField(lambda z: ta.mul(C1, ta.mul(z, z)) + C0, name="c1 z^2 + c0")


def _floats(value):
    return tuple(float(c) for c in value.components())


def _pinned_values():
    # every quadrature path: the form integrals (a 3-cell cubic band and a
    # 10-cell sphere among them) and the closed-form times
    return [
        _floats(line_integral(reciprocal, trisectrice_loop(1.3, 0.2), tol=1e-9)),
        _floats(surface_integral_2form(inverse_conjugate, cubic_band_patch(1.1, 0.8, 2.0), tol=1e-9)),
        _floats(surface_integral_2form(inverse_conjugate, polar_band_patch(0.9, -0.3, 0.2), tol=1e-9)),
        _floats(surface_integral_2form(identity, sphere_patch(ta.Ternary(0.0, 0.0, 2.0), 0.5), tol=1e-9)),
        _floats(volume_integral_3form(quadratic, ((-0.5, 0.4), (0.1, 1.2), (-1.0, 0.3)), tol=1e-9)),
        planar_solution(1.0, 1.0, 1.0, 2.0).t(1.25),
        general_solution(1.0, 0.5, -1.0, 0.8, 0.9, 0.1).t(1.0),
    ]


def test_quadrature_bits_are_pinned():
    # bit for bit (repr keeps signed zeros and the last bits); the values
    # sum cells in the order the refinement leaves them, so a change of rule,
    # sum order or loop shows here.  The polar band's second and third
    # components are rounding residue near 1e-17 whose bits follow libm and
    # numpy's SIMD dispatch, so they are pinned by a bound instead
    values = _pinned_values()
    c0, *residue = values[2]
    assert all(abs(c) <= 1e-16 * abs(c0) for c in residue), values[2]
    values[2] = (c0,)
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == "9eccc06da512a91f7b182ed221086e60124fa79ce5c4d05e7512bd061af64672"


def test_form_integrals_and_times_match_the_one_call_per_cell_loop(monkeypatch):
    # the integrands see each bisection's nodes in one array of twice the
    # length, where numpy's SIMD loops may round a node differently
    values = _pinned_values()
    monkeypatch.setattr(quadrature, "_integrate", integrate_one_call_per_cell)
    assert values == _pinned_values()


def test_non_finite_integrand_fails_1d():
    with pytest.raises(QuadratureFailure, match="non-finite integrand"):
        adaptive_quad(pointwise(lambda x: (math.inf,)), 0.0, 1.0)


def test_non_finite_integrand_fails_2d():
    with pytest.raises(QuadratureFailure, match="non-finite integrand"):
        adaptive_quad_2d(pointwise(lambda u, v: (1.0, math.nan)), (0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize(
    "value, box",
    [
        (1e300, ((0.0, 1e10),)),
        (1e308, ((0.0, 1.0),) * 3),
        (math.inf, ((0.0, 1.0),) * 3),
        (math.nan, ((0.0, 1.0),) * 2),
    ],
    ids=["1d-overflowing-product", "3d-overflowing-sum", "3d-inf", "2d-nan"],
)
def test_non_finite_weighted_sum_fails_without_a_warning(value, box):
    # finite node values whose weighted cell sum overflows fail as a
    # non-finite integrand does, and no failure warns on the way (inf times a
    # zero G7 weight is nan), whatever the warning filters
    def f(*x):
        return np.full((1, x[0].size), value)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure) as info:
            quadrature._integrate(f, box, 1e-9, [BUDGET])
    assert str(info.value) == f"non-finite integrand on {quadrature._span(box)}"


@pytest.mark.parametrize("shape", [(15,), (15, 1), (1, 14)])
def test_integrand_of_the_wrong_shape_is_rejected(shape):
    # integrands are batched: one row of values per component, nodes last;
    # neither a bare (nodes,) row nor the transposed (nodes, m) is accepted
    with pytest.raises(ValueError, match=r"integrand returned shape .*; expected \(m, 15\)"):
        adaptive_quad(lambda x: np.ones(shape), 0.0, 1.0)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tol_not_finite_and_positive_is_rejected_before_a_call(d, tol):
    # a tol of 0.0 would spend the whole budget, a NaN or inf one would
    # return the first cell's estimate as converged
    def f(*axes):
        raise AssertionError("the integrand was called")

    with pytest.raises(DomainError, match=f"finite tol > 0, got {tol}$"):
        if d == 1:
            adaptive_quad(f, 0.0, 1.0, tol)
        elif d == 2:
            adaptive_quad_2d(f, (0.0, 1.0), (0.0, 1.0), tol)
        else:
            adaptive_quad_3d(f, ((0.0, 1.0),) * 3, tol)


def test_batched_integrand_gets_one_call_per_cell():
    calls = []

    def f(x):
        calls.append(x.shape)
        return (x * x)[None]

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


# --- one integrand call per bisection ------------------------------------------

_BOXES = ((-1.0, 0.7), (-0.6, 0.9), (-0.8, 0.5))
# a handful of bisections in each dimension
_TOLS = {1: 1e-12, 2: 1e-8, 3: 1e-3}


def _peaked(*x):
    r2 = sum(a * a for a in x)
    return np.stack([1.0 / (0.05 + r2), np.exp(x[0]) * np.cos(x[-1] + r2)])


def _recording(f):
    """f, keeping the (d, nodes) array of each call."""

    def recorded(*axes):
        recorded.calls.append(np.stack(axes))
        return f(*axes)

    recorded.calls = []
    return recorded


def _run(integrate, f, d, tol=None, budget=BUDGET):
    """(value or error, recorded node arrays) of integrate on the d-axis box."""
    f = _recording(f)
    try:
        out = integrate(f, _BOXES[:d], _TOLS[d] if tol is None else tol, [budget])
    except Exception as exc:  # compared by type and message
        out = (type(exc), str(exc))
    return out, f.calls


def _paired(cells):
    """The calls one call per bisection makes on the cells of the loop: the
    first alone, then each bisection's two halves, concatenated in order."""
    return cells[:1] + [np.concatenate(cells[i : i + 2], axis=1) for i in range(1, len(cells), 2)]


def _same_calls(got, want):
    same_nodes = np.array_equal(np.concatenate(got, axis=1), np.concatenate(want, axis=1))
    return [a.shape for a in got] == [b.shape for b in want] and same_nodes


@pytest.mark.parametrize("d", [1, 2, 3])
def test_engine_matches_the_one_call_per_cell_loop(d):
    value, calls = _run(quadrature._integrate, _peaked, d)
    want, cells = _run(integrate_one_call_per_cell, _peaked, d)
    assert [c.hex() for c in value] == [c.hex() for c in want]
    # calls = 1 + bisections, each after the first on both halves' nodes
    assert len(cells) >= 9 and len(calls) == 1 + (len(cells) - 1) // 2
    assert [c.shape[1] for c in calls] == [15**d] + [2 * 15**d] * (len(calls) - 1)
    assert _same_calls(calls, _paired(cells))


def _failing(kind, first, second):
    """_peaked, failing on one node of the first half (first) or of the
    second half (second) of one bisection, each a (d, 1) array."""

    def f(*x):
        nodes = np.stack(x)
        at_first = (nodes == first).all(axis=0)
        at_second = (nodes == second).all(axis=0)
        vals = _peaked(*x)
        if kind == "raise-first" and at_first.any():
            raise ZeroDivisionError("node of the first half")
        if kind in ("raise-second", "inf-then-raise") and at_second.any():
            raise ZeroDivisionError("node of the second half")
        if kind == "inf-then-raise":
            vals[:, at_first] = math.inf
        if kind == "wrong-shape" and at_second.any():
            return vals[:, :-1]
        if kind == "old-layout" and at_second.any():
            return vals.T
        return vals

    return f


@pytest.mark.parametrize("kind", ["raise-first", "raise-second", "inf-then-raise", "wrong-shape", "old-layout"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_failures_match_the_one_call_per_cell_loop(d, kind):
    # the third bisection's halves fail: the pair's call fails, the halves
    # are replayed one call each, and the replay's first failure is raised,
    # the one the loop raises (inf on the first half is checked before the
    # second half's division by zero is reached)
    _, cells = _run(integrate_one_call_per_cell, _peaked, d)
    first, second = cells[5][:, 3:4], cells[6][:, 9:10]
    error, calls = _run(quadrature._integrate, _failing(kind, first, second), d)
    want, loop_calls = _run(integrate_one_call_per_cell, _failing(kind, first, second), d)
    assert error == want and error[0] in (ZeroDivisionError, QuadratureFailure, ValueError)
    # the loop's calls, paired, with the failed pair's call before its replay
    assert len(loop_calls) in (6, 7)
    failed = np.concatenate(cells[5:7], axis=1)
    assert _same_calls(calls, _paired(loop_calls[:5]) + [failed] + loop_calls[5:])


@pytest.mark.parametrize("d, budget", [(1, BUDGET // 10), (2, BUDGET), (3, BUDGET), (3, BUDGET // 10)])
def test_budget_exhaustion_matches_the_one_call_per_cell_loop(d, budget):
    # the budget is charged cell by cell: 10**6 runs out on the second half
    # of a bisection, after the first half is evaluated alone (6666 cells of
    # 15 nodes in 10**5 too); 10**5 runs out on the first half of 15^3 nodes
    def f(*x):
        return np.sin(1e8 * x[0])[None]

    error, calls = _run(quadrature._integrate, f, d, 1e-10, budget)
    want, cells = _run(integrate_one_call_per_cell, f, d, 1e-10, budget)
    assert error == want == (QuadratureFailure, "quadrature evaluation budget exhausted")
    assert len(cells) == budget // 15**d
    assert _same_calls(calls, _paired(cells))


def _avx512_dispatch():
    """The AVX-512 targets numpy dispatches to on the CPU running the tests."""
    core = getattr(np, "_core", None) or np.core
    umath = core._multiarray_umath
    features, targets = umath.__cpu_features__, umath.__cpu_dispatch__
    return [t for t in targets if features.get(t) and (t.startswith("AVX512") or t == "X86_V4")]


def rerun_under_reduced_dispatch(test_file, keyword):
    """Runs the tests of test_file that keyword selects in a subprocess with
    numpy's AVX-512 targets disabled, and asserts that they pass."""
    targets = _avx512_dispatch()
    if not targets:
        pytest.skip("numpy dispatches to no AVX-512 target on this CPU")
    here = Path(test_file).resolve()
    src = str(here.parents[1] / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-W", "error::RuntimeWarning",
         str(here), "-k", keyword],
        env=env, capture_output=True, text=True, cwd=here.parents[1],
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    assert " passed" in run.stdout.splitlines()[-1]


def test_one_call_per_cell_loop_agrees_under_a_reduced_simd_dispatch():
    # numpy's exp and cos follow the SIMD dispatch, so the form integrals'
    # bits differ between AVX-512 and AVX2 hosts; within one dispatch the
    # engine and the loop must still agree
    rerun_under_reduced_dispatch(__file__, "one_call_per_cell_loop and not reduced")
