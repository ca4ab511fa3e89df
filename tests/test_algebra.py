import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ternion import algebra as ta
from ternion.algebra import (
    ComplexTernary,
    E0,
    I_UNIT,
    K0,
    ONE,
    Q,
    Q2,
    PolarForm,
    Ternary,
    THETA_PERIOD,
    bar,
    characteristic_matrix,
    conjugates,
    cubic_form,
    exp,
    from_polar,
    idempotent_decompose,
    idempotent_reconstruct,
    inverse,
    log,
    mul,
    multisine,
    norm,
    norm_cubed,
    scale,
    singular_tolerance,
    tilde_product,
    to_polar,
)
from ternion.errors import DomainError, SingularNumber, TernionError

from oracles import (
    conjugate_product,
    expm_taylor,
    from_polar_each,
    multisine_each,
    random_admissible,
    random_nonsingular,
    random_ternary,
    ternary_close,
)


def test_constructor_rejects_non_finite():
    with pytest.raises(ValueError):
        Ternary(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        Ternary(0.0, math.inf, 0.0)


def test_mul_q_powers():
    assert mul(Q, Q2) == ONE
    assert mul(Q, Q) == Q2
    assert mul(Ternary(1, 1, 0), Ternary(1, 0, 1)) == Ternary(2, 1, 1)


def test_mul_matches_matrix_product_oracle(rng):
    for _ in range(200):
        z, w = random_ternary(rng), random_ternary(rng)
        lhs = characteristic_matrix(mul(z, w))
        rhs = characteristic_matrix(z) @ characteristic_matrix(w)
        assert np.allclose(lhs, rhs, atol=1e-12, rtol=1e-12)


def test_ring_laws(rng):
    for _ in range(200):
        z, w, u = (random_ternary(rng) for _ in range(3))
        scale = (1.0 + z.max_abs()) * (1.0 + w.max_abs()) * (1.0 + u.max_abs())
        assert ternary_close(mul(z, w), mul(w, z), 1e-12 * scale)
        assert ternary_close(mul(mul(z, w), u), mul(z, mul(w, u)), 1e-12 * scale)
        assert ternary_close(mul(z + w, u), mul(z, u) + mul(w, u), 1e-12 * scale)


def test_norm_values():
    assert norm_cubed(Ternary(1, 1, 1)) == 0.0
    assert norm_cubed(Q) == 1.0


def test_norm_is_determinant(rng):
    for _ in range(300):
        z = random_ternary(rng)
        scale = (1.0 + z.max_abs()) ** 3
        assert abs(norm_cubed(z) - np.linalg.det(characteristic_matrix(z))) <= 1e-12 * scale


def test_norm_multiplicative(rng):
    for _ in range(300):
        z, w = random_ternary(rng), random_ternary(rng)
        scale = ((1.0 + z.max_abs()) * (1.0 + w.max_abs())) ** 3
        assert abs(norm_cubed(mul(z, w)) - norm_cubed(z) * norm_cubed(w)) <= 1e-12 * scale


def test_tilde_product_values():
    assert tilde_product(Q) == Q2
    assert tilde_product(ONE) == ONE


def test_tilde_product_expansion_oracle(rng):
    # z~ z~~ multiplied out with explicit cube roots of unity must be real
    # and must match the closed form; z times it is the scalar ||z||^3.
    for _ in range(200):
        z = random_ternary(rng)
        scale = (1.0 + z.max_abs()) ** 2
        via_complex = conjugate_product(z)
        assert via_complex.max_imag() <= 1e-13 * scale
        assert ternary_close(via_complex.real_part(), tilde_product(z), 1e-12 * scale)
        n = norm_cubed(z)
        assert ternary_close(mul(z, tilde_product(z)), Ternary(n, 0, 0), 1e-12 * scale * (1 + z.max_abs()))


def test_inverse_values():
    assert ternary_close(inverse(Q), Q2, 1e-15)
    with pytest.raises(SingularNumber):
        inverse(Ternary(1, 1, 1))


def test_inverse_and_duality(rng):
    for _ in range(200):
        z = random_nonsingular(rng)
        assert ternary_close(mul(z, inverse(z)), ONE, 1e-10 * (1 + z.max_abs()) ** 2)
        assert ternary_close(bar(bar(z)), z, 1e-10 * (1 + z.max_abs()) ** 2)


def test_idempotent_values():
    c = idempotent_decompose(ONE)
    assert (c.k, c.e, c.i) == (1.0, 1.0, 0.0)


def test_idempotent_q_solved_from_linear_system():
    # Independent oracle: coefficients of q in the {K0, E0, I} basis by
    # solving the 3x3 system directly.
    basis = np.column_stack([K0.components(), E0.components(), I_UNIT.components()])
    expected = np.linalg.solve(basis, np.array(Q.components()))
    got = idempotent_decompose(Q)
    assert np.allclose(expected, [1.0, -0.5, math.sqrt(3) / 2], atol=1e-15)
    assert np.allclose([got.k, got.e, got.i], expected, atol=1e-15)


def test_idempotent_basis_relations():
    assert ternary_close(mul(K0, K0), K0, 1e-15)
    assert ternary_close(mul(E0, E0), E0, 1e-15)
    assert ternary_close(mul(K0, E0), ta.ZERO, 1e-15)
    assert ternary_close(mul(I_UNIT, I_UNIT), -E0, 1e-15)
    assert ternary_close(mul(E0, I_UNIT), I_UNIT, 1e-15)


def test_idempotent_reconstruction_exact(rng):
    for _ in range(200):
        z = random_ternary(rng)
        back = idempotent_reconstruct(idempotent_decompose(z))
        assert ternary_close(back, z, 1e-14 * (1.0 + z.max_abs()))


def test_multisine_at_origin():
    assert multisine(0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert multisine(1, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert multisine(2, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_multisine_cubic_identity(rng):
    for _ in range(500):
        p1, p2 = rng.uniform(-3, 3, size=2)
        m = [multisine(k, p1, p2) for k in range(3)]
        assert abs(ta.cubic_form(*m) - 1.0) <= 1e-10


def test_multisine_matches_matrix_exponential_oracle():
    # e^{phi1 * q} as a matrix: exponentiate the characteristic matrix of
    # phi1 * q and read the multisines back off the (k, e, i) slots.
    phi1 = 1.0
    m = expm_taylor(characteristic_matrix(Ternary(0.0, phi1, 0.0)))
    k, e, i = m[0, 0], m[1, 1], m[1, 2]
    m0 = (k + 2 * e) / 3
    m1 = (k - e + math.sqrt(3) * i) / 3
    m2 = (k - e - math.sqrt(3) * i) / 3
    assert m0 == pytest.approx(multisine(0, phi1, 0.0), abs=1e-13)
    assert m1 == pytest.approx(multisine(1, phi1, 0.0), abs=1e-13)
    assert m2 == pytest.approx(multisine(2, phi1, 0.0), abs=1e-13)


def test_multisine_addition_law(rng):
    for _ in range(200):
        p = rng.uniform(-2, 2, size=2)
        s = rng.uniform(-2, 2, size=2)
        for k in range(3):
            lhs = multisine(k, p[0] + s[0], p[1] + s[1])
            rhs = sum(multisine(m, *p) * multisine((k - m) % 3, *s) for m in range(3))
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_multisine_duality_relations(rng):
    for _ in range(200):
        p1, p2 = rng.uniform(-2, 2, size=2)
        m = [multisine(k, p1, p2) for k in range(3)]
        neg = [multisine(k, -p1, -p2) for k in range(3)]
        scale = 1.0 + max(abs(v) for v in m) ** 2
        assert abs(neg[0] - (m[0] ** 2 - m[1] * m[2])) <= 1e-12 * scale
        assert abs(neg[1] - (m[2] ** 2 - m[0] * m[1])) <= 1e-12 * scale
        assert abs(neg[2] - (m[1] ** 2 - m[0] * m[2])) <= 1e-12 * scale


def test_multisine_derivative_shifts_index(rng):
    h = 1e-5
    for _ in range(50):
        p1, p2 = rng.uniform(-2, 2, size=2)
        for k in range(3):
            d1 = (multisine(k, p1 + h, p2) - multisine(k, p1 - h, p2)) / (2 * h)
            d2 = (multisine(k, p1, p2 + h) - multisine(k, p1, p2 - h)) / (2 * h)
            assert abs(d1 - multisine((k - 1) % 3, p1, p2)) <= 10 * h * h
            assert abs(d2 - multisine((k - 2) % 3, p1, p2)) <= 10 * h * h


def test_exp_values():
    assert ternary_close(exp(ta.ZERO), ONE, 1e-15)
    spin = ta.scale(I_UNIT, 2.0 * math.pi / 3.0)
    assert ternary_close(exp(spin), Q, 1e-14)


def test_exp_addition_and_inverse(rng):
    for _ in range(200):
        z = random_ternary(rng, -2, 2)
        w = random_ternary(rng, -2, 2)
        scale = math.exp(abs(z.x0 + z.x1 + z.x2)) * math.exp(abs(w.x0 + w.x1 + w.x2))
        assert ternary_close(exp(z + w), mul(exp(z), exp(w)), 1e-10 * scale)
        assert ternary_close(mul(exp(z), exp(-z)), ONE, 1e-10 * scale)


def test_exp_overflow():
    with pytest.raises(OverflowError):
        exp(Ternary(400.0, 250.0, 250.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: exp(Ternary(800.0, 0.0, 0.0)), "exp out of float range at z = (800.0, 0.0, 0.0)"),
        (
            lambda: from_polar(PolarForm(1.0, 400.0, 399.5)),
            "from_polar out of float range at (rho, phi1, phi2) = (1.0, 400.0, 399.5)",
        ),
        (
            lambda: multisine(2, 400.0, 399.5),
            "multisine out of float range at (phi1, phi2) = (400.0, 399.5)",
        ),
    ],
    ids=["exp", "from_polar", "multisine"],
)
def test_exponential_overflow_names_the_operation_and_the_point(call, message):
    # libm's exp reports only "math range error"
    with pytest.raises(OverflowError) as info:
        call()
    assert str(info.value) == message


def test_log_values():
    assert log(ONE) == ta.ZERO
    with pytest.raises(SingularNumber):
        log(Ternary(1, 1, 1))
    with pytest.raises(DomainError):
        log(Ternary(-2, 0.5, 0.5))


def test_log_scalar_part_is_third_of_log_norm(rng):
    for _ in range(200):
        z = random_admissible(rng)
        assert log(z).x0 == pytest.approx(math.log(norm_cubed(z)) / 3.0, rel=1e-12, abs=1e-12)


def test_exp_log_round_trip(rng):
    for _ in range(500):
        z = random_admissible(rng)
        back = exp(log(z))
        assert ternary_close(back, z, 1e-9 * (1.0 + z.max_abs()))


def test_log_exp_round_trip_in_reduced_range(rng):
    for _ in range(200):
        x0 = rng.uniform(-2, 2)
        phi = rng.uniform(-2, 2)
        theta = rng.uniform(0, THETA_PERIOD * 0.999)
        w = Ternary(x0, phi + theta, phi - theta)
        back = log(exp(w))
        assert ternary_close(back, w, 1e-9 * (1.0 + w.max_abs()))


def test_polar_round_trip(rng):
    assert ternary_close(from_polar(PolarForm(1.0, 0.0, 0.0)), ONE, 1e-15)
    for _ in range(300):
        z = random_admissible(rng)
        p = to_polar(z)
        assert 0.0 <= p.theta < THETA_PERIOD
        assert ternary_close(from_polar(p), z, 1e-10 * (1.0 + z.max_abs()))


def test_polar_of_unimodular(rng):
    for _ in range(100):
        phi1, phi2 = rng.uniform(-2, 2, size=2)
        z = from_polar(PolarForm(1.0, phi1, phi2))
        assert to_polar(z).rho == pytest.approx(1.0, abs=1e-10)


def test_polar_form_validation():
    with pytest.raises(DomainError):
        PolarForm(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        PolarForm(-1.0, 0.0, 0.0)


def test_characteristic_matrix_basics():
    assert np.allclose(characteristic_matrix(ONE), np.eye(3))
    s = math.sqrt(3.0) / 2.0
    rot = np.array([[1, 0, 0], [0, -0.5, s], [0, -s, -0.5]])
    assert np.allclose(characteristic_matrix(Q), rot, atol=1e-15)
    # group law of the vector rotations
    assert np.allclose(
        characteristic_matrix(Q) @ characteristic_matrix(Q), characteristic_matrix(Q2), atol=1e-15
    )


# ---------------------------------------------------------------------------
# Array components against the scalar path, element by element.  Arithmetic
# is compared bit for bit; numpy's exp, log, arctan2 and ** (other than a
# square) may differ from libm's in the last bit, so kernels using them get
# 2 ulp for each such use on the path, counted in ulps of the largest term
# where their components cancel.


def _columns(k, lo=-4.0, hi=4.0):
    """k float arrays of one length."""

    def arrays(n):
        return hnp.arrays(np.float64, n, elements=st.floats(lo, hi))

    return st.integers(2, 12).flatmap(lambda n: st.tuples(*[arrays(n)] * k))


def _per_element(kernel, columns):
    """The scalar kernel at each element, on floats; or the first error."""
    out = []
    for i in range(len(columns[0])):
        try:
            out.append(kernel(*(float(c[i]) for c in columns)))
        except (TernionError, ArithmeticError, ValueError) as exc:
            return None, exc
    return out, None


def _matches(kernel, columns, ulps=0.0, scale_of=None):
    """kernel on arrays equals the scalar kernel element by element: bit for
    bit, or within ulps of scale_of(*columns); an element the scalar path
    rejects makes the array call raise the first such error."""
    want, error = _per_element(kernel, columns)
    if error is not None:
        with pytest.raises(type(error)) as info:
            kernel(*columns)
        assert str(info.value) == str(error)
        return
    got = kernel(*columns)
    n = len(columns[0])
    if isinstance(got, Ternary):
        got = np.stack([np.broadcast_to(c, n) for c in got.components()], axis=1)
        want = np.array([w.components() for w in want])
    else:
        got = np.broadcast_to(got, (n, *np.shape(want[0]))).reshape(n, -1)
        want = np.array(want).reshape(n, -1)
    assert got.dtype == np.float64
    if ulps == 0.0:
        assert got.tobytes() == want.tobytes()
    else:
        scale = np.abs(want) if scale_of is None else np.asarray(scale_of(*columns))
        scale = scale.reshape(n, -1)
        assert np.all(np.abs(got - want) <= ulps * np.spacing(scale))


def _t(*c):
    return Ternary(*c)


@settings(max_examples=60, deadline=None)
@given(_columns(7))
@example(tuple(np.array([-0.0, 0.0, -1.5, 2.0]) * s for s in (1, -1, 1, -1, 1, -1, 1)))  # signed zeros
def test_array_arithmetic_is_bit_identical(cols):
    _matches(lambda a, b, c, d, e, f, g: scale(_t(a, b, c), g), cols)
    _matches(lambda a, b, c, d, e, f, g: mul(_t(a, b, c), _t(d, e, f)), cols)
    _matches(lambda a, b, c, d, e, f, g: _t(a, b, c) + _t(d, e, g), cols)
    _matches(lambda a, b, c, d, e, f, g: _t(a, b, c) - _t(d, 0.5, f), cols)
    _matches(lambda a, b, c, *_: tilde_product(_t(a, b, c)), cols)
    _matches(lambda a, b, c, *_: _t(a, b, c).max_abs(), cols)
    _matches(lambda a, b, c, *_: characteristic_matrix(_t(a, b, c)), cols)
    _matches(lambda a, b, c, *_: characteristic_matrix(_t(a, 0.5, -1.0)), cols)
    _matches(lambda a, b, c, *_: _t(*vars(idempotent_decompose(_t(a, b, c))).values()), cols)
    _matches(lambda a, b, c, *_: idempotent_reconstruct(ta.IdempotentCoords(a, b, c)), cols)
    _matches(lambda a, b, *_: PolarForm(1.0, a, b).theta, cols)
    # the conjugate copies and complex components, signed zeros included
    for k in (0, 1):
        _matches(lambda a, b, c, *_: conjugates(_t(a, b, c))[k].real_part(), cols)
        _matches(lambda a, b, c, *_: conjugates(_t(a, b, c))[k].imag_part(), cols)
        _matches(lambda a, b, c, *_: conjugates(_t(a, b, c))[k].max_imag(), cols)
    _matches(lambda a, b, c, *_: ComplexTernary.from_real(_t(a, b, c)).real_part(), cols)
    _matches(lambda a, b, c, *_: ComplexTernary.from_real(_t(a, b, c)).imag_part(), cols)


def test_array_complex_products_are_bit_identical(rng):
    # numpy's complex product fuses a multiply and an add, which moves the
    # last bit of most products, so the array path must spell out CPython's
    # product: ternary x ternary, and scalar x ternary on either side
    n = 1000
    parts = rng.standard_normal((2, 3, 2, n)) * 10.0 ** rng.integers(-3, 4, (2, 3, 2, n))
    parts[:, :, :, :8] = [0.0, -0.0, 1.0, -1.0, 0.0, -0.0, -2.5, 3.0]  # signed zeros
    components = np.empty((2, 3, n), complex)
    components.real, components.imag = parts[:, :, 0], parts[:, :, 1]
    x, y = (ComplexTernary(*c) for c in components)
    products = (
        lambda a, b: a * b,
        lambda a, b: ta.J2 * a,
        lambda a, b: b * (0.3 - 2.1j),
        lambda a, b: a * (1.0 / 3.0),
    )
    for product in products:
        got = np.array(product(x, y).components())
        want = [
            product(*(ComplexTernary(*(complex(c[i]) for c in t.components())) for t in (x, y))).components()
            for i in range(n)
        ]
        assert got.T.tobytes() == np.array(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(_columns(3))
def test_array_cubic_kernels_within_2_ulp_per_power(cols):
    # the cubic form and the singular tolerance square and cube by products,
    # so they, inverse and the singularity cutoff are bit-identical, and norm
    # and bar take their cube root through float **
    _matches(cubic_form, cols)
    _matches(lambda a, b, c: norm_cubed(_t(a, b, c)), cols)
    _matches(lambda a, b, c: norm(_t(a, b, c)), cols)
    _matches(lambda a, b, c: inverse(_t(a, b, c)), cols)
    _matches(lambda a, b, c: singular_tolerance(_t(a, b, c)), cols)
    _matches(lambda a, b, c: bar(_t(a, b, c)), cols)


def _exp_terms(x0, x1, x2):
    s = x1 + x2
    return np.maximum(np.exp(x0 + s), 2.0 * np.exp(x0 - 0.5 * s))[:, None]


@settings(max_examples=60, deadline=None)
@given(_columns(3))
def test_array_exponentials_within_2_ulp_of_the_largest_term(cols):
    # exp and the multi-sines add e^{s} and 2 e^{-s/2} cos(.): the sum cancels,
    # so the last-bit difference of numpy's exp is counted on the terms
    _matches(lambda a, b, c: exp(_t(a, b, c)), cols, 2.0, _exp_terms)
    for k in (0, 1, 2):
        _matches(lambda b, c: multisine(k, b, c), cols[1:], 2.0, lambda b, c: _exp_terms(0.0 * b, b, c))
    rho = np.exp(cols[0] / 4.0)
    _matches(
        lambda r, b, c: from_polar(PolarForm(r, b, c)),
        (rho, *cols[1:]),
        2.0,
        lambda r, b, c: r[:, None] * _exp_terms(0.0 * b, b, c),
    )


@settings(max_examples=60, deadline=None)
@given(
    _columns(3, -2.0, 2.0),
    st.integers(0, 11),
    st.sampled_from([(1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (1.0, -0.5, -0.5)]),
)
def test_array_singular_element_raises_the_scalar_error(cols, at, singular):
    n = len(cols[0])
    cols = [np.where(np.arange(n) == at % n, v, c) for c, v in zip(cols, singular)]
    for kernel in (inverse, bar):
        with pytest.raises(SingularNumber):
            kernel(_t(*cols))
        _matches(lambda a, b, c: kernel(_t(a, b, c)), cols, 4.0)


def _log_terms(x0, x1, x2):
    """Per element: |ln ||z||^3| under log's x0, and the largest of it,
    |ln(x0+x1+x2)| and the angle period under x1 and x2."""
    ln_n = np.abs(np.log(cubic_form(x0, x1, x2)))
    t = np.maximum(np.maximum(np.abs(np.log(x0 + x1 + x2)), ln_n), THETA_PERIOD)
    return np.stack([ln_n, t, t], axis=1)


def _polar_terms(x0, x1, x2):
    # exp multiplies the error of its argument ln rho by rho
    s = _log_terms(x0, x1, x2)
    s[:, 0] = np.exp(np.log(cubic_form(x0, x1, x2)) / 3.0) * np.maximum(1.0, s[:, 0])
    return s


def _polar(a, b, c):
    p = to_polar(_t(a, b, c))
    return _t(p.rho, p.phi1, p.phi2)


@settings(max_examples=60, deadline=None)
@given(
    _columns(3),
    st.integers(0, 11),
    st.sampled_from([None, (-2.0, 0.5, 0.5), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)]),
)
def test_array_log_and_polar_within_2_ulp_of_the_largest_term(cols, at, planted):
    # flipped to x0+x1+x2 >= 0, where ||z||^3 >= 0 too: mostly in the domain,
    # with an out-of-domain or singular element planted at `at` when drawn
    sign = np.where(cols[0] + cols[1] + cols[2] < 0.0, -1.0, 1.0)
    cols = [sign * c for c in cols]
    if planted is not None:
        n = len(cols[0])
        cols = [np.where(np.arange(n) == at % n, v, c) for c, v in zip(cols, planted)]
    _matches(lambda a, b, c: log(_t(a, b, c)), cols, 2.0, _log_terms)
    _matches(_polar, cols, 2.0, _polar_terms)


def _flat(result, n):
    """A kernel's result as n rows: Ternary components, a matrix or a float."""
    if isinstance(result, Ternary):
        result = np.stack(np.broadcast_arrays(*result.components()), axis=-1)
    return np.asarray(result).reshape(n, -1)


def test_broadcast_components_match_the_scalar_path():
    # components of shapes (n, 1) and (1, m), as a grid evaluation passes them;
    # x0 > 1 > |x1|, |x2| keeps every point nonsingular and in log's domain
    rng = np.random.default_rng(5)
    cols = (rng.uniform(1.0, 3.0, (5, 1)), rng.uniform(-0.5, 0.5, (5, 1)), rng.uniform(-0.5, 0.5, (1, 4)))
    points = [g.ravel() for g in np.broadcast_arrays(*cols)]
    n = len(points[0])

    def check(kernel, ulps=0.0, scale=None):
        got = _flat(kernel(*cols), n)
        want = np.concatenate([_flat(kernel(*(float(p[i]) for p in points)), 1) for i in range(n)])
        if ulps == 0.0:
            assert got.tobytes() == want.tobytes()
        else:
            scale = np.abs(want) if scale is None else scale
            assert np.all(np.abs(got - want) <= ulps * np.spacing(scale))

    check(cubic_form)
    check(lambda a, b, c: mul(_t(a, b, c), _t(c, a, b)))
    check(lambda a, b, c: tilde_product(_t(a, b, c)))
    check(lambda a, b, c: _t(*vars(idempotent_decompose(_t(a, b, c))).values()))
    check(lambda a, b, c: PolarForm(a, b, c).theta)
    check(lambda a, b, c: norm_cubed(_t(a, b, c)))
    check(lambda a, b, c: norm(_t(a, b, c)))
    check(lambda a, b, c: conjugates(_t(a, b, c))[1].imag_part())
    check(lambda a, b, c: inverse(_t(a, b, c)))
    check(lambda a, b, c: characteristic_matrix(_t(a, b, c)))
    check(lambda a, b, c: singular_tolerance(_t(a, b, c)), 2.0)
    check(lambda a, b, c: bar(_t(a, b, c)))
    check(lambda a, b, c: exp(_t(a, b, c)), 2.0, _exp_terms(*points))
    angle_terms = _exp_terms(0.0 * points[0], *points[1:])
    check(lambda a, b, c: multisine(1, b, c), 2.0, angle_terms)
    check(lambda a, b, c: from_polar(PolarForm(a, b, c)), 2.0, points[0][:, None] * angle_terms)
    check(lambda a, b, c: log(_t(a, b, c)), 2.0, _log_terms(*points))
    check(_polar, 2.0, _polar_terms(*points))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_array_non_finite_component_names_its_value(bad):
    x = np.array([0.5, 1.0, 2.0, 3.0])
    y = x.copy()
    y[2] = bad
    with pytest.raises(ValueError, match=f"non-finite ternary component: {bad!r}$"):
        Ternary(x, 0.0, y)
    with pytest.raises(DomainError, match=f"got {bad!r}$"):
        PolarForm(y, x, x)
    with np.errstate(over="ignore"):  # array arithmetic follows numpy's error state
        with pytest.raises(ValueError, match="non-finite ternary component: inf$"):
            scale(Ternary(x, x, x), np.array([1.0, 1.0, 1e308, 1.0]))


def test_array_overflow_raises_the_scalar_error():
    big = np.array([1.0, 400.0, 1.0])
    with np.errstate(over="ignore"):
        with pytest.raises(OverflowError, match=r"^exp out of float range at z = \(400.0, 250.0, 250.0\)$"):
            exp(Ternary(big, big * 0.625, big * 0.625))
        with pytest.raises(OverflowError):
            norm_cubed(Ternary(np.array([0.0, 1e200]), 0.0, 0.0))


def _outcome(kernel, *args):
    """kernel's result as bytes, or its error's type and message."""
    try:
        out = kernel(*args)
    except (TernionError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return np.array(out.components() if isinstance(out, Ternary) else out, dtype=float).tobytes()


def test_multisines_keep_the_bits_and_errors_of_one_call_per_index():
    # multisine and from_polar share one kernel; each element keeps the
    # expression a separate multisine call per index gave, bit for bit
    rng = np.random.default_rng(18)
    phi1 = np.concatenate([rng.uniform(-30.0, 30.0, 400), [0.0, -0.0, 1e-300, -700.0, 700.0, 1400.0]])
    phi2 = np.concatenate([rng.uniform(-30.0, 30.0, 400), [-0.0, 0.0, -1e-300, 705.0, -700.0, -1400.0]])
    rho = np.exp(rng.uniform(-2.0, 2.0, phi1.size))
    for k in (0, 1, 2):
        assert _outcome(multisine, k, phi1, phi2) == _outcome(multisine_each, k, phi1, phi2)
        for a, b in zip(phi1.tolist(), phi2.tolist()):
            assert _outcome(multisine, k, a, b) == _outcome(multisine_each, k, a, b)
    p = PolarForm(rho, phi1, phi2)
    assert _outcome(from_polar, p) == _outcome(from_polar_each, p)
    for r, a, b in zip(rho.tolist(), phi1.tolist(), phi2.tolist()):
        assert _outcome(from_polar, PolarForm(r, a, b)) == _outcome(from_polar_each, PolarForm(r, a, b))


@pytest.mark.parametrize(
    "phi1, phi2",
    [
        ([0.1, 800.0, -3000.0], [0.2, 0.0, 0.0]),  # e^{s} overflows first
        ([0.1, -3000.0, 800.0], [0.2, 0.0, 0.0]),  # e^{-s/2} overflows first
        ([0.1, math.nan, 800.0], [0.2, 0.0, 0.0]),  # nan raises nothing; the next point does
        ([0.1, math.inf, 800.0], [0.2, -math.inf, 0.0]),  # cos(inf)
        ([0.1, math.nan, 0.3], [0.2, 0.0, 0.4]),  # no point raises: nan stays
    ],
    ids=["exp-big", "exp-small", "nan-then-big", "cos-inf", "nan-only"],
)
def test_multisine_array_faults_replay_the_first_flagged_point(phi1, phi2):
    phi1, phi2 = np.array(phi1), np.array(phi2)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in (0, 1, 2):
            assert _outcome(multisine, k, phi1, phi2) == _outcome(multisine_each, k, phi1, phi2)
        if np.isfinite(phi1).all() and np.isfinite(phi2).all():
            p = PolarForm(np.ones(3), phi1, phi2)
            assert _outcome(from_polar, p) == _outcome(from_polar_each, p)


@pytest.mark.parametrize("order", [[0, 1, 2], [0, 2, 1]], ids=["product-first", "exp-first"])
def test_exp_array_fault_is_the_first_faulting_points_float_error(order):
    # at x0 = 709.5 no exponential overflows but 2 e^(x0 - s/2) does, which
    # the float call reports as a non-finite component; at x0 = 800
    # e^(x0 + s) overflows.  The array call raises the earlier point's error.
    x0 = np.array([0.0, 709.5, 800.0])[order]
    x1 = np.array([0.0, -0.0005, 0.0])[order]
    with np.errstate(over="ignore", invalid="ignore"):
        got = _outcome(exp, Ternary(x0, x1, x1))
    each = [_outcome(exp, Ternary(a, b, b)) for a, b in zip(x0.tolist(), x1.tolist())]
    assert got == next(o for o in each if isinstance(o, tuple))
    assert got[0] is (ValueError if order[1] == 1 else OverflowError)


@pytest.mark.parametrize("order", [[0, 1], [1, 0]], ids=["product-first", "exp-first"])
def test_from_polar_array_fault_is_the_first_faulting_points_float_error(order):
    # at phi1 = 709.499 e^(phi1 + phi2) is finite but rho * m_0 overflows,
    # which the float call reports as a non-finite component; at 800 the
    # exponential overflows.  The array call raises the earlier point's error.
    phi1 = np.array([709.499, 800.0])[order]
    with np.errstate(over="ignore"):
        got = _outcome(from_polar, PolarForm(10.0, phi1, np.zeros(2)))
    each = [_outcome(from_polar, PolarForm(10.0, a, 0.0)) for a in phi1.tolist()]
    assert got == next(o for o in each if isinstance(o, tuple))
    assert got[0] is (ValueError if order[0] == 0 else OverflowError)


def test_array_components_are_read_only():
    x = np.linspace(0.0, 1.0, 5)
    z = Ternary(x, 1.0, x)
    with pytest.raises(ValueError, match="read-only"):
        z.x0[0] = 2.0
    with pytest.raises(TypeError):
        math.sin(z.x0)
