import math

import numpy as np
import pytest

from ternion.algebra import Ternary
from ternion.errors import DomainError, OnSingularSet
from ternion.field import (
    EPS_DIV,
    FRAME_MATRIX,
    FrameVector,
    current_density,
    cycle_components,
    cycle_point,
    field_h,
    from_frame,
    h_cartesian,
    potential_decompose,
    to_frame,
    vector_potential,
)

SQ3 = math.sqrt(3.0)


def random_admissible_frame(rng):
    while True:
        l = rng.uniform(-2.0, 2.0)
        r1, r2 = rng.uniform(-2.0, 2.0, size=2)
        v = FrameVector(l, r1, r2)
        if abs(l) > 0.2 and v.r_mag > 0.2:
            return v


def fd_div(fn, v, h=1e-5):
    total = 0.0
    for axis in range(3):
        e = [0.0, 0.0, 0.0]
        e[axis] = h
        up = fn(FrameVector(v.l + e[0], v.r1 + e[1], v.r2 + e[2]))
        dn = fn(FrameVector(v.l - e[0], v.r1 - e[1], v.r2 - e[2]))
        total += (up[axis] - dn[axis]) / (2 * h)
    return total


def fd_curl(fn, v, h=1e-5):
    def partial(axis, comp):
        e = [0.0, 0.0, 0.0]
        e[axis] = h
        up = fn(FrameVector(v.l + e[0], v.r1 + e[1], v.r2 + e[2]))
        dn = fn(FrameVector(v.l - e[0], v.r1 - e[1], v.r2 - e[2]))
        return (up[comp] - dn[comp]) / (2 * h)

    return np.array(
        [
            partial(1, 2) - partial(2, 1),
            partial(2, 0) - partial(0, 2),
            partial(0, 1) - partial(1, 0),
        ]
    )


def test_frame_matrix_is_orthogonal():
    assert np.allclose(FRAME_MATRIX @ FRAME_MATRIX.T, np.eye(3), atol=1e-15)


def test_to_frame_values():
    v = to_frame(Ternary(1.0, 1.0, 1.0))
    assert v.l == pytest.approx(SQ3, abs=1e-15)
    assert abs(v.r1) <= 1e-15 and abs(v.r2) <= 1e-15
    # x1 = 1, x2 = -1 gives r1 = (x1 - x2)/sqrt2 = sqrt2
    v = to_frame(Ternary(0.0, 1.0, -1.0))
    assert v.r1 == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_frame_round_trip_and_isometry(rng):
    for _ in range(100):
        z = Ternary(*rng.uniform(-3, 3, size=3))
        v = to_frame(z)
        back = from_frame(v)
        # numpy scalar components in, Python floats out (they appear in reprs)
        assert all(type(c) is float for c in v.components() + back.components())
        assert (back - z).max_abs() <= 1e-14
        assert v.l**2 + v.r1**2 + v.r2**2 == pytest.approx(
            z.x0**2 + z.x1**2 + z.x2**2, rel=1e-13
        )


def test_field_values():
    h = field_h(FrameVector(1.0, 1.0, 0.0))
    assert np.allclose(h, [1.0, 1.0, 0.0], atol=1e-15)


def test_field_rejects_singular_points():
    with pytest.raises(OnSingularSet):
        field_h(FrameVector(1.0, 0.0, 0.0))
    with pytest.raises(OnSingularSet):
        field_h(FrameVector(0.0, 1.0, 0.0))


def test_field_divergence_free(rng):
    for _ in range(50):
        v = random_admissible_frame(rng)
        assert abs(fd_div(field_h, v)) <= EPS_DIV


def test_field_matches_cartesian_route(rng):
    # (3 sqrt3/2) H(x), rotated to the frame, is field_h at the frame point.
    for _ in range(50):
        v = random_admissible_frame(rng)
        z = from_frame(v)
        h_cart = 1.5 * SQ3 * h_cartesian(z)
        # rotate the cartesian vector with the frame matrix (x1, x2, x0 ordering)
        rotated = FRAME_MATRIX @ np.array([h_cart[1], h_cart[2], h_cart[0]])
        assert np.allclose(rotated, field_h(v), rtol=1e-10, atol=1e-12)


def test_potential_gradient_matches_closed_form(rng):
    h = 1e-6
    for _ in range(30):
        v = random_admissible_frame(rng)
        _, h_pot, _ = potential_decompose(v)
        grad = np.empty(3)
        for axis in range(3):
            e = [0.0, 0.0, 0.0]
            e[axis] = h
            up = potential_decompose(FrameVector(v.l + e[0], v.r1 + e[1], v.r2 + e[2]))[0]
            dn = potential_decompose(FrameVector(v.l - e[0], v.r1 - e[1], v.r2 - e[2]))[0]
            grad[axis] = (up - dn) / (2 * h)
        assert np.allclose(grad, h_pot, atol=1e-6)


def test_decomposition_reconstructs_field(rng):
    for _ in range(100):
        v = random_admissible_frame(rng)
        _, h_pot, h_rot = potential_decompose(v)
        assert np.max(np.abs(h_pot + h_rot - field_h(v))) <= 1e-9


def test_rotational_part_divergence_free(rng):
    for _ in range(30):
        v = random_admissible_frame(rng)
        assert abs(fd_div(lambda u: potential_decompose(u)[2], v)) <= EPS_DIV


def test_potential_antisymmetric_in_l(rng):
    for _ in range(30):
        v = random_admissible_frame(rng)
        phi_plus = potential_decompose(FrameVector(abs(v.l), v.r1, v.r2))[0]
        phi_minus = potential_decompose(FrameVector(-abs(v.l), v.r1, v.r2))[0]
        assert phi_plus == pytest.approx(-phi_minus, rel=1e-12, abs=1e-15)


def test_current_vanishes_on_reversal_cone():
    j = current_density(FrameVector(1.0, math.sqrt(2.0), 0.0))
    assert np.max(np.abs(j)) <= 1e-14


def test_current_tangential(rng):
    for _ in range(50):
        v = random_admissible_frame(rng)
        j = current_density(v)
        assert j[0] == 0.0
        assert abs(j[1] * v.r1 + j[2] * v.r2) <= 1e-12 * (1 + float(np.max(np.abs(j))))


def test_current_is_curl_of_rotational_part(rng):
    for _ in range(20):
        v = random_admissible_frame(rng)
        j = current_density(v)
        curl_rot = fd_curl(lambda u: potential_decompose(u)[2], v)
        curl_full = fd_curl(field_h, v)
        assert np.allclose(j, curl_rot, atol=1e-5)
        assert np.allclose(j, curl_full, atol=1e-5)


def test_vector_potential_values():
    # at l = e |r| the log factor is 1
    r1, r2 = 0.6, -0.8
    v = FrameVector(math.e * 1.0, r1, r2)
    a = vector_potential(v)
    assert np.allclose(a, [0.0, r2, -r1], atol=1e-14)
    assert a[0] == 0.0
    with pytest.raises(DomainError):
        vector_potential(FrameVector(-1.0, 1.0, 0.0))


def test_vector_potential_curl_is_field(rng):
    for _ in range(20):
        v = random_admissible_frame(rng)
        v = FrameVector(abs(v.l), v.r1, v.r2)
        assert np.allclose(fd_curl(vector_potential, v), field_h(v), atol=1e-5)


def test_rotation_covariance_of_field(rng):
    # transmuting components equals evaluating at the rotated point
    for _ in range(50):
        v = random_admissible_frame(rng)
        z = from_frame(v)
        lhs = cycle_components(h_cartesian(z))
        rhs = h_cartesian(cycle_point(z))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def _cartesian_vector_field(frame_fn):
    """Lift a frame-coordinate vector field to cartesian components."""

    def fn(z: Ternary) -> np.ndarray:
        vec = frame_fn(to_frame(z))
        x1, x2, x0 = FRAME_MATRIX.T @ vec
        return np.array([x0, x1, x2])

    return fn


def _cartesian_div(fn, z, h=1e-5):
    total = 0.0
    for axis in range(3):
        c = list(z.components())
        c[axis] += h
        up = fn(Ternary(*c))
        c[axis] -= 2 * h
        dn = fn(Ternary(*c))
        total += (up[axis] - dn[axis]) / (2 * h)
    return total


def test_transmuted_field_stays_divergence_free_but_rotational_part_does_not(rng):
    h_cart = _cartesian_vector_field(field_h)
    hrot_cart = _cartesian_vector_field(lambda u: potential_decompose(u)[2])
    checked = 0
    for _ in range(20):
        v = random_admissible_frame(rng)
        z = from_frame(v)
        div_h = _cartesian_div(lambda p: cycle_components(h_cart(p)), z)
        div_rot = _cartesian_div(lambda p: cycle_components(hrot_cart(p)), z)
        assert abs(div_h) <= EPS_DIV
        if abs(div_rot) > 10 * EPS_DIV:
            checked += 1
    assert checked >= 15  # fails covariance at essentially every generic point


# --------------------------------------------------------------------------
# array frame components


def _rows(values, shape):
    """Per-output values, broadcast to shape, as one row per point."""
    columns = [np.broadcast_to(np.asarray(v, dtype=float), shape) for v in values]
    return np.stack(columns, axis=-1).reshape(-1, len(values))


def _check_array_kernel(kernel, cols, ulps=0.0, terms=None):
    """kernel (coordinates -> list of outputs) on the array cols against one
    float call per point: bit for bit, or within ulps of the per-point term
    scale terms(*flat coordinates), one column per output."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in cols))
    got = _rows(kernel(*cols), shape)
    points = [np.broadcast_to(c, shape).ravel() for c in cols]
    want = np.array([np.ravel(kernel(*(float(p[i]) for p in points))) for i in range(len(points[0]))])
    if ulps == 0.0:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= ulps * np.spacing(terms(*points)))


def _frame_terms(l, r1, r2):
    """Per point and output of each frame kernel, the magnitude of the terms
    it sums, so the last-bit differences of numpy's hypot and log against
    libm's are counted on the terms rather than on a sum that cancels."""
    r = np.hypot(r1, r2)
    big_r = np.hypot(l, r)
    logs = np.abs(np.log(r)) + np.abs(np.log(big_r + np.abs(l)))
    lead = logs / big_r**3
    transverse = lead + np.abs(l) / (r * big_r) ** 2 + 1.0 / (big_r**2 * np.abs(l))
    rot = np.stack([0.0 * r, np.abs(r2), np.abs(r1)], axis=1)
    h = [np.abs(l) * lead + 1.0 / big_r**2 + 1.0 / r**2, np.abs(r1) * transverse, np.abs(r2) * transverse]
    return {
        "field_h": np.stack([1.0 / r**2, np.abs(r1 / (l * r**2)), np.abs(r2 / (l * r**2))], axis=1),
        "potential": np.stack([logs / big_r, *h, *h], axis=1),
        "current": rot * (2.0 / r**4 + 1.0 / (l * r) ** 2)[:, None],
        "vector": rot * ((1.0 + np.abs(np.log(np.abs(l))) + np.abs(np.log(r))) / r**2)[:, None],
    }


def _potential(*c):
    phi_s, h_pot, h_rot = potential_decompose(FrameVector(*c))
    return [phi_s, *h_pot, *h_rot]


FRAME_KERNELS = {
    "field_h": lambda *c: list(field_h(FrameVector(*c))),
    "potential": _potential,
    "current": lambda *c: list(current_density(FrameVector(*c))),
    "vector": lambda *c: list(vector_potential(FrameVector(*c))),
}


def _frame_columns(rng, n, m):
    """Admissible frame points with l > 0: n of them as 1-D arrays, and an
    (n, 1) x (1, m) grid."""
    flat = rng.uniform(0.25, 2.0, (3, n)) * rng.choice([-1.0, 1.0], (3, n))
    flat[0] = abs(flat[0])
    grid = (rng.uniform(0.25, 2.0, (n, 1)), rng.uniform(0.25, 2.0, (1, m)), rng.uniform(-2.0, 2.0, (1, m)))
    return [tuple(flat), grid]


@pytest.mark.parametrize("name", FRAME_KERNELS)
def test_array_frame_kernels_match_the_float_path(rng, name):
    # 8 ulp of the terms: at most 5 seen (field_h) on 20k points drawn as
    # the field suite draws them; the float path's pow is kept bit for bit
    for cols in _frame_columns(rng, 12, 5):
        for sign in (1.0, -1.0) if name != "vector" else (1.0,):
            cols = (sign * cols[0], *cols[1:])
            terms = lambda *p: _frame_terms(*p)[name]  # noqa: E731
            _check_array_kernel(FRAME_KERNELS[name], cols, 8.0, terms)


def test_array_cartesian_kernels_are_bit_identical(rng):
    # h_cartesian divides by the exact cubic form; to_frame and from_frame
    # add the same three products per point as a single point does
    grid = (rng.uniform(-2.0, 2.0, (4, 1)), rng.uniform(-2.0, 2.0, (1, 5)), 0.5)
    for cols in (tuple(rng.uniform(-2.0, 2.0, (3, 12))), grid):
        _check_array_kernel(lambda *c: list(h_cartesian(Ternary(*c))), cols)
        _check_array_kernel(lambda *c: list(to_frame(Ternary(*c)).components()), cols)
        _check_array_kernel(lambda *c: list(from_frame(FrameVector(*c)).components()), cols)


ON_TRISECTRICE = (1.5, 0.0, 0.0)
ON_PLANE = (0.0, 1.0, 0.5)
# |r| is above the trisectrice margin 1e-8 (1 + |l|), but R = hypot(l, |r|)
# rounds to |l|
R_IS_L = (100.0, 1.05e-6, 0.0)
NEGATIVE_L = (-1.0, 0.5, 0.5)


@pytest.mark.parametrize(
    "kernel, plant",
    [
        (field_h, ON_TRISECTRICE),
        (field_h, ON_PLANE),
        (potential_decompose, ON_TRISECTRICE),
        (potential_decompose, ON_PLANE),
        (potential_decompose, R_IS_L),
        (current_density, ON_TRISECTRICE),
        (current_density, ON_PLANE),
        (vector_potential, ON_TRISECTRICE),
        (vector_potential, ON_PLANE),
        (vector_potential, NEGATIVE_L),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_array_fault_raises_the_scalar_error_of_the_first_faulting_point(rng, kernel, plant):
    # the plant at one index and a trisectrice point at another: whichever
    # comes first raises, with the error and message of its float call
    l, r1, r2 = rng.uniform(0.5, 2.0, (3, 8))
    for first, later in ((2, 6), (6, 2)):
        cols = [c.copy() for c in (l, r1, r2)]
        for at, point in ((first, plant), (later, (1.0, 0.0, 0.0))):
            for c, v in zip(cols, point):
                c[at] = v
        with pytest.raises(Exception) as scalar:
            kernel(FrameVector(*(float(c[min(first, later)]) for c in cols)))
        assert isinstance(scalar.value, (OnSingularSet, DomainError))
        with pytest.raises(type(scalar.value)) as array:
            kernel(FrameVector(*cols))
        assert str(array.value) == str(scalar.value)


def test_array_h_cartesian_raises_at_the_first_zero_norm(rng):
    x = rng.uniform(0.5, 2.0, (3, 8))
    x[:, 3] = (1.0, -0.5, -0.5)  # x0 + x1 + x2 = 0: ||z||^3 = 0
    x[:, 5] = (0.7, 0.7, 0.7)  # on the trisectrice
    with pytest.raises(OnSingularSet) as scalar:
        h_cartesian(Ternary(*map(float, x[:, 3])))
    with pytest.raises(OnSingularSet) as array:
        h_cartesian(Ternary(*x))
    assert str(array.value) == str(scalar.value) and "Ternary(1.0, -0.5, -0.5)" in str(array.value)
