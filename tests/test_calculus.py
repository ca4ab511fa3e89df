import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from ternion import algebra as ta
from ternion import calculus
from ternion.algebra import ComplexTernary, Ternary, conjugates, inverse, mul, norm_cubed, scale
from ternion.calculus import (
    _FD3,
    Curve,
    TernaryField,
    _checked_partials,
    box_boundary_patches,
    check_holo_type1,
    check_holo_type2,
    conformal_jacobian,
    cubic_band_patch,
    cubic_surface_geometry,
    line_integral,
    polar_band_patch,
    segment,
    sphere_patch,
    surface_integral_2form,
    ternary_laplacian,
    trisectrice_loop,
    volume_integral_3form,
    wirtinger_partials,
)
from ternion.cli import _FIELDS
from ternion.errors import (
    DomainError,
    NotHolomorphic,
    NumericalBreakdown,
    SingularOnPath,
    TernionError,
)
from ternion.quadrature import adaptive_quad, adaptive_quad_2d, adaptive_quad_3d

from oracles import (
    cubic_band_patch_twice,
    line_integrand,
    pointwise,
    polar_band_patch_twice,
    random_admissible,
    surface_integrand,
    ternary_close,
    trisectrice_loop_twice,
    volume_integrand,
)

SQ3 = math.sqrt(3.0)

identity_field = TernaryField(lambda z: z, name="z")
square_field = TernaryField(lambda z: mul(z, z), name="z^2")
cube_field = TernaryField(lambda z: mul(mul(z, z), z), name="z^3")
x0_field = TernaryField(lambda z: Ternary(z.x0, 0.0, 0.0), name="x0")
one_field = TernaryField(lambda z: ta.ONE, name="1")
log_field = TernaryField(ta.log, name="log z")
reciprocal_field = TernaryField(inverse, name="1/z")


def conjugate_cube_field(n, m):
    """Real and imaginary parts of ztilde^n * ztiltil^m as real fields."""

    def value(z):
        zt, ztt = conjugates(z)
        out = ComplexTernary(1.0 + 0.0j, 0.0j, 0.0j)
        for _ in range(n):
            out = out * zt
        for _ in range(m):
            out = out * ztt
        return out

    re = TernaryField(lambda z: value(z).real_part(), name=f"Re zt^{n} ztt^{m}")
    im = TernaryField(lambda z: value(z).imag_part(), name=f"Im zt^{n} ztt^{m}")
    return re, im


def test_wirtinger_identity_field():
    dz, dzt, dztt = wirtinger_partials(identity_field, Ternary(0.4, -1.2, 2.0))
    assert ternary_close(dz, ta.ONE, 1e-9)
    assert dzt.max_imag() <= 1e-9 and (dzt.real_part()).max_abs() <= 1e-9
    assert dztt.max_imag() <= 1e-9 and (dztt.real_part()).max_abs() <= 1e-9


def test_wirtinger_coordinate_field():
    # x0 = (z + zt + ztt)/3, so every partial has scalar part 1/3.
    for p in (Ternary(0, 0, 0), Ternary(1.5, -0.7, 0.2)):
        dz, dzt, dztt = wirtinger_partials(x0_field, p)
        assert dz.x0 == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert dzt.c0.real == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert dztt.c0.real == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_wirtinger_square_field():
    p = Ternary(1.0, 2.0, 3.0)
    dz, dzt, dztt = wirtinger_partials(square_field, p)
    assert ternary_close(dz, scale(p, 2.0), 1e-6)
    assert max(abs(c) for c in dzt.components()) <= 1e-6
    assert max(abs(c) for c in dztt.components()) <= 1e-6


def test_wirtinger_breakdown_on_rough_field():
    rough = TernaryField(lambda z: Ternary(math.sin(1e8 * z.x0), 0.0, 0.0))
    with pytest.raises(NumericalBreakdown):
        wirtinger_partials(rough, Ternary(0.3, 0.0, 0.0))


def test_holo_type1_polynomials_pass():
    rep = check_holo_type1(square_field, Ternary(1.0, 2.0, 3.0))
    assert rep.passed and rep.max_polar is not None


def test_holo_type1_scalar_field_fails():
    rep = check_holo_type1(x0_field, Ternary(0.5, 0.1, -0.2))
    assert not rep.passed
    assert rep.max_cartesian == pytest.approx(1.0, abs=1e-6)


def test_holo_type1_log_passes(rng):
    for _ in range(5):
        p = random_admissible(rng, lo=0.3, hi=1.8)
        rep = check_holo_type1(log_field, p)
        assert rep.passed


@pytest.mark.parametrize("check", [check_holo_type1, check_holo_type2, conformal_jacobian])
def test_holo_checks_reject_array_points(check):
    # one report for many points would let a failing point hide among
    # passing ones: x0 fails type 1 at every point, and the report of the
    # pair read max_cartesian 1.0 with residuals of shape (3, 3, 2)
    pair = Ternary(np.array([0.5, 0.9]), np.array([0.1, 0.4]), np.array([-0.2, -0.3]))
    with pytest.raises(DomainError, match=f"^{check.__name__} checks one point"):
        check(x0_field, pair)


def test_holo_type2_conjugate_product_passes():
    # (zt ztt)^2 is a function of the conjugate product: both residual sets vanish.
    prod_sq = TernaryField(lambda z: mul(ta.tilde_product(z), ta.tilde_product(z)))
    rep = check_holo_type2(prod_sq, Ternary(0.9, 0.4, -0.3))
    assert rep.passes_single and rep.passes_reality


def test_holo_type2_identity_fails():
    rep = check_holo_type2(identity_field, Ternary(0.9, 0.4, -0.3))
    assert not rep.passes_single
    # the summed constraint is 3 * dF/dz = 3 for the identity
    assert rep.max_single == pytest.approx(3.0, abs=1e-6)


def test_holo_type2_mixed_powers_pass_single_only():
    re, im = conjugate_cube_field(2, 1)
    p = Ternary(0.9, 0.4, -0.3)
    for f in (re, im):
        rep = check_holo_type2(f, p)
        assert rep.passes_single
        assert rep.max_reality > 1e-3  # genuinely fails reality


def test_laplacian_monomials():
    assert ternary_laplacian(lambda z: z.x0**3, Ternary(0.3, 0.7, -0.2)) == pytest.approx(6.0, abs=1e-6)
    assert ternary_laplacian(lambda z: z.x0 * z.x1 * z.x2, Ternary(0.3, 0.7, -0.2)) == pytest.approx(
        -3.0, abs=1e-6
    )


def test_laplacian_annihilates_cube_components(rng):
    for _ in range(10):
        p = Ternary(*rng.uniform(-1.5, 1.5, size=3))
        for i in range(3):
            val = ternary_laplacian(lambda z, i=i: cube_field(z).components()[i], p)
            assert abs(val) <= 1e-3


def test_laplacian_annihilates_log_components(rng):
    for _ in range(5):
        p = random_admissible(rng, lo=0.5, hi=2.0)
        for i in range(3):
            val = ternary_laplacian(lambda z, i=i: ta.log(z).components()[i], p)
            assert abs(val) <= 1e-3


def straight_line(a: Ternary, b: Ternary) -> Curve:
    diff = b - a

    def frame(t):
        return a + scale(diff, t), diff

    return Curve(frame, 0.0, 1.0)


def test_line_integral_constant_field():
    a, b = Ternary(0.2, -0.4, 1.0), Ternary(1.3, 0.8, -0.5)
    got = line_integral(one_field, straight_line(a, b), tol=1e-12)
    assert ternary_close(got, b - a, 1e-10)


def test_line_integral_primitive_of_z():
    a, b = ta.ONE, Ternary(2.0, 1.0, 0.0)
    # the primitive z^2/2 is itself type-1 holomorphic
    assert check_holo_type1(square_field, Ternary(1.5, 0.5, 0.0)).passed
    got = line_integral(identity_field, straight_line(a, b), tol=1e-12)
    expected = scale(mul(b, b) - mul(a, a), 0.5)
    assert ternary_close(got, expected, 1e-10)


def test_line_integral_primitive_consistency():
    pairs = [
        (one_field, lambda z: z),
        (identity_field, lambda z: scale(mul(z, z), 0.5)),
        (square_field, lambda z: scale(mul(mul(z, z), z), 1.0 / 3.0)),
    ]
    a = Ternary(0.5, -0.2, 0.3)
    b = Ternary(1.4, 0.9, -0.6)
    curve = straight_line(a, b)
    for f, primitive in pairs:
        # each primitive is itself type-1 holomorphic
        assert check_holo_type1(TernaryField(primitive), Ternary(0.8, 0.1, 0.2)).passed
        got = line_integral(f, curve, tol=1e-12)
        assert ternary_close(got, primitive(b) - primitive(a), 1e-9)


def test_line_integral_path_independence():
    a, b = Ternary(0.5, -0.2, 0.3), Ternary(1.4, 0.9, -0.6)
    mid = scale(a + b, 0.5) + Ternary(0.3, 1.1, 0.8)

    def arc(t):
        # quadratic Bezier sharing endpoints with the straight line, with
        # its analytic tangent
        u = 1.0 - t
        point = scale(a, u * u) + scale(mid, 2 * u * t) + scale(b, t * t)
        return point, scale(mid - a, 2 * u) + scale(b - mid, 2 * t)

    tol = 1e-11
    straight = line_integral(square_field, straight_line(a, b), tol=tol)
    curved = line_integral(square_field, Curve(arc, 0.0, 1.0), tol=tol)
    # far below the quadrature tolerance: with exact tangents both integrals
    # are the primitive's difference up to roundoff, where a difference
    # tangent leaves ~3e-12
    assert ternary_close(straight, curved, 1e-13)


def test_line_integral_quadrature_convergence():
    a, b = Ternary(0.5, -0.2, 0.3), Ternary(1.4, 0.9, -0.6)
    tol = 1e-8
    v1 = line_integral(cube_field, straight_line(a, b), tol=tol)
    v2 = line_integral(cube_field, straight_line(a, b), tol=tol / 2)
    assert (v1 - v2).max_abs() <= tol


def test_trisectrice_loop_residue():
    loop = trisectrice_loop(rho=1.0)
    assert loop.closed
    got = line_integral(reciprocal_field, loop, tol=1e-12)
    expected = Ternary(0.0, 2.0 * math.pi / SQ3, -2.0 * math.pi / SQ3)
    assert ternary_close(got, expected, 1e-8)


def test_line_integral_singular_on_path():
    # midpoint of the parameter range sits exactly on the trisectrice
    def frame(t):
        return Ternary(1.0 + (t - 0.5), 1.0, 1.0 - (t - 0.5)), Ternary(1.0, 0.0, -1.0)

    with pytest.raises(SingularOnPath):
        line_integral(reciprocal_field, Curve(frame, 0.0, 1.0), tol=1e-10)


def inverse_conjugate_field():
    """Phi = 1/(zt ztt) = z/||z||^3."""
    return TernaryField(lambda z: scale(z, 1.0 / norm_cubed(z)), name="z/||z||^3")


def test_surface_band_integral():
    a1, a2 = 1.0, math.e
    got = surface_integral_2form(inverse_conjugate_field(), cubic_band_patch(1.0, a1, a2), tol=1e-9)
    expected = 2.0 * math.pi / SQ3 * math.log(a2 / a1)
    assert got.x0 == pytest.approx(expected, rel=1e-7)
    assert abs(got.x1) <= 1e-8 and abs(got.x2) <= 1e-8


def test_surface_band_integral_polar_route():
    lo, hi = -0.2, 0.3
    got = surface_integral_2form(inverse_conjugate_field(), polar_band_patch(1.0, lo, hi), tol=1e-9)
    expected = 4.0 * math.pi / SQ3 * (hi - lo)
    assert got.x0 == pytest.approx(expected, rel=1e-7)
    assert abs(got.x1) <= 1e-8 and abs(got.x2) <= 1e-8


def test_surface_closed_non_enclosing_is_zero():
    patch = sphere_patch(Ternary(2.0, 0.0, 0.0), 0.5)
    got = surface_integral_2form(inverse_conjugate_field(), patch, tol=1e-10)
    assert got.max_abs() <= 1e-8


def test_sphere_radius_must_be_positive():
    for radius in (-0.5, 0.0):
        with pytest.raises(DomainError, match="radius"):
            sphere_patch(Ternary(0.0, 0.0, 2.0), radius)


@pytest.mark.parametrize(
    "build",
    [trisectrice_loop, lambda rho: cubic_band_patch(rho, 1.0, 2.0), lambda rho: polar_band_patch(rho, 0.0, 0.5)],
    ids=["trisectrice_loop", "cubic_band_patch", "polar_band_patch"],
)
def test_constant_modulus_presets_reject_rho_when_built(build):
    # rejected by the constructor, before any integrand evaluation
    for rho in (-1.0, 0.0):
        with pytest.raises(DomainError, match=f"modulus level rho must be positive, got {rho}"):
            build(rho)


def test_segment_runs_from_a_to_b():
    a, b = Ternary(0.5, -0.2, 0.3), Ternary(1.4, 0.9, -0.6)
    line = segment(a, b)
    assert (line.t_start, line.t_end) == (0.0, 1.0)
    assert line.frame(0.0) == (a, b - a) and line.frame(0.3)[1] == b - a
    assert (line.frame(1.0)[0] - b).max_abs() <= 1e-15
    # the integral of 1 dz is b - a
    got = line_integral(TernaryField(lambda z: ta.ONE), line, tol=1e-12)
    assert (got - (b - a)).max_abs() <= 1e-14


def test_form_integrals_hold_python_floats():
    values = [
        line_integral(reciprocal_field, trisectrice_loop(rho=1.0), tol=1e-9),
        surface_integral_2form(inverse_conjugate_field(), polar_band_patch(1.0, -0.2, 0.3), tol=1e-9),
        volume_integral_3form(one_field, ((0, 1), (0, 1), (0, 1)), tol=1e-9),
    ]
    for value in values:
        assert all(type(c) is float for c in value.components())


def test_volume_unit_cube():
    got = volume_integral_3form(one_field, ((0, 1), (0, 1), (0, 1)), tol=1e-10)
    assert ternary_close(got, ta.ONE, 1e-9)


def test_volume_scalar_slot_only():
    w = TernaryField(lambda z: Ternary(z.x0**2, 0.0, 0.0))
    got = volume_integral_3form(w, ((0, 1), (0, 1), (0, 1)), tol=1e-10)
    assert got.x0 == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert abs(got.x1) <= 1e-12 and abs(got.x2) <= 1e-12


def test_divergence_theorem():
    box = ((0.2, 1.0), (0.1, 0.8), (-0.3, 0.5))
    phi = square_field
    h = 1e-6

    def partial(i, j, p):
        # out of place: the components are the quadrature's read-only node arrays
        c = p.components()
        up = phi(Ternary(*(x + h if k == j else x for k, x in enumerate(c)))).components()[i]
        dn = phi(Ternary(*(x - h if k == j else x for k, x in enumerate(c)))).components()[i]
        return (up - dn) / (2 * h)

    def divergences(p):
        # flux vectors of the three 2-forms: (f0,f1,f2), (f1,f2,f0), (f2,f0,f1)
        d0 = partial(0, 0, p) + partial(1, 1, p) + partial(2, 2, p)
        d1 = partial(1, 0, p) + partial(2, 1, p) + partial(0, 2, p)
        d2 = partial(2, 0, p) + partial(0, 1, p) + partial(1, 2, p)
        return Ternary(d0, d1, d2)

    flux = ta.ZERO
    for face in box_boundary_patches(box):
        flux = flux + surface_integral_2form(phi, face, tol=1e-10)
    vol = volume_integral_3form(TernaryField(divergences), box, tol=1e-8)
    assert ternary_close(flux, vol, 1e-6)


def test_cubic_surface_point_on_level_set(rng):
    for _ in range(20):
        rho = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.2, 3.0)
        theta = rng.uniform(0.0, 2 * math.pi)
        geom = cubic_surface_geometry(rho, a, theta)
        assert norm_cubed(geom.point) == pytest.approx(rho**3, rel=1e-9, abs=1e-9)


def test_cubic_surface_jacobians_match_finite_differences(rng):
    h = 1e-6
    for _ in range(10):
        rho = rng.uniform(0.5, 1.5)
        a = rng.uniform(0.5, 2.0)
        theta = rng.uniform(0.0, 2 * math.pi)

        def point(aa, tt):
            return np.array(cubic_surface_geometry(rho, aa, tt).point.components())

        da = (point(a + h, theta) - point(a - h, theta)) / (2 * h)
        dt = (point(a, theta + h) - point(a, theta - h)) / (2 * h)
        j12 = da[1] * dt[2] - da[2] * dt[1]
        j20 = da[2] * dt[0] - da[0] * dt[2]
        j01 = da[0] * dt[1] - da[1] * dt[0]
        got = cubic_surface_geometry(rho, a, theta).jacobians
        assert np.allclose(got, (j12, j20, j01), atol=1e-8)


def test_cubic_surface_pythagorean_identity(rng):
    for _ in range(50):
        rho = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.3, 3.0)
        theta = rng.uniform(0.0, 2 * math.pi)
        j12, j20, j01 = cubic_surface_geometry(rho, a, theta).jacobians
        expected = rho**6 / (3.0 * SQ3 * a**3)
        assert ta.cubic_form(j01, j12, j20) == pytest.approx(expected, rel=1e-9)


def test_cubic_surface_flat_limit():
    # a -> 0 sends r -> infinity and the dr^2 coefficient to 2/3
    geoms = [cubic_surface_geometry(1.0, a, 0.7) for a in (1e-2, 1e-4, 1e-6)]
    errs = [abs(g.metric_r - 2.0 / 3.0) for g in geoms]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-8
    assert geoms[2].metric_theta == pytest.approx(2.0 / 3.0 * geoms[2].r**2, rel=1e-12)


def test_cubic_surface_domain_errors():
    with pytest.raises(DomainError):
        cubic_surface_geometry(1.0, -0.1, 0.0)
    with pytest.raises(DomainError):
        cubic_surface_geometry(0.0, 1.0, 0.0)


def test_conformal_jacobian_values():
    assert conformal_jacobian(identity_field, Ternary(0.7, -0.3, 0.4)) == pytest.approx(1.0, abs=1e-6)
    got = conformal_jacobian(square_field, Ternary(2.0, 0.0, 0.0))
    assert got == pytest.approx(64.0, rel=1e-6)
    const = TernaryField(lambda z: Ternary(0.3, 0.1, -0.2))
    assert conformal_jacobian(const, Ternary(0.5, 0.2, 0.1)) == pytest.approx(0.0, abs=1e-9)


def test_conformal_jacobian_equals_norm_of_derivative(rng):
    for _ in range(10):
        p = Ternary(*rng.uniform(-1.5, 1.5, size=3))
        det = conformal_jacobian(square_field, p)
        assert det == pytest.approx(norm_cubed(scale(p, 2.0)), rel=1e-5, abs=1e-6)


def test_conformal_jacobian_rejects_non_holomorphic():
    with pytest.raises(NotHolomorphic):
        conformal_jacobian(x0_field, Ternary(0.5, 0.1, -0.2))


def test_conformal_jacobian_evaluates_the_partials_once():
    # 12 field calls for the partials at two steps, shared by the type-1
    # report and the determinant, and 6 for the polar residuals
    calls = []
    counted = TernaryField(lambda z: calls.append(z) or mul(z, z))
    p = Ternary(0.7, -0.3, 0.4)
    got = conformal_jacobian(counted, p)
    assert len(calls) == 18
    assert got == float(np.linalg.det(_checked_partials(square_field, p)))


def test_closedness_of_holomorphic_one_form(rng):
    # d(F dz) = 0: the curl of each component 1-form vanishes for a random
    # polynomial F = c0 + c1 z + c2 z^2.
    h = 1e-5
    c0, c1, c2 = (Ternary(*rng.uniform(-1, 1, size=3)) for _ in range(3))

    def poly(z):
        return c0 + mul(c1, z) + mul(c2, mul(z, z))

    def coeffs(p):
        f0, f1, f2 = poly(p).components()
        return np.array([[f0, f2, f1], [f1, f0, f2], [f2, f1, f0]])

    for _ in range(10):
        p = Ternary(*rng.uniform(-1.0, 1.0, size=3))
        for comp in range(3):
            for (i, j) in ((0, 1), (1, 2), (2, 0)):
                ei = [0.0] * 3
                ej = [0.0] * 3
                ei[i] = h
                ej[j] = h
                pi_up = Ternary(p.x0 + ei[0], p.x1 + ei[1], p.x2 + ei[2])
                pi_dn = Ternary(p.x0 - ei[0], p.x1 - ei[1], p.x2 - ei[2])
                pj_up = Ternary(p.x0 + ej[0], p.x1 + ej[1], p.x2 + ej[2])
                pj_dn = Ternary(p.x0 - ej[0], p.x1 - ej[1], p.x2 - ej[2])
                dwj_dxi = (coeffs(pi_up)[comp][j] - coeffs(pi_dn)[comp][j]) / (2 * h)
                dwi_dxj = (coeffs(pj_up)[comp][i] - coeffs(pj_dn)[comp][i]) / (2 * h)
                assert abs(dwj_dxi - dwi_dxj) <= 1e-6


# ---------------------------------------------------------------------------
# Batched form integrals against the pointwise reference integrands of
# tests/oracles.py, integrated node by node through oracles.pointwise


def _counting(func):
    """A TernaryField that counts the nodes it is evaluated at."""

    def counted(z):
        counted.n += max(np.size(c) for c in z.components())
        return func(z)

    counted.n = 0
    return TernaryField(counted)


_BOX = ((-0.5, 0.4), (0.1, 1.2), (-1.0, 0.3))
_A, _B = Ternary(0.5, -0.2, 0.3), Ternary(1.4, 0.9, -0.6)


@pytest.mark.parametrize(
    "kind, func, domain",
    [
        ("line", inverse, trisectrice_loop(1.3, 0.2)),
        ("line", lambda z: mul(z, z), straight_line(_A, _B)),
        ("surface", lambda z: scale(z, 1.0 / norm_cubed(z)), cubic_band_patch(1.1, 0.8, 2.0)),
        ("surface", lambda z: scale(z, 1.0 / norm_cubed(z)), polar_band_patch(0.9, -0.3, 0.2)),
        ("surface", lambda z: z, sphere_patch(Ternary(0.0, 0.0, 2.0), 0.5)),
        ("surface", lambda z: mul(z, z), box_boundary_patches(_BOX)[2]),
        ("volume", lambda z: mul(Ternary(-0.4, 0.9, 0.6), mul(z, z)) + Ternary(0.3, -0.7, 0.2), _BOX),
    ],
    ids=["loop", "segment", "cubic-band", "polar-band", "sphere", "box-face", "box-volume"],
)
def test_batched_integral_matches_pointwise_reference(kind, func, domain):
    batched, reference = _counting(func), _counting(func)
    if kind == "line":
        got = line_integral(batched, domain, tol=1e-9)
        ref = adaptive_quad(pointwise(line_integrand(reference, domain)), domain.t_start, domain.t_end, 1e-9)
    elif kind == "surface":
        got = surface_integral_2form(batched, domain, tol=1e-9)
        ref = adaptive_quad_2d(
            pointwise(surface_integrand(reference, domain)), domain.u_range, domain.v_range, 1e-9
        )
    else:
        got = volume_integral_3form(batched, domain, tol=1e-9)
        ref = adaptive_quad_3d(pointwise(volume_integrand(reference)), domain, 1e-9)
    ref = Ternary(*ref.tolist())
    assert batched.func.n == reference.func.n
    assert (got - ref).max_abs() <= 1e-15 * ref.max_abs()


# The constant-modulus presets against tests/oracles.py's presets that
# evaluate each node's point twice: the same integrals, bit for bit.

_TWICE = {
    "trisectrice_loop": trisectrice_loop_twice,
    "cubic_band_patch": cubic_band_patch_twice,
    "polar_band_patch": polar_band_patch_twice,
}


def _preset_integral(field, name, build, args):
    integral = line_integral if name == "trisectrice_loop" else surface_integral_2form
    try:
        return [c.hex() for c in integral(TernaryField(field), build(*args), tol=1e-9).components()]
    except (TernionError, ArithmeticError, ValueError) as exc:  # errors match too, type and message
        return [type(exc).__name__, str(exc)]


@pytest.mark.parametrize("field_name", sorted(_FIELDS))
@pytest.mark.parametrize(
    "name, args",
    [
        ("trisectrice_loop", (1.0, 0.0)),
        ("trisectrice_loop", (1.3, 0.2)),
        ("trisectrice_loop", (0.5, -0.5)),
        ("cubic_band_patch", (1.0, 1.0, 2.718281828)),
        ("cubic_band_patch", (1.1, 0.8, 2.0)),
        ("cubic_band_patch", (0.7, 0.6, 1.8)),
        ("polar_band_patch", (1.0, -0.2, 0.3)),
        ("polar_band_patch", (0.9, -0.3, 0.2)),
        ("polar_band_patch", (1.5, 0.0, 0.6)),
    ],
)
def test_preset_integrals_match_the_evaluate_twice_oracle(name, args, field_name):
    field = _FIELDS[field_name]
    got = _preset_integral(field, name, getattr(calculus, name), args)
    assert got == _preset_integral(field, name, _TWICE[name], args)


def _perfbench_workloads():
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_perfbench_form_draws_match_the_evaluate_twice_oracle(seed, monkeypatch):
    # the loops and bands of the perfbench forms workload, as it draws them
    workloads = _perfbench_workloads()
    built = []
    for name in _TWICE:
        original = getattr(calculus, name)
        monkeypatch.setattr(calculus, name, lambda *args, n=name, f=original: built.append((n, args)) or f(*args))
    ops, _ = workloads.forms_ops(seed, None)
    monkeypatch.undo()
    assert len(built) == 84
    for (name, args), op in zip(built, ops):
        field = workloads.reciprocal if name == "trisectrice_loop" else workloads.inverse_conjugate
        got = [c.hex() for c in op.run().components()]
        assert got == _preset_integral(field, name, _TWICE[name], args)


def test_point_is_evaluated_once_per_integrand_call(monkeypatch):
    # the loop's and the polar band's tangents take the integrand's point:
    # one from_polar per integrand call, and the field runs once per call
    from_polar, calls, cells = ta.from_polar, [], []
    monkeypatch.setattr(ta, "from_polar", lambda p: calls.append(p) or from_polar(p))
    field = TernaryField(lambda z: cells.append(z) or inverse(z))
    line_integral(field, trisectrice_loop(1.3, 0.2), tol=1e-9)
    assert len(calls) == len(cells) > 0
    calls.clear()
    cells.clear()
    surface_integral_2form(field, polar_band_patch(0.9, -0.3, 0.2), tol=1e-9)
    assert len(calls) == len(cells) > 0
    # the cubic band builds no CubicSurfaceGeometry record for its points
    built = []
    geometry = calculus.CubicSurfaceGeometry
    monkeypatch.setattr(calculus, "CubicSurfaceGeometry", lambda *a: built.append(a) or geometry(*a))
    surface_integral_2form(field, cubic_band_patch(1.1, 0.8, 2.0), tol=1e-9)
    assert built == []
    cubic_surface_geometry(1.1, 0.8, 0.3)
    assert len(built) == 1
    # the cubic band's frame takes its point, r, cos theta and sin theta
    # from one _cubic_surface_point call per integrand call
    points, surface_point = [], calculus._cubic_surface_point
    monkeypatch.setattr(calculus, "_cubic_surface_point", lambda *a: points.append(a) or surface_point(*a))
    cells.clear()
    surface_integral_2form(field, cubic_band_patch(1.1, 0.8, 2.0), tol=1e-9)
    assert len(points) == len(cells) > 0
    # and the sphere's frame, point and tangents together, runs once per call
    sphere = sphere_patch(Ternary(0.0, 0.0, 2.0), 0.5)
    frames, frame = [], sphere.frame
    sphere.frame = lambda u, v: frames.append(u) or frame(u, v)
    cells.clear()
    surface_integral_2form(field, sphere, tol=1e-9)
    assert len(frames) == len(cells) > 0


def test_box_face_tangents_cross_to_the_outward_unit_normal():
    # each face's constant tangents are unit vectors ordered so that t1 x t2
    # is exactly the outward normal, and its points lie on the face
    box = ((-0.5, 0.4), (0.1, 1.2), (-1.0, 0.3))
    faces = box_boundary_patches(box)
    assert len(faces) == 6
    for k, face in enumerate(faces):
        axis, sign = k // 2, 1.0 if k % 2 == 0 else -1.0
        u = np.linspace(*face.u_range, 4)
        v = np.linspace(*face.v_range, 4)
        x, t1, t2 = face.frame(u, v)
        cross = (
            t1.x1 * t2.x2 - t1.x2 * t2.x1,
            t1.x2 * t2.x0 - t1.x0 * t2.x2,
            t1.x0 * t2.x1 - t1.x1 * t2.x0,
        )
        normal = tuple(sign if i == axis else 0.0 for i in range(3))
        assert cross == normal
        assert sorted(t1.components()) == sorted(t2.components()) == [0.0, 0.0, 1.0]
        assert x.components()[axis] == box[axis][1 if sign > 0 else 0]
        others = sorted(np.ravel(c).tolist() for i, c in enumerate(x.components()) if i != axis)
        assert others == sorted([u.tolist(), v.tolist()])


def test_zero_norm_node_ends_in_singular_on_path_without_warning():
    # the segment's midpoint node is exactly 0, where 1/||z||^3 divides by zero
    a, b = Ternary(-1.0, -0.5, 0.2), Ternary(1.0, 0.5, -0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularOnPath, match="divide by zero"):
            line_integral(inverse_conjugate_field(), straight_line(a, b), tol=1e-10)
        with pytest.raises(SingularOnPath):
            volume_integral_3form(inverse_conjugate_field(), ((-1, 1), (-1, 1), (-1, 1)), tol=1e-10)


def test_field_mutating_its_nodes_raises():
    def shift_in_place(z):
        x = z.x0
        x += 1.0
        return z

    with pytest.raises(ValueError, match="read-only"):
        volume_integral_3form(TernaryField(shift_in_place), ((0, 1), (0, 1), (0, 1)))
    with pytest.raises(ValueError, match="read-only"):
        line_integral(TernaryField(shift_in_place), straight_line(_A, _B))

    def frame(t):
        t *= 2.0
        return scale(_A, t), _A

    with pytest.raises(ValueError, match="read-only"):
        line_integral(identity_field, Curve(frame, 0.0, 1.0))


def test_field_written_with_math_functions_raises_type_error():
    with pytest.raises(TypeError):
        line_integral(TernaryField(lambda z: Ternary(math.sin(z.x0), 0.0, 0.0)), straight_line(_A, _B))


# --------------------------------------------------------------------------
# array points: every point's stencil in one evaluation


def _point_columns(rng, lo, hi):
    """Points as 1-D arrays, and as an (n, 1) x (1, m) grid with x2 a float."""
    return [
        tuple(rng.uniform(lo, hi, (3, 7))),
        (rng.uniform(lo, hi, (4, 1)), rng.uniform(lo, hi, (1, 3)), 0.5 * (lo + hi)),
    ]


def _per_point(kernel, cols):
    """kernel on a Ternary of float components at each point of the
    broadcast cols, its results stacked as the array path lays them out."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in cols))
    points = [np.broadcast_to(c, shape).ravel() for c in cols]
    out = [np.asarray(kernel(Ternary(*(float(p[i]) for p in points)))) for i in range(len(points[0]))]
    return np.stack(out, axis=-1).reshape(out[0].shape + shape)


def _components_of(field):
    return lambda z: np.array(field(z).components())


def _wirtinger_parts(F, p):
    """wirtinger_partials(F, p) as one array: the components of dF/dz, then
    the real and imaginary parts of the conjugate derivatives."""
    dz, dzt, dztt = wirtinger_partials(F, p)
    parts = (dz, dzt.real_part(), dzt.imag_part(), dztt.real_part(), dztt.imag_part())
    return np.array(np.broadcast_arrays(*(c for t in parts for c in t.components())))


def test_array_stencils_of_a_polynomial_are_bit_identical(rng):
    # the stencil points and the difference quotients are elementwise, in the
    # float path's order, and mul is exact arithmetic
    for cols in _point_columns(rng, -1.5, 1.5):
        p = Ternary(*cols)
        want = _per_point(lambda q: _checked_partials(cube_field, q), cols)
        assert _checked_partials(cube_field, p).tobytes() == want.tobytes()
        for field in (cube_field, x0_field):
            want = _per_point(lambda q: _wirtinger_parts(field, q), cols)
            assert _wirtinger_parts(field, p).tobytes() == want.tobytes()
        lap = _components_of(cube_field)
        want = _per_point(lambda q: ternary_laplacian(lap, q), cols)
        assert ternary_laplacian(lap, p).tobytes() == want.tobytes()


def test_array_laplacian_of_log_within_1_ulp_per_stencil_term(rng):
    # numpy's log may differ from libm's in the last bit at each of the 20
    # stencil points; the third differences weigh them by 12 / h^3 in all
    # (at most 0.08 of this bound seen on 1000 points)
    for cols in _point_columns(rng, 0.6, 1.8):
        cols = (cols[0] + 1.0, *cols[1:])  # x0 leads: in log's domain, off the trisectrice
        p = Ternary(*cols)
        f = _components_of(log_field)
        got = ternary_laplacian(f, p)
        want = _per_point(lambda q: ternary_laplacian(f, q), cols)
        h = _FD3 * (1.0 + p.max_abs())
        terms = 2.0 * np.maximum(np.abs(np.log(ta.norm_cubed(p))), ta.THETA_PERIOD)
        assert np.all(np.abs(got - want) <= np.spacing(terms) * 12.0 / h**3)


def _stencil_points(run, x):
    """The points that run(fun, x) hands fun, where fun records each
    coordinate list it is given and returns one zero: as a list of float
    triples for a float x, and as such a list per point of an array x."""
    seen = []

    def fun(c):
        seen.append(list(c))
        return (0.0 * c[0],)

    run(fun, x)
    if np.ndim(x[0]) == 0:
        return np.array(seen)
    (stacked,) = seen
    return np.stack(np.broadcast_arrays(*stacked), axis=-1)


def _moved(x, steps, offsets):
    """The expected stencil points: coordinate i of a point is x[i] as it is
    where its offset is 0, else x[i] + offset * steps[i]."""
    return np.array([[c if o == 0 else c + o * h for c, h, o in zip(x, steps, off)] for off in offsets])


# the stencils' offsets in the order fun sees their points
_PARTIAL_OFFSETS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
_LAPLACIAN_STENCIL = (
    [(d, 0, 0) for d in (2, 1, -1, -2)]
    + [(0, d, 0) for d in (2, 1, -1, -2)]
    + [(0, 0, d) for d in (2, 1, -1, -2)]
    + [(s0, s1, s2) for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)]
)


def test_stencils_hand_fun_their_points_in_offset_order_with_unmoved_coordinates_exact():
    # a -0.0 that a point does not move stays -0.0: c + 0.0 * h would make it 0.0
    steps = (1e-3, 2e-3, 4e-3)

    def partials(fun, x):
        calculus._partials(fun, x, steps)

    def laplacian(fun, x):
        ternary_laplacian(lambda z: fun(z.components())[0], Ternary(*x))

    x = (0.25, -0.0, -0.0)
    got = _stencil_points(partials, x)
    assert got.tobytes() == _moved(x, steps, _PARTIAL_OFFSETS).tobytes()
    h = _FD3 * 1.25
    got = _stencil_points(laplacian, x)
    assert got.tobytes() == _moved(x, (h, h, h), _LAPLACIAN_STENCIL).tobytes()
    assert math.copysign(1.0, got[0, 1]) == -1.0

    xs = (np.array([0.25, -1.5]), np.array([-0.0, 0.75]), -0.0)
    for i in range(2):
        x = (float(xs[0][i]), float(xs[1][i]), xs[2])
        assert _stencil_points(partials, xs)[i].tobytes() == _moved(x, steps, _PARTIAL_OFFSETS).tobytes()
        h = _FD3 * (1.0 + max(map(abs, x)))
        got = _stencil_points(laplacian, xs)[i]
        assert got.tobytes() == _moved(x, (h, h, h), _LAPLACIAN_STENCIL).tobytes()


def _rough_above_one(z):
    return Ternary(np.sin(1e8 * z.x0) * (z.x0 > 1.0), 0.0, 0.0)


def test_array_check_raises_the_breakdown_of_the_first_failing_point():
    rough = TernaryField(_rough_above_one, name="rough")
    x0 = np.array([0.3, 0.5, 1.2, 0.7, 1.5])
    with pytest.raises(NumericalBreakdown) as scalar:
        _checked_partials(rough, Ternary(1.2, 0.1, 0.2))
    with pytest.raises(NumericalBreakdown) as array:
        _checked_partials(rough, Ternary(x0, 0.1, 0.2))
    assert str(array.value) == str(scalar.value)


def test_array_check_breakdown_before_a_later_domain_error():
    # point 0 fails the two-step check, point 2 is outside log's domain: the
    # float loop stops at point 0, and so must the array evaluation
    field = TernaryField(lambda z: ta.log(z) + _rough_above_one(z), name="log + rough")
    x = np.array([[1.2, 0.1, 0.2], [0.9, 0.2, 0.1], [-1.0, -0.5, -0.2]]).T
    with pytest.raises(NumericalBreakdown) as scalar:
        _checked_partials(field, Ternary(1.2, 0.1, 0.2))
    with pytest.raises(NumericalBreakdown) as array:
        _checked_partials(field, Ternary(*x))
    assert str(array.value) == str(scalar.value)


def test_array_laplacian_raises_the_error_of_the_first_faulting_point(rng):
    x = rng.uniform(0.8, 1.6, (3, 6))
    x[:, 3] = (-1.0, 0.2, 0.1)  # x0 + x1 + x2 < 0
    x[:, 5] = (-2.0, 0.3, 0.1)
    f = _components_of(log_field)
    with pytest.raises(DomainError) as scalar:
        ternary_laplacian(f, Ternary(*map(float, x[:, 3])))
    with pytest.raises(DomainError) as array:
        ternary_laplacian(f, Ternary(*x))
    assert str(array.value) == str(scalar.value)

