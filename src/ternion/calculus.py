"""Derivatives, holomorphy tests, and quadrature of ternary differential forms.

A ternary field F(x) = f0 + f1 q + f2 q^2 over R^3 supports two notions of
holomorphy:

* type 1 (double analyticity): both conjugate Wirtinger derivatives vanish,
  equivalently the nine Cauchy-Riemann-type equalities among the component
  partials hold, equivalently the 1-form F dz is closed;
* type 2 (single analyticity): the plain Wirtinger derivative vanishes
  (three summed constraints), optionally strengthened by the reality
  constraints that force F to depend on the conjugate pair only through
  their product.

All derivative checks are numerical (central differences, two step sizes);
all integrals are adaptive Gauss-Kronrod (see ternion.quadrature, which
states when its integrands are called and the (m, nodes) layout they
return).  The form integrals evaluate their integrand on all the nodes of a
quadrature call at once: fields, curves and patches get those nodes as
arrays and run elementwise.

The derivative kernels (wirtinger_partials, ternary_laplacian and the
partials below them) follow the array contract of ternion.algebra: a point
with array components runs every point's stencil in one evaluation.  The
holomorphy checks and conformal_jacobian take one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra as ta
from .algebra import ONE, ComplexTernary, Ternary, J, J2, Q, Q2, _fault, _lib, _pow, mul
from .errors import (
    DomainError,
    NotHolomorphic,
    NumericalBreakdown,
    SingularNumber,
    SingularOnPath,
    TernionError,
)
from .quadrature import DEFAULT_TOL, adaptive_quad, adaptive_quad_2d, adaptive_quad_3d

__all__ = [
    "TernaryField",
    "Curve",
    "SurfacePatch",
    "CubicSurfaceGeometry",
    "HoloType1Report",
    "HoloType2Report",
    "EPS_FD",
    "EPS_GEO",
    "wirtinger_partials",
    "check_holo_type1",
    "check_holo_type2",
    "ternary_laplacian",
    "line_integral",
    "surface_integral_2form",
    "volume_integral_3form",
    "cubic_surface_geometry",
    "conformal_jacobian",
    "segment",
    "trisectrice_loop",
    "cubic_band_patch",
    "polar_band_patch",
    "sphere_patch",
    "box_boundary_patches",
]

# Central-difference steps: h ~ eps^(1/3) for first derivatives, eps^(1/5)
# for third, both scaled by the point magnitude.
_FD1 = 2.220446049250313e-16 ** (1.0 / 3.0)
_FD3 = 2.220446049250313e-16 ** (1.0 / 5.0)

EPS_FD = 1e-6     # absolute tolerance for first-derivative identities on O(1) inputs
EPS_GEO = 1e-9    # closed-curve / on-surface geometric tolerance


class TernaryField:
    """A named map R^3 -> ternary numbers; func takes and returns Ternary.

    The form integrals call func once per quadrature call (see
    ternion.quadrature), on a Ternary whose components are read-only arrays
    of that call's nodes, and read the result elementwise (a result with
    float components stands for every node).
    Write func with ternion.algebra operations or numpy ufuncs: math.sin and
    the like raise TypeError on arrays, and so does in-place arithmetic on
    the components.
    """

    def __init__(self, func, name=None):
        self.func = func
        self.name = name or getattr(func, "__name__", "field")

    def __call__(self, p: Ternary) -> Ternary:
        return self.func(p)

    def __repr__(self):
        return f"TernaryField({self.name})"


def _on_stencil(fun, coords, steps, offsets) -> np.ndarray:
    """fun at the stencil points, one per offset, as one array with fun's
    components first and the points last: v[..., k] is fun at point k.

    Point k's coordinate i is coords[i] + offsets[k][i] * steps[i]; a zero
    offset leaves coords[i] as it is, so a -0.0 stays -0.0.  fun takes a
    coordinate list and returns a sequence of components.  Float points are
    evaluated one by one; points with array coordinates are stacked along a
    new last axis, so fun runs once on all of them, and each component is
    broadcast to the stacked shape.  On a fault the array points are
    replayed one by one on floats, so the first faulting point's float error
    is raised (see algebra._fault).
    """
    points = [[c if o == 0 else c + o * h for c, h, o in zip(coords, steps, offset)] for offset in offsets]
    try:
        flat = [x for c in points for x in c]
        if _lib(*flat) is math:
            return np.moveaxis(np.array([fun(c) for c in points]), 0, -1)
        shape = np.broadcast_shapes(*map(np.shape, flat)) + (len(points),)
        stacked = []
        for i in range(len(coords)):
            coordinate = np.empty(shape)
            for k, c in enumerate(points):
                coordinate[..., k] = c[i]
            stacked.append(coordinate)
        return np.array([np.broadcast_to(v, np.broadcast_shapes(np.shape(v), shape)) for v in fun(stacked)])
    except (TernionError, ArithmeticError, ValueError):
        n = len(coords)
        _fault(True, lambda *c: _on_stencil(fun, c[:n], c[n:], offsets), *coords, *steps)
        raise


def _axis_offsets(n, ds):
    """For each of n axes in turn, the offsets ds along that axis alone."""
    return [tuple(d if i == j else 0 for i in range(n)) for j in range(n) for d in ds]


def _partials(fun, coords, steps) -> np.ndarray:
    """Matrix m[i, j] = d fun_i / d coords_j of central differences, step
    steps[j] along j.

    fun takes a list of coordinates and returns a sequence of components.
    Coordinates and steps may be arrays whose shapes broadcast: fun then runs
    once, on the stencils of all points (see _on_stencil), and each m[i, j]
    is the array of the points' partials.
    """
    v = _on_stencil(fun, coords, steps, _axis_offsets(len(coords), (1, -1)))
    return np.stack([(v[..., 2 * j] - v[..., 2 * j + 1]) / (2.0 * h) for j, h in enumerate(steps)], axis=1)


def _checked_partials(F, p: Ternary) -> np.ndarray:
    """Component partials d f_i / d x_j with a two-step consistency check.

    For a p with array components, each m[i, j] is an array; a point that
    fails the check counts as a fault, in point order with the others.
    """
    h = _FD1 * (1.0 + p.max_abs())

    def components(c):
        return F(Ternary(*c)).components()

    x = p.components()
    try:
        fine = _partials(components, x, (h, h, h))
        coarse = _partials(components, x, (2.0 * h, 2.0 * h, 2.0 * h))
    except (TernionError, ArithmeticError, ValueError):
        # a point before the faulting one may fail the check below first
        _fault(True, lambda *c: _checked_partials(F, Ternary(*c)), *x)
        raise
    scale = 1.0 + np.max(np.abs(fine), axis=(0, 1))
    if _fault(
        np.max(np.abs(fine - coarse), axis=(0, 1)) > EPS_FD * scale,
        lambda *c: _checked_partials(F, Ternary(*c)),
        *x,
    ):
        raise NumericalBreakdown(
            f"finite differences of {F!r} disagree across steps at {p}"
        )
    return fine


def wirtinger_partials(F, p: Ternary):
    """(dF/dz, dF/dz~, dF/dz~~) at p by central differences.

    The constant coefficient combinations come from inverting the linear
    change of basis between (x0, x1, x2) and (z, z~, z~~):

        d/dz    = (1/3) (d/dx0 +     q^2 d/dx1 +     q d/dx2)
        d/dz~   = (1/3) (d/dx0 + j^2 q^2 d/dx1 +   j q d/dx2)
        d/dz~~  = (1/3) (d/dx0 +   j q^2 d/dx1 + j^2 q d/dx2)

    dF/dz of a real field is real (a Ternary); the conjugate derivatives are
    ComplexTernary.  For the identity field the result is (1, 0, 0).
    """
    part = _checked_partials(F, p)
    d0 = Ternary(*part[:, 0])
    d1 = Ternary(*part[:, 1])
    d2 = Ternary(*part[:, 2])
    q2d1 = Ternary(d1.x1, d1.x2, d1.x0)
    qd2 = Ternary(d2.x2, d2.x0, d2.x1)
    dz = ta.scale(d0 + q2d1 + qd2, 1.0 / 3.0)
    c0 = ComplexTernary.from_real(d0)
    c1 = ComplexTernary.from_real(q2d1)
    c2 = ComplexTernary.from_real(qd2)
    dzt = (c0 + J2 * c1 + J * c2) * (1.0 / 3.0)
    dztt = (c0 + J * c1 + J2 * c2) * (1.0 / 3.0)
    return dz, dzt, dztt


def _one_point(check, p: Ternary):
    """Reject a p with array components: a report's maxima and pass flag
    speak for one point, and over many a failing point would hide."""
    if _lib(*p.components()) is np:
        raise DomainError(f"{check} checks one point; got a Ternary with array components")


def _type1_cartesian(m) -> np.ndarray:
    """The nine cartesian residuals [[a - b, b - c, c - a], ...] of the
    first-kind system over the rows (f0,0, f1,1, f2,2), (f0,1, f1,2, f2,0),
    (f0,2, f1,0, f2,1) of the partials m; elementwise for array partials."""
    rows = [
        (m[0, 0], m[1, 1], m[2, 2]),
        (m[0, 1], m[1, 2], m[2, 0]),
        (m[0, 2], m[1, 0], m[2, 1]),
    ]
    return np.array([[a - b, b - c, c - a] for a, b, c in rows])


@dataclass
class HoloType1Report:
    """Residuals of the first-kind Cauchy-Riemann system at a point."""

    max_cartesian: float
    max_polar: float | None
    residuals_cartesian: np.ndarray = field(repr=False)
    residuals_polar: np.ndarray | None = field(repr=False, default=None)

    @property
    def passed(self) -> bool:
        worst = self.max_cartesian
        if self.max_polar is not None:
            worst = max(worst, self.max_polar)
        return worst <= EPS_FD


def check_holo_type1(F, p: Ternary) -> HoloType1Report:
    """All nine cartesian residuals of the first-kind system

        f0,0 = f1,1 = f2,2 ; f0,1 = f1,2 = f2,0 ; f0,2 = f1,0 = f2,1

    (f i,j = d f_i/d x_j), plus, when p admits polar coordinates, the nine
    polar residuals for h = z F(z).  Passes iff every residual <= EPS_FD.
    p is one point: array components raise DomainError.
    """
    _one_point("check_holo_type1", p)
    return _type1_report(F, p, _checked_partials(F, p))


def _type1_report(F, p: Ternary, m) -> HoloType1Report:
    """check_holo_type1's report at the point p, given m = _checked_partials(F, p)."""
    cart = _type1_cartesian(m)

    def h(c):
        z = ta.from_polar(ta.PolarForm(*c))
        return mul(z, F(z)).components()

    polar = None
    try:
        pol = ta.to_polar(p)
        coords = (pol.rho, pol.phi1, pol.phi2)
        hm = _partials(h, coords, [_FD1 * (1.0 + abs(c)) for c in coords])
    except (DomainError, SingularNumber):
        pass
    else:
        rho = pol.rho
        polar = np.array(
            [
                [hm[1, 1] - hm[2, 2], rho * hm[2, 0] - hm[0, 1], hm[0, 2] - rho * hm[1, 0]],
                [hm[2, 1] - hm[0, 2], rho * hm[0, 0] - hm[1, 1], hm[1, 2] - rho * hm[2, 0]],
                [hm[0, 1] - hm[1, 2], rho * hm[1, 0] - hm[2, 1], hm[2, 2] - rho * hm[0, 0]],
            ]
        )
    return HoloType1Report(
        max_cartesian=float(np.max(np.abs(cart))),
        max_polar=None if polar is None else float(np.max(np.abs(polar))),
        residuals_cartesian=cart,
        residuals_polar=polar,
    )


@dataclass
class HoloType2Report:
    """Residuals of single analyticity and of the extra reality constraints."""

    max_single: float
    max_reality: float
    residuals_single: np.ndarray = field(repr=False)
    residuals_reality: np.ndarray = field(repr=False)

    @property
    def passes_single(self) -> bool:
        return self.max_single <= EPS_FD

    @property
    def passes_reality(self) -> bool:
        return self.passes_single and self.max_reality <= EPS_FD


def check_holo_type2(F, p: Ternary) -> HoloType2Report:
    """Single analyticity (three summed constraints) plus reality constraints.

    Single analyticity:  f0,0 + f1,1 + f2,2 = f0,2 + f1,0 + f2,1
                        = f0,1 + f1,2 + f2,0 = 0.
    Reality (F a function of the conjugate product only): with the first-order
    operators U = x0 d2 + x1 d0 + x2 d1 and W = x0 d1 + x1 d2 + x2 d0,
    U f2 = W f1, U f0 = W f2, U f1 = W f0.
    p is one point: array components raise DomainError.
    """
    _one_point("check_holo_type2", p)
    m = _checked_partials(F, p)
    single = np.array(
        [
            m[0, 0] + m[1, 1] + m[2, 2],
            m[0, 2] + m[1, 0] + m[2, 1],
            m[0, 1] + m[1, 2] + m[2, 0],
        ]
    )
    x0, x1, x2 = p.components()

    def u_op(i):
        return x0 * m[i, 2] + x1 * m[i, 0] + x2 * m[i, 1]

    def w_op(i):
        return x0 * m[i, 1] + x1 * m[i, 2] + x2 * m[i, 0]

    reality = np.array([u_op(2) - w_op(1), u_op(0) - w_op(2), u_op(1) - w_op(0)])
    return HoloType2Report(
        max_single=float(np.max(np.abs(single))),
        max_reality=float(np.max(np.abs(reality))),
        residuals_single=single,
        residuals_reality=reality,
    )


# the 20 offsets of ternary_laplacian's stencil: 2, 1, -1, -2 steps along
# each axis in turn, then the eight corners, whose sign products weigh the
# mixed third difference
_CORNERS = [(s0, s1, s2) for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)]
_LAPLACIAN_OFFSETS = _axis_offsets(3, (2, 1, -1, -2)) + _CORNERS


def ternary_laplacian(f, p: Ternary) -> float:
    """d^3f/dx0^3 + d^3f/dx1^3 + d^3f/dx2^3 - 3 d^3f/(dx0 dx1 dx2) at p.

    f is a scalar callable of Ternary.  Third-order central differences with
    h ~ eps^(1/5) scaled by the point magnitude.  For a p with array
    components, f runs once, on the 20-point stencils of all points, and
    the result is an array.
    """
    h = _FD3 * (1.0 + p.max_abs())
    v = _on_stencil(lambda c: (f(Ternary(*c)),), p.components(), (h, h, h), _LAPLACIAN_OFFSETS)[0]
    h3 = _pow(h, 3)
    total = 0.0
    for k in (0, 4, 8):
        total += (v[..., k] - 2.0 * v[..., k + 1] + 2.0 * v[..., k + 2] - v[..., k + 3]) / (2.0 * h3)
    mixed = 0.0
    for k, (s0, s1, s2) in enumerate(_CORNERS, 12):
        mixed += s0 * s1 * s2 * v[..., k]
    total -= 3.0 * mixed / (8.0 * h3)
    return total


class Curve:
    """Parametrized curve over [t_start, t_end] in R^3, given by its frame.

    frame(t) returns (z, dz): the point and its tangent Ternary, from one
    evaluation.  line_integral calls frame on a read-only array of
    parameters and reads the Ternary values elementwise; write it with
    ternion.algebra operations or numpy ufuncs, as for TernaryField.
    """

    def __init__(self, frame, t_start, t_end):
        self.frame = frame
        self.t_start = float(t_start)
        self.t_end = float(t_end)

    @property
    def closed(self) -> bool:
        a, b = self.frame(self.t_start)[0], self.frame(self.t_end)[0]
        return (a - b).max_abs() <= EPS_GEO * (1.0 + a.max_abs())


def _batched(evaluate):
    """The quadrature integrand of evaluate, which maps node arrays to a tuple
    of components (arrays or floats, broadcast to the nodes): one row each of
    the (m, nodes) values.

    Division by zero raises instead of warning, and with SingularNumber it
    ends in SingularOnPath; overflow and invalid operations leave inf or nan
    for the Ternary and quadrature checks to report.
    """

    def wrapped(*nodes):
        try:
            with np.errstate(divide="raise", over="ignore", invalid="ignore"):
                components = evaluate(*nodes)
        except (SingularNumber, ZeroDivisionError, FloatingPointError) as exc:
            raise SingularOnPath(f"integrand hit the singular set: {exc}") from exc
        vals = np.empty((len(components), len(nodes[0])))
        for j, c in enumerate(components):
            vals[j] = c
        return vals

    return wrapped


def line_integral(F, curve: Curve, tol: float = DEFAULT_TOL) -> Ternary:
    """Integral of the 1-form F dz along the curve.

    The three component 1-forms are exactly the components of the algebra
    product F(z) * dz, with (z, dz) the curve's frame at t, so the integrand
    is that product.  For a type-1 holomorphic F the result is
    primitive(end) - primitive(start).
    """

    @_batched
    def integrand(t):
        z, dz = curve.frame(t)
        return mul(F(z), dz).components()

    value = adaptive_quad(integrand, curve.t_start, curve.t_end, tol)
    return Ternary(*value.tolist())


class SurfacePatch:
    """Surface patch over a rectangle of (u, v), given by its frame.

    frame(u, v) returns (x, t1, t2): the point and its two tangent Ternary
    vectors, from one evaluation.  The order of the tangents orients the
    patch: t1 x t2 points along its positive normal.
    surface_integral_2form calls frame on read-only arrays of (u, v) nodes
    and reads the Ternary values elementwise; write it with ternion.algebra
    operations or numpy ufuncs, as for TernaryField.
    """

    def __init__(self, frame, u_range, v_range):
        self.frame = frame
        self.u_range = (float(u_range[0]), float(u_range[1]))
        self.v_range = (float(v_range[0]), float(v_range[1]))


def surface_integral_2form(Phi, patch: SurfacePatch, tol: float = DEFAULT_TOL) -> Ternary:
    """Integral over the patch of the three 2-forms attached to Phi.

    With the pullback Jacobians (J12, J20, J01) = t1 x t2 (areas on the
    coordinate planes), the components are

        Omega0 = Phi0 J12 + Phi1 J20 + Phi2 J01
        Omega1 = Phi1 J12 + Phi2 J20 + Phi0 J01
        Omega2 = Phi2 J12 + Phi0 J20 + Phi1 J01
    """

    @_batched
    def integrand(u, v):
        x, t1, t2 = patch.frame(u, v)
        j12 = t1.x1 * t2.x2 - t1.x2 * t2.x1
        j20 = t1.x2 * t2.x0 - t1.x0 * t2.x2
        j01 = t1.x0 * t2.x1 - t1.x1 * t2.x0
        f0, f1, f2 = Phi(x).components()
        return (
            f0 * j12 + f1 * j20 + f2 * j01,
            f1 * j12 + f2 * j20 + f0 * j01,
            f2 * j12 + f0 * j20 + f1 * j01,
        )

    value = adaptive_quad_2d(integrand, patch.u_range, patch.v_range, tol)
    return Ternary(*value.tolist())


def volume_integral_3form(W, box, tol: float = DEFAULT_TOL) -> Ternary:
    """Componentwise volume integral of W over a box ((a0,b0),(a1,b1),(a2,b2)).

    Each component multiplies the same volume element dx0^dx1^dx2, so the
    result is simply the componentwise 3D integral of W.
    """

    @_batched
    def integrand(x0, x1, x2):
        return W(Ternary(x0, x1, x2)).components()

    value = adaptive_quad_3d(integrand, box, tol)
    return Ternary(*value.tolist())


@dataclass(frozen=True)
class CubicSurfaceGeometry:
    """Point and first/second-order data of the cubic level surface ||z||^3 = rho^3.

    Coordinates: a = x0+x1+x2 along the trisectrice, theta around it; the
    transverse radius r satisfies a r^2 = rho^3.  metric_r and metric_theta
    are the dr^2 and dtheta^2 coefficients of the induced metric.
    """

    rho: float
    a: float
    theta: float
    r: float
    point: Ternary
    metric_r: float
    metric_theta: float
    gauss_curvature: float
    jacobians: tuple[float, float, float]  # (J12, J20, J01) in (a, theta) order


def _cubic_surface_point(rho: float, a: float, theta: float):
    """(point, r, cos theta, sin theta) of the cubic surface's parametrization
    at (a, theta): the one point formula, for cubic_surface_geometry and
    cubic_band_patch.  a must be positive and rho too (DomainError)."""
    bad = np.less_equal(a, 0.0)
    if bad.any():
        raise DomainError(f"surface coordinate a must be positive, got {np.asarray(a)[bad].flat[0]}")
    _positive_rho(rho)
    r = rho ** 1.5 / np.sqrt(a)
    c, s = np.cos(theta), np.sin(theta)
    point = Ternary(
        (a - 2.0 * r * c) / 3.0,
        (a + r * (c + math.sqrt(3.0) * s)) / 3.0,
        (a + r * (c - math.sqrt(3.0) * s)) / 3.0,
    )
    return point, r, c, s


def cubic_surface_geometry(rho: float, a: float, theta: float) -> CubicSurfaceGeometry:
    """Evaluate the standard parametrization of the cubic surface at (a, theta).

    a and theta may be arrays of one shape; the fields then hold arrays.
    Returns the surface point, the induced-metric coefficients
    ((1/3)(2 + 4 rho^6/r^6), (2/3) r^2), the curvature -12 a^4/(4a^3+rho^3)^2,
    and the pullback Jacobians (J12, J20, J01) whose cubic combination
    satisfies the ternary Pythagorean identity rho^6/(3 sqrt3 a^3).
    """
    point, r, c, s = _cubic_surface_point(rho, a, theta)
    metric_r = (2.0 + 4.0 * rho**6 / r**6) / 3.0
    metric_theta = 2.0 * r**2 / 3.0
    gauss = -12.0 * a**4 / (4.0 * a**3 + rho**3) ** 2
    p = rho**3 / a**2
    k = math.sqrt(3.0) / 9.0
    j12 = k * (p - 2.0 * r * c)
    j20 = k * (p + r * (c + math.sqrt(3.0) * s))
    j01 = k * (p + r * (c - math.sqrt(3.0) * s))
    return CubicSurfaceGeometry(rho, a, theta, r, point, metric_r, metric_theta, gauss, (j12, j20, j01))


def conformal_jacobian(F, p: Ternary) -> float:
    """Jacobian determinant of (f0, f1, f2) at p for a type-1 holomorphic F.

    Equals the cubic norm of dF/dz; raises NotHolomorphic when the type-1
    residuals at p exceed EPS_FD.  p is one point: array components raise
    DomainError.
    """
    _one_point("conformal_jacobian", p)
    m = _checked_partials(F, p)
    report = _type1_report(F, p, m)
    if not report.passed:
        raise NotHolomorphic(
            f"type-1 residual {max(report.max_cartesian, report.max_polar or 0.0):.3e} "
            f"exceeds {EPS_FD:.1e} at {p}"
        )
    return float(np.linalg.det(m))


# ---------------------------------------------------------------------------
# Curve and surface presets; each constructor rejects params outside its range.
# q^3 = 1, so a product by q shifts the components: q (x0, x1, x2) = (x2, x0, x1)


def _positive_rho(rho: float) -> None:
    if not rho > 0.0:
        raise DomainError(f"modulus level rho must be positive, got {rho}")


def segment(a: Ternary, b: Ternary) -> Curve:
    """Straight segment from a to b, t in [0, 1], with its constant tangent."""
    diff = b - a
    return Curve(lambda t: (a + ta.scale(diff, t), diff), 0.0, 1.0)


def trisectrice_loop(rho: float = 1.0, phi: float = 0.0) -> Curve:
    """Closed loop of constant modulus winding once around the trisectrice.

    The point is from_polar(rho, phi + t, phi - t) for t in [0, 2 pi/sqrt3);
    the tangent is the point times (q - q^2).
    """
    _positive_rho(rho)

    def frame(t):
        z = ta.from_polar(ta.PolarForm(rho, phi + t, phi - t))
        return z, Ternary(z.x2 - z.x1, z.x0 - z.x2, z.x1 - z.x0)

    return Curve(frame, 0.0, ta.THETA_PERIOD)


def cubic_band_patch(rho: float, a1: float, a2: float) -> SurfacePatch:
    """Band of the cubic surface between trisectrice coordinates a1 < a2.

    Parametrized by (a, theta) with theta over a full turn; tangents are
    analytic, from the point's r, cos theta and sin theta, in (a, theta)
    order.
    """
    _positive_rho(rho)
    if not (0.0 < a1 < a2):
        raise DomainError(f"need 0 < a1 < a2, got ({a1}, {a2})")
    s3 = math.sqrt(3.0)

    def frame(a, theta):
        x, r, c, s = _cubic_surface_point(rho, a, theta)
        da = Ternary(
            (1.0 + r * c / a) / 3.0,
            (1.0 - r * (c + s3 * s) / (2.0 * a)) / 3.0,
            (1.0 - r * (c - s3 * s) / (2.0 * a)) / 3.0,
        )
        dtheta = Ternary(
            2.0 * r * s / 3.0,
            r * (-s + s3 * c) / 3.0,
            r * (-s - s3 * c) / 3.0,
        )
        return x, da, dtheta

    return SurfacePatch(frame, (a1, a2), (0.0, 2.0 * math.pi))


def polar_band_patch(rho: float, phi_lo: float, phi_hi: float) -> SurfacePatch:
    """Constant-modulus band in polar coordinates (theta, phi).

    Full compact turn theta in [0, 2 pi/sqrt3), non-compact angle phi in
    [phi_lo, phi_hi] with phi_lo < phi_hi; tangents are z*(q - q^2) and
    z*(q + q^2), from the point z.
    """
    _positive_rho(rho)
    if not phi_lo < phi_hi:
        raise DomainError(f"need phi_lo < phi_hi, got ({phi_lo}, {phi_hi})")

    def frame(theta, phi):
        z = ta.from_polar(ta.PolarForm(rho, phi + theta, phi - theta))
        return z, Ternary(z.x2 - z.x1, z.x0 - z.x2, z.x1 - z.x0), Ternary(z.x2 + z.x1, z.x0 + z.x2, z.x1 + z.x0)

    return SurfacePatch(frame, (0.0, ta.THETA_PERIOD), (phi_lo, phi_hi))


def sphere_patch(center: Ternary, radius: float) -> SurfacePatch:
    """Round sphere (closed surface), its tangents ordered so that
    t1 x t2 is the outward normal."""
    if not radius > 0.0:
        raise DomainError(f"sphere radius must be positive, got {radius}")

    def frame(u, v):
        su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
        x = Ternary(
            center.x0 + radius * su * cv,
            center.x1 + radius * su * sv,
            center.x2 + radius * cu,
        )
        du = Ternary(radius * cu * cv, radius * cu * sv, -radius * su)
        dv = Ternary(-radius * su * sv, radius * su * cv, 0.0)
        return x, du, dv

    return SurfacePatch(frame, (0.0, math.pi), (0.0, 2.0 * math.pi))


def box_boundary_patches(box) -> list[SurfacePatch]:
    """The six faces of a box, each oriented with the outward normal: its
    constant unit tangents are ordered so that t1 x t2 is that normal."""
    (a0, b0), (a1, b1), (a2, b2) = box
    return [
        # x0 faces: (u, v) = (x1, x2)
        SurfacePatch(lambda u, v: (Ternary(b0, u, v), Q, Q2), (a1, b1), (a2, b2)),
        SurfacePatch(lambda u, v: (Ternary(a0, u, v), Q2, Q), (a1, b1), (a2, b2)),
        # x1 faces: (u, v) = (x2, x0)
        SurfacePatch(lambda u, v: (Ternary(v, b1, u), Q2, ONE), (a2, b2), (a0, b0)),
        SurfacePatch(lambda u, v: (Ternary(v, a1, u), ONE, Q2), (a2, b2), (a0, b0)),
        # x2 faces: (u, v) = (x0, x1)
        SurfacePatch(lambda u, v: (Ternary(u, v, b2), ONE, Q), (a0, b0), (a1, b1)),
        SurfacePatch(lambda u, v: (Ternary(u, v, a2), Q, ONE), (a0, b0), (a1, b1)),
    ]
