"""Independent numerical oracles used only by the test suite."""

import cmath
import heapq
import itertools
import math

import numpy as np

from ternion import algebra as ta
from ternion import calculus as tc
from ternion import dynamics as td
from ternion import field as tf
from ternion import verify as tv
from ternion.algebra import ComplexTernary, Ternary, conjugates, mul
from ternion.dynamics import Trajectory, _accel
from ternion.errors import (
    DomainError,
    NumericalBreakdown,
    OnSingularSet,
    PoleOnRange,
    QuadratureFailure,
    SingularApproach,
    StepFailure,
)
from ternion.quadrature import _rule, _span


def expm_taylor(m: np.ndarray, order: int = 16) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated series.

    Squares down to 1-norm <= 0.25, then sums the Taylor series to the given
    order (>= 13-equivalent accuracy); independent of the multisine code path.
    """
    norm = np.linalg.norm(m, 1)
    s = max(0, int(math.ceil(math.log2(norm / 0.25)))) if norm > 0.25 else 0
    a = m / 2.0**s
    term = np.eye(m.shape[0])
    out = np.eye(m.shape[0])
    for k in range(1, order + 1):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def random_ternary(rng, lo=-3.0, hi=3.0) -> Ternary:
    return Ternary(*rng.uniform(lo, hi, size=3))


def random_admissible(rng, lo=-3.0, hi=3.0, min_norm=1e-2) -> Ternary:
    """Nonsingular sample with positive trisectrice component (log domain)."""
    while True:
        z = random_ternary(rng, lo, hi)
        n = z.x0**3 + z.x1**3 + z.x2**3 - 3 * z.x0 * z.x1 * z.x2
        if n > min_norm and (z.x0 + z.x1 + z.x2) > min_norm:
            return z


def random_nonsingular(rng, lo=-3.0, hi=3.0, min_norm=1e-2) -> Ternary:
    while True:
        z = random_ternary(rng, lo, hi)
        n = z.x0**3 + z.x1**3 + z.x2**3 - 3 * z.x0 * z.x1 * z.x2
        if abs(n) > min_norm:
            return z


def conjugate_product(z: Ternary) -> ComplexTernary:
    """z~ * z~~ by explicit complex multiplication (expansion oracle)."""
    zt, ztt = conjugates(z)
    return zt * ztt


def ternary_close(a: Ternary, b: Ternary, tol: float) -> bool:
    return (a - b).max_abs() <= tol


def pointwise(f):
    """The batched form of a pointwise integrand f for ternion.quadrature,
    whose integrands take one node array per axis: f is called once per
    node, with floats, in node order, and returns a sequence of values, one
    per component: the (m, nodes) array holds them row by row."""
    return lambda *axes: np.array(list(zip(*[f(*p) for p in zip(*axes)])), dtype=float)


# The refinement loop as it ran before the two halves of a bisected cell
# shared one integrand call: one call per cell, each cell's weighted sums
# taken over a (rules, nodes, components) table.  ternion.quadrature._integrate
# must give the same bits, call the integrand on the same nodes in the same
# order, and fail with the same error.


def _one_cell(f, box, budget):
    d = len(box)
    budget[0] -= 15**d
    if budget[0] < 0:
        raise QuadratureFailure("quadrature evaluation budget exhausted")
    unit_nodes, weights = _rule(d)
    halves = [0.5 * (hi - lo) for lo, hi in box]
    axes = [0.5 * (lo + hi) + h * u for (lo, hi), h, u in zip(box, halves, unit_nodes)]
    for a in axes:
        a.flags.writeable = False
    vals = f(*axes)
    if np.ndim(vals) != 2 or np.shape(vals)[1] != 15**d:
        raise ValueError(f"integrand returned shape {np.shape(vals)}; expected (m, {15**d})")
    # this loop's own layout: a (nodes, components) table per cell
    vals = np.transpose(vals)
    if not np.isfinite(vals).all():
        raise QuadratureFailure(f"non-finite integrand on {_span(box)}")
    terms = weights.reshape(d + 1, -1, 1) * vals
    sums = math.prod(halves) * np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    k = sums[0]
    if not np.isfinite(k).all():
        raise QuadratureFailure(f"non-finite integrand on {_span(box)}")
    errs = np.abs(sums[1:] - k).max(axis=1)
    axis = int(errs.argmax())
    return k, float(errs[axis]), axis


def integrate_one_call_per_cell(f, box, tol, budget):
    """ternion.quadrature._integrate with one integrand call per cell."""
    if len(box) == 1 and box[0][1] < box[0][0]:
        return -integrate_one_call_per_cell(f, (box[0][::-1],), tol, budget)
    order = itertools.count()
    val, err, axis = _one_cell(f, box, budget)
    heap = [(-err, next(order), box, val, err, axis)]
    total_err = err
    while total_err > tol:
        _, _, box, val, err, axis = heapq.heappop(heap)
        lo, hi = box[axis]
        if err <= 0.0 or abs(hi - lo) <= abs(lo) * 1e-15 + 1e-300:
            raise QuadratureFailure(f"cell {_span(box)} stalled with error {err:.3e} (tol {tol:.1e})")
        mid = 0.5 * (lo + hi)
        total_err -= err
        for part in ((lo, mid), (mid, hi)):
            half = box[:axis] + (part,) + box[axis + 1 :]
            hval, herr, haxis = _one_cell(f, half, budget)
            total_err += herr
            heapq.heappush(heap, (-herr, next(order), half, hval, herr, haxis))
    return sum(item[3] for item in heap)


# Pointwise form integrands: one call per quadrature node, with floats, as the
# form integrals evaluated them before they batched each cell.  Integrated
# through pointwise by adaptive_quad* they are the reference for
# ternion.calculus.


def line_integrand(F, curve):
    def integrand(t):
        z, dz = curve.frame(t)
        return mul(F(z), dz).components()

    return integrand


def surface_integrand(Phi, patch):
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

    return integrand


def volume_integrand(W):
    def integrand(x0, x1, x2):
        return W(Ternary(x0, x1, x2)).components()

    return integrand


# The multi-sines and the constant-modulus presets as they were before each
# quadrature node's point went to its tangent: from_polar called multisine
# once per component, each call forming both exponentials again; the loop's
# and the polar band's tangents evaluated the point again, and the cubic band
# took its point from a whole cubic_surface_geometry.  ternion.algebra and
# the presets of ternion.calculus must give the same bits and errors.


def _multisine_expr(k, phi1, phi2):
    s = phi1 + phi2
    psi = (ta.SQRT3 / 2.0) * (phi1 - phi2)
    m = ta._lib(s)
    return (m.exp(s) + 2.0 * m.exp(-0.5 * s) * m.cos(psi - 2.0 * math.pi * k / 3.0)) / 3.0


def multisine_each(k, phi1, phi2):
    try:
        out = _multisine_expr(k, phi1, phi2)
    except OverflowError:  # a float point
        msg = f"multisine out of float range at (phi1, phi2) = ({phi1}, {phi2})"
        raise OverflowError(msg) from None
    if ta._lib(out) is np:
        ta._fault(~np.isfinite(out), lambda a, b: multisine_each(k, a, b), phi1, phi2)
    return out


def from_polar_each(p):
    try:
        x = [p.rho * _multisine_expr(k, p.phi1, p.phi2) for k in (0, 1, 2)]
    except OverflowError:  # a float point
        msg = f"from_polar out of float range at (rho, phi1, phi2) = ({p.rho}, {p.phi1}, {p.phi2})"
        raise OverflowError(msg) from None
    if ta._lib(*x) is np:
        bad = ~(np.isfinite(x[0]) & np.isfinite(x[1]) & np.isfinite(x[2]))
        ta._fault(bad, lambda *c: from_polar_each(ta.PolarForm(*c)), p.rho, p.phi1, p.phi2)
    return Ternary(*x)


def trisectrice_loop_twice(rho, phi):
    def point(t):
        return from_polar_each(ta.PolarForm(rho, phi + t, phi - t))

    def frame(t):
        return point(t), mul(point(t), Ternary(0.0, 1.0, -1.0))

    return tc.Curve(frame, 0.0, ta.THETA_PERIOD)


def cubic_band_patch_twice(rho, a1, a2):
    def param(a, theta):
        return tc.cubic_surface_geometry(rho, a, theta).point

    def frame(a, theta):
        x = param(a, theta)
        r = rho**1.5 / np.sqrt(a)
        c, s = np.cos(theta), np.sin(theta)
        s3 = math.sqrt(3.0)
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

    return tc.SurfacePatch(frame, (a1, a2), (0.0, 2.0 * math.pi))


def polar_band_patch_twice(rho, phi_lo, phi_hi):
    def param(theta, phi):
        return from_polar_each(ta.PolarForm(rho, phi + theta, phi - theta))

    def frame(theta, phi):
        x = param(theta, phi)
        z = param(theta, phi)
        return x, mul(z, Ternary(0.0, 1.0, -1.0)), mul(z, Ternary(0.0, 1.0, 1.0))

    return tc.SurfacePatch(frame, (0.0, ta.THETA_PERIOD), (phi_lo, phi_hi))


# The algebra property suite as it ran before each check became one array
# evaluation: one sample at a time, in Python loops.  The shipped
# ternion.verify.algebra_suite must draw the same samples and reach the same
# verdicts.


def _loop_admissible(rng, lo=-3.0, hi=3.0) -> Ternary:
    while True:
        z = random_ternary(rng, lo, hi)
        if ta.norm_cubed(z) > 1e-2 and (z.x0 + z.x1 + z.x2) > 1e-2:
            return z


def algebra_suite_loops(seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = []

    worst, ce = 0.0, None
    for _ in range(2000):
        p1, p2 = rng.uniform(-3, 3, size=2)
        m = [ta.multisine(k, p1, p2) for k in range(3)]
        r = abs(ta.cubic_form(*m) - 1.0)
        if r > worst:
            worst, ce = r, {"phi1": p1, "phi2": p2, "m": m}
    out.append(tv._bound_check("cubic-identity m0^3+m1^3+m2^3-3m0m1m2=1", worst, 1e-10, ce))

    worst, ce = 0.0, None
    for k in range(3):
        r = abs(ta.multisine(k, 0.0, 0.0) - (1.0 if k == 0 else 0.0))
        if r > worst:
            worst, ce = r, {"k": k, "value": ta.multisine(k, 0.0, 0.0)}
    out.append(tv._bound_check("multisine-at-origin", worst, 1e-14, ce))

    worst, ce = 0.0, None
    for _ in range(300):
        z, w, u = (random_ternary(rng) for _ in range(3))
        scale = (1 + z.max_abs()) * (1 + w.max_abs()) * (1 + u.max_abs())
        r = max(
            (ta.mul(z, w) - ta.mul(w, z)).max_abs(),
            (ta.mul(ta.mul(z, w), u) - ta.mul(z, ta.mul(w, u))).max_abs(),
            (ta.mul(z + w, u) - (ta.mul(z, u) + ta.mul(w, u))).max_abs(),
        ) / scale
        if r > worst:
            worst, ce = r, {"z": z.components(), "w": w.components(), "u": u.components()}
    out.append(tv._bound_check("ring-laws (commutative/associative/distributive)", worst, 1e-12, ce))

    worst, ce = 0.0, None
    for _ in range(300):
        z, w = random_ternary(rng), random_ternary(rng)
        scale = ((1 + z.max_abs()) * (1 + w.max_abs())) ** 3
        r1 = abs(ta.norm_cubed(ta.mul(z, w)) - ta.norm_cubed(z) * ta.norm_cubed(w)) / scale
        r2 = abs(np.linalg.det(ta.characteristic_matrix(z)) - ta.norm_cubed(z)) / (1 + z.max_abs()) ** 3
        r3 = float(
            np.max(
                np.abs(
                    ta.characteristic_matrix(ta.mul(z, w))
                    - ta.characteristic_matrix(z) @ ta.characteristic_matrix(w)
                )
            )
        ) / scale
        r = max(r1, r2, r3)
        if r > worst:
            worst, ce = r, {"z": z.components(), "w": w.components()}
    out.append(tv._bound_check("norm-multiplicativity and matrix-representation", worst, 1e-10, ce))

    worst, ce = 0.0, None
    for _ in range(500):
        z = _loop_admissible(rng)
        r = (ta.exp(ta.log(z)) - z).max_abs() / (1.0 + z.max_abs())
        if r > worst:
            worst, ce = r, {"z": z.components()}
    out.append(tv._bound_check("exp-log-round-trip", worst, 1e-9, ce))

    worst, ce = 0.0, None
    for _ in range(300):
        x0, phi = rng.uniform(-2, 2, size=2)
        theta = rng.uniform(0.0, ta.THETA_PERIOD * 0.999)
        w = Ternary(x0, phi + theta, phi - theta)
        r = (ta.log(ta.exp(w)) - w).max_abs() / (1.0 + w.max_abs())
        if r > worst:
            worst, ce = r, {"w": w.components()}
    out.append(tv._bound_check("log-exp-round-trip (reduced compact angle)", worst, 1e-9, ce))

    worst, ce = 0.0, None
    for _ in range(300):
        z = _loop_admissible(rng)
        p = ta.to_polar(z)
        r = (ta.from_polar(p) - z).max_abs() / (1.0 + z.max_abs())
        if not (0.0 <= p.theta < ta.THETA_PERIOD):
            r = max(r, 1.0)
        if r > worst:
            worst, ce = r, {"z": z.components()}
    out.append(tv._bound_check("polar-round-trip", worst, 1e-10, ce))

    worst, ce = 0.0, None
    for _ in range(300):
        p = rng.uniform(-2, 2, size=2)
        s = rng.uniform(-2, 2, size=2)
        for k in range(3):
            lhs = ta.multisine(k, p[0] + s[0], p[1] + s[1])
            rhs = sum(ta.multisine(m, *p) * ta.multisine((k - m) % 3, *s) for m in range(3))
            r = abs(lhs - rhs) / (1.0 + abs(lhs))
            if r > worst:
                worst, ce = r, {"phi": list(p), "psi": list(s), "k": k}
    out.append(tv._bound_check("multisine-addition-law", worst, 1e-11, ce))

    worst, ce = 0.0, None
    for _ in range(300):
        p1, p2 = rng.uniform(-2, 2, size=2)
        m = [ta.multisine(k, p1, p2) for k in range(3)]
        neg = [ta.multisine(k, -p1, -p2) for k in range(3)]
        scale = 1.0 + max(abs(v) for v in m) ** 2
        r = (
            max(
                abs(neg[0] - (m[0] ** 2 - m[1] * m[2])),
                abs(neg[1] - (m[2] ** 2 - m[0] * m[1])),
                abs(neg[2] - (m[1] ** 2 - m[0] * m[2])),
            )
            / scale
        )
        if r > worst:
            worst, ce = r, {"phi1": p1, "phi2": p2}
    out.append(tv._bound_check("multisine-duality-triples", worst, 1e-12, ce))

    h = 1e-5
    worst, ce = 0.0, None
    for _ in range(100):
        p1, p2 = rng.uniform(-2, 2, size=2)
        for k in range(3):
            d1 = (ta.multisine(k, p1 + h, p2) - ta.multisine(k, p1 - h, p2)) / (2 * h)
            d2 = (ta.multisine(k, p1, p2 + h) - ta.multisine(k, p1, p2 - h)) / (2 * h)
            r = max(
                abs(d1 - ta.multisine((k - 1) % 3, p1, p2)),
                abs(d2 - ta.multisine((k - 2) % 3, p1, p2)),
            )
            if r > worst:
                worst, ce = r, {"phi1": p1, "phi2": p2, "k": k}
    out.append(tv._bound_check("multisine-derivative-shifts-index", worst, 10 * h * h, ce))

    worst, ce = 0.0, None
    for _ in range(300):
        z = random_ternary(rng)
        back = ta.idempotent_reconstruct(ta.idempotent_decompose(z))
        r = (back - z).max_abs() / (1.0 + z.max_abs())
        if r > worst:
            worst, ce = r, {"z": z.components()}
    rel = max(
        (ta.mul(ta.K0, ta.E0) - ta.ZERO).max_abs(),
        (ta.mul(ta.I_UNIT, ta.I_UNIT) + ta.E0).max_abs(),
        (ta.mul(ta.E0, ta.I_UNIT) - ta.I_UNIT).max_abs(),
    )
    out.append(tv._bound_check("idempotent-basis-and-reconstruction", max(worst, rel), 1e-14, ce))

    return out


# The calculus and field property suites as they ran before each pointwise
# check became one array evaluation of its stencils: one sample at a time,
# in Python loops, through the float paths of the kernels.  The samplers are
# the loops themselves.  The shipped suites must draw the same samples and
# reach the same verdicts.


def calculus_suite_loops(seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = []
    square = tc.TernaryField(lambda z: ta.mul(z, z), name="z^2")
    cube = tc.TernaryField(lambda z: ta.mul(ta.mul(z, z), z), name="z^3")

    worst, ce = 0.0, None
    coeffs = [Ternary(*rng.uniform(-1, 1, size=3)) for _ in range(3)]
    poly = tc.TernaryField(
        lambda z: coeffs[0] + ta.mul(coeffs[1], z) + ta.mul(coeffs[2], ta.mul(z, z)),
        name="random quadratic",
    )
    for _ in range(20):
        p = random_ternary(rng, -1.5, 1.5)
        rep = tc.check_holo_type1(poly, p)
        r = rep.max_cartesian
        if r > worst:
            worst, ce = r, {"p": p.components(), "coeffs": [c.components() for c in coeffs]}
    out.append(tv._bound_check("closedness-of-holomorphic-one-form", worst, 1e-6, ce))

    a, b = Ternary(0.5, -0.2, 0.3), Ternary(1.4, 0.9, -0.6)
    diff = b - a
    line = tc.Curve(lambda t: (a + ta.scale(diff, t), diff), 0.0, 1.0)
    bulge = Ternary(0.3, 1.1, 0.8)
    mid = ta.scale(a + b, 0.5) + bulge

    def arc(t):
        u = 1.0 - t
        point = ta.scale(a, u * u) + ta.scale(mid, 2 * u * t) + ta.scale(b, t * t)
        return point, ta.scale(mid - a, 2 * u) + ta.scale(b - mid, 2 * t)

    tol = 1e-11
    v_line = tc.line_integral(square, line, tol=tol)
    v_arc = tc.line_integral(square, tc.Curve(arc, 0.0, 1.0), tol=tol)
    out.append(
        tv._bound_check(
            "path-independence-of-holomorphic-integral",
            (v_line - v_arc).max_abs(),
            10 * tol * (1 + v_line.max_abs()),
            {"line": v_line.components(), "arc": v_arc.components()},
        )
    )

    worst = 0.0
    pairs = [
        (tc.TernaryField(lambda z: ta.ONE), lambda z: z),
        (tc.TernaryField(lambda z: z), lambda z: ta.scale(ta.mul(z, z), 0.5)),
        (square, lambda z: ta.scale(ta.mul(ta.mul(z, z), z), 1.0 / 3.0)),
    ]
    for f, prim in pairs:
        got = tc.line_integral(f, line, tol=1e-12)
        worst = max(worst, (got - (prim(b) - prim(a))).max_abs())
    out.append(tv._bound_check("primitive-consistency", worst, 1e-9))

    tol = 1e-8
    v1 = tc.line_integral(cube, line, tol=tol)
    v2 = tc.line_integral(cube, line, tol=tol / 2)
    out.append(tv._bound_check("quadrature-convergence-under-tol-halving", (v1 - v2).max_abs(), tol))

    worst, ce = 0.0, None
    for _ in range(10):
        p = random_ternary(rng, -1.5, 1.5)
        for i in range(3):
            r = abs(tc.ternary_laplacian(lambda z, i=i: cube(z).components()[i], p))
            if r > worst:
                worst, ce = r, {"p": p.components(), "component": i}
    for _ in range(5):
        # third differences of log grow like 1/d^3 at a distance d from its
        # singular line, the trisectrice (d = sqrt(3) * the components' std):
        # keep the stencil 50 steps away
        p = _loop_admissible(rng, 0.5, 2.0)
        while math.sqrt(3.0) * np.std(p.components()) < 50.0 * tc._FD3 * (1.0 + p.max_abs()):
            p = _loop_admissible(rng, 0.5, 2.0)
        for i in range(3):
            r = abs(tc.ternary_laplacian(lambda z, i=i: ta.log(z).components()[i], p))
            if r > worst:
                worst, ce = r, {"p": p.components(), "component": i}
    out.append(tv._bound_check("laplacian-annihilates-holomorphic-components", worst, 1e-3, ce))

    got = tc.line_integral(tc.TernaryField(ta.inverse), tc.trisectrice_loop(1.0), tol=1e-12)
    expected = Ternary(0.0, 2 * math.pi / math.sqrt(3.0), -2 * math.pi / math.sqrt(3.0))
    out.append(
        tv._bound_check(
            "trisectrice-loop-residue 2*pi*I",
            (got - expected).max_abs(),
            1e-8,
            {"got": got.components()},
        )
    )

    return out


def _rand_frame(rng) -> tf.FrameVector:
    while True:
        l = rng.uniform(-2, 2)
        r1, r2 = rng.uniform(-2, 2, size=2)
        v = tf.FrameVector(l, r1, r2)
        if abs(l) > 0.25 and v.r_mag > 0.25:
            return v


# central-difference step of the field checks
_FD_STEPS = (1e-5, 1e-5, 1e-5)


def _frame_partials(fn, v):
    """d fn_i / d x_j at the frame point v, x = (l, r1, r2)."""
    return tc._partials(lambda c: fn(tf.FrameVector(*c)), (v.l, v.r1, v.r2), _FD_STEPS)


def _divergence(m):
    return sum(m[i, i] for i in range(3))


def _fd_div(fn, v):
    return _divergence(_frame_partials(fn, v))


def field_suite_loops(seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = []

    worst, ce = 0.0, None
    for _ in range(100):
        v = _rand_frame(rng)
        r = abs(_fd_div(tf.field_h, v))
        if r > worst:
            worst, ce = r, {"point": [v.l, v.r1, v.r2]}
    out.append(tv._bound_check("field-divergence-free", worst, tf.EPS_DIV, ce))

    worst, ce = 0.0, None
    for _ in range(100):
        v = _rand_frame(rng)
        _, h_pot, h_rot = tf.potential_decompose(v)
        r = float(np.max(np.abs(h_pot + h_rot - tf.field_h(v))))
        if r > worst:
            worst, ce = r, {"point": [v.l, v.r1, v.r2]}
    out.append(tv._bound_check("potential-plus-rotational-reconstruction", worst, 1e-9, ce))

    worst, ce = 0.0, None
    for _ in range(30):
        v = _rand_frame(rng)
        r = abs(_fd_div(lambda u: tf.potential_decompose(u)[2], v))
        if r > worst:
            worst, ce = r, {"point": [v.l, v.r1, v.r2]}
    out.append(tv._bound_check("rotational-part-divergence-free", worst, tf.EPS_DIV, ce))

    worst, ce = 0.0, None
    for _ in range(30):
        v = _rand_frame(rng)
        j = tf.current_density(v)
        r = abs(j[1] * v.r1 + j[2] * v.r2)
        if r > worst:
            worst, ce = r, {"point": [v.l, v.r1, v.r2]}
    out.append(tv._bound_check("current-tangential", worst, 1e-12, ce))

    worst, ce = 0.0, None
    for _ in range(20):
        v = _rand_frame(rng)
        v = tf.FrameVector(abs(v.l), v.r1, v.r2)
        m = _frame_partials(tf.vector_potential, v)
        curl_a = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
        r = float(np.max(np.abs(curl_a - tf.field_h(v))))
        if r > worst:
            worst, ce = r, {"point": [v.l, v.r1, v.r2]}
    out.append(tv._bound_check("vector-potential-curl-is-field (l>0)", worst, tf.EPS_DIV, ce))

    worst, ce = 0.0, None
    for _ in range(50):
        v = _rand_frame(rng)
        z = tf.from_frame(v)
        r = float(
            np.max(np.abs(tf.cycle_components(tf.h_cartesian(z)) - tf.h_cartesian(tf.cycle_point(z))))
        )
        if r > worst:
            worst, ce = r, {"z": z.components()}
    out.append(tv._bound_check("rotation-covariance-of-cartesian-field", worst, 1e-12, ce))

    def hrot_cart(z):
        vec = tf.potential_decompose(tf.to_frame(z))[2]
        x1, x2, x0 = tf.FRAME_MATRIX.T @ vec
        return np.array([x0, x1, x2])

    def cart_div(fn, z):
        return _divergence(tc._partials(lambda c: fn(Ternary(*c)), z.components(), _FD_STEPS))

    # covariance failure of the rotational part: the transmuted field must
    # NOT be divergence-free (residual bounded away from zero)
    smallest = math.inf
    ce = None
    for _ in range(10):
        v = _rand_frame(rng)
        z = tf.from_frame(v)
        r = abs(cart_div(lambda p: tf.cycle_components(hrot_cart(p)), z))
        if r < smallest:
            smallest, ce = r, {"z": z.components(), "divergence": r}
    out.append(
        tv.CheckResult(
            name="transmuted-rotational-part-not-divergence-free",
            passed=bool(smallest > 10 * tf.EPS_DIV),
            detail=f"min |div| {smallest:.3e} (must exceed {10 * tf.EPS_DIV:.1e})",
            counterexample=None if smallest > 10 * tf.EPS_DIV else ce,
        )
    )

    # flux law: the cubic-band integral around a trisectrice segment is
    # (2 pi/sqrt3) ln(a2/a1), independent of the band's modulus level
    phi_field = tc.TernaryField(lambda z: ta.scale(z, 1.0 / ta.norm_cubed(z)))
    a1, a2 = 1.0, 2.0
    expected = 2 * math.pi / math.sqrt(3.0) * math.log(a2 / a1)
    worst, ce = 0.0, None
    for rho in (1.0, 2.0):
        got = tc.surface_integral_2form(phi_field, tc.cubic_band_patch(rho, a1, a2), tol=1e-8)
        r = abs(got.x0 - expected) / expected
        if r > worst:
            worst, ce = r, {"rho": rho, "got": got.components(), "expected": expected}
    out.append(tv._bound_check("flux-law-band-integral (level-independent)", worst, 1e-6, ce))

    return out


def integrate_reference(s0, g, t_end, tol=1e-10, max_step=None):
    """dynamics.integrate as a loop over the Nystrom tables: one _accel call
    per stage, one weighted sum per table row and component, min/max
    builtins and counters kept on the Trajectory.  It must agree with
    integrate bit for bit: samples, counts, exception type, message, state
    and partial trajectory."""
    t = float(s0.t)
    if t_end <= t:
        raise DomainError(f"t_end must exceed the initial time, got {t_end} <= {t}")
    x, v = s0.as_tuple()[:3], s0.as_tuple()[3:]
    scale0 = math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
    guard = td.SINGULAR_GUARD * (scale0 * scale0 * scale0)
    traj = Trajectory()
    traj.times.append(t)
    traj.states.append((*x, *v))

    try:
        a1 = _accel(*x, g)
    except OnSingularSet as exc:
        raise SingularApproach("initial state inadmissible", traj) from exc

    span = t_end - t
    fnorm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
                      + a1[0] * a1[0] + a1[1] * a1[1] + a1[2] * a1[2])
    ynorm = math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
                      + v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    dt = min(span / 100.0, 0.01 * (1.0 + ynorm) / (1.0 + fnorm))
    if max_step is not None:
        dt = min(dt, max_step)

    def weighted(weights, slopes, m):
        # from the first term in stage order, zero weights left out, as the step does
        terms = [w * a[m] for w, a in zip(weights, slopes) if w != 0.0]
        s = terms[0]
        for term in terms[1:]:
            s += term
        return s

    steps = 0
    dt_acc = err_acc = None
    while t < t_end:
        if steps >= td.MAX_STEPS:
            raise StepFailure(f"step budget {td.MAX_STEPS} exhausted at t = {t}", traj)
        dt = min(dt, t_end - t)
        if dt < 1e-14 * max(1.0, abs(t)):
            raise StepFailure(f"step size underflow at t = {t}", traj)
        steps += 1
        slopes = [a1]
        try:
            for c, row in zip(td._C, td._ABAR):
                stage = [x[m] + dt * (c * v[m] + dt * weighted(row, slopes, m) if row else c * v[m])
                         for m in range(3)]
                slopes.append(_accel(*stage, g))
            new_x = [x[m] + dt * (v[m] + dt * weighted(td._BBAR, slopes, m)) for m in range(3)]
            slopes.append(_accel(*new_x, g))
            if abs(new_x[0]) * (new_x[1] * new_x[1] + new_x[2] * new_x[2]) < guard:
                raise OnSingularSet("singular-approach guard tripped")
        except OnSingularSet:
            raise SingularApproach(f"approached the singular set near t = {t:.6g}", traj) from None
        new_v = [v[m] + dt * weighted(td._DOP853_B, slopes, m) for m in range(3)]
        norms = []
        for pos_weights, vel_weights in ((td._EBAR5, td._DOP853_E5), (td._EBAR3, td._DOP853_E3)):
            errs = [dt * dt * weighted(pos_weights, slopes, m) for m in range(3)]
            errs += [dt * weighted(vel_weights, slopes, m) for m in range(3)]
            total = 0.0
            for e, old, new in zip(errs, (*x, *v), (*new_x, *new_v)):
                q = e / (tol + tol * max(abs(old), abs(new)))
                total += q * q
            norms.append(total)
        err5, err3 = norms
        denom = (err5 + 0.01 * err3) * 6.0
        if math.isinf(denom):
            msg = f"error norm overflows at t = {t}: tol = {tol} is too small to resolve"
            raise StepFailure(msg, traj)
        err = err5 / math.sqrt(denom) if err5 > 0.0 else 0.0
        factor = 0.9 * (1.0 / math.sqrt(math.sqrt(math.sqrt(err))) if err > 0.0 else 5.0)
        if err <= 1.0:
            t += dt
            x, v, a1 = new_x, new_v, slopes[-1]  # first-same-as-last
            traj.times.append(t)
            traj.states.append((*x, *v))
            traj.n_accepted += 1
            if traj.n_accepted > 1 and err > 0.0:  # predictive, from the last accept
                pred = 0.9 * (dt / dt_acc) * math.sqrt(math.sqrt(math.sqrt(err_acc / err / err)))
                factor = min(factor, pred)
            dt_acc, err_acc = dt, max(err, 0.01)
        else:
            traj.n_rejected += 1
        dt *= min(5.0, max(0.2, factor))
        if max_step is not None:
            dt = min(dt, max_step)
    return traj


#: The imaginary residue the conjugate-pair closed forms allowed.
EPS_IMAG = 1e-12


def v1_pair(coeffs, y, y0):
    """The complex-log pair of v1/g, both halves evaluated:
    a log((y - i)/(y0 - i)) + conj(a) log((y + i)/(y0 + i))."""
    a = coeffs._a
    s = a * cmath.log(complex(y, -1.0) / complex(y0, -1.0))
    return s + a.conjugate() * cmath.log(complex(y, 1.0) / complex(y0, 1.0))


def v1_conjugate_pair(coeffs, g, y, y0):
    """dynamics._Coefficients._v1 as it was before its log pair was folded
    to twice the real part of one half: the pair evaluated in full, and an
    imaginary residue above EPS_IMAG raised as NumericalBreakdown.  The
    folded _v1 must agree with it bit for bit: value, error type, message."""
    s = v1_pair(coeffs, y, y0)
    if coeffs.m2 != 0.0:
        ratio = (coeffs.m1 + coeffs.m2 * y) / (coeffs.m1 + coeffs.m2 * y0)
        if ratio <= 0.0:
            raise PoleOnRange(f"log argument crossed the pole between {y0} and {y}")
        s += coeffs._c3 * math.log(ratio)
    if abs(s.imag) > EPS_IMAG * (1.0 + abs(s)):
        raise NumericalBreakdown(f"imaginary residue {s.imag:.3e} in v1({y})")
    return g * s.real


def antiderivative_pair(sol, y, m=math):
    """The complex-log pair of GeneralSolution._antiderivative, both halves
    evaluated, at a float slope or (m = np) elementwise on an array."""
    if m is np:
        w, wbar, clog = y - 1j, y + 1j, np.log
    else:
        w, wbar, clog = complex(y, -1.0), complex(y, 1.0), cmath.log
    a = sol._a
    t1 = a * w * (clog(w / complex(sol.y0, -1.0)) - 1.0)
    return t1 + a.conjugate() * wbar * (clog(wbar / complex(sol.y0, 1.0)) - 1.0)


def antiderivative_conjugate_pair(sol, y, m=math):
    """GeneralSolution._antiderivative as it was before its log pair was
    folded, on both paths; an array replays its faulting slopes through the
    float path of this reference."""
    s = antiderivative_pair(sol, y, m)
    residue = abs(s.imag) > EPS_IMAG * (1.0 + abs(s))
    if sol.m2 == 0.0:
        ratio = 1.0
    else:
        num = sol.m1 + sol.m2 * y
        ratio = num / sol._den
    if m is np:
        ta._fault(residue | (ratio <= 0.0), lambda u: antiderivative_conjugate_pair(sol, u), y)
    elif residue:
        raise NumericalBreakdown(f"imaginary residue {s.imag:.3e} in psi({y})")
    elif ratio <= 0.0:
        raise PoleOnRange(f"antiderivative crossed the pole at y = {sol.pole}")
    if sol.m2 == 0.0:
        return s.real
    return s.real + sol._c3 * (num / sol.m2) * (m.log(ratio) - 1.0)
