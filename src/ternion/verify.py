"""Seeded property suites for the `verify` CLI command.

Each suite returns CheckResult rows; a check that fails carries the first
counterexample it saw, serialized as a plain dict.  The suites intentionally
call the public API through the module objects so they exercise exactly what
the library ships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra as ta
from . import calculus as tc
from . import dynamics as td
from . import field as tf
from .algebra import Ternary

__all__ = ["CheckResult", "run_suite", "SUITE_NAMES"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: dict | None = None


def _bound_check(name, worst, bound, counterexample=None):
    return CheckResult(
        name=name,
        passed=bool(worst <= bound),
        detail=f"max residual {worst:.3e} (bound {bound:.1e})",
        counterexample=None if worst <= bound else counterexample,
    )


def _rand_ternary(rng, lo=-3.0, hi=3.0) -> Ternary:
    return Ternary(*rng.uniform(lo, hi, size=3))


def _admissible_rows(rng, n, lo=-3.0, hi=3.0) -> np.ndarray:
    """n admissible points (||z||^3 > 1e-2 and x0 + x1 + x2 > 1e-2), as rows
    of components, from one batch.

    They are the points a rejection loop of uniform draws in [lo, hi)^3 would
    keep, and the stream advances by exactly the draws that loop takes.
    """
    state = rng.bit_generator.state
    size = 2 * n
    while True:
        x = rng.uniform(lo, hi, size=(size, 3))
        ok = (ta.cubic_form(*x.T) > 1e-2) & (x[:, 0] + x[:, 1] + x[:, 2] > 1e-2)
        if np.count_nonzero(ok) >= n:
            break
        rng.bit_generator.state = state
        size *= 2
    used = np.flatnonzero(ok)[n - 1] + 1
    rng.bit_generator.state = state
    return rng.uniform(lo, hi, size=(used, 3))[ok[:used]]


def _worst(r, counterexample):
    """Largest residual of the array r and counterexample(i) at its first
    flat index i: the pair a loop over r keeping each strictly larger residual
    ends with.  A nan counts as largest, so it fails its bound."""
    i = int(np.argmax(r))
    return r.flat[i], counterexample(i)


def _at(z: Ternary, i) -> tuple:
    return tuple(c[i] for c in z.components())


# --------------------------------------------------------------------------
# algebra


def algebra_suite(seed: int) -> list[CheckResult]:
    """Each check evaluates the kernels once on arrays of all its samples,
    drawn in the order one sample at a time would draw them."""
    rng = np.random.default_rng(seed)
    out = []

    p1, p2 = rng.uniform(-3, 3, size=(2000, 2)).T
    m = [ta.multisine(k, p1, p2) for k in range(3)]
    r = abs(ta.cubic_form(*m) - 1.0)
    worst, ce = _worst(r, lambda i: {"phi1": p1[i], "phi2": p2[i], "m": [float(v[i]) for v in m]})
    out.append(_bound_check("cubic-identity m0^3+m1^3+m2^3-3m0m1m2=1", worst, 1e-10, ce))

    worst, ce = 0.0, None
    for k in range(3):
        r = abs(ta.multisine(k, 0.0, 0.0) - (1.0 if k == 0 else 0.0))
        if r > worst:
            worst, ce = r, {"k": k, "value": ta.multisine(k, 0.0, 0.0)}
    out.append(_bound_check("multisine-at-origin", worst, 1e-14, ce))

    x = rng.uniform(-3, 3, size=(300, 9)).T
    z, w, u = Ternary(*x[0:3]), Ternary(*x[3:6]), Ternary(*x[6:9])
    scale = (1 + z.max_abs()) * (1 + w.max_abs()) * (1 + u.max_abs())
    r = np.maximum.reduce(
        [
            (ta.mul(z, w) - ta.mul(w, z)).max_abs(),
            (ta.mul(ta.mul(z, w), u) - ta.mul(z, ta.mul(w, u))).max_abs(),
            (ta.mul(z + w, u) - (ta.mul(z, u) + ta.mul(w, u))).max_abs(),
        ]
    ) / scale
    worst, ce = _worst(r, lambda i: {"z": _at(z, i), "w": _at(w, i), "u": _at(u, i)})
    out.append(_bound_check("ring-laws (commutative/associative/distributive)", worst, 1e-12, ce))

    x = rng.uniform(-3, 3, size=(300, 6)).T
    z, w = Ternary(*x[0:3]), Ternary(*x[3:6])
    scale = ((1 + z.max_abs()) * (1 + w.max_abs())) ** 3
    r1 = abs(ta.norm_cubed(ta.mul(z, w)) - ta.norm_cubed(z) * ta.norm_cubed(w)) / scale
    r2 = abs(np.linalg.det(ta.characteristic_matrix(z)) - ta.norm_cubed(z)) / (1 + z.max_abs()) ** 3
    r3 = np.max(
        np.abs(
            ta.characteristic_matrix(ta.mul(z, w))
            - ta.characteristic_matrix(z) @ ta.characteristic_matrix(w)
        ),
        axis=(1, 2),
    ) / scale
    r = np.maximum.reduce([r1, r2, r3])
    worst, ce = _worst(r, lambda i: {"z": _at(z, i), "w": _at(w, i)})
    out.append(_bound_check("norm-multiplicativity and matrix-representation", worst, 1e-10, ce))

    z = Ternary(*_admissible_rows(rng, 500).T)
    r = (ta.exp(ta.log(z)) - z).max_abs() / (1.0 + z.max_abs())
    worst, ce = _worst(r, lambda i: {"z": _at(z, i)})
    out.append(_bound_check("exp-log-round-trip", worst, 1e-9, ce))

    # per sample: x0 and phi on (-2, 2), then theta on [0, 0.999 period)
    x = rng.random((300, 3)).T
    x0, phi = -2.0 + 4.0 * x[0], -2.0 + 4.0 * x[1]
    theta = 0.0 + ta.THETA_PERIOD * 0.999 * x[2]
    w = Ternary(x0, phi + theta, phi - theta)
    r = (ta.log(ta.exp(w)) - w).max_abs() / (1.0 + w.max_abs())
    worst, ce = _worst(r, lambda i: {"w": _at(w, i)})
    out.append(_bound_check("log-exp-round-trip (reduced compact angle)", worst, 1e-9, ce))

    z = Ternary(*_admissible_rows(rng, 300).T)
    p = ta.to_polar(z)
    r = (ta.from_polar(p) - z).max_abs() / (1.0 + z.max_abs())
    theta = p.theta
    r = np.where((0.0 <= theta) & (theta < ta.THETA_PERIOD), r, np.maximum(r, 1.0))
    worst, ce = _worst(r, lambda i: {"z": _at(z, i)})
    out.append(_bound_check("polar-round-trip", worst, 1e-10, ce))

    p1, p2, s1, s2 = rng.uniform(-2, 2, size=(300, 4)).T
    r = []
    for k in range(3):
        lhs = ta.multisine(k, p1 + s1, p2 + s2)
        rhs = sum(ta.multisine(m, p1, p2) * ta.multisine((k - m) % 3, s1, s2) for m in range(3))
        r.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
    worst, ce = _worst(
        np.stack(r, axis=1),
        lambda i: {"phi": [p1[i // 3], p2[i // 3]], "psi": [s1[i // 3], s2[i // 3]], "k": i % 3},
    )
    out.append(_bound_check("multisine-addition-law", worst, 1e-11, ce))

    p1, p2 = rng.uniform(-2, 2, size=(300, 2)).T
    m = [ta.multisine(k, p1, p2) for k in range(3)]
    neg = [ta.multisine(k, -p1, -p2) for k in range(3)]
    scale = 1.0 + np.maximum.reduce([abs(v) for v in m]) ** 2
    r = (
        np.maximum.reduce(
            [
                abs(neg[0] - (m[0] ** 2 - m[1] * m[2])),
                abs(neg[1] - (m[2] ** 2 - m[0] * m[1])),
                abs(neg[2] - (m[1] ** 2 - m[0] * m[2])),
            ]
        )
        / scale
    )
    worst, ce = _worst(r, lambda i: {"phi1": p1[i], "phi2": p2[i]})
    out.append(_bound_check("multisine-duality-triples", worst, 1e-12, ce))

    h = 1e-5
    p1, p2 = rng.uniform(-2, 2, size=(100, 2)).T
    r = []
    for k in range(3):
        d1 = (ta.multisine(k, p1 + h, p2) - ta.multisine(k, p1 - h, p2)) / (2 * h)
        d2 = (ta.multisine(k, p1, p2 + h) - ta.multisine(k, p1, p2 - h)) / (2 * h)
        r.append(
            np.maximum(
                abs(d1 - ta.multisine((k - 1) % 3, p1, p2)),
                abs(d2 - ta.multisine((k - 2) % 3, p1, p2)),
            )
        )
    worst, ce = _worst(
        np.stack(r, axis=1), lambda i: {"phi1": p1[i // 3], "phi2": p2[i // 3], "k": i % 3}
    )
    out.append(_bound_check("multisine-derivative-shifts-index", worst, 10 * h * h, ce))

    z = Ternary(*rng.uniform(-3, 3, size=(300, 3)).T)
    back = ta.idempotent_reconstruct(ta.idempotent_decompose(z))
    r = (back - z).max_abs() / (1.0 + z.max_abs())
    worst, ce = _worst(r, lambda i: {"z": _at(z, i)})
    rel = max(
        (ta.mul(ta.K0, ta.E0) - ta.ZERO).max_abs(),
        (ta.mul(ta.I_UNIT, ta.I_UNIT) + ta.E0).max_abs(),
        (ta.mul(ta.E0, ta.I_UNIT) - ta.I_UNIT).max_abs(),
    )
    out.append(_bound_check("idempotent-basis-and-reconstruction", max(worst, rel), 1e-14, ce))

    return out


# --------------------------------------------------------------------------
# calculus


def calculus_suite(seed: int) -> list[CheckResult]:
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
        p = _rand_ternary(rng, -1.5, 1.5)
        rep = tc.check_holo_type1(poly, p)
        r = rep.max_cartesian
        if r > worst:
            worst, ce = r, {"p": p.components(), "coeffs": [c.components() for c in coeffs]}
    out.append(_bound_check("closedness-of-holomorphic-one-form", worst, 1e-6, ce))

    a, b = Ternary(0.5, -0.2, 0.3), Ternary(1.4, 0.9, -0.6)
    diff = b - a
    line = tc.Curve(lambda t: a + ta.scale(diff, t), 0.0, 1.0, derivative=lambda t: diff)
    bulge = Ternary(0.3, 1.1, 0.8)
    mid = ta.scale(a + b, 0.5) + bulge

    def arc(t):
        u = 1.0 - t
        return ta.scale(a, u * u) + ta.scale(mid, 2 * u * t) + ta.scale(b, t * t)

    tol = 1e-11
    v_line = tc.line_integral(square, line, tol=tol)
    v_arc = tc.line_integral(square, tc.Curve(arc, 0.0, 1.0), tol=tol)
    out.append(
        _bound_check(
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
    out.append(_bound_check("primitive-consistency", worst, 1e-9))

    tol = 1e-8
    v1 = tc.line_integral(cube, line, tol=tol)
    v2 = tc.line_integral(cube, line, tol=tol / 2)
    out.append(_bound_check("quadrature-convergence-under-tol-halving", (v1 - v2).max_abs(), tol))

    worst, ce = 0.0, None
    for _ in range(10):
        p = _rand_ternary(rng, -1.5, 1.5)
        for i in range(3):
            r = abs(tc.ternary_laplacian(lambda z, i=i: cube(z).components()[i], p))
            if r > worst:
                worst, ce = r, {"p": p.components(), "component": i}
    for _ in range(5):
        # third differences of log grow like 1/d^3 at a distance d from its
        # singular line, the trisectrice (d = sqrt(3) * the components' std):
        # keep the stencil 50 steps away
        p = Ternary(*_admissible_rows(rng, 1, 0.5, 2.0)[0])
        while math.sqrt(3.0) * np.std(p.components()) < 50.0 * tc._FD3 * (1.0 + p.max_abs()):
            p = Ternary(*_admissible_rows(rng, 1, 0.5, 2.0)[0])
        for i in range(3):
            r = abs(tc.ternary_laplacian(lambda z, i=i: ta.log(z).components()[i], p))
            if r > worst:
                worst, ce = r, {"p": p.components(), "component": i}
    out.append(_bound_check("laplacian-annihilates-holomorphic-components", worst, 1e-3, ce))

    got = tc.line_integral(tc.TernaryField(ta.inverse), tc.trisectrice_loop(1.0), tol=1e-12)
    expected = Ternary(0.0, 2 * math.pi / math.sqrt(3.0), -2 * math.pi / math.sqrt(3.0))
    out.append(
        _bound_check(
            "trisectrice-loop-residue 2*pi*I",
            (got - expected).max_abs(),
            1e-8,
            {"got": got.components()},
        )
    )

    return out


# --------------------------------------------------------------------------
# field


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


def field_suite(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst, ce = 0.0, None
    for _ in range(100):
        v = _rand_frame(rng)
        r = abs(_fd_div(tf.field_h, v))
        if r > worst:
            worst, ce = r, {"point": [v.l, v.r1, v.r2]}
    out.append(_bound_check("field-divergence-free", worst, tf.EPS_DIV, ce))

    worst, ce = 0.0, None
    for _ in range(100):
        v = _rand_frame(rng)
        _, h_pot, h_rot = tf.potential_decompose(v)
        r = float(np.max(np.abs(h_pot + h_rot - tf.field_h(v))))
        if r > worst:
            worst, ce = r, {"point": [v.l, v.r1, v.r2]}
    out.append(_bound_check("potential-plus-rotational-reconstruction", worst, 1e-9, ce))

    worst, ce = 0.0, None
    for _ in range(30):
        v = _rand_frame(rng)
        r = abs(_fd_div(lambda u: tf.potential_decompose(u)[2], v))
        if r > worst:
            worst, ce = r, {"point": [v.l, v.r1, v.r2]}
    out.append(_bound_check("rotational-part-divergence-free", worst, tf.EPS_DIV, ce))

    worst, ce = 0.0, None
    for _ in range(30):
        v = _rand_frame(rng)
        j = tf.current_density(v)
        r = abs(j[1] * v.r1 + j[2] * v.r2)
        if r > worst:
            worst, ce = r, {"point": [v.l, v.r1, v.r2]}
    out.append(_bound_check("current-tangential", worst, 1e-12, ce))

    worst, ce = 0.0, None
    for _ in range(20):
        v = _rand_frame(rng)
        v = tf.FrameVector(abs(v.l), v.r1, v.r2)
        m = _frame_partials(tf.vector_potential, v)
        curl_a = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
        r = float(np.max(np.abs(curl_a - tf.field_h(v))))
        if r > worst:
            worst, ce = r, {"point": [v.l, v.r1, v.r2]}
    out.append(_bound_check("vector-potential-curl-is-field (l>0)", worst, tf.EPS_DIV, ce))

    worst, ce = 0.0, None
    for _ in range(50):
        v = _rand_frame(rng)
        z = tf.from_frame(v)
        r = float(
            np.max(np.abs(tf.cycle_components(tf.h_cartesian(z)) - tf.h_cartesian(tf.cycle_point(z))))
        )
        if r > worst:
            worst, ce = r, {"z": z.components()}
    out.append(_bound_check("rotation-covariance-of-cartesian-field", worst, 1e-12, ce))

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
        CheckResult(
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
    out.append(_bound_check("flux-law-band-integral (level-independent)", worst, 1e-6, ce))

    return out


# --------------------------------------------------------------------------
# dynamics


def dynamics_suite(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    sol = td.planar_solution(1.0, 1.0, 1.0, 2.0)
    s0 = td.state_from_planar(sol, 1.8)
    span = sol.t(0.5) - sol.t(1.8)
    traj = td.integrate(s0, 1.0, s0.t + span, tol=1e-10)
    drift = float(np.max(traj.max_m_drift()))
    out.append(_bound_check("angular-momentum-conservation (planar run)", drift, 1e-8))
    planar_dev = max(max(abs(s[2]) for s in traj.states), max(abs(s[5]) for s in traj.states))
    out.append(_bound_check("planar-run-stays-planar", planar_dev, 1e-9))

    worst, ce = 0.0, None
    idx = np.linspace(0, len(traj) - 1, 10).astype(int)
    for i in idx:
        st = traj.state(i)
        z = st.l / st.r1
        r = abs(st.r1 - sol.r1(z)) / abs(st.r1)
        if r > worst:
            worst, ce = r, {"t": st.t, "z": z}
    out.append(_bound_check("planar-closed-form-vs-ode", worst, 1e-4, ce))

    end = traj.final_state()
    mirrored = td.MonopoleState(end.l, -end.r1, end.r2, -end.v0, end.v1, -end.v2, t=0.0)
    back = td.integrate(mirrored, 1.0, span, tol=1e-10).final_state()
    sym_res = max(
        abs(back.l - s0.l),
        abs(back.r1 + s0.r1),
        abs(back.v0 + s0.v0),
        abs(back.v1 - s0.v1),
    )
    out.append(_bound_check("time-reversal-reflection-symmetry", sym_res, 1e-6))

    out.append(
        CheckResult(
            name="energy-not-conserved",
            passed=bool(traj.energy_change() > 10 * drift),
            detail=f"|dE| = {traj.energy_change():.3e} vs drift {drift:.3e}",
        )
    )

    z0 = 1.0
    worst = 0.0
    for eps in (1e-2, 1e-3):
        zt = td.asymptote_solve(z0, z0 * (1 + eps))
        worst = max(worst, abs(zt - z0 * (1 - eps)) / eps**2)
    out.append(_bound_check("asymptote-near-limit (quadratic)", worst, 0.5))

    g, m0, m1, m2 = 1.0, 0.5, -1.0, 0.8
    gsol = td.general_solution(g, m0, m1, m2, 0.9, 0.1)
    from .quadrature import adaptive_quad

    worst, ce = 0.0, None
    for y in (0.2, 0.5, 1.2):
        quad = g * float(
            adaptive_quad(lambda u: (1.0 / ((1 + u * u) * (m1 + m2 * u)),), 0.9, y, 1e-13)[0]
        )
        r = abs(gsol.v1(y) - quad)
        if r > worst:
            worst, ce = r, {"y": y}
    out.append(_bound_check("general-velocity-vs-quadrature-oracle", worst, 1e-9, ce))

    setup = td.ScatteringSetup(g=1.0, y1=0.0, z1=0.8, v1_inf=0.5, m1=-1.0, m2=0.9)
    res = td.scattering_map(setup)
    out.append(
        _bound_check("scattering-momentum-velocity-constraint", abs(setup.constraint_residual), 1e-12)
    )
    gsol2 = td.general_solution(setup.g, res.m0, setup.m1, setup.m2, res.y0, setup.y1)
    out.append(_bound_check("scattering-exit-slope-residual", abs(gsol2.psi(res.ytilde1)), 1e-11))

    return out


SUITES = {
    "algebra": algebra_suite,
    "calculus": calculus_suite,
    "field": field_suite,
    "dynamics": dynamics_suite,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name: str, seed: int) -> list[CheckResult]:
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(run_suite(key, seed))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name](seed)
