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
from . import quadrature as tq
from .algebra import Ternary

__all__ = ["CheckResult", "run_suite", "SUITE_NAMES"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: dict | None = None


def _bound_check(name, residuals, bound, counterexample=None):
    """The check that the residuals (an array, or one value) stay within
    bound.  Its worst is the largest residual at its first flat index i, the
    one a loop keeping each strictly larger residual ends with; a nan counts
    as largest, so it fails.  A failed check carries counterexample(i)."""
    r = np.asarray(residuals)
    i = int(np.argmax(r))
    worst = r.flat[i]
    passed = bool(worst <= bound)
    return CheckResult(
        name=name,
        passed=passed,
        detail=f"max residual {worst:.3e} (bound {bound:.1e})",
        counterexample=None if passed or counterexample is None else counterexample(i),
    )


def _rejection_rows(rng, n, lo, hi, keep) -> np.ndarray:
    """n rows of three uniform draws in [lo, hi) that keep accepts, from one
    batch: the rows a rejection loop of such draws keeps, with the stream
    advanced by exactly the draws that loop takes.  keep maps an (m, 3) array
    of rows to a mask."""
    state = rng.bit_generator.state
    size = 2 * n
    while True:
        x = rng.uniform(lo, hi, size=(size, 3))
        ok = keep(x)
        if np.count_nonzero(ok) >= n:
            break
        rng.bit_generator.state = state
        size *= 2
    used = np.flatnonzero(ok)[n - 1] + 1
    rng.bit_generator.state = state
    return rng.uniform(lo, hi, size=(used, 3))[ok[:used]]


def _admissible(x) -> np.ndarray:
    """Rows of components with ||z||^3 > 1e-2 and x0 + x1 + x2 > 1e-2."""
    return (ta.cubic_form(*x.T) > 1e-2) & (x[:, 0] + x[:, 1] + x[:, 2] > 1e-2)


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
    m = ta._multisines(p1, p2)
    r = abs(ta.cubic_form(*m) - 1.0)
    out.append(_bound_check("cubic-identity m0^3+m1^3+m2^3-3m0m1m2=1", r, 1e-10,
                            lambda i: {"phi1": p1[i], "phi2": p2[i], "m": [float(v[i]) for v in m]}))

    values = [ta.multisine(k, 0.0, 0.0) for k in range(3)]
    r = np.array([abs(values[0] - 1.0), abs(values[1]), abs(values[2])])
    out.append(_bound_check("multisine-at-origin", r, 1e-14, lambda k: {"k": k, "value": values[k]}))

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
    out.append(_bound_check("ring-laws (commutative/associative/distributive)", r, 1e-12,
                            lambda i: {"z": _at(z, i), "w": _at(w, i), "u": _at(u, i)}))

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
    out.append(_bound_check("norm-multiplicativity and matrix-representation", r, 1e-10,
                            lambda i: {"z": _at(z, i), "w": _at(w, i)}))

    z = Ternary(*_rejection_rows(rng, 500, -3.0, 3.0, _admissible).T)
    r = (ta.exp(ta.log(z)) - z).max_abs() / (1.0 + z.max_abs())
    out.append(_bound_check("exp-log-round-trip", r, 1e-9, lambda i: {"z": _at(z, i)}))

    # per sample: x0 and phi on (-2, 2), then theta on [0, 0.999 period)
    x = rng.random((300, 3)).T
    x0, phi = -2.0 + 4.0 * x[0], -2.0 + 4.0 * x[1]
    theta = 0.0 + ta.THETA_PERIOD * 0.999 * x[2]
    w = Ternary(x0, phi + theta, phi - theta)
    r = (ta.log(ta.exp(w)) - w).max_abs() / (1.0 + w.max_abs())
    out.append(_bound_check("log-exp-round-trip (reduced compact angle)", r, 1e-9,
                            lambda i: {"w": _at(w, i)}))

    z = Ternary(*_rejection_rows(rng, 300, -3.0, 3.0, _admissible).T)
    p = ta.to_polar(z)
    r = (ta.from_polar(p) - z).max_abs() / (1.0 + z.max_abs())
    theta = p.theta
    r = np.where((0.0 <= theta) & (theta < ta.THETA_PERIOD), r, np.maximum(r, 1.0))
    out.append(_bound_check("polar-round-trip", r, 1e-10, lambda i: {"z": _at(z, i)}))

    p1, p2, s1, s2 = rng.uniform(-2, 2, size=(300, 4)).T
    at_p, at_s = ta._multisines(p1, p2), ta._multisines(s1, s2)
    r = []
    for k, lhs in enumerate(ta._multisines(p1 + s1, p2 + s2)):
        rhs = sum(at_p[j] * at_s[(k - j) % 3] for j in range(3))
        r.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
    out.append(_bound_check("multisine-addition-law", np.stack(r, axis=1), 1e-11,
                            lambda i: {"phi": [p1[i // 3], p2[i // 3]], "psi": [s1[i // 3], s2[i // 3]],
                                       "k": i % 3}))

    p1, p2 = rng.uniform(-2, 2, size=(300, 2)).T
    m = ta._multisines(p1, p2)
    neg = ta._multisines(-p1, -p2)
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
    out.append(_bound_check("multisine-duality-triples", r, 1e-12, lambda i: {"phi1": p1[i], "phi2": p2[i]}))

    h = 1e-5
    p1, p2 = rng.uniform(-2, 2, size=(100, 2)).T
    m = ta._multisines(p1, p2)
    d = tc._partials(lambda c: ta._multisines(*c), (p1, p2), (h, h))
    r = [np.maximum(abs(d[k, 0] - m[(k - 1) % 3]), abs(d[k, 1] - m[(k - 2) % 3])) for k in range(3)]
    out.append(_bound_check("multisine-derivative-shifts-index", np.stack(r, axis=1), 10 * h * h,
                            lambda i: {"phi1": p1[i // 3], "phi2": p2[i // 3], "k": i % 3}))

    z = Ternary(*rng.uniform(-3, 3, size=(300, 3)).T)
    back = ta.idempotent_reconstruct(ta.idempotent_decompose(z))
    r = (back - z).max_abs() / (1.0 + z.max_abs())
    basis = [
        (ta.mul(ta.K0, ta.E0) - ta.ZERO).max_abs(),
        (ta.mul(ta.I_UNIT, ta.I_UNIT) + ta.E0).max_abs(),
        (ta.mul(ta.E0, ta.I_UNIT) - ta.I_UNIT).max_abs(),
    ]
    # the basis residuals have no sample: a failure names the z of the worst reconstruction
    out.append(_bound_check("idempotent-basis-and-reconstruction", np.append(r, basis), 1e-14,
                            lambda _: {"z": _at(z, int(np.argmax(r)))}))

    return out


# --------------------------------------------------------------------------
# calculus


def _far_from_trisectrice(x) -> np.ndarray:
    """Admissible rows whose distance from the trisectrice, sqrt(3) times the
    components' std, is at least 50 third-difference steps: third differences
    of log grow like 1/d^3 at a distance d from that singular line."""
    far = math.sqrt(3.0) * np.std(x, axis=1) >= 50.0 * tc._FD3 * (1.0 + np.max(np.abs(x), axis=1))
    return _admissible(x) & far


def calculus_suite(seed: int) -> list[CheckResult]:
    """Each pointwise check evaluates its stencils once on arrays of all its
    samples, drawn in the order one sample at a time would draw them."""
    rng = np.random.default_rng(seed)
    out = []
    square = tc.TernaryField(lambda z: ta.mul(z, z), name="z^2")
    cube = tc.TernaryField(lambda z: ta.mul(ta.mul(z, z), z), name="z^3")

    coeffs = [Ternary(*rng.uniform(-1, 1, size=3)) for _ in range(3)]
    poly = tc.TernaryField(
        lambda z: coeffs[0] + ta.mul(coeffs[1], z) + ta.mul(coeffs[2], ta.mul(z, z)),
        name="random quadratic",
    )
    p = Ternary(*rng.uniform(-1.5, 1.5, size=(20, 3)).T)
    r = np.max(np.abs(tc._type1_cartesian(tc._checked_partials(poly, p))), axis=(0, 1))
    out.append(_bound_check("closedness-of-holomorphic-one-form", r, 1e-6,
                            lambda i: {"p": _at(p, i), "coeffs": [c.components() for c in coeffs]}))

    a, b = Ternary(0.5, -0.2, 0.3), Ternary(1.4, 0.9, -0.6)
    line = tc.segment(a, b)
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
        _bound_check(
            "path-independence-of-holomorphic-integral",
            (v_line - v_arc).max_abs(),
            10 * tol * (1 + v_line.max_abs()),
            lambda _: {"line": v_line.components(), "arc": v_arc.components()},
        )
    )

    pairs = [
        (tc.TernaryField(lambda z: ta.ONE), lambda z: z),
        (tc.TernaryField(lambda z: z), lambda z: ta.scale(ta.mul(z, z), 0.5)),
        (square, lambda z: ta.scale(ta.mul(ta.mul(z, z), z), 1.0 / 3.0)),
    ]
    worst = np.max(
        [(tc.line_integral(f, line, tol=1e-12) - (prim(b) - prim(a))).max_abs() for f, prim in pairs]
    )
    out.append(_bound_check("primitive-consistency", worst, 1e-9))

    tol = 1e-8
    v1 = tc.line_integral(cube, line, tol=tol)
    v2 = tc.line_integral(cube, line, tol=tol / 2)
    out.append(_bound_check("quadrature-convergence-under-tol-halving", (v1 - v2).max_abs(), tol))

    # residuals per (point, component): 10 points for z^3, then 5 for log
    rows = np.concatenate(
        [rng.uniform(-1.5, 1.5, size=(10, 3)), _rejection_rows(rng, 5, 0.5, 2.0, _far_from_trisectrice)]
    )
    cube_p, log_p = Ternary(*rows[:10].T), Ternary(*rows[10:].T)
    r = np.concatenate(
        [
            abs(tc.ternary_laplacian(lambda z: np.array(fn(z).components()), q)).T
            for fn, q in ((cube, cube_p), (ta.log, log_p))
        ]
    )
    out.append(_bound_check("laplacian-annihilates-holomorphic-components", r, 1e-3,
                            lambda i: {"p": tuple(rows[i // 3]), "component": i % 3}))

    got = tc.line_integral(tc.TernaryField(ta.inverse), tc.trisectrice_loop(1.0), tol=1e-12)
    expected = Ternary(0.0, 2 * math.pi / math.sqrt(3.0), -2 * math.pi / math.sqrt(3.0))
    out.append(
        _bound_check(
            "trisectrice-loop-residue 2*pi*I",
            (got - expected).max_abs(),
            1e-8,
            lambda _: {"got": got.components()},
        )
    )

    return out


# --------------------------------------------------------------------------
# field


# central-difference step of the field checks
_FD_STEPS = (1e-5, 1e-5, 1e-5)


def _frames(rng, n) -> tf.FrameVector:
    """n frame points (l, r1, r2) with |l| > 0.25 and |r| > 0.25, as one
    FrameVector of arrays: the points a rejection loop of draws l, then
    (r1, r2), uniform in [-2, 2) would keep, with the stream advanced as that
    loop advances it."""
    rows = _rejection_rows(
        rng, n, -2.0, 2.0, lambda x: (abs(x[:, 0]) > 0.25) & (np.hypot(x[:, 1], x[:, 2]) > 0.25)
    )
    return tf.FrameVector(*rows.T)


def _point(v: tf.FrameVector, i) -> dict:
    return {"point": [float(c[i]) for c in v.components()]}


def _frame_partials(fn, v):
    """d fn_i / d x_j at the frame points v, x = (l, r1, r2)."""
    return tc._partials(lambda c: fn(tf.FrameVector(*c)), v.components(), _FD_STEPS)


def _divergence(m):
    return sum(m[i, i] for i in range(3))


def _fd_div(fn, v):
    return _divergence(_frame_partials(fn, v))


def field_suite(seed: int) -> list[CheckResult]:
    """Each pointwise check evaluates the field kernels and their stencils
    once on arrays of all its samples, drawn in the order one sample at a time
    would draw them."""
    rng = np.random.default_rng(seed)
    out = []

    v = _frames(rng, 100)
    r = abs(_fd_div(tf.field_h, v))
    out.append(_bound_check("field-divergence-free", r, tf.EPS_DIV, lambda i: _point(v, i)))

    v = _frames(rng, 100)
    _, h_pot, h_rot = tf.potential_decompose(v)
    r = np.max(np.abs(h_pot + h_rot - tf.field_h(v)), axis=0)
    out.append(_bound_check("potential-plus-rotational-reconstruction", r, 1e-9, lambda i: _point(v, i)))

    v = _frames(rng, 30)
    r = abs(_fd_div(lambda u: tf.potential_decompose(u)[2], v))
    out.append(_bound_check("rotational-part-divergence-free", r, tf.EPS_DIV, lambda i: _point(v, i)))

    v = _frames(rng, 30)
    j = tf.current_density(v)
    r = abs(j[1] * v.r1 + j[2] * v.r2)
    out.append(_bound_check("current-tangential", r, 1e-12, lambda i: _point(v, i)))

    v = _frames(rng, 20)
    v = tf.FrameVector(abs(v.l), v.r1, v.r2)
    m = _frame_partials(tf.vector_potential, v)
    curl_a = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    r = np.max(np.abs(curl_a - tf.field_h(v)), axis=0)
    out.append(_bound_check("vector-potential-curl-is-field (l>0)", r, tf.EPS_DIV, lambda i: _point(v, i)))

    z = tf.from_frame(_frames(rng, 50))
    r = np.max(np.abs(tf.cycle_components(tf.h_cartesian(z)) - tf.h_cartesian(tf.cycle_point(z))), axis=0)
    out.append(_bound_check("rotation-covariance-of-cartesian-field", r, 1e-12, lambda i: {"z": _at(z, i)}))

    def hrot_cart(z):
        x = tf.from_frame(tf.FrameVector(*tf.potential_decompose(tf.to_frame(z))[2]))
        return np.array(x.components())

    # covariance failure of the rotational part: the transmuted field must
    # NOT be divergence-free (residual bounded away from zero); a nan counts
    # as smallest, so it fails
    z = tf.from_frame(_frames(rng, 10))
    m = tc._partials(lambda c: tf.cycle_components(hrot_cart(Ternary(*c))), z.components(), _FD_STEPS)
    r = abs(_divergence(m))
    i = int(np.argmin(r))
    smallest = r[i]
    out.append(
        CheckResult(
            name="transmuted-rotational-part-not-divergence-free",
            passed=bool(smallest > 10 * tf.EPS_DIV),
            detail=f"min |div| {smallest:.3e} (must exceed {10 * tf.EPS_DIV:.1e})",
            counterexample=None if smallest > 10 * tf.EPS_DIV else {"z": _at(z, i), "divergence": smallest},
        )
    )

    # flux law: the cubic-band integral around a trisectrice segment is
    # (2 pi/sqrt3) ln(a2/a1), independent of the band's modulus level
    phi_field = tc.TernaryField(lambda z: ta.scale(z, 1.0 / ta.norm_cubed(z)))
    a1, a2 = 1.0, 2.0
    expected = 2 * math.pi / math.sqrt(3.0) * math.log(a2 / a1)
    levels = (1.0, 2.0)
    got = [tc.surface_integral_2form(phi_field, tc.cubic_band_patch(rho, a1, a2), tol=1e-8) for rho in levels]
    r = np.array([abs(v.x0 - expected) / expected for v in got])
    out.append(_bound_check("flux-law-band-integral (level-independent)", r, 1e-6,
                            lambda i: {"rho": levels[i], "got": got[i].components(), "expected": expected}))

    return out


# --------------------------------------------------------------------------
# dynamics


def dynamics_suite(seed: int) -> list[CheckResult]:
    """Every check runs on fixed inputs: seed, the suites' common argument,
    is not read."""
    out = []

    sol = td.planar_solution(1.0, 1.0, 1.0, 2.0)
    s0 = td.state_from_planar(sol, 1.8)
    span = sol.t(0.5) - sol.t(1.8)
    traj = td.integrate(s0, 1.0, s0.t + span, tol=1e-10)
    drift = float(np.max(traj.max_m_drift()))
    out.append(_bound_check("angular-momentum-conservation (planar run)", drift, 1e-8))
    planar_dev = np.max([abs(s[m]) for s in traj.states for m in (2, 5)])
    out.append(_bound_check("planar-run-stays-planar", planar_dev, 1e-9))

    samples = [traj.state(i) for i in np.linspace(0, len(traj) - 1, 10).astype(int)]
    zs = [st.l / st.r1 for st in samples]
    r = np.array([abs(st.r1 - sol.r1(z)) / abs(st.r1) for st, z in zip(samples, zs)])
    out.append(_bound_check("planar-closed-form-vs-ode", r, 1e-4, lambda i: {"t": samples[i].t, "z": zs[i]}))

    end = traj.final_state()
    mirrored = td.MonopoleState(end.l, -end.r1, end.r2, -end.v0, end.v1, -end.v2, t=0.0)
    back = td.integrate(mirrored, 1.0, span, tol=1e-10).final_state()
    sym_res = np.max(
        (abs(back.l - s0.l), abs(back.r1 + s0.r1), abs(back.v0 + s0.v0), abs(back.v1 - s0.v1))
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
    worst = np.max(
        [abs(td.asymptote_solve(z0, z0 * (1 + eps)) - z0 * (1 - eps)) / eps**2 for eps in (1e-2, 1e-3)]
    )
    out.append(_bound_check("asymptote-near-limit (quadratic)", worst, 0.5))

    g, m0, m1, m2 = 1.0, 0.5, -1.0, 0.8
    gsol = td.general_solution(g, m0, m1, m2, 0.9, 0.1)

    def kernel(u):
        return (1.0 / ((1 + u * u) * (m1 + m2 * u)))[None]

    ys = (0.2, 0.5, 1.2)
    r = np.array([abs(gsol.v1(y) - g * float(tq.adaptive_quad(kernel, 0.9, y, 1e-13)[0])) for y in ys])
    out.append(_bound_check("general-velocity-vs-quadrature-oracle", r, 1e-9, lambda i: {"y": ys[i]}))

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
