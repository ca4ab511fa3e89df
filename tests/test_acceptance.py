"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines also
on success).  Every tolerance is pinned here, not configurable.
"""

import math

import numpy as np

from ternion import algebra as ta
from ternion import calculus as tc
from ternion import dynamics as td
from ternion import field as tf
from ternion.algebra import Ternary
from ternion.rootfind import brent

SQ3 = math.sqrt(3.0)


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def sample_admissible(rng, margin=0.3):
    while True:
        z = Ternary(*rng.uniform(-3, 3, size=3))
        if ta.norm_cubed(z) > margin and (z.x0 + z.x1 + z.x2) > margin:
            return z


def sample_frame(rng, margin=0.25):
    while True:
        l = rng.uniform(-2, 2)
        r1, r2 = rng.uniform(-2, 2, size=2)
        v = tf.FrameVector(l, r1, r2)
        if abs(l) > margin and v.r_mag > margin:
            return v


def test_criterion_01_cubic_identity(rng):
    worst = 0.0
    for _ in range(10_000):
        p1, p2 = rng.uniform(-3.0, 3.0, size=2)
        m = [ta.multisine(k, p1, p2) for k in range(3)]
        worst = max(worst, abs(ta.cubic_form(*m) - 1.0))
    report(1, "multisine cubic identity", worst <= 1e-10, f"max |...-1| = {worst:.3e} <= 1e-10")


def test_criterion_02_norm_multiplicativity_and_matrix_oracle(rng):
    worst_mult = worst_det = 0.0
    for _ in range(10_000):
        z = Ternary(*rng.uniform(-3, 3, size=3))
        w = Ternary(*rng.uniform(-3, 3, size=3))
        nz, nw, nzw = ta.norm_cubed(z), ta.norm_cubed(w), ta.norm_cubed(ta.mul(z, w))
        worst_mult = max(worst_mult, abs(nzw - nz * nw) / max(abs(nzw), abs(nz * nw), 1e-300))
        det = float(np.linalg.det(ta.characteristic_matrix(z)))
        worst_det = max(worst_det, abs(det - nz) / max(abs(nz), 1e-300))
    ok = worst_mult <= 1e-10 and worst_det <= 1e-10
    report(
        2,
        "norm multiplicativity + determinant oracle",
        ok,
        f"rel errors {worst_mult:.3e} (mult), {worst_det:.3e} (det) <= 1e-10",
    )


def test_criterion_03_exp_log_round_trip(rng):
    worst = 0.0
    for _ in range(10_000):
        z = sample_admissible(rng, margin=1e-2)
        back = ta.exp(ta.log(z))
        worst = max(worst, (back - z).max_abs() / (1.0 + z.max_abs()))
    report(3, "exp/log round trip", worst <= 1e-9, f"max scaled residual {worst:.3e} <= 1e-9")


def test_criterion_04_trisectrice_residue():
    got = tc.line_integral(tc.TernaryField(ta.inverse), tc.trisectrice_loop(1.0), tol=1e-12)
    expected = Ternary(0.0, 2 * math.pi / SQ3, -2 * math.pi / SQ3)
    err = (got - expected).max_abs()
    report(4, "residue of dz/z around the trisectrice", err <= 1e-8, f"abs error {err:.3e} <= 1e-8")


def test_criterion_05_surface_integrals():
    phi = tc.TernaryField(lambda z: ta.scale(z, 1.0 / ta.norm_cubed(z)))
    a1, a2 = 1.0, math.e
    band = tc.surface_integral_2form(phi, tc.cubic_band_patch(1.0, a1, a2), tol=1e-9)
    band_expected = 2 * math.pi / SQ3 * math.log(a2 / a1)
    band_err = abs(band.x0 - band_expected) / band_expected

    lo, hi = -0.2, 0.3
    polar = tc.surface_integral_2form(phi, tc.polar_band_patch(1.0, lo, hi), tol=1e-9)
    polar_expected = 4 * math.pi / SQ3 * (hi - lo)
    polar_err = abs(polar.x0 - polar_expected) / polar_expected

    sphere = tc.surface_integral_2form(phi, tc.sphere_patch(Ternary(2.0, 0.0, 0.0), 0.5), tol=1e-10)
    sphere_err = sphere.max_abs()

    ok = band_err <= 1e-6 and polar_err <= 1e-6 and sphere_err <= 1e-8
    report(
        5,
        "cubic-band / polar-band / closed-surface integrals",
        ok,
        f"rel {band_err:.3e}, {polar_err:.3e} <= 1e-6; closed {sphere_err:.3e} <= 1e-8",
    )


def test_criterion_06_holomorphy_suites(rng):
    square = tc.TernaryField(lambda z: ta.mul(z, z))
    cube = tc.TernaryField(lambda z: ta.mul(ta.mul(z, z), z))
    log_f = tc.TernaryField(ta.log)

    def sample_o1(margin=0.3):
        # the 1e-6 finite-difference tolerance is declared for O(1)-scaled inputs
        while True:
            z = Ternary(*rng.uniform(-1.5, 1.5, size=3))
            if ta.norm_cubed(z) > margin and (z.x0 + z.x1 + z.x2) > margin:
                return z

    worst_t1 = 0.0
    for _ in range(100):
        p = sample_o1()
        for f in (square, cube, log_f):
            rep = tc.check_holo_type1(f, p)
            worst_t1 = max(worst_t1, rep.max_cartesian, rep.max_polar or 0.0)

    prod_sq = tc.TernaryField(lambda z: ta.mul(ta.tilde_product(z), ta.tilde_product(z)))
    p = Ternary(0.9, 0.4, -0.3)
    rep_both = tc.check_holo_type2(prod_sq, p)

    def mixed(z):
        zt, ztt = ta.conjugates(z)
        return (zt * zt * ztt).real_part()

    rep_single = tc.check_holo_type2(tc.TernaryField(mixed), p)

    worst_lap = 0.0
    for _ in range(100):
        p = Ternary(*rng.uniform(-2, 2, size=3))
        for i in range(3):
            worst_lap = max(worst_lap, abs(tc.ternary_laplacian(lambda z, i=i: cube(z).components()[i], p)))

    ok = (
        worst_t1 <= 1e-6
        and rep_both.passes_single
        and rep_both.passes_reality
        and rep_single.passes_single
        and not rep_single.passes_reality
        and worst_lap <= 1e-3
    )
    report(
        6,
        "holomorphy suites (type 1, type 2 +/- reality, cubic Laplacian)",
        ok,
        f"type-1 max {worst_t1:.3e} <= 1e-6; conjugate-product both, mixed single-only; "
        f"Laplacian max {worst_lap:.3e} <= 1e-3",
    )


def test_criterion_07_field_identities(rng):
    def fd_div(fn, v, h=1e-5):
        total = 0.0
        for axis in range(3):
            e = [0.0, 0.0, 0.0]
            e[axis] = h
            up = fn(tf.FrameVector(v.l + e[0], v.r1 + e[1], v.r2 + e[2]))
            dn = fn(tf.FrameVector(v.l - e[0], v.r1 - e[1], v.r2 - e[2]))
            total += (up[axis] - dn[axis]) / (2 * h)
        return total

    def fd_curl(fn, v, h=1e-5):
        def part(axis, comp):
            e = [0.0, 0.0, 0.0]
            e[axis] = h
            up = fn(tf.FrameVector(v.l + e[0], v.r1 + e[1], v.r2 + e[2]))
            dn = fn(tf.FrameVector(v.l - e[0], v.r1 - e[1], v.r2 - e[2]))
            return (up[comp] - dn[comp]) / (2 * h)

        return np.array([part(1, 2) - part(2, 1), part(2, 0) - part(0, 2), part(0, 1) - part(1, 0)])

    worst = {"divh": 0.0, "divrot": 0.0, "recon": 0.0, "curla": 0.0, "jtan": 0.0}
    for _ in range(1000):
        v = sample_frame(rng)
        worst["divh"] = max(worst["divh"], abs(fd_div(tf.field_h, v)))
        _, h_pot, h_rot = tf.potential_decompose(v)
        worst["recon"] = max(worst["recon"], float(np.max(np.abs(h_pot + h_rot - tf.field_h(v)))))
        j = tf.current_density(v)
        worst["jtan"] = max(worst["jtan"], abs(j[1] * v.r1 + j[2] * v.r2))
    for _ in range(200):
        v = sample_frame(rng)
        worst["divrot"] = max(worst["divrot"], abs(fd_div(lambda u: tf.potential_decompose(u)[2], v)))
        vpos = tf.FrameVector(abs(v.l), v.r1, v.r2)
        worst["curla"] = max(
            worst["curla"], float(np.max(np.abs(fd_curl(tf.vector_potential, vpos) - tf.field_h(vpos))))
        )
    worst_cone = 0.0
    for _ in range(100):
        l = rng.uniform(0.3, 2.0)
        ang = rng.uniform(0, 2 * math.pi)
        v = tf.FrameVector(l, math.sqrt(2.0) * l * math.cos(ang), math.sqrt(2.0) * l * math.sin(ang))
        worst_cone = max(worst_cone, float(np.max(np.abs(tf.current_density(v)))))
    ok = (
        worst["divh"] <= 1e-5
        and worst["divrot"] <= 1e-5
        and worst["recon"] <= 1e-9
        and worst["curla"] <= 1e-5
        and worst["jtan"] <= 1e-12
        and worst_cone <= 1e-8
    )
    report(
        7,
        "field identities (div, decomposition, curl A, current)",
        ok,
        f"div h {worst['divh']:.2e}, div h_rot {worst['divrot']:.2e}, recon {worst['recon']:.2e}, "
        f"curl A {worst['curla']:.2e}, j.r {worst['jtan']:.2e}, cone {worst_cone:.2e}",
    )


def test_criterion_08_ternary_pythagoras():
    worst = 0.0
    for rho in (0.5, 1.0, 2.0):
        for a in (0.3, 1.0, 2.5):
            for theta in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
                j12, j20, j01 = tc.cubic_surface_geometry(rho, a, theta).jacobians
                expected = rho**6 / (3.0 * SQ3 * a**3)
                worst = max(worst, abs(ta.cubic_form(j01, j12, j20) - expected) / expected)
    report(8, "ternary Pythagorean identity of the band Jacobians", worst <= 1e-9, f"rel {worst:.3e} <= 1e-9")


def test_criterion_09_dynamics_conservation_and_closed_forms():
    sol = td.planar_solution(1.0, 1.0, 1.0, 2.0)
    z_start, z_stop = 1.9, 0.35
    s0 = td.state_from_planar(sol, z_start)
    span = sol.t(z_stop) - sol.t(z_start)
    traj = td.integrate(s0, 1.0, s0.t + span, tol=1e-10, max_step=span / 12000)
    steps_ok = traj.n_accepted >= 10_000
    m2_drift = float(traj.max_m_drift()[2])  # M2 = 1: absolute == relative
    planar_dev = max(max(abs(s[2]) for s in traj.states), max(abs(s[5]) for s in traj.states))
    worst_r1 = 0.0
    for i in np.linspace(0, len(traj) - 1, 20).astype(int):
        st = traj.state(i)
        worst_r1 = max(worst_r1, abs(st.r1 - sol.r1(st.l / st.r1)) / abs(st.r1))

    g, m0, m1, m2 = 1.0, 1.25, -1.0, 0.9
    gsol = td.general_solution(g, m0, m1, m2, 0.4227988407622297, 0.0)
    gs0 = td.state_from_general(gsol, 0.05)
    gspan = gsol.t(0.70) - gsol.t(0.05)
    gtraj = td.integrate(gs0, g, gs0.t + gspan, tol=1e-10)
    worst_gen = 0.0
    for i in np.linspace(0, len(gtraj) - 1, 15).astype(int):
        st = gtraj.state(i)
        y = st.r2 / st.r1
        worst_gen = max(worst_gen, abs(st.r1 - gsol.r1(y)) / abs(st.r1))

    ok = steps_ok and m2_drift <= 1e-8 and planar_dev <= 1e-9 and worst_r1 <= 1e-4 and worst_gen <= 1e-3
    report(
        9,
        "planar + general runs vs closed forms",
        ok,
        f"{traj.n_accepted} steps, M2 drift {m2_drift:.2e} <= 1e-8, planar dev {planar_dev:.1e}, "
        f"r1 match {worst_r1:.2e} <= 1e-4, general match {worst_gen:.2e} <= 1e-3",
    )


def test_criterion_10_asymptote_limits():
    z0 = 1.0

    def kernel(z):
        return z * (math.log(z / z0) - 1.0)

    worst_resid = 0.0
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        zt = td.asymptote_solve(z0, z0 * (1 + eps))
        worst_resid = max(worst_resid, abs(kernel(zt) - kernel(z0 * (1 + eps))))
        errs.append(abs(zt - z0 * (1 - eps)))
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(10.0) for i in range(2)]
    near_ok = all(abs(o - 2.0) <= 0.2 for o in orders) and errs[-1] <= 1e-8

    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        z1 = math.e * z0 * (1 - eps)
        zt = td.asymptote_solve(z0, z1)
        worst_resid = max(worst_resid, abs(kernel(zt) - kernel(z1)))
        ratios.append(zt / (eps * math.e * z0 / math.log(1.0 / eps)))
    deep_ok = ratios[0] < ratios[1] < ratios[2] < 1.0 and all(
        abs(r - 1.0) <= 1.5 * math.log(math.log(1 / e)) / math.log(1 / e)
        for r, e in zip(ratios, (1e-2, 1e-3, 1e-4))
    )
    ok = near_ok and deep_ok and worst_resid <= 1e-12
    report(
        10,
        "asymptote-equation limits",
        ok,
        f"orders {orders[0]:.2f}, {orders[1]:.2f} ~ 2; scaling ratios {ratios} -> 1; "
        f"residual {worst_resid:.1e} <= 1e-12",
    )


def test_criterion_11_scattering_end_to_end():
    g, y1, z1, v1_inf = 1.0, 0.0, 0.8, 0.5
    worst_slope = 0.0
    worst_constraint = 0.0
    energy_flags = []
    for m1 in (-1.2, -1.0, -0.8):
        for m2 in (0.9, 1.0, 1.1):
            setup = td.ScatteringSetup(g=g, y1=y1, z1=z1, v1_inf=v1_inf, m1=m1, m2=m2)
            worst_constraint = max(worst_constraint, abs(setup.constraint_residual))
            res = td.scattering_map(setup)
            sol = td.general_solution(g, res.m0, m1, m2, res.y0, y1)
            radius = 400.0
            psi_edge = abs(res.m0) / (g * radius)
            ya = brent(lambda y: abs(sol.psi(y)) - psi_edge, y1 + 1e-12, res.y0)
            yb = brent(lambda y: abs(sol.psi(y)) - psi_edge, res.y0, res.ytilde1 - 1e-12)
            s0 = td.state_from_general(sol, ya)
            span = sol.t(yb) - sol.t(ya)
            traj = td.integrate(s0, g, s0.t + span, tol=1e-10)
            fs = traj.final_state()
            late_slope = fs.r2 / fs.r1 + res.m0 / (fs.r1 * fs.v1)
            worst_slope = max(worst_slope, abs(late_slope - res.ytilde1))
            drift = float(np.max(traj.max_m_drift()))
            energy_flags.append(traj.energy_change() > 10 * drift)
    ok = worst_slope <= 1e-3 and worst_constraint <= 1e-12 and any(energy_flags)
    report(
        11,
        "scattering exit slopes vs ODE oracle on a 3x3 grid",
        ok,
        f"max slope mismatch {worst_slope:.2e} <= 1e-3, constraint {worst_constraint:.1e} <= 1e-12, "
        f"energy change exceeds 10x drift on {sum(energy_flags)}/9 rows",
    )
