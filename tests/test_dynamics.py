import hashlib
import math

import numpy as np
import pytest

from ternion.dynamics import (
    AngularMomentum,
    MonopoleState,
    ScatteringSetup,
    asymptote_solve,
    general_solution,
    integrate,
    newton_rhs,
    planar_solution,
    scattering_map,
    state_from_general,
    state_from_planar,
    write_scatter_csv,
    write_trajectory_csv,
)
from ternion.errors import (
    DomainError,
    NoSecondSolution,
    OnSingularSet,
    PoleOnRange,
    SingularApproach,
    StepFailure,
)
from ternion.field import FRAME_MATRIX
from ternion.quadrature import adaptive_quad
from ternion.rootfind import brent


def test_newton_rhs_values():
    s = MonopoleState(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert np.allclose(newton_rhs(s, 1.0), [-1.0, -1.0, 0.0], atol=1e-15)
    assert np.allclose(newton_rhs(s, 2.5), 2.5 * newton_rhs(s, 1.0), atol=1e-15)
    with pytest.raises(OnSingularSet):
        newton_rhs(MonopoleState(0.0, 1.0, 0.0, 0, 0, 0), 1.0)


def test_newton_rhs_matches_cartesian_form(rng):
    # -g h in the frame equals -G x/||z||^3 rotated, G = (3 sqrt3/2) g
    from ternion.field import from_frame, FrameVector, h_cartesian

    for _ in range(20):
        l = rng.uniform(0.4, 2.0) * rng.choice([-1, 1])
        r1, r2 = rng.uniform(0.3, 2.0, size=2)
        s = MonopoleState(l, r1, r2, 0, 0, 0)
        g = 1.3
        big_g = 1.5 * math.sqrt(3.0) * g
        z = from_frame(FrameVector(l, r1, r2))
        cart = -big_g * h_cartesian(z)
        rotated = FRAME_MATRIX @ np.array([cart[1], cart[2], cart[0]])
        assert np.allclose(newton_rhs(s, g), rotated, rtol=1e-10, atol=1e-12)


# --- direct integration -----------------------------------------------------


def make_planar():
    return planar_solution(1.0, 1.0, 1.0, 2.0)


def test_planar_solution_basics():
    sol = make_planar()
    assert sol.outcome == "turnaround"
    assert sol.v1(sol.z0) == 0.0
    assert sol.z_tilde1 == pytest.approx(0.2625828410491616, abs=1e-12)
    # r1 blows up toward the asymptotic slopes
    assert abs(sol.r1(1.999999)) > 1e5
    with pytest.raises(DomainError):
        sol.r1(2.5)
    with pytest.raises(DomainError):
        planar_solution(1.0, 0.0, 1.0, 2.0)


def test_planar_center_reaching_branch():
    sol = planar_solution(1.0, 1.0, 0.3, 1.5)  # z1 > e z0
    assert sol.outcome == "center-reaching"
    assert sol.z_tilde1 is None
    assert sol.branch == (0.0, 1.5)
    # finite time to approach the center end of the branch
    assert abs(sol.t(1e-3)) < 1e3


def test_planar_run_conserves_and_matches_closed_form():
    sol = make_planar()
    z_start, z_end = 1.9, 0.35
    s0 = state_from_planar(sol, z_start)
    t_span = sol.t(z_end) - sol.t(z_start)
    traj = integrate(s0, 1.0, s0.t + t_span, tol=1e-10, max_step=t_span / 12000)
    assert traj.n_accepted >= 10**4
    drift = traj.max_m_drift()
    assert drift[2] <= 1e-8  # M2 = 1, so absolute == relative here
    assert max(abs(s[2]) for s in traj.states) <= 1e-9  # stays planar
    assert max(abs(s[5]) for s in traj.states) <= 1e-9
    # closed form r1(z) at 20 matched slopes
    idx = np.linspace(0, len(traj) - 1, 20).astype(int)
    for i in idx:
        st = traj.state(i)
        z = st.l / st.r1
        assert abs(st.r1 - sol.r1(z)) <= 1e-4 * abs(st.r1)
    # time parametrization agrees too
    mid = traj.state(len(traj) // 2)
    assert sol.t(mid.l / mid.r1) - sol.t(z_start) == pytest.approx(mid.t - s0.t, abs=1e-8)


def test_time_reversal_reflection_symmetry():
    sol = make_planar()
    s0 = state_from_planar(sol, 1.7)
    span = sol.t(0.6) - sol.t(1.7)
    fwd = integrate(s0, 1.0, s0.t + span, tol=1e-10)
    end = fwd.final_state()
    # t -> -t, r1 -> -r1 maps solutions to solutions
    mirrored = MonopoleState(end.l, -end.r1, end.r2, -end.v0, end.v1, -end.v2, t=0.0)
    back = integrate(mirrored, 1.0, span, tol=1e-10)
    final = back.final_state()
    expect = (s0.l, -s0.r1, s0.r2, -s0.v0, s0.v1, -s0.v2)
    got = (final.l, final.r1, final.r2, final.v0, final.v1, final.v2)
    assert np.allclose(got, expect, rtol=1e-6, atol=1e-8)


def test_integrate_rejects_bad_time():
    s0 = MonopoleState(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, t=1.0)
    with pytest.raises(DomainError):
        integrate(s0, 1.0, 0.5)


def test_singular_approach_detected():
    # aimed straight at the l = 0 plane
    s0 = MonopoleState(1.0, 1.0, 0.0, -1.0, 0.0, 0.0)
    with pytest.raises(SingularApproach) as info:
        integrate(s0, 1.0, 10.0, tol=1e-8)
    assert info.value.trajectory is not None
    assert len(info.value.trajectory) > 1
    assert info.value.state is not None


def test_step_budget_failure():
    sol = make_planar()
    s0 = state_from_planar(sol, 1.9)
    with pytest.raises(StepFailure):
        integrate(s0, 1.0, s0.t + 30.0, tol=1e-10, max_steps=5)


def test_trajectory_csv(tmp_path):
    sol = make_planar()
    s0 = state_from_planar(sol, 1.5)
    traj = integrate(s0, 1.0, s0.t + 1.0, tol=1e-8)
    path = tmp_path / "traj.csv"
    n = write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,l,r1,r2,v0,v1,v2,M0,M1,M2,E"
    assert len(lines) == n + 1


# Start states and end times of two pinned runs, as the closed forms give them:
# acceptance criterion 9's planar run (z 1.9 -> 0.35 on the (g, M2, z0, z1) =
# (1, 1, 1, 2) trajectory) and criterion 11's general run at (M1, M2) =
# (-1, 1) between the radius-400 edges.  Literals, so that the pins below
# depend on integrate alone.
PLANAR_PIN = (
    (-28.455050669473618, -14.976342457617694, 0.0, 1.2862943611198905, 0.6418538861723947, 0.0),
    34.37286089721492,
)
GENERAL_PIN = (
    (-317.9873143865827, -399.9999999999872, -2.5158570167588787,
     0.39496835231577765, 0.49369057765447144, -1.986274025063536e-05),
    1471.1427307016766,
)


def _digest(traj):
    text = repr((traj.times, traj.states, traj.m_ledger, traj.energy))
    return hashlib.sha256(text.encode()).hexdigest()


def test_integrate_bits_are_pinned():
    # every sample of three runs, bit for bit (repr keeps signed zeros)
    state, t_end = PLANAR_PIN
    traj = integrate(MonopoleState(*state), 1.0, t_end, tol=1e-10, max_step=t_end / 12000)
    assert (traj.n_accepted, traj.n_rejected) == (12001, 0)
    assert _digest(traj) == "69636d853092b5cd88ffd61a0728cc7b7caf7e4314be58e249b9008e9be633a7"

    state, t_end = GENERAL_PIN
    traj = integrate(MonopoleState(*state), 1.0, t_end, tol=1e-10)
    assert (traj.n_accepted, traj.n_rejected) == (175, 0)
    assert _digest(traj) == "80c1ccc72a9c0ff1741e9ea13bf1f80cdb0bde6e7a7e97abecafcea34087c978"

    with pytest.raises(SingularApproach) as info:
        integrate(MonopoleState(1.0, 1.0, 0.0, -1.0, 0.0, 0.0), 1.0, 10.0, tol=1e-8)
    part = info.value.trajectory
    assert str(info.value) == "approached the singular set near t = 0.711046"
    assert (len(part), part.n_accepted, part.n_rejected) == (66, 65, 62)
    assert _digest(part) == "107248426c4a83d9531634971fcad2ea5398d5aba9c6975fe0e7d3730a0c4029"


@pytest.mark.parametrize("pin", [PLANAR_PIN, GENERAL_PIN], ids=["planar", "general"])
def test_integrate_matches_scipy_dop853(pin):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    state, t_end = pin

    def rhs(t, y):
        return [y[3], y[4], y[5], *newton_rhs(MonopoleState(*y), 1.0)]

    ref = solve_ivp(rhs, (0.0, t_end), state, method="DOP853", rtol=1e-12, atol=1e-12)
    assert ref.success
    got = integrate(MonopoleState(*state), 1.0, t_end, tol=1e-10).final_state().as_tuple()
    for a, b in zip(got, ref.y[:, -1]):
        assert abs(a - b) <= 1e-7 * abs(b)


# --- asymptote equation ------------------------------------------------------


def test_asymptote_residual_at_root():
    z0, z1 = 1.3, 2.1
    zt = asymptote_solve(z0, z1)

    def f(z):
        return z * (math.log(z / z0) - 1.0)

    assert abs(f(zt) - f(z1)) <= 1e-12
    assert zt < z0 < z1


def test_asymptote_near_z0_limit():
    z0 = 1.0
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        zt = asymptote_solve(z0, z0 * (1 + eps))
        errs.append(abs(zt - z0 * (1 - eps)))
    # quadratic convergence: err ~ eps^2/3
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(10.0) for i in range(2)]
    assert all(abs(o - 2.0) < 0.2 for o in orders)
    assert errs[2] <= 1e-8


def test_asymptote_deep_scaling_limit():
    z0 = 1.0
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        zt = asymptote_solve(z0, math.e * z0 * (1 - eps))
        ratios.append(zt / (eps * math.e * z0 / math.log(1.0 / eps)))
    # ratio creeps toward 1 with the expected log-log correction
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    for eps, ratio in zip((1e-2, 1e-3, 1e-4), ratios):
        ell = math.log(1.0 / eps)
        assert abs(ratio - 1.0) <= 1.5 * math.log(ell) / ell


def test_asymptote_no_second_solution():
    with pytest.raises(NoSecondSolution):
        asymptote_solve(1.0, 3.0)


# --- general solution --------------------------------------------------------


def test_general_v1_matches_quadrature_oracle():
    g, m0, m1, m2 = 1.0, 0.5, -1.0, 0.8
    sol = general_solution(g, m0, m1, m2, 0.9, 0.1)

    def kernel(y):
        return np.array([1.0 / ((1 + y * y) * (m1 + m2 * y))])

    for y in (0.2, 0.5, 1.2, -0.5, -2.0):
        quad = g * float(adaptive_quad(kernel, 0.9, y, 1e-13)[0])
        assert sol.v1(y) == pytest.approx(quad, abs=1e-9)
    assert sol.v1(0.9) == 0.0


def test_general_antiderivative_matches_quadrature():
    g, m0, m1, m2 = 1.0, 0.5, -1.0, 0.8
    sol = general_solution(g, m0, m1, m2, 0.9, 0.1)

    def v1_over_g(y):
        return np.array([sol.v1(y) / g])

    for y in (0.3, 1.1, -1.0):
        quad = float(adaptive_quad(v1_over_g, 0.1, y, 1e-12)[0])
        assert sol.psi(y) == pytest.approx(quad, abs=1e-9)


def test_general_pole_guard():
    sol = general_solution(1.0, 0.5, -1.0, 0.8, 0.9, 0.1)  # pole at 1.25
    with pytest.raises(PoleOnRange):
        sol.v1(1.4)
    with pytest.raises(PoleOnRange):
        general_solution(1.0, 0.5, -1.0, 0.8, 0.9, 2.0)


def test_general_planar_limit():
    g, m2 = 1.0, 1.0
    psol = planar_solution(g, m2, 1.0, 2.0)
    worst_prev = None
    for m0 in (1e-2, 1e-3, 1e-4):
        m1 = -2.0 * m0  # y1 = 0, z1 = -M1/M0 = 2
        y0 = (2.0 - 1.0) * m0 / m2  # z(y0) = z0 = 1
        gsol = general_solution(g, m0, m1, m2, y0, 0.0)
        worst = 0.0
        for z_star in (1.8, 1.2, 0.6, 0.4):
            y_star = (2.0 - z_star) * m0 / m2
            worst = max(
                worst,
                abs(gsol.v1(y_star) - psol.v1(z_star)),
                abs(gsol.r1(y_star) - psol.r1(z_star)) / abs(psol.r1(z_star)),
            )
        if worst_prev is not None:
            assert worst <= worst_prev * 0.05  # second-order in M0
        worst_prev = worst
    assert worst_prev <= 1e-7


def test_general_run_matches_ode():
    g, m0, m1, m2 = 1.0, 1.25, -1.0, 0.9
    y0, y1 = 0.4227988407622297, 0.0
    sol = general_solution(g, m0, m1, m2, y0, y1)
    ya = 0.05
    yb = 0.70
    s0 = state_from_general(sol, ya)
    assert np.allclose(
        AngularMomentum.from_state(s0).as_array(), [m0, m1, m2], rtol=1e-12, atol=1e-12
    )
    span = sol.t(yb) - sol.t(ya)
    traj = integrate(s0, g, s0.t + span, tol=1e-10)
    idx = np.linspace(0, len(traj) - 1, 15).astype(int)
    for i in idx:
        st = traj.state(i)
        y = st.r2 / st.r1
        assert abs(st.r1 - sol.r1(y)) <= 1e-3 * abs(st.r1)
        assert abs(st.v1 - sol.v1(y)) <= 1e-6 * (1 + abs(st.v1))


# --- scattering --------------------------------------------------------------


def make_setup(m1=-1.0, m2=0.9):
    return ScatteringSetup(g=1.0, y1=0.0, z1=0.8, v1_inf=0.5, m1=m1, m2=m2)


def test_setup_constraint_holds():
    setup = make_setup()
    assert setup.constraint_residual == pytest.approx(0.0, abs=1e-12)
    assert setup.m0 == pytest.approx(1.25)
    assert np.allclose(setup.v_in, [0.4, 0.5, 0.0])


def test_setup_validation():
    with pytest.raises(DomainError):
        ScatteringSetup(g=1.0, y1=0.0, z1=0.0, v1_inf=0.5, m1=-1.0, m2=0.9)
    with pytest.raises(DomainError):
        ScatteringSetup(g=1.0, y1=0.0, z1=0.8, v1_inf=0.5, m1=0.0, m2=0.9)


def test_scattering_map_consistency():
    setup = make_setup()
    res = scattering_map(setup)
    # the exit slope solves psi = 0 away from y1
    sol = general_solution(setup.g, res.m0, setup.m1, setup.m2, res.y0, setup.y1)
    assert abs(sol.psi(res.ytilde1)) <= 1e-11
    assert res.ytilde1 != pytest.approx(setup.y1, abs=1e-6)
    # outgoing velocity relations
    v0, v1, v2 = res.v_out
    assert v2 == pytest.approx(res.ytilde1 * v1, rel=1e-12)
    assert v0 == pytest.approx(-(setup.m1 + setup.m2 * res.ytilde1) * v1 / res.m0, rel=1e-12)
    assert res.energy == pytest.approx(0.5 * float(res.v_out @ res.v_out), rel=1e-12)
    # impact parameter relations: |in-plane rho| = |M2|/|v|, rho_perp = M1/v0
    speed = float(np.linalg.norm(res.v_in))
    assert res.rho_pl == pytest.approx(setup.m2 / speed)
    assert res.rho_perp == pytest.approx(setup.m1 / res.v_in[0], rel=1e-12)


def test_impact_parameter_jacobian_fd():
    # d^2 rho = dM1 dM2 / (|v0| |v|), by finite differences of the rho <-> M map
    setup = make_setup()
    h = 1e-6

    def rho_components(m1, m2):
        s = ScatteringSetup(setup.g, setup.y1, setup.z1, setup.v1_inf, m1, m2)
        v = s.v_in
        m_vec = np.array([s.m0, m1, m2])
        rho_vec = np.cross(v, m_vec) / float(v @ v)
        in_plane = math.hypot(rho_vec[0], rho_vec[1])
        return math.copysign(in_plane, m2), rho_vec[2]

    d_pl_dm2 = (rho_components(setup.m1, setup.m2 + h)[0] - rho_components(setup.m1, setup.m2 - h)[0]) / (2 * h)
    d_pl_dm1 = (rho_components(setup.m1 + h, setup.m2)[0] - rho_components(setup.m1 - h, setup.m2)[0]) / (2 * h)
    d_pp_dm2 = (rho_components(setup.m1, setup.m2 + h)[1] - rho_components(setup.m1, setup.m2 - h)[1]) / (2 * h)
    d_pp_dm1 = (rho_components(setup.m1 + h, setup.m2)[1] - rho_components(setup.m1 - h, setup.m2)[1]) / (2 * h)
    det = abs(d_pl_dm1 * d_pp_dm2 - d_pl_dm2 * d_pp_dm1)
    speed = float(np.linalg.norm(setup.v_in))
    assert det == pytest.approx(1.0 / (abs(setup.v_in[0]) * speed), rel=1e-6)


def test_scattering_matches_ode_late_slope():
    setup = make_setup()
    res = scattering_map(setup)
    sol = general_solution(setup.g, res.m0, setup.m1, setup.m2, res.y0, setup.y1)
    radius = 400.0
    psi_edge = (abs(res.m0) / setup.g) / radius
    ya = brent(lambda y: abs(sol.psi(y)) - psi_edge, setup.y1 + 1e-12, res.y0)
    yb = brent(lambda y: abs(sol.psi(y)) - psi_edge, res.y0, res.ytilde1 - 1e-12)
    s0 = state_from_general(sol, ya)
    span = sol.t(yb) - sol.t(ya)
    traj = integrate(s0, setup.g, s0.t + span, tol=1e-10)
    fs = traj.final_state()
    y_late = fs.r2 / fs.r1 + res.m0 / (fs.r1 * fs.v1)  # tail-corrected slope
    assert abs(y_late - res.ytilde1) <= 1e-3
    # escape asymptotics: slope settles (Cauchy over the last decade of t)
    times = np.array(traj.times)
    slopes = np.array([s[2] / s[1] for s in traj.states])
    last = times >= times[-1] * 0.9
    spans = np.abs(slopes[last] - slopes[-1])
    assert np.max(spans) <= 2e-2 and spans[0] >= spans[-1]
    # position grows linearly in t at late times
    i1 = int(np.searchsorted(times, times[-1] * 0.9))
    dt = times[-1] - times[i1]
    predicted = traj.states[i1][1] + fs.v1 * dt
    assert fs.r1 == pytest.approx(predicted, rel=5e-3)
    # energy is genuinely not conserved
    assert traj.energy_change() > 10 * float(np.max(traj.max_m_drift()))
    # and the ODE energy heads toward the closed-form exit energy
    assert abs(traj.energy[-1] - res.energy) <= 0.05 * res.energy


def test_scattering_no_second_solution_branch():
    # fast incoming monopole: the velocity integral never returns to zero
    setup = ScatteringSetup(g=1.0, y1=0.0, z1=0.8, v1_inf=5.0, m1=-1.0, m2=0.9)
    with pytest.raises(NoSecondSolution):
        scattering_map(setup)


def test_scatter_csv(tmp_path):
    rows = []
    for m1, m2 in ((-1.0, 0.9), (-1.0, 1.1)):
        res = scattering_map(make_setup(m1, m2))
        rows.append((m1, m2, res, "ok"))
    rows.append((-1.0, 99.0, None, "NoSecondSolution"))
    path = tmp_path / "scatter.csv"
    write_scatter_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "M1,M2,ytilde1,E,J,dsigma,status"
    assert len(lines) == 4
    assert lines[-1].endswith("NoSecondSolution")
