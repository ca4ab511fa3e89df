import cmath
import hashlib
import importlib.util
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ternion import dynamics, quadrature
from ternion.config import write_scatter_csv, write_trajectory_csv
from ternion.dynamics import (
    MonopoleState,
    ScatteringSetup,
    angular_momentum,
    asymptote_solve,
    general_solution,
    integrate,
    planar_solution,
    scattering_map,
    state_from_general,
    state_from_planar,
)
from ternion.errors import (
    DomainError,
    NoSecondSolution,
    OnSingularSet,
    PoleOnRange,
    RootFindingFailure,
    SingularApproach,
    StepFailure,
    TernionError,
)
from ternion.field import FRAME_MATRIX
from ternion.quadrature import adaptive_quad
from ternion.rootfind import brent

from oracles import integrate_reference, pointwise


def newton_rhs(s: MonopoleState, g: float) -> np.ndarray:
    """The right-hand side of Newton's equation at the state's position: the
    integrator's acceleration -g h."""
    return np.array(dynamics._accel(s.l, s.r1, s.r2, g))


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


_NON_FINITE = pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])


@_NON_FINITE
@pytest.mark.parametrize("name", ["g", "m2", "z0", "z1"])
def test_planar_solution_rejects_non_finite_input(name, value):
    # a NaN g or M2 used to give NaN v1 and t silently, M2 = inf a time of
    # -inf, and a NaN z0 or z1 to end in RootFindingFailure
    args = {"g": 1.0, "m2": 1.0, "z0": 1.0, "z1": 2.0, name: value}
    with pytest.raises(DomainError, match=f"planar solution needs a finite {name}, got {value}"):
        planar_solution(**args)


def test_planar_solution_rejects_zero_g():
    # g = 0 used to build a solution whose v1 read 0.0 and whose r1 and t
    # raised a bare ZeroDivisionError
    with pytest.raises(DomainError, match="planar solution needs g != 0"):
        planar_solution(0.0, 1.0, 1.0, 2.0)


@_NON_FINITE
@pytest.mark.parametrize("name", ["z0", "z1"])
def test_asymptote_solve_rejects_non_finite_input(name, value):
    # z0 = inf used to raise a bare ValueError, a NaN RootFindingFailure
    args = {"z0": 1.0, "z1": 1.5, name: value}
    with pytest.raises(DomainError, match=f"asymptote equation needs a finite {name}, got {value}"):
        asymptote_solve(**args)


@_NON_FINITE
@pytest.mark.parametrize("name", ["g", "m0", "m1", "m2", "y0", "y1"])
def test_general_solution_rejects_non_finite_input(name, value):
    # y0 = inf used to build a solution whose v1 raised a bare ValueError,
    # and a NaN y0, y1 or g one whose v1 raised PoleOnRange
    args = {"g": 1.0, "m0": 0.5, "m1": -1.0, "m2": 0.8, "y0": 0.9, "y1": 0.1, name: value}
    with pytest.raises(DomainError, match=f"general solution needs a finite {name}, got {value}"):
        general_solution(**args)


@pytest.mark.parametrize("m1, m2", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)])
def test_general_solution_rejects_zero_m1_and_m2(m1, m2):
    # M1 = M2 = 0 used to raise a bare ZeroDivisionError from the log pair's
    # coefficient -0.5i/(M1 + i M2); either alone nonzero still builds
    with pytest.raises(DomainError, match="general solution needs M1 != 0 or M2 != 0"):
        general_solution(1.0, 0.5, m1, m2, 0.9, 0.1)
    assert general_solution(1.0, 0.5, 0.0, 0.8, 0.9, 0.1).v1(0.5) != 0.0
    assert general_solution(1.0, 0.5, -1.0, 0.0, 0.9, 0.1).v1(0.5) != 0.0


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["t_end", "g", "l", "r1", "r2", "v0", "v1", "v2", "t"])
def test_integrate_rejects_non_finite_input_before_a_step(monkeypatch, name, value):
    # a NaN t_end used to return one sample as a success, a NaN l to run
    # the whole step budget
    args = {"g": 1.0, "t_end": 1.0}
    state = {"l": 1.0, "r1": 1.0, "r2": 0.0, "v0": -1.0, "v1": 0.0, "v2": 0.0}
    (args if name in args else state)[name] = value

    def no_step(*a):
        raise AssertionError("integrate evaluated the field")

    monkeypatch.setattr(dynamics, "_accel", no_step)
    with pytest.raises(DomainError, match=f"finite {name}, got {value}"):
        integrate(MonopoleState(**state), args["g"], args["t_end"])


@pytest.mark.parametrize(
    "name, value",
    [("tol", 0.0), ("tol", -1e-10), ("tol", math.nan), ("tol", math.inf),
     ("max_step", 0.0), ("max_step", -1.0), ("max_step", math.nan), ("max_step", math.inf)],
)
def test_integrate_rejects_a_tol_or_max_step_not_finite_and_positive(monkeypatch, name, value):
    # past this check a tol of 0.0 divides by zero in the error norm, a NaN
    # or inf tol accepts every step, a negative tol or a NaN max_step runs
    # into the singular set and a max_step <= 0 ends in step size underflow
    def no_step(*a):
        raise AssertionError("integrate evaluated the field")

    monkeypatch.setattr(dynamics, "_accel", no_step)
    with pytest.raises(DomainError, match=f"finite {name} > 0, got {value}$"):
        integrate(MonopoleState(1.0, 0.5, 0.2, 0.1, 0.2, 0.0), 1.0, 1.0, **{name: value})


def test_singular_approach_detected():
    # aimed straight at the l = 0 plane
    s0 = MonopoleState(1.0, 1.0, 0.0, -1.0, 0.0, 0.0)
    with pytest.raises(SingularApproach) as info:
        integrate(s0, 1.0, 10.0, tol=1e-8)
    assert info.value.trajectory is not None
    assert len(info.value.trajectory) > 1
    # the last good state is the trajectory's final sample
    assert all(map(math.isfinite, info.value.trajectory.final_state().as_tuple()))


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
    assert _digest(traj) == "818d4a31ef9aee9002e946a0d9c417c4fb33b330f3c12f9bb23d879fb9dcc3c7"

    state, t_end = GENERAL_PIN
    traj = integrate(MonopoleState(*state), 1.0, t_end, tol=1e-10)
    assert (traj.n_accepted, traj.n_rejected) == (44, 3)
    assert _digest(traj) == "3c9cd7267d30a71aa116136fea2871af545d5bf4a598d48945d8829e64723bb7"

    with pytest.raises(SingularApproach) as info:
        integrate(MonopoleState(1.0, 1.0, 0.0, -1.0, 0.0, 0.0), 1.0, 10.0, tol=1e-8)
    part = info.value.trajectory
    assert str(info.value) == "approached the singular set near t = 0.711046"
    assert (len(part), part.n_accepted, part.n_rejected) == (32, 31, 2)
    assert _digest(part) == "14d0b906aa7b01832865a680227b8dc6044c4f9e09f96693e88298574d611e2f"


def test_step_budget_failure(monkeypatch):
    # the budget counts accepted plus rejected steps; the samples and both
    # counts so far travel with the error
    monkeypatch.setattr(dynamics, "MAX_STEPS", 5)
    sol = make_planar()
    s0 = state_from_planar(sol, 1.9)
    with pytest.raises(StepFailure) as info:
        integrate(s0, 1.0, s0.t + 30.0, tol=1e-10)
    part = info.value.trajectory
    assert str(info.value) == "step budget 5 exhausted at t = 7.83166381795418"
    assert (len(part), part.n_accepted, part.n_rejected) == (5, 4, 1)
    assert _digest(part) == "dd9a551af7342ec35bccd08a863750cdb9399540252efdd2e6dbe32fe0cf5a61"

    monkeypatch.setattr(dynamics, "MAX_STEPS", 25)
    with pytest.raises(StepFailure) as info:
        integrate(MonopoleState(1.0, 1.0, 0.0, -1.0, 0.0, 0.0), 1.0, 10.0, tol=1e-8)
    part = info.value.trajectory
    assert str(info.value) == "step budget 25 exhausted at t = 0.7108308327230335"
    assert (len(part), part.n_accepted, part.n_rejected) == (24, 23, 2)
    assert _digest(part) == "31c7ff36fe2b6e4d4bc49e19f8050bcc538f258f2dd5cac42194d920870261b5"


def test_step_size_underflow_failure():
    # at tol 1e-100 no step passes: 19 rejections shrink dt by 5x each until
    # it falls below the floor 1e-14 max(1, |t|)
    sol = make_planar()
    s0 = state_from_planar(sol, 1.9)
    with pytest.raises(StepFailure) as info:
        integrate(s0, 1.0, s0.t + 30.0, tol=1e-100)
    part = info.value.trajectory
    assert str(info.value) == "step size underflow at t = 0.0"
    assert (len(part), part.n_accepted, part.n_rejected) == (1, 0, 19)
    assert _digest(part) == "ab52208f61afba2ae128f35ee01333d9d0514c1c17ef86b74d5bffbd3cce57d7"

    # at t = 1e10 the floor is 1e-4: the run aimed at the l = 0 plane meets it
    # before the singular-approach guard
    s0 = MonopoleState(1.0, 1.0, 0.0, -1.0, 0.0, 0.0, t=1e10)
    with pytest.raises(StepFailure) as info:
        integrate(s0, 1.0, 1e10 + 10.0, tol=1e-8)
    part = info.value.trajectory
    assert str(info.value) == "step size underflow at t = 10000000000.710833"
    assert (len(part), part.n_accepted, part.n_rejected) == (24, 23, 2)
    assert _digest(part) == "6b15018b3e2884a84212c59be194804c7142534a34b74ddb068580abe36b0858"


@pytest.mark.parametrize("tol", [1e-200, 1e-300])
def test_error_norm_overflow_is_a_step_failure(tol):
    # the first step's error over tol squares past the float range, which
    # float ** reports as a bare OverflowError
    sol = make_planar()
    s0 = state_from_planar(sol, 1.9)
    with pytest.raises(StepFailure) as info:
        integrate(s0, 1.0, s0.t + 30.0, tol=tol)
    part = info.value.trajectory
    assert str(info.value) == f"error norm overflows at t = 0.0: tol = {tol} is too small to resolve"
    assert (len(part), part.n_accepted, part.n_rejected) == (1, 0, 0)
    assert part.states == [s0.as_tuple()]


def test_nan_error_norm_is_a_step_failure():
    # v1 = 1e308 sends a stage's position to inf, and 0 * inf makes the error
    # sums NaN: a NaN norm must stop the run, not pass as an error of 0
    s0 = MonopoleState(1.0, 1.0, 0.0, 0.0, 1e308, 0.0)
    with pytest.raises(StepFailure) as info:
        integrate(s0, 1.0, 1e10)
    part = info.value.trajectory
    assert str(info.value) == "error norm is NaN at t = 0.0: a stage left the float range"
    assert (len(part), part.n_accepted, part.n_rejected) == (1, 0, 0)
    assert part.states == [s0.as_tuple()]
    assert _outcome(integrate_reference, s0, 1.0, 1e10) == _outcome(integrate, s0, 1.0, 1e10)


def _outcome(run, s0, g, t_end, **kw):
    """How a run ended ("ok" or the error's type name) and everything it
    left, as text that keeps every bit and signed zero: the samples and
    counts, and for a stop the error's message and state."""
    try:
        traj, stop = run(s0, g, t_end, **kw), None
    except TernionError as exc:
        traj, stop = getattr(exc, "trajectory", None), exc
    samples = None if traj is None else (traj.times, traj.states, traj.n_accepted, traj.n_rejected)
    if stop is None:
        return "ok", repr(samples)
    return type(stop).__name__, repr((str(stop), getattr(stop, "state", None), samples))


def _reference_batch(rng):
    """Seeded (s0, g, t_end, kwargs) runs: planar, general and centre-reaching
    states, starts on the singular sets, one late start, with and without
    max_step."""
    runs = []
    for i in range(60):
        sign = rng.choice([-1.0, 1.0], size=3)
        l, r1, r2 = sign * rng.uniform(0.3, 2.0, size=3)
        v0, v1, v2 = rng.uniform(-1.5, 1.5, size=3)
        kind = i % 3
        if kind == 0:  # planar: r2 = v2 = 0, so signed zeros are in play
            r2, v2 = 0.0, -0.0 if i % 2 else 0.0
        elif kind == 2:  # centre-reaching: headed at the origin
            k = rng.uniform(0.5, 2.0)
            v0, v1, v2 = -k * l, -k * r1, -k * r2
        t0 = float(rng.uniform(-5.0, 5.0))
        kw = {"tol": float(10.0 ** rng.uniform(-11.0, -6.0))}
        if i % 4 == 1:
            kw["max_step"] = float(rng.uniform(0.01, 0.5))
        state = MonopoleState(float(l), float(r1), float(r2), float(v0), float(v1), float(v2), t=t0)
        runs.append((state, float(rng.uniform(0.5, 2.0)), t0 + float(rng.uniform(0.5, 6.0)), kw))
    # Nearly straight first steps of dt = 0.01 that put stage k's position
    # (node c_k, k = 2..11) on the l = 0 plane, or 1e-8 off the r1 axis, with
    # the stages before it off the singular set and the step's end past it:
    # stage k's admissibility test alone stops the run.  Stage 12 shares the
    # node 1 with the step's end, whose own test stops the same runs.
    for c in dynamics._C[:-1]:
        for s0 in (
            MonopoleState(0.01 * c, 1.0, 0.0, -1.0, 0.0, 0.0),
            MonopoleState(1.0, 0.01 * c + 1e-8, 0.0, 0.0, -1.0, 0.0),
        ):
            runs.append((s0, 1e-12, 2.0, {"max_step": 0.01}))
    runs += [
        (MonopoleState(0.0, 1.0, 0.5, 0.1, 0.0, 0.0), 1.0, 1.0, {}),  # on l = 0
        (MonopoleState(1.0, 0.0, 0.0, 0.1, 0.2, 0.0), 1.0, 1.0, {}),  # on r = 0
        (MonopoleState(1.0, 1.0, 0.0, -1.0, 0.0, 0.0, t=1e10), 1.0, 1e10 + 10.0, {"tol": 1e-8}),
        (MonopoleState(1.0, 1.0, 0.0, -1.0, 0.0, 0.0), 1.0, 10.0, {"tol": 1e-100}),
        (MonopoleState(1.0, 1.0, 0.0, -1.0, 0.0, 0.0), 1.0, 10.0, {"tol": 1e-300}),
        (MonopoleState(*GENERAL_PIN[0]), 1.0, GENERAL_PIN[1], {}),
        # errors near 1e-163, whose squares underflow in the predictive factor
        (MonopoleState(1.0, 1.0, 0.0, 0.1, 0.2, 0.0), 1e-165, 10.0, {}),
    ]
    return runs


@pytest.mark.parametrize(
    "patch", [{}, {"MAX_STEPS": 10}, {"EPS_FIELD": 0.05}], ids=["shipped", "budget", "margin"]
)
def test_integrate_matches_the_reference_loop_bit_for_bit(monkeypatch, patch):
    # integrate writes each stage's acceleration out; the reference calls
    # _accel per stage.  A budget of 10 ends most runs on the budget exit.  In
    # the seeded runs the singular-approach guard trips before a stage's
    # admissibility test at EPS_FIELD = 1e-8; a margin of 0.05 lets the stage
    # tests stop them.
    for name, value in patch.items():
        monkeypatch.setattr(dynamics, name, value)
    ends = set()
    for s0, g, t_end, kw in _reference_batch(np.random.default_rng(14)):
        got = _outcome(integrate, s0, g, t_end, **kw)
        assert got == _outcome(integrate_reference, s0, g, t_end, **kw), (s0, g, t_end, kw)
        ends.add(got[0])
    assert ends == {"ok", "SingularApproach", "StepFailure"}


def test_trajectory_csv_bits_are_pinned(tmp_path):
    # the writer derives the M and E columns from the states
    state, t_end = PLANAR_PIN
    traj = integrate(MonopoleState(*state), 1.0, t_end, tol=1e-10, max_step=t_end / 12000)
    path = tmp_path / "traj.csv"
    assert write_trajectory_csv(traj, path) == 12002
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "30e0f0649dda88cee682f025a0af61778e86ab86724808f6931c19e8f8c9e1e7"


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


def test_predictive_control_ends_the_rejection_cycle():
    # Near closest approach the step shrinks steadily.  Growing it after every
    # accept by err^(-1/8) alone made accepts and rejects alternate: 44
    # accepted / 17 rejected on the general pin, 34 / 32 on the collapse.  The
    # predictive factor caps that growth by the last two accepts.
    state, t_end = GENERAL_PIN
    traj = integrate(MonopoleState(*state), 1.0, t_end, tol=1e-10)
    assert (traj.n_accepted, traj.n_rejected) == (44, 3)
    with pytest.raises(SingularApproach) as info:
        integrate(MonopoleState(1.0, 1.0, 0.0, -1.0, 0.0, 0.0), 1.0, 10.0, tol=1e-8)
    part = info.value.trajectory
    assert (part.n_accepted, part.n_rejected) == (31, 2)

    # fewer steps, same accuracy: the general pin's end within 1e-8 of a
    # tight scipy DOP853 run in every component
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def rhs(t, y):
        return [y[3], y[4], y[5], *newton_rhs(MonopoleState(*y), 1.0)]

    ref = solve_ivp(rhs, (0.0, t_end), state, method="DOP853", rtol=1e-13, atol=1e-13)
    assert ref.success
    for a, b in zip(traj.final_state().as_tuple(), ref.y[:, -1]):
        assert abs(a - b) <= 1e-8 * abs(b)


# scipy 1.17.1's DOP853 nodes c_2 .. c_12 (dop853_coefficients.C), which
# integrate derives as the row sums of its A
DOP853_C = (
    0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
)


def _exact_sum(terms):
    """The exact sum of float products (pairs) and the largest |term|."""
    terms = [Fraction(a) * Fraction(b) for a, b in terms]
    return sum(terms, Fraction(0)), max((abs(x) for x in terms), default=Fraction(0))


def test_dop853_tableau_conditions():
    # each sum of the literals, exactly, to 1e-15 of its largest term: the
    # literals of size ~40 in rows 9-12 round by up to 3.6e-15 each
    rows = list(zip(dynamics._DOP853_A, DOP853_C))
    rows += [(dynamics._DOP853_B, 1.0), (dynamics._DOP853_E5, 0.0), (dynamics._DOP853_E3, 0.0)]
    for row, want in rows:
        total, largest = _exact_sum((w, 1.0) for w in row)
        assert abs(total - Fraction(want)) <= Fraction(1e-15) * largest, (row, want)
    for c, row in zip(dynamics._C, dynamics._DOP853_A):
        total, largest = _exact_sum((w, 1.0) for w in row)
        assert abs(Fraction(c) - total) <= Fraction(1e-15) * largest


def test_nystrom_tables_match_exact_sums_of_products():
    # abar = A A, bbar = b A and ebar = E A (b as row 13), each entry to
    # 1e-15 of its sum's largest product; an entry with no nonzero product
    # is exactly 0.0, which the generated step leaves out
    a = ((),) + dynamics._DOP853_A + (dynamics._DOP853_B,)
    tables = [(row, dynamics._ABAR[i]) for i, row in enumerate(dynamics._DOP853_A)]
    tables += [
        (dynamics._DOP853_B, dynamics._BBAR),
        (dynamics._DOP853_E5, dynamics._EBAR5),
        (dynamics._DOP853_E3, dynamics._EBAR3),
    ]
    for w, got in tables:
        assert len(got) == len(w) - 1
        for k, value in enumerate(got):
            total, largest = _exact_sum((w[j], a[j][k]) for j in range(k + 1, len(w)))
            if largest == 0:
                assert value == 0.0
            else:
                assert abs(Fraction(value) - total) <= Fraction(1e-15) * largest


def test_generated_step_names_no_global_but_abs_and_on_singular_set():
    # a libm call inside the step would tie its bits to the host; math.sqrt
    # belongs to the controller alone
    assert set(dynamics._step.__code__.co_names) == {"abs", "OnSingularSet"}


def test_integrate_has_order_eight():
    # at tol 1e-2 a fixed max_step h sets every step after the first few, and
    # no step is rejected; halving h cuts the final-state error by 2^8 for an
    # 8th-order method, here by more than 2^7
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    state, t_end = PLANAR_PIN

    def rhs(t, y):
        return [y[3], y[4], y[5], *newton_rhs(MonopoleState(*y), 1.0)]

    ref = solve_ivp(rhs, (0.0, t_end), state, method="DOP853", rtol=1e-13, atol=1e-13)
    assert ref.success
    errors = []
    for h in (t_end / 16, t_end / 32):
        traj = integrate(MonopoleState(*state), 1.0, t_end, tol=1e-2, max_step=h)
        assert traj.n_rejected == 0
        got = traj.final_state().as_tuple()
        errors.append(max(abs(x - y) for x, y in zip(got, ref.y[:, -1])))
    assert errors[0] >= 2.0**7 * errors[1], errors


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


def test_asymptote_matches_lambertw():
    # with w = ln(z/(e z0)) the equation is w e^w = f(z1)/(e z0): the second
    # asymptote is the other real Lambert-W branch, z = f(z1)/w
    lambertw = pytest.importorskip("scipy.special").lambertw
    for z0 in (1e-300, 1e-3, 0.3, 1.0, 40.0, 1e300):
        for ratio in (1e-6, 1e-3, 0.1, 0.5, 0.99, 1.01, 1.5, 2.0, 2.5, 2.7, 2.718, 2.7182):
            z1 = z0 * ratio
            c = z1 * (math.log(z1 / z0) - 1.0)
            want = c / lambertw(c / (math.e * z0), -1 if z1 > z0 else 0).real
            assert want >= 1e-6 * z0
            assert asymptote_solve(z0, z1) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_general_v1_matches_quadrature_oracle():
    g, m0, m1, m2 = 1.0, 0.5, -1.0, 0.8
    sol = general_solution(g, m0, m1, m2, 0.9, 0.1)

    def kernel(y):
        return np.array([1.0 / ((1 + y * y) * (m1 + m2 * y))])

    for y in (0.2, 0.5, 1.2, -0.5, -2.0):
        quad = g * float(adaptive_quad(pointwise(kernel), 0.9, y, 1e-13)[0])
        assert sol.v1(y) == pytest.approx(quad, abs=1e-9)
    assert sol.v1(0.9) == 0.0


def test_general_antiderivative_matches_quadrature():
    g, m0, m1, m2 = 1.0, 0.5, -1.0, 0.8
    sol = general_solution(g, m0, m1, m2, 0.9, 0.1)

    def v1_over_g(y):
        return np.array([sol.v1(y) / g])

    for y in (0.3, 1.1, -1.0):
        quad = float(adaptive_quad(pointwise(v1_over_g), 0.1, y, 1e-12)[0])
        assert sol.psi(y) == pytest.approx(quad, abs=1e-9)


def test_general_pole_guard():
    sol = general_solution(1.0, 0.5, -1.0, 0.8, 0.9, 0.1)  # pole at 1.25
    for y in (1.25, 1.4, 3.0):
        for fun in (sol.v1, sol.psi, sol.r1, sol.t):
            with pytest.raises(PoleOnRange):
                fun(y)
        with pytest.raises(PoleOnRange):
            sol.psi(np.array([0.5, y, 0.7]))
    # -1 + 0.8 y is exactly 0 at the pole: y1 across it or on it, y0 on it
    for y0, y1, named in ((0.9, 2.0, 2.0), (0.9, 1.25, 1.25), (1.25, 0.1, 1.25), (1.25, 1.25, 1.25)):
        with pytest.raises(PoleOnRange) as exc:
            general_solution(1.0, 0.5, -1.0, 0.8, y0, y1)
        assert str(exc.value) == f"y = {named} and y = {y0} straddle the pole at y = 1.25"


def test_y1_on_the_rounded_pole_has_no_base_slope(monkeypatch):
    # fl(-1/49) is not -1/49: M1 + M2 y1 = 1.1e-16, so the setup stands, and
    # the solve stops before its walk evaluates any trial base slope
    m1, m2 = 1.0, 49.0
    y1 = -m1 / m2
    assert m1 + m2 * y1 != 0.0
    calls = []
    v1 = dynamics._Coefficients._v1
    monkeypatch.setattr(dynamics._Coefficients, "_v1", lambda self, *a: calls.append(a) or v1(self, *a))
    for v1_inf in (0.5, -0.5):
        setup = ScatteringSetup(g=1.0, y1=y1, z1=0.8, v1_inf=v1_inf, m1=m1, m2=m2)
        with pytest.raises(RootFindingFailure) as exc:
            scattering_map(setup)
        assert str(exc.value) == f"no base slope y0 matches v1_inf = {v1_inf} (M1 = 1.0, M2 = 49.0)"
    assert calls == []


def test_general_time_refuses_y1_and_beyond(monkeypatch):
    # psi(y1) = 0, so the kernel psi^-2 has a non-integrable pole at y1
    sol = general_solution(1.0, 0.5, -1.0, 0.8, 0.9, 0.1)
    assert math.isfinite(sol.t(0.5))

    def no_quadrature(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(dynamics, "adaptive_quad", no_quadrature)
    for y in (0.1, -1 / 6):
        with pytest.raises(DomainError, match="y1 = 0.1"):
            sol.t(y)


def test_general_time_refuses_the_exit_slope_and_beyond(monkeypatch):
    # psi also vanishes at the exit slope ytilde1 (README point, ytilde1 ~ 0.8023)
    res = scattering_map(ScatteringSetup(g=1.0, y1=0.0, z1=0.8, v1_inf=0.5, m1=-1.0, m2=0.9))
    sol = general_solution(1.0, res.m0, -1.0, 0.9, res.y0, 0.0)
    assert math.isfinite(sol.t(res.ytilde1 - 1e-3))

    def no_quadrature(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(dynamics, "adaptive_quad", no_quadrature)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in (res.ytilde1, res.ytilde1 + 0.05, res.ytilde1 + 0.2):
            with pytest.raises(DomainError, match="exit slope"):
                sol.t(y)


# --- array closed forms ---------------------------------------------------

EPS = np.finfo(float).eps


def _antiderivative_terms(sol, y):
    """The magnitudes of the terms _antiderivative adds at the slope y,
    summed: the scale of its rounding."""
    w = complex(y, -1.0)
    pair = 2.0 * abs(sol._a * w * (cmath.log(w / complex(sol.y0, -1.0)) - 1.0))
    num = sol.m1 + sol.m2 * y
    ratio = num / (sol.m1 + sol.m2 * sol.y0)
    return pair + abs(sol._c3 * (num / sol.m2) * (math.log(ratio) - 1.0))


def _general_draws(rng, n):
    """n general solutions whose base slopes lie on one side of the pole,
    at least 0.05 from it and from each other."""
    sols = []
    while len(sols) < n:
        m1, m2 = rng.uniform(-2.0, 2.0, 2)
        y0, y1 = rng.uniform(-1.0, 1.0, 2)
        pole = -m1 / m2
        if (y0 - pole) * (y1 - pole) > 0.0 and min(abs(y0 - pole), abs(y1 - pole), abs(y0 - y1)) > 0.05:
            sols.append(general_solution(rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0), m1, m2, y0, y1))
    return sols


def test_array_antiderivative_and_psi_match_the_float_path(rng):
    # numpy's complex log and products round differently from cmath's, so
    # each element agrees within 4 ulp of the largest term it sums
    for sol in _general_draws(rng, 40):
        side = math.copysign(1.0, sol.y0 - sol.pole)
        line = sol.pole + side * rng.uniform(0.01, 3.0, 30)
        grid = sol.pole + side * (rng.uniform(0.01, 1.5, (6, 1)) + rng.uniform(0.0, 1.5, (1, 5)))
        base = _antiderivative_terms(sol, sol.y1)
        for ys in (line, grid):
            got_a, got_psi = sol._antiderivative(ys, np), sol.psi(ys)
            assert got_a.shape == got_psi.shape == ys.shape
            for i in np.ndindex(ys.shape):
                y = float(ys[i])
                terms = _antiderivative_terms(sol, y)
                assert abs(got_a[i] - sol._antiderivative(y)) <= 4 * EPS * terms
                assert abs(got_psi[i] - sol.psi(y)) <= 4 * EPS * (terms + base)


def test_array_planar_kernel_matches_the_float_path(rng):
    # numpy's log rounds some inputs differently from libm's: each element
    # agrees within 2 ulp of |z| (|ln(z/z0)| + 1)
    z, z0 = rng.uniform(0.01, 5.0, (40, 1)), rng.uniform(0.1, 3.0, (1, 7))
    for zs, z0s in ((z[:, 0], 1.3), (z, z0)):
        got = dynamics._f_planar(zs, z0s)
        zb, z0b = np.broadcast_arrays(zs, z0s)
        assert got.shape == zb.shape
        for i in np.ndindex(got.shape):
            zi, z0i = float(zb[i]), float(z0b[i])
            bound = 2 * EPS * zi * (abs(math.log(zi / z0i)) + 1.0)
            assert abs(got[i] - dynamics._f_planar(zi, z0i)) <= bound


@pytest.mark.parametrize("kernel", ["psi", "_antiderivative"])
def test_array_closed_form_raises_the_first_faulting_slopes_error(kernel):
    # pole at 1.25: psi and _antiderivative test that num/den > 0 against y0
    sol = general_solution(1.0, 0.5, -1.0, 0.8, 0.9, 0.1)
    fun = getattr(sol, kernel)
    array_fun = sol.psi if kernel == "psi" else lambda ys: sol._antiderivative(ys, np)
    ys = np.array([0.2, 0.5, 1.5, 0.7, 1.8])
    with pytest.raises(PoleOnRange) as want:
        fun(1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleOnRange) as got:
            array_fun(ys)
        with pytest.raises(PoleOnRange) as got_grid:
            array_fun(ys[:, None] + np.zeros((1, 3)))
    assert str(got.value) == str(got_grid.value) == str(want.value)


def test_psi_memo_keeps_the_bits_of_a_fresh_solution():
    args = (1.0, 0.5, -1.0, 0.8, 0.9, 0.1)
    ys = np.array([0.3, 0.6, 0.9, 1.1])
    for y in (0.3, ys):
        sol = general_solution(*args)
        want = sol._antiderivative(y, dynamics._lib(y)) - sol._antiderivative(sol.y1)
        first, again = sol.psi(y), sol.psi(y)
        assert sol._base_term == sol._antiderivative(sol.y1)
        for got in (first, again, general_solution(*args).psi(y)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _planar_times(rng, n):
    """(solution, z) pairs on turnaround branches, z between 10% and 90%
    of the way from z0 to a branch end."""
    out = []
    for _ in range(n):
        g, m2, z0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)
        sol = planar_solution(g, m2, z0, z0 * rng.uniform(1.1, 2.5))
        end = sol.branch[rng.integers(2)]
        out.append((sol, sol.z0 + rng.uniform(0.1, 0.9) * (end - sol.z0)))
    return out


def test_closed_form_times_match_scipy_quad(rng):
    quad = pytest.importorskip("scipy.integrate").quad
    for sol, z in _planar_times(rng, 12):
        c = dynamics._f_planar(sol.z1, sol.z0)
        ref, _ = quad(
            lambda u: (dynamics._f_planar(u, sol.z0) - c) ** -2.0, sol.z0, z, epsabs=0.0, epsrel=1e-13, limit=200
        )
        assert sol.t(z) == pytest.approx(-(sol.m2**3 / sol.g**2) * ref, rel=1e-10, abs=0.0)
    # psi has one sign on (y1, y0]; draws where |psi(y0)| < 0.05 are left
    # out, because there the kernel integral outgrows what the absolute
    # TIME_TOL can resolve within the evaluation budget
    sols = [sol for sol in _general_draws(rng, 40) if abs(sol.psi(sol.y0)) >= 0.05]
    assert len(sols) >= 12
    for sol in sols[:12]:
        y = sol.y1 + rng.uniform(0.3, 0.95) * (sol.y0 - sol.y1)
        ref, _ = quad(lambda u: sol.psi(u) ** -2.0, sol.y0, y, epsabs=0.0, epsrel=1e-13, limit=200)
        assert sol.t(y) == pytest.approx((sol.m0 / sol.g**2) * ref, rel=1e-10, abs=0.0)


def test_time_kernels_run_once_per_bisection_on_both_halves(monkeypatch):
    # per integral, one call on the first cell's 15 nodes, then one per
    # bisection on the 30 nodes of its two halves
    integrals = []  # [cells, node counts of the kernel's calls]
    evaluate = quadrature._cells

    def counted_cells(f, boxes, budget):
        integrals[-1][0] += len(boxes)
        return evaluate(f, boxes, budget)

    def counted_quad(f, a, b, tol):
        counts = [0, []]
        integrals.append(counts)

        def kernel(u):
            counts[1].append(len(u))
            return f(u)

        return quadrature.adaptive_quad(kernel, a, b, tol)

    monkeypatch.setattr(quadrature, "_cells", counted_cells)
    monkeypatch.setattr(dynamics, "adaptive_quad", counted_quad)
    planar_solution(1.0, 1.0, 1.0, 2.0).t(1.9)
    general_solution(1.0, 0.5, -1.0, 0.8, 0.9, 0.1).t(0.2)
    assert len(integrals) == 2 and all(cells > 2 for cells, _ in integrals)
    for cells, node_counts in integrals:
        assert node_counts == [15] + [30] * (len(node_counts) - 1)
        assert cells % 2 == 1 and len(node_counts) == (cells + 1) // 2


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
        angular_momentum(s0.as_tuple()), [m0, m1, m2], rtol=1e-12, atol=1e-12
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["g", "y1", "z1", "v1_inf", "m1", "m2"])
def test_setup_rejects_non_finite_fields(name, value):
    # a NaN M1, M2, y1, g or v1_inf used to read RootFindingFailure from
    # the map, a NaN z1 NumericalBreakdown
    fields = {"g": 1.0, "y1": 0.0, "z1": 0.8, "v1_inf": 0.5, "m1": -1.0, "m2": 0.9, name: value}
    with pytest.raises(DomainError, match=f"finite {name}, got {value}"):
        ScatteringSetup(**fields)


def test_scattering_map_consistency():
    setup = make_setup()
    res = scattering_map(setup)
    # the exit slope solves psi = 0 away from y1
    sol = general_solution(setup.g, res.m0, setup.m1, setup.m2, res.y0, setup.y1)
    assert abs(sol.psi(res.ytilde1)) <= 1e-11
    assert res.ytilde1 != pytest.approx(setup.y1, abs=1e-6)
    # outgoing velocity relations; the velocities are float triples
    assert all(type(v) is float for v in res.v_out + res.v_in)
    v0, v1, v2 = res.v_out
    assert v2 == pytest.approx(res.ytilde1 * v1, rel=1e-12)
    assert v0 == pytest.approx(-(setup.m1 + setup.m2 * res.ytilde1) * v1 / res.m0, rel=1e-12)
    assert res.energy == pytest.approx(0.5 * (v0 * v0 + v1 * v1 + v2 * v2), rel=1e-12)
    # E is the formula the Jacobian differentiates, v1_out^2 (1 + ytilde1^2 + R^2)/2
    r = (setup.m1 + setup.m2 * res.ytilde1) / res.m0
    assert res.energy == 0.5 * (v1 * v1 * (1.0 + res.ytilde1 * res.ytilde1 + r * r))
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
        v = np.array(s.v_in)
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


def _dense_scan_roots(f, start, direction, span, pole):
    """Every root of f beyond start: brentq on each sign change of a dense
    geometric scan out to 1e9 spans, or up to the pole when it lies ahead."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    if pole is not None and (pole - start) * direction > 0.0:
        dist = abs(pole - start)
        steps = np.geomspace(1e-12, 1.0, 1500)
        offsets = np.unique(np.concatenate([dist * steps, dist * (1.0 - steps)]))
        offsets = offsets[(offsets > 0.0) & (offsets < dist)]
    else:
        offsets = span * np.geomspace(1e-10, 1e9, 3000)
    xs = [start + direction * float(d) for d in offsets]
    fs = [f(x) for x in xs]
    roots = []
    for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:]):
        if (fa > 0.0) != (fb > 0.0):
            roots.append(brentq(f, a, b, xtol=1e-300, rtol=4 * np.finfo(float).eps))
    return roots


@pytest.mark.parametrize(
    "y1, z1, v1_inf, m1_grid, m2_grid",
    [
        (0.0, 0.8, 0.5, (-1.2, -1.0, -0.8), (0.9, 1.0, 1.1)),  # README 3x3: all ok
        (0.2, 0.9, 0.6, (-2.0,), (-2.0, 0.2, 1.0)),  # pinned 1x3: one row per status
    ],
)
def test_scattering_roots_match_dense_scan_brentq(y1, z1, v1_inf, m1_grid, m2_grid):
    g = 1.0
    for m1 in m1_grid:
        for m2 in m2_grid:
            m0 = -(m1 + m2 * y1) / z1
            pole = -m1 / m2

            def vel(y0):
                return general_solution(g, m0, m1, m2, y0, y1).v1(y1) - v1_inf

            y0s = [y for d in (1.0, -1.0) for y in _dense_scan_roots(vel, y1, d, 1.0 + abs(y1), pole)]
            assert len(y0s) <= 1
            setup = ScatteringSetup(g=g, y1=y1, z1=z1, v1_inf=v1_inf, m1=m1, m2=m2)
            if not y0s:
                with pytest.raises(RootFindingFailure):
                    scattering_map(setup)
                continue
            sol = general_solution(g, m0, m1, m2, y0s[0], y1)
            direction = math.copysign(1.0, y0s[0] - y1)
            ytildes = _dense_scan_roots(sol.psi, y0s[0], direction, 1.0 + abs(y0s[0] - y1), pole)
            assert len(ytildes) <= 1
            if not ytildes:
                with pytest.raises(NoSecondSolution):
                    scattering_map(setup)
                continue
            res = scattering_map(setup)
            assert res.y0 == pytest.approx(y0s[0], rel=1e-12, abs=0.0)
            assert res.ytilde1 == pytest.approx(ytildes[0], rel=1e-12, abs=0.0)


def test_scattering_map_builds_one_solution_and_one_base_term(monkeypatch):
    # the base-slope solve's trials share one coefficient set and build no
    # solution; a map that reaches the exit-slope solve builds one, whose psi
    # evaluates A(y1) once.  The grid holds every status of the 12x12 CLI pin.
    cls = dynamics.GeneralSolution
    init, antiderivative = cls.__init__, cls._antiderivative
    solve_y0, solve_ytilde1 = dynamics._solve_y0, dynamics._solve_ytilde1
    built, base_terms, reached = [], [], []

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def counted_antiderivative(self, y, m=math):
        if m is math and y == self.y1:
            base_terms.append(self)
        return antiderivative(self, y, m)

    def solve_y0_building_nothing(*args):
        y0 = solve_y0(*args)
        assert built == []
        return y0

    def noted_solve_ytilde1(sol):
        reached.append(sol)
        return solve_ytilde1(sol)

    monkeypatch.setattr(cls, "__init__", counted_init)
    monkeypatch.setattr(cls, "_antiderivative", counted_antiderivative)
    monkeypatch.setattr(dynamics, "_solve_y0", solve_y0_building_nothing)
    monkeypatch.setattr(dynamics, "_solve_ytilde1", noted_solve_ytilde1)
    statuses = {}
    for m1 in np.linspace(-2.0, 2.0, 12):
        for m2 in np.linspace(-2.0, 2.0, 12):
            for log in (built, base_terms, reached):
                log.clear()
            try:
                scattering_map(ScatteringSetup(1.0, 0.2, 0.9, 0.6, float(m1), float(m2)))
                status = "ok"
            except TernionError as exc:
                status = type(exc).__name__
            statuses[status] = statuses.get(status, 0) + 1
            assert len(reached) <= 1
            assert built == reached == base_terms
    assert statuses == {"ok": 88, "NoSecondSolution": 31, "RootFindingFailure": 25}


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


# --- analytic scattering Jacobian --------------------------------------------


def _perfbench_scatter_rows(seed):
    """(g, y1, z1, v1_inf, M1, M2) of the perfbench scatter workload's draw."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bounds = [(-2.0, 2.0), (-2.0, 2.0), (-0.5, 0.5), (0.5, 1.2), (0.3, 0.8)]
    draws = workloads.shifted_halton(workloads.rng_for("scatter", seed), 300, bounds)
    return [(1.0, y1, z1, v1, m1, m2) for m1, m2, y1, z1, v1 in draws]


RANGE_12 = [-2.0 + i * (4.0 / 11) for i in range(12)]
JACOBIAN_SETS = {
    # name: (rows, number of ok rows)
    "readme-3x3": (
        [(1.0, 0.0, 0.8, 0.5, m1, m2) for m1 in (-1.2, -1.0, -0.8) for m2 in (0.9, 1.0, 1.1)],
        9,
    ),
    "m2-zero": (
        [(1.0, 0.0, 0.8, 0.5, m1, 0.0) for m1 in (-1.2, -1.0, -0.8)] + [(1.0, 0.2, 0.9, 0.6, -2.0, 0.0)],
        4,
    ),
    "range-12x12": ([(1.0, 0.2, 0.9, 0.6, m1, m2) for m1 in RANGE_12 for m2 in RANGE_12], 88),
    "perfbench-seed-1": (lambda: _perfbench_scatter_rows(1), 222),
}
CENTRAL = {1: 0.5, -1: -0.5}
FIVE_POINT = {2: -1 / 12, 1: 8 / 12, -1: -8 / 12, -2: 1 / 12}


def _stencil_jacobian(row, scale, stencil):
    """J of (M1, M2) -> (ytilde1, E) by a finite-difference stencil with steps
    scale (1 + |Mi|)."""
    g, y1, z1, v1_inf, m1, m2 = row
    partials = []
    for i in (0, 1):
        h = scale * (1.0 + abs((m1, m2)[i]))
        dy = de = 0.0
        for k, w in stencil.items():
            m = [m1, m2]
            m[i] += k * h
            res = scattering_map(ScatteringSetup(g, y1, z1, v1_inf, *m))
            dy += w * res.ytilde1 / h
            de += w * res.energy / h
        partials.append((dy, de))
    (dy1, de1), (dy2, de2) = partials
    return dy1 * de2 - dy2 * de1


@pytest.mark.parametrize("name", list(JACOBIAN_SETS))
def test_analytic_jacobian_matches_finite_differences(name):
    # central differences with steps 1e-5 (1 + |Mi|), the scheme J came from
    # before it was analytic, and a 5-point stencil with steps 3e-5 (1 + |Mi|):
    # at 1e-4 the stencil's own h^4 error reaches 1.4e-7 on the range-grid row
    # whose ytilde1 lies 4e-4 from the pole
    rows, n_ok = JACOBIAN_SETS[name]
    ok = 0
    for row in rows() if callable(rows) else rows:
        try:
            res = scattering_map(ScatteringSetup(*row))
        except TernionError:
            continue
        ok += 1
        assert res.jacobian == pytest.approx(_stencil_jacobian(row, 1e-5, CENTRAL), rel=2e-6)
        assert res.jacobian == pytest.approx(_stencil_jacobian(row, 3e-5, FIVE_POINT), rel=1e-7)
    assert ok == n_ok


@pytest.mark.parametrize(
    "row",
    [(1.0, 0.0, 0.8, 0.5, -1.0, 0.9), (1.0, 0.2, 0.9, 0.6, -2.0, 0.2), (1.0, 0.0, 0.8, 0.5, -1.0, 0.0)],
    ids=["readme", "pinned", "m2-zero"],
)
def test_slope_derivatives_match_quadrature_of_the_kernels(row):
    # d_i D(y) is the integral from y0 to y of dk/dMi, and d_i psi(ytilde1)
    # the integral from y1 to ytilde1 of d_i D
    quad = pytest.importorskip("scipy.integrate").quad
    g, y1, z1, v1_inf, m1, m2 = row
    res = scattering_map(ScatteringSetup(*row))
    y0, yt = res.y0, res.ytilde1
    sol = general_solution(g, res.m0, m1, m2, y0, y1)
    derivs = dynamics._slope_derivatives(sol, yt, sol.v1(yt))

    def k(u):
        return 1.0 / ((1.0 + u * u) * (m1 + m2 * u))

    def integral(f, a, b):
        return quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]

    dk = (lambda u: -k(u) / (m1 + m2 * u), lambda u: -u * k(u) / (m1 + m2 * u))
    d_out = integral(k, y0, yt)
    for i in (0, 1):
        dy0 = integral(dk[i], y0, y1) / k(y0)
        dpsi = integral(lambda u: integral(dk[i], y0, u), y1, yt)
        dyt = -(dpsi - k(y0) * (yt - y1) * dy0) / d_out
        dv1 = g * (integral(dk[i], y0, yt) + k(yt) * dyt - k(y0) * dy0)
        assert derivs[i] == pytest.approx((dy0, dyt, dv1), rel=1e-12)


ROW_NEAR_POLE = (
    0.38470194532935587, -0.02281903645423533, 1.457890038041108, 2.4423107390996965,
    1.0138555324820508, 2.1494170227589313,
)


def test_base_slope_bound_allows_brent_x_error_near_the_pole():
    # y0 lies 2.3e-8 (relative) from the pole -M1/M2, where |dv1/dy0| ~ 1e7:
    # Brent's x error moves v1 by more than 1e-12 (1 + |v1_inf|), which made
    # the row a RootFindingFailure; the bound now allows that x error, and
    # the row ends in the exit-slope solve
    g, y1, z1, v1_inf, m1, m2 = ROW_NEAR_POLE
    with pytest.raises(NoSecondSolution):
        scattering_map(ScatteringSetup(*ROW_NEAR_POLE))
    m0 = -(m1 + m2 * y1) / z1
    y0 = dynamics._solve_y0(g, m1, m2, y1, v1_inf)
    pole = -m1 / m2
    assert abs(y0 - pole) <= 1e-7 * (1.0 + abs(pole))
    residual = abs(general_solution(g, m0, m1, m2, y0, y1).v1(y1) - v1_inf)
    assert residual > dynamics.ROOT_RESIDUAL * (1.0 + abs(v1_inf))
    slope = abs(g / ((1.0 + y0 * y0) * (m1 + m2 * y0)))
    assert residual <= slope * (4 * np.finfo(float).eps * abs(y0) + 1e-15)
