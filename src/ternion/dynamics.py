"""Monopole motion in the singular ternary magnetic field.

The equation of motion in frame coordinates (l, r1, r2) is

    d2/dt2 (l, r1, r2) = -g * h,   h = (1/|r|^2, r1/(l |r|^2), r2/(l |r|^2)),

a central force, so the angular momentum M = position x velocity is conserved
while the kinetic energy is not.  The system is integrable: the planar case
(r2 = M0 = M1 = 0) and the general case reduce to quadratures in the slope
variables z = l/r1 and y = r2/r1, with escape along asymptotic slopes fixed
by a transcendental equation.  This module provides the direct adaptive
integrator (with a conserved-quantity ledger and a singular-approach guard),
the closed-form solutions, the asymptote solver, and the scattering map with
its numerically differentiated cross-section Jacobian.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    JacobianSingular,
    NoSecondSolution,
    NumericalBreakdown,
    OnSingularSet,
    PoleOnRange,
    RootFindingFailure,
    SingularApproach,
    StepFailure,
)
from .field import EPS_FIELD
from .quadrature import adaptive_quad
from .rootfind import brent, scan_bracket

__all__ = [
    "MonopoleState",
    "AngularMomentum",
    "Trajectory",
    "PlanarSolution",
    "GeneralSolution",
    "ScatteringSetup",
    "ScatteringResult",
    "TRAJECTORY_HEADER",
    "SCATTER_HEADER",
    "newton_rhs",
    "integrate",
    "planar_solution",
    "asymptote_solve",
    "general_solution",
    "scattering_map",
    "state_from_planar",
    "state_from_general",
    "write_trajectory_csv",
    "write_scatter_csv",
]

#: Singular-approach guard: stop when |l| |r|^2 falls below this times scale^3.
SINGULAR_GUARD = 1e-6

#: Residual tolerance for the transcendental root solves.
ROOT_RESIDUAL = 1e-12

#: |J| below this raises JacobianSingular.
EPS_JACOBIAN = 1e-12

#: Allowed imaginary residue in the closed-form velocity (it must be real).
EPS_IMAG = 1e-12


@dataclass(frozen=True)
class MonopoleState:
    """Frame position (l, r1, r2), velocity (v0, v1, v2) and time."""

    l: float
    r1: float
    r2: float
    v0: float
    v1: float
    v2: float
    t: float = 0.0

    def as_tuple(self):
        return (self.l, self.r1, self.r2, self.v0, self.v1, self.v2)


@dataclass(frozen=True)
class AngularMomentum:
    """M = position x velocity in frame coordinates."""

    m0: float
    m1: float
    m2: float

    @staticmethod
    def from_state(s: MonopoleState) -> "AngularMomentum":
        return AngularMomentum(
            s.r1 * s.v2 - s.r2 * s.v1,
            s.r2 * s.v0 - s.l * s.v2,
            s.l * s.v1 - s.r1 * s.v0,
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.m0, self.m1, self.m2])


TRAJECTORY_HEADER = "t,l,r1,r2,v0,v1,v2,M0,M1,M2,E"


class Trajectory:
    """Accepted samples of an integration run plus its conserved-quantity ledger."""

    def __init__(self, tol: float):
        self.tol = tol
        self.times: list[float] = []
        self.states: list[tuple] = []
        self.m_ledger: list[tuple] = []
        self.energy: list[float] = []
        self.n_accepted = 0
        self.n_rejected = 0
        self.note = ""

    def append(self, t: float, y: tuple):
        l, r1, r2, v0, v1, v2 = y
        self.times.append(t)
        self.states.append(tuple(y))
        self.m_ledger.append((r1 * v2 - r2 * v1, r2 * v0 - l * v2, l * v1 - r1 * v0))
        self.energy.append(0.5 * (v0 * v0 + v1 * v1 + v2 * v2))

    def __len__(self):
        return len(self.times)

    def state(self, i: int) -> MonopoleState:
        return MonopoleState(*self.states[i], t=self.times[i])

    def final_state(self) -> MonopoleState:
        return self.state(len(self.times) - 1)

    def max_m_drift(self) -> np.ndarray:
        """Per-component max |M(t) - M(0)| over the run."""
        ledger = np.asarray(self.m_ledger)
        return np.max(np.abs(ledger - ledger[0]), axis=0)

    def energy_change(self) -> float:
        return abs(self.energy[-1] - self.energy[0])


def write_trajectory_csv(traj: Trajectory, path, extra=None):
    """One row per sample; extra = (name, values) appends a column."""
    header = TRAJECTORY_HEADER if extra is None else f"{TRAJECTORY_HEADER},{extra[0]}"
    extras = [()] * len(traj) if extra is None else [(v,) for v in extra[1]]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, y, m, e, x in zip(traj.times, traj.states, traj.m_ledger, traj.energy, extras):
            cells = (t, *y, *m, e, *x)
            fh.write(",".join(repr(float(c)) for c in cells) + "\n")
    return len(traj)


def _accel(l, r1, r2, g):
    """Acceleration -g h; raises OnSingularSet near the singular sets."""
    rsq = r1 * r1 + r2 * r2
    if rsq <= (EPS_FIELD * (1.0 + abs(l))) ** 2 or abs(l) <= EPS_FIELD:
        raise OnSingularSet(f"state at (l, r1, r2) = ({l}, {r1}, {r2})")
    lr = l * rsq
    return (-g / rsq, -g * r1 / lr, -g * r2 / lr)


def newton_rhs(s: MonopoleState, g: float) -> np.ndarray:
    """Acceleration of the monopole at the state's position."""
    return np.array(_accel(s.l, s.r1, s.r2, g))


# Dormand-Prince 5(4) tableau, zero entries left out.  Row 7 holds the
# 5th-order weights, so the 7th stage is the slope at the new state: the next
# step's first stage (first-same-as-last).  _E* are the 5th- minus 4th-order
# weights of the error estimate.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1 = 35 / 384 - 5179 / 57600
_E3 = 500 / 1113 - 7571 / 16695
_E4 = 125 / 192 - 393 / 640
_E5 = -2187 / 6784 + 92097 / 339200
_E6 = 11 / 84 - 187 / 2100
_E7 = -1 / 40


def integrate(
    s0: MonopoleState,
    g: float,
    t_end: float,
    tol: float = 1e-10,
    max_step: float | None = None,
    max_steps: int = 10**6,
) -> Trajectory:
    """Adaptive Dormand-Prince integration from s0.t to t_end.

    Every accepted step is recorded together with the angular-momentum and
    kinetic-energy ledger.  The run stops with SingularApproach (carrying the
    partial trajectory) when |l| |r|^2 falls below SINGULAR_GUARD times the
    initial scale cubed, rather than chasing the collapse; StepFailure means
    the controller stalled or ran out of steps.
    """
    t = float(s0.t)
    if t_end <= t:
        raise DomainError(f"t_end must exceed the initial time, got {t_end} <= {t}")
    l, r1, r2, v0, v1, v2 = s0.as_tuple()
    scale0 = math.sqrt(s0.l**2 + s0.r1**2 + s0.r2**2)
    guard = SINGULAR_GUARD * scale0**3
    traj = Trajectory(tol)
    traj.append(t, (l, r1, r2, v0, v1, v2))

    # Stage m has slope (u_m, a_m): the velocity and acceleration of its
    # state.  u_1 is the state's own velocity (v0, v1, v2) and a_1 is carried
    # over from the previous step.
    try:
        a10, a11, a12 = _accel(l, r1, r2, g)
    except OnSingularSet as exc:
        raise SingularApproach("initial state inadmissible", traj, s0) from exc

    span = t_end - t
    fnorm = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2 + a10 * a10 + a11 * a11 + a12 * a12)
    ynorm = math.sqrt(l * l + r1 * r1 + r2 * r2 + v0 * v0 + v1 * v1 + v2 * v2)
    dt = min(span / 100.0, 0.01 * (1.0 + ynorm) / (1.0 + fnorm))
    if max_step is not None:
        dt = min(dt, max_step)

    # Each sum starts at 0.0, so that a sum of zero terms is +0.0 and never
    # -0.0, and adds its terms in tableau order: the samples' bits, signed
    # zeros included, are pinned in tests/test_dynamics.py.
    steps = 0
    while t < t_end:
        if steps >= max_steps:
            raise StepFailure(f"step budget {max_steps} exhausted at t = {t}", traj)
        dt = min(dt, t_end - t)
        if dt < 1e-14 * max(1.0, abs(t)):
            raise StepFailure(f"step size underflow at t = {t}", traj)
        steps += 1
        try:
            u20 = v0 + dt * (0.0 + _A21 * a10)
            u21 = v1 + dt * (0.0 + _A21 * a11)
            u22 = v2 + dt * (0.0 + _A21 * a12)
            a20, a21, a22 = _accel(
                l + dt * (0.0 + _A21 * v0),
                r1 + dt * (0.0 + _A21 * v1),
                r2 + dt * (0.0 + _A21 * v2),
                g,
            )
            u30 = v0 + dt * (0.0 + _A31 * a10 + _A32 * a20)
            u31 = v1 + dt * (0.0 + _A31 * a11 + _A32 * a21)
            u32 = v2 + dt * (0.0 + _A31 * a12 + _A32 * a22)
            a30, a31, a32 = _accel(
                l + dt * (0.0 + _A31 * v0 + _A32 * u20),
                r1 + dt * (0.0 + _A31 * v1 + _A32 * u21),
                r2 + dt * (0.0 + _A31 * v2 + _A32 * u22),
                g,
            )
            u40 = v0 + dt * (0.0 + _A41 * a10 + _A42 * a20 + _A43 * a30)
            u41 = v1 + dt * (0.0 + _A41 * a11 + _A42 * a21 + _A43 * a31)
            u42 = v2 + dt * (0.0 + _A41 * a12 + _A42 * a22 + _A43 * a32)
            a40, a41, a42 = _accel(
                l + dt * (0.0 + _A41 * v0 + _A42 * u20 + _A43 * u30),
                r1 + dt * (0.0 + _A41 * v1 + _A42 * u21 + _A43 * u31),
                r2 + dt * (0.0 + _A41 * v2 + _A42 * u22 + _A43 * u32),
                g,
            )
            u50 = v0 + dt * (0.0 + _A51 * a10 + _A52 * a20 + _A53 * a30 + _A54 * a40)
            u51 = v1 + dt * (0.0 + _A51 * a11 + _A52 * a21 + _A53 * a31 + _A54 * a41)
            u52 = v2 + dt * (0.0 + _A51 * a12 + _A52 * a22 + _A53 * a32 + _A54 * a42)
            a50, a51, a52 = _accel(
                l + dt * (0.0 + _A51 * v0 + _A52 * u20 + _A53 * u30 + _A54 * u40),
                r1 + dt * (0.0 + _A51 * v1 + _A52 * u21 + _A53 * u31 + _A54 * u41),
                r2 + dt * (0.0 + _A51 * v2 + _A52 * u22 + _A53 * u32 + _A54 * u42),
                g,
            )
            u60 = v0 + dt * (0.0 + _A61 * a10 + _A62 * a20 + _A63 * a30 + _A64 * a40 + _A65 * a50)
            u61 = v1 + dt * (0.0 + _A61 * a11 + _A62 * a21 + _A63 * a31 + _A64 * a41 + _A65 * a51)
            u62 = v2 + dt * (0.0 + _A61 * a12 + _A62 * a22 + _A63 * a32 + _A64 * a42 + _A65 * a52)
            a60, a61, a62 = _accel(
                l + dt * (0.0 + _A61 * v0 + _A62 * u20 + _A63 * u30 + _A64 * u40 + _A65 * u50),
                r1 + dt * (0.0 + _A61 * v1 + _A62 * u21 + _A63 * u31 + _A64 * u41 + _A65 * u51),
                r2 + dt * (0.0 + _A61 * v2 + _A62 * u22 + _A63 * u32 + _A64 * u42 + _A65 * u52),
                g,
            )
            # the 5th-order solution (p7, u7) is the 7th stage's state
            u70 = v0 + dt * (0.0 + _A71 * a10 + _A73 * a30 + _A74 * a40 + _A75 * a50 + _A76 * a60)
            u71 = v1 + dt * (0.0 + _A71 * a11 + _A73 * a31 + _A74 * a41 + _A75 * a51 + _A76 * a61)
            u72 = v2 + dt * (0.0 + _A71 * a12 + _A73 * a32 + _A74 * a42 + _A75 * a52 + _A76 * a62)
            p70 = l + dt * (0.0 + _A71 * v0 + _A73 * u30 + _A74 * u40 + _A75 * u50 + _A76 * u60)
            p71 = r1 + dt * (0.0 + _A71 * v1 + _A73 * u31 + _A74 * u41 + _A75 * u51 + _A76 * u61)
            p72 = r2 + dt * (0.0 + _A71 * v2 + _A73 * u32 + _A74 * u42 + _A75 * u52 + _A76 * u62)
            a70, a71, a72 = _accel(p70, p71, p72, g)
            if abs(p70) * (p71 * p71 + p72 * p72) < guard:
                raise OnSingularSet("singular-approach guard tripped")
        except OnSingularSet:
            last = traj.final_state()
            raise SingularApproach(
                f"approached the singular set near t = {t:.6g}", traj, last
            ) from None
        # error estimate per component, RMS-normed against tol (1 + max(|old|, |new|))
        e0 = dt * (0.0 + _E1 * v0 + _E3 * u30 + _E4 * u40 + _E5 * u50 + _E6 * u60 + _E7 * u70)
        e1 = dt * (0.0 + _E1 * v1 + _E3 * u31 + _E4 * u41 + _E5 * u51 + _E6 * u61 + _E7 * u71)
        e2 = dt * (0.0 + _E1 * v2 + _E3 * u32 + _E4 * u42 + _E5 * u52 + _E6 * u62 + _E7 * u72)
        e3 = dt * (0.0 + _E1 * a10 + _E3 * a30 + _E4 * a40 + _E5 * a50 + _E6 * a60 + _E7 * a70)
        e4 = dt * (0.0 + _E1 * a11 + _E3 * a31 + _E4 * a41 + _E5 * a51 + _E6 * a61 + _E7 * a71)
        e5 = dt * (0.0 + _E1 * a12 + _E3 * a32 + _E4 * a42 + _E5 * a52 + _E6 * a62 + _E7 * a72)
        err = (
            (e0 / (tol + tol * max(abs(l), abs(p70)))) ** 2
            + (e1 / (tol + tol * max(abs(r1), abs(p71)))) ** 2
            + (e2 / (tol + tol * max(abs(r2), abs(p72)))) ** 2
            + (e3 / (tol + tol * max(abs(v0), abs(u70)))) ** 2
            + (e4 / (tol + tol * max(abs(v1), abs(u71)))) ** 2
            + (e5 / (tol + tol * max(abs(v2), abs(u72)))) ** 2
        )
        err = math.sqrt(err / 6.0)
        if err <= 1.0:
            t += dt
            l, r1, r2, v0, v1, v2 = p70, p71, p72, u70, u71, u72
            a10, a11, a12 = a70, a71, a72  # first-same-as-last
            traj.append(t, (l, r1, r2, v0, v1, v2))
            traj.n_accepted += 1
        else:
            traj.n_rejected += 1
        factor = 0.9 * (err ** -0.2 if err > 0.0 else 5.0)
        dt *= min(5.0, max(0.2, factor))
        if max_step is not None:
            dt = min(dt, max_step)
    return traj


# ---------------------------------------------------------------------------
# Planar closed form


def _f_planar(z: float, z0: float) -> float:
    """z * ln|z/(e z0)|, the planar trajectory kernel."""
    return z * (math.log(abs(z / z0)) - 1.0)


def _root_on_grid(fun, grid, scale, what):
    """Brent on the first sign change of fun along grid, or None if the scan
    finds none or runs into the pole.  The root must meet |fun| <=
    ROOT_RESIDUAL * scale(); scale is called only after the solve, so a
    failed scan costs no extra evaluations."""
    try:
        bracket = scan_bracket(fun, grid)
    except PoleOnRange:
        return None
    if bracket is None:
        return None
    a, b, fa, fb = bracket
    root = a if a == b else brent(fun, a, b, fa, fb)
    res = abs(fun(root))
    if res > ROOT_RESIDUAL * scale():
        raise RootFindingFailure(f"{what} residual {res:.3e} above {ROOT_RESIDUAL:.1e} at {root}")
    return root


def asymptote_solve(z0: float, z1: float) -> float:
    """Second solution of  z ln|z/(e z0)| = z1 ln|z1/(e z0)|  besides z = z1.

    Exists for 0 < z1 < e z0 (the turnaround regime) and lies on the other
    side of z0; raises NoSecondSolution otherwise.  The bracket comes from a
    geometric scan around z0, the solve is Brent to a 1e-12 residual.
    """
    if z0 <= 0.0 or z1 <= 0.0:
        raise DomainError(f"asymptote equation normalized to z0 > 0, z1 > 0; got ({z0}, {z1})")
    target = _f_planar(z1, z0)
    if target >= 0.0:
        raise NoSecondSolution(f"no second asymptote: z1 = {z1} >= e z0 = {math.e * z0}")
    if z1 == z0:
        return z0

    def fun(z):
        return _f_planar(z, z0) - target

    if z1 > z0:
        # the root can sit many decades below z0 when z1 is close to e z0;
        # walk inward 16 per decade until the sign flips (f -> -C > 0 at 0+)
        grid = [z0 * 10.0 ** (-kk / 16.0) for kk in range(16 * 12 + 1)]
    else:
        grid = [z0 * 10.0 ** (kk / 16.0) for kk in range(65)]
        grid = [z for z in grid if z <= math.e * z0] + [math.e * z0]
    root = _root_on_grid(fun, grid, lambda: max(1.0, abs(target)), "asymptote")
    if root is None:
        raise RootFindingFailure(f"no bracket for the second asymptote near z0 = {z0}")
    return root


class PlanarSolution:
    """Closed-form planar trajectory (r2 = M0 = M1 = 0) in the slope z = l/r1.

    v1(z) = (g/M2) ln|z/z0|
    r1(z) = M2^2 / (g (f(z) - f(z1))),  f(z) = z ln|z/(e z0)|
    t(z)  = -(M2^3/g^2) * integral from z0 to z of (f - f(z1))^(-2)

    The trajectory lives on the branch of z where f - f(z1) keeps its sign:
    between the two asymptotic slopes in the turnaround regime, or on
    (0, z1) when no second asymptote exists and the trajectory reaches the
    center.  t diverges at the branch ends (the asymptotes are reached only
    as t -> +-infinity); t is referenced so t(z0) = 0.
    """

    def __init__(self, g: float, m2: float, z0: float, z1: float):
        if m2 == 0.0:
            raise DomainError("planar solution needs M2 != 0")
        if z0 <= 0.0 or z1 <= 0.0:
            raise DomainError(f"normalized to z0 > 0, z1 > 0; got ({z0}, {z1})")
        if z1 == z0:
            raise DomainError("degenerate branch: z1 = z0")
        self.g = g
        self.m2 = m2
        self.z0 = z0
        self.z1 = z1
        self._c = _f_planar(z1, z0)
        try:
            self.z_tilde1 = asymptote_solve(z0, z1)
            self.outcome = "turnaround"
            lo, hi = sorted((self.z_tilde1, z1))
        except NoSecondSolution:
            self.z_tilde1 = None
            self.outcome = "center-reaching"
            lo, hi = 0.0, z1
        self.branch = (lo, hi)

    def _check_branch(self, z: float):
        lo, hi = self.branch
        if not (lo < z < hi):
            raise DomainError(f"z = {z} outside the trajectory branch ({lo}, {hi})")

    def v1(self, z: float) -> float:
        self._check_branch(z)
        return (self.g / self.m2) * math.log(abs(z / self.z0))

    def r1(self, z: float) -> float:
        self._check_branch(z)
        return self.m2**2 / (self.g * (_f_planar(z, self.z0) - self._c))

    def t(self, z: float, tol: float = 1e-10) -> float:
        """Time at slope z, with t(z0) = 0; adaptive quadrature of the
        inverse-square kernel (divergent only at the branch ends)."""
        self._check_branch(z)
        if z == self.z0:
            return 0.0

        def kernel(u):
            return np.array([(_f_planar(u, self.z0) - self._c) ** -2.0])

        val = adaptive_quad(kernel, self.z0, z, tol)
        return -(self.m2**3 / self.g**2) * float(val[0])


def planar_solution(g: float, m2: float, z0: float, z1: float) -> PlanarSolution:
    return PlanarSolution(g, m2, z0, z1)


def state_from_planar(sol: PlanarSolution, z: float, t: float = 0.0) -> MonopoleState:
    """Exact planar state at slope z (for seeding or checking integrations)."""
    r1 = sol.r1(z)
    l = z * r1
    v1 = sol.v1(z)
    v0 = (l * v1 - sol.m2) / r1
    return MonopoleState(l, r1, 0.0, v0, v1, 0.0, t=t)


# ---------------------------------------------------------------------------
# General closed form


class GeneralSolution:
    """Closed-form general trajectory in the transverse slope y = r2/r1.

    v1(y) is g times the exact partial-fraction antiderivative of
    1/((1+y^2)(M1+M2 y)) between y0 and y; r1(y) and t(y) follow from the
    angular-momentum integrals:

        r1(y) = -(M0/g) / psi(y),  psi(y) = integral from y1 to y of v1/g,
        t(y)  = (M0/g^2) * integral from y0 to y of psi^(-2).

    The complex-log pair is conjugate, so the velocity is real; the imaginary
    residue is asserted below EPS_IMAG.  A pole at y = -M1/M2 (the l = 0
    plane) must not lie between the evaluation point and the base points.
    """

    def __init__(self, g: float, m0: float, m1: float, m2: float, y0: float, y1: float):
        if m0 == 0.0:
            raise DomainError("general solution needs M0 != 0")
        if g == 0.0:
            raise DomainError("general solution needs g != 0")
        self.g = g
        self.m0 = m0
        self.m1 = m1
        self.m2 = m2
        self.y0 = y0
        self.y1 = y1
        self.pole = (-m1 / m2) if m2 != 0.0 else None
        self._a = -0.5j / complex(m1, m2)
        self._c3 = m2 / (m1 * m1 + m2 * m2)
        for base in (y0, y1):
            self._check_side(base, y0)

    def _check_side(self, y: float, base: float):
        if self.pole is not None and (y - self.pole) * (base - self.pole) <= 0.0:
            raise PoleOnRange(
                f"y = {y} and y = {base} straddle the pole at y = {self.pole}"
            )

    def v1(self, y: float) -> float:
        """Velocity component along r1 as a function of the slope y."""
        self._check_side(y, self.y0)
        s = self._a * cmath.log(complex(y, -1.0) / complex(self.y0, -1.0))
        s += self._a.conjugate() * cmath.log(complex(y, 1.0) / complex(self.y0, 1.0))
        if self.m2 != 0.0:
            ratio = (self.m1 + self.m2 * y) / (self.m1 + self.m2 * self.y0)
            if ratio <= 0.0:
                raise PoleOnRange(f"log argument crossed the pole between {self.y0} and {y}")
            s += self._c3 * math.log(ratio)
        if abs(s.imag) > EPS_IMAG * (1.0 + abs(s)):
            raise NumericalBreakdown(f"imaginary residue {s.imag:.3e} in v1({y})")
        return self.g * s.real

    def _antiderivative(self, y: float) -> float:
        """Exact antiderivative of v1/g (base point y0 in the logs)."""
        w = complex(y, -1.0)
        t1 = self._a * w * (cmath.log(w / complex(self.y0, -1.0)) - 1.0)
        wbar = complex(y, 1.0)
        t2 = self._a.conjugate() * wbar * (cmath.log(wbar / complex(self.y0, 1.0)) - 1.0)
        s = t1 + t2
        if abs(s.imag) > EPS_IMAG * (1.0 + abs(s)):
            raise NumericalBreakdown(f"imaginary residue {s.imag:.3e} in psi({y})")
        total = s.real
        if self.m2 != 0.0:
            num = self.m1 + self.m2 * y
            den = self.m1 + self.m2 * self.y0
            if num / den <= 0.0:
                raise PoleOnRange(f"antiderivative crossed the pole at y = {self.pole}")
            total += self._c3 * (num / self.m2) * (math.log(num / den) - 1.0)
        return total

    def psi(self, y: float) -> float:
        """Integral of v1/g from y1 to y (closed form)."""
        self._check_side(y, self.y1)
        return self._antiderivative(y) - self._antiderivative(self.y1)

    def r1(self, y: float) -> float:
        p = self.psi(y)
        if p == 0.0:
            raise DomainError(f"r1 diverges where the velocity integral vanishes (y = {y})")
        return -(self.m0 / self.g) / p

    def t(self, y: float, tol: float = 1e-10) -> float:
        """Time at slope y with t(y0) = 0; diverges toward y1 and the exit slope."""
        self._check_side(y, self.y0)
        if y == self.y0:
            return 0.0

        def kernel(u):
            return np.array([self.psi(u) ** -2.0])

        val = adaptive_quad(kernel, self.y0, y, tol)
        return (self.m0 / self.g**2) * float(val[0])


def general_solution(g, m0, m1, m2, y0, y1) -> GeneralSolution:
    return GeneralSolution(g, m0, m1, m2, y0, y1)


def state_from_general(sol: GeneralSolution, y: float, t: float = 0.0) -> MonopoleState:
    """Exact general-case state at slope y."""
    r1 = sol.r1(y)
    r2 = y * r1
    l = -(sol.m1 + sol.m2 * y) * r1 / sol.m0
    v1 = sol.v1(y)
    v2 = y * v1 + sol.m0 / r1
    v0 = -(sol.m1 + sol.m2 * y) * v1 / sol.m0 - sol.m2 / r1
    return MonopoleState(l, r1, r2, v0, v1, v2, t=t)


# ---------------------------------------------------------------------------
# Scattering


@dataclass(frozen=True)
class ScatteringSetup:
    """Incoming asymptotic data for a scattering run.

    The incoming velocity direction is fixed by the transverse slope y1 and
    the trisectrice slope z1 (v0 = z1 v1, v2 = y1 v1 at t -> -infinity); the
    angular momenta (M1, M2) select the impact point, and M0 follows from
    the slope relation, which makes M . v(-infinity) vanish identically.
    """

    g: float
    y1: float
    z1: float
    v1_inf: float
    m1: float
    m2: float

    def __post_init__(self):
        if self.g == 0.0 or self.z1 == 0.0 or self.v1_inf == 0.0:
            raise DomainError("scattering setup needs g, z1 and v1_inf nonzero")
        if self.m1 + self.m2 * self.y1 == 0.0:
            raise DomainError("M1 + M2 y1 = 0 makes M0 vanish")

    @property
    def m0(self) -> float:
        return -(self.m1 + self.m2 * self.y1) / self.z1

    @property
    def v_in(self) -> np.ndarray:
        """Incoming velocity (v0, v1, v2) at t -> -infinity."""
        return np.array([self.z1 * self.v1_inf, self.v1_inf, self.y1 * self.v1_inf])

    @property
    def constraint_residual(self) -> float:
        v = self.v_in
        return self.m1 * v[1] + self.m2 * v[2] + self.m0 * v[0]


@dataclass(frozen=True)
class ScatteringResult:
    m1: float
    m2: float
    m0: float
    y0: float
    ytilde1: float
    energy: float
    jacobian: float
    dsigma: float
    v_in: np.ndarray
    v_out: np.ndarray
    rho_pl: float
    rho_perp: float


def _pole_clipped_grid(start: float, direction: float, span: float, pole: float | None):
    """Geometric walk from start; never crosses the pole."""
    limit = None
    if pole is not None and (pole - start) * direction > 0.0:
        limit = pole - direction * 1e-9 * (1.0 + abs(pole))
    pts = []
    for k in range(97):
        x = start + direction * span * 10.0 ** (-4.0 + 6.0 * k / 96.0)
        if limit is not None and (x - limit) * direction > 0.0:
            pts.append(limit)
            break
        pts.append(x)
    return pts


def _solve_y0(g, m0, m1, m2, y1, v1_inf):
    """Base slope y0 (where v1 vanishes) from v1(y1) = v1_inf."""
    pole = (-m1 / m2) if m2 != 0.0 else None

    def vel_from_y0(y0):
        sol = GeneralSolution(g, m0, m1, m2, y0, y1)
        return sol.v1(y1) - v1_inf

    span = 1.0 + abs(y1)
    for direction in (1.0, -1.0):
        grid = [y1] + _pole_clipped_grid(y1, direction, span, pole)
        try:
            root = _root_on_grid(vel_from_y0, grid, lambda: 1.0 + abs(v1_inf), "base-slope")
        except RootFindingFailure:
            continue
        if root is not None:
            return root
    raise RootFindingFailure(
        f"no base slope y0 matches v1_inf = {v1_inf} (M1 = {m1}, M2 = {m2})"
    )


def _solve_ytilde1(sol: GeneralSolution):
    """Second zero of the velocity integral psi besides y1 (the exit slope)."""
    y0, y1 = sol.y0, sol.y1
    direction = math.copysign(1.0, y0 - y1)
    span = 1.0 + abs(y0 - y1)
    grid = [y0] + _pole_clipped_grid(y0, direction, span, sol.pole)

    root = _root_on_grid(sol.psi, grid, lambda: 1.0 + abs(sol.psi(y0)), "exit-slope")
    if root is None:
        raise NoSecondSolution(
            f"velocity integral has no second zero beyond y0 = {y0} (M1 = {sol.m1}, M2 = {sol.m2})"
        )
    return root


def _scatter_point(g, y1, z1, v1_inf, m1, m2):
    """(ytilde1, E, v_out, m0, y0) for one (M1, M2) grid point."""
    m0 = -(m1 + m2 * y1) / z1
    if m0 == 0.0:
        raise DomainError("M0 = 0 at this grid point")
    y0 = _solve_y0(g, m0, m1, m2, y1, v1_inf)
    sol = GeneralSolution(g, m0, m1, m2, y0, y1)
    ytilde1 = _solve_ytilde1(sol)
    v1_out = sol.v1(ytilde1)
    v2_out = ytilde1 * v1_out
    v0_out = -(m1 + m2 * ytilde1) * v1_out / m0
    v_out = np.array([v0_out, v1_out, v2_out])
    return ytilde1, 0.5 * float(v_out @ v_out), v_out, m0, y0


def scattering_map(setup: ScatteringSetup, fd_scale: float = 1e-5) -> ScatteringResult:
    """Exit slope, final energy, and differential cross-section element.

    The map (M1, M2) -> (ytilde1, E) is differentiated centrally with steps
    fd_scale (1 + |Mi|) while the incoming direction and speed stay fixed;
    the cross-section element is

        dsigma = d(ytilde1) dE / (J |v0(-inf)| |v(-inf)|).
    """
    g, y1, z1, v1_inf = setup.g, setup.y1, setup.z1, setup.v1_inf
    ytilde1, energy, v_out, m0, y0 = _scatter_point(g, y1, z1, v1_inf, setup.m1, setup.m2)

    h1 = fd_scale * (1.0 + abs(setup.m1))
    h2 = fd_scale * (1.0 + abs(setup.m2))
    yp1, ep1 = _scatter_point(g, y1, z1, v1_inf, setup.m1 + h1, setup.m2)[:2]
    ym1, em1 = _scatter_point(g, y1, z1, v1_inf, setup.m1 - h1, setup.m2)[:2]
    yp2, ep2 = _scatter_point(g, y1, z1, v1_inf, setup.m1, setup.m2 + h2)[:2]
    ym2, em2 = _scatter_point(g, y1, z1, v1_inf, setup.m1, setup.m2 - h2)[:2]
    dy_dm1 = (yp1 - ym1) / (2.0 * h1)
    dy_dm2 = (yp2 - ym2) / (2.0 * h2)
    de_dm1 = (ep1 - em1) / (2.0 * h1)
    de_dm2 = (ep2 - em2) / (2.0 * h2)
    jac = dy_dm1 * de_dm2 - dy_dm2 * de_dm1
    if abs(jac) < EPS_JACOBIAN:
        raise JacobianSingular(f"|J| = {abs(jac):.3e} below {EPS_JACOBIAN:.1e}")

    v_in = setup.v_in
    speed = float(np.linalg.norm(v_in))
    m_vec = np.array([m0, setup.m1, setup.m2])
    rho_vec = np.cross(v_in, m_vec) / speed**2
    dsigma = 1.0 / (jac * abs(v_in[0]) * speed)
    return ScatteringResult(
        m1=setup.m1,
        m2=setup.m2,
        m0=m0,
        y0=y0,
        ytilde1=ytilde1,
        energy=energy,
        jacobian=jac,
        dsigma=dsigma,
        v_in=v_in,
        v_out=v_out,
        rho_pl=setup.m2 / speed,
        rho_perp=float(rho_vec[2]),
    )


SCATTER_HEADER = "M1,M2,ytilde1,E,J,dsigma,status"


def write_scatter_csv(rows, path):
    """Rows are (m1, m2, result_or_None, status); failures keep their row."""
    with open(path, "w") as fh:
        fh.write(SCATTER_HEADER + "\n")
        for m1, m2, res, status in rows:
            if res is None:
                fh.write(f"{m1!r},{m2!r},,,,,{status}\n")
            else:
                fh.write(
                    ",".join(
                        repr(float(c))
                        for c in (m1, m2, res.ytilde1, res.energy, res.jacobian, res.dsigma)
                    )
                    + f",{status}\n"
                )
    return len(rows)
