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
its cross-section Jacobian, differentiated implicitly from the closed forms.

The closed-form kernels that the time quadratures batch, psi and the planar
kernel, also take float arrays of slopes, by the array contract of
ternion.algebra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import _fault, _lib, _pow
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
from .rootfind import brent, brent_xerr, scan_bracket

__all__ = [
    "MonopoleState",
    "Trajectory",
    "PlanarSolution",
    "GeneralSolution",
    "ScatteringSetup",
    "ScatteringResult",
    "TRAJECTORY_HEADER",
    "SCATTER_HEADER",
    "angular_momentum",
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

#: An outward walk toward a branch end at infinity stops this many spans out.
FAR_SPANS = 1e9

#: Accepted plus rejected steps allowed in one integrate call.
MAX_STEPS = 10**6

#: Tolerance of the time quadratures in PlanarSolution.t and GeneralSolution.t.
TIME_TOL = 1e-10


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


def angular_momentum(y) -> tuple:
    """M = position x velocity of a state (l, r1, r2, v0, v1, v2)."""
    l, r1, r2, v0, v1, v2 = y
    return (r1 * v2 - r2 * v1, r2 * v0 - l * v2, l * v1 - r1 * v0)


def _require_finite(what: str, **inputs):
    """Raises DomainError naming the first input that is not finite."""
    for name, value in inputs.items():
        if not math.isfinite(value):
            raise DomainError(f"{what} needs a finite {name}, got {value}")


def _kinetic_energy(y) -> float:
    v0, v1, v2 = y[3:]
    return 0.5 * (v0 * v0 + v1 * v1 + v2 * v2)


TRAJECTORY_HEADER = "t,l,r1,r2,v0,v1,v2,M0,M1,M2,E"


class Trajectory:
    """Accepted samples of an integration run; the conserved-quantity ledger
    is derived from the stored states."""

    def __init__(self):
        self.times: list[float] = []
        self.states: list[tuple] = []
        self.n_accepted = 0
        self.n_rejected = 0

    @property
    def m_ledger(self) -> list[tuple]:
        """Angular momentum at every sample."""
        return [angular_momentum(y) for y in self.states]

    @property
    def energy(self) -> list[float]:
        """Kinetic energy at every sample."""
        return [_kinetic_energy(y) for y in self.states]

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
        return abs(_kinetic_energy(self.states[-1]) - _kinetic_energy(self.states[0]))


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
_TABLEAU = (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
    _A71, _A73, _A74, _A75, _A76, _E1, _E3, _E4, _E5, _E6, _E7,
)


def integrate(
    s0: MonopoleState,
    g: float,
    t_end: float,
    tol: float = 1e-10,
    max_step: float | None = None,
) -> Trajectory:
    """Adaptive Dormand-Prince integration from s0.t to t_end.

    Every accepted step is recorded.  The run stops with SingularApproach
    (carrying the partial trajectory) when |l| |r|^2 falls below
    SINGULAR_GUARD times the initial scale cubed, rather than chasing the
    collapse; StepFailure means the controller stalled, used up MAX_STEPS,
    or met an error norm out of the float range (a tol near 1e-200 or less).
    Both carry the trajectory up to the last accepted step.  A non-finite
    t_end, g or component of s0 raises DomainError before the first step.
    """
    _require_finite("integrate", t_end=t_end, g=g, **vars(s0))
    t = float(s0.t)
    if t_end <= t:
        raise DomainError(f"t_end must exceed the initial time, got {t_end} <= {t}")
    l, r1, r2, v0, v1, v2 = s0.as_tuple()
    scale0 = math.sqrt(s0.l**2 + s0.r1**2 + s0.r2**2)
    guard = SINGULAR_GUARD * scale0**3
    traj = Trajectory()
    times, states = traj.times, traj.states
    times.append(t)
    states.append((l, r1, r2, v0, v1, v2))

    # Stage m has slope (u_m, a_m): the velocity and acceleration of its
    # state.  u_1 is the state's own velocity (v0, v1, v2) and a_1 is carried
    # over from the previous step.
    try:
        a10, a11, a12 = _accel(l, r1, r2, g)
    except OnSingularSet as exc:
        raise SingularApproach("initial state inadmissible", traj) from exc

    span = t_end - t
    fnorm = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2 + a10 * a10 + a11 * a11 + a12 * a12)
    ynorm = math.sqrt(l * l + r1 * r1 + r2 * r2 + v0 * v0 + v1 * v1 + v2 * v2)
    dt = min(span / 100.0, 0.01 * (1.0 + ynorm) / (1.0 + fnorm))
    if max_step is not None:
        dt = min(dt, max_step)

    # The step is written out for speed, with no call but abs, list.append and
    # one sqrt.  Each stage's admissibility test and acceleration repeat
    # _accel's expressions, and each min/max is a conditional that picks what
    # min/max would (the first argument on ties and NaN); tests/oracles.py
    # keeps the loop with the calls as the bit-for-bit reference.  Each sum
    # starts at 0.0, so that a sum of zero terms is +0.0 and never -0.0, and
    # adds its terms in tableau order: the samples' bits, signed zeros
    # included, are pinned in tests/test_dynamics.py.
    (
        A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64, A65,
        A71, A73, A74, A75, A76, E1, E3, E4, E5, E6, E7,
    ) = _TABLEAU
    eps, max_steps, sqrt = EPS_FIELD, MAX_STEPS, math.sqrt
    n_accepted = n_rejected = 0
    try:
        while t < t_end:
            if n_accepted + n_rejected >= max_steps:
                raise StepFailure(f"step budget {max_steps} exhausted at t = {t}", traj)
            rest = t_end - t
            if rest < dt:
                dt = rest
            at = abs(t)
            if dt < 1e-14 * (at if at > 1.0 else 1.0):
                raise StepFailure(f"step size underflow at t = {t}", traj)
            try:
                u20 = v0 + dt * (0.0 + A21 * a10)
                u21 = v1 + dt * (0.0 + A21 * a11)
                u22 = v2 + dt * (0.0 + A21 * a12)
                x = l + dt * (0.0 + A21 * v0)
                y = r1 + dt * (0.0 + A21 * v1)
                z = r2 + dt * (0.0 + A21 * v2)
                rsq = y * y + z * z
                if rsq <= (eps * (1.0 + abs(x))) ** 2 or abs(x) <= eps:
                    raise OnSingularSet
                lr = x * rsq
                a20, a21, a22 = -g / rsq, -g * y / lr, -g * z / lr
                u30 = v0 + dt * (0.0 + A31 * a10 + A32 * a20)
                u31 = v1 + dt * (0.0 + A31 * a11 + A32 * a21)
                u32 = v2 + dt * (0.0 + A31 * a12 + A32 * a22)
                x = l + dt * (0.0 + A31 * v0 + A32 * u20)
                y = r1 + dt * (0.0 + A31 * v1 + A32 * u21)
                z = r2 + dt * (0.0 + A31 * v2 + A32 * u22)
                rsq = y * y + z * z
                if rsq <= (eps * (1.0 + abs(x))) ** 2 or abs(x) <= eps:
                    raise OnSingularSet
                lr = x * rsq
                a30, a31, a32 = -g / rsq, -g * y / lr, -g * z / lr
                u40 = v0 + dt * (0.0 + A41 * a10 + A42 * a20 + A43 * a30)
                u41 = v1 + dt * (0.0 + A41 * a11 + A42 * a21 + A43 * a31)
                u42 = v2 + dt * (0.0 + A41 * a12 + A42 * a22 + A43 * a32)
                x = l + dt * (0.0 + A41 * v0 + A42 * u20 + A43 * u30)
                y = r1 + dt * (0.0 + A41 * v1 + A42 * u21 + A43 * u31)
                z = r2 + dt * (0.0 + A41 * v2 + A42 * u22 + A43 * u32)
                rsq = y * y + z * z
                if rsq <= (eps * (1.0 + abs(x))) ** 2 or abs(x) <= eps:
                    raise OnSingularSet
                lr = x * rsq
                a40, a41, a42 = -g / rsq, -g * y / lr, -g * z / lr
                u50 = v0 + dt * (0.0 + A51 * a10 + A52 * a20 + A53 * a30 + A54 * a40)
                u51 = v1 + dt * (0.0 + A51 * a11 + A52 * a21 + A53 * a31 + A54 * a41)
                u52 = v2 + dt * (0.0 + A51 * a12 + A52 * a22 + A53 * a32 + A54 * a42)
                x = l + dt * (0.0 + A51 * v0 + A52 * u20 + A53 * u30 + A54 * u40)
                y = r1 + dt * (0.0 + A51 * v1 + A52 * u21 + A53 * u31 + A54 * u41)
                z = r2 + dt * (0.0 + A51 * v2 + A52 * u22 + A53 * u32 + A54 * u42)
                rsq = y * y + z * z
                if rsq <= (eps * (1.0 + abs(x))) ** 2 or abs(x) <= eps:
                    raise OnSingularSet
                lr = x * rsq
                a50, a51, a52 = -g / rsq, -g * y / lr, -g * z / lr
                u60 = v0 + dt * (0.0 + A61 * a10 + A62 * a20 + A63 * a30 + A64 * a40 + A65 * a50)
                u61 = v1 + dt * (0.0 + A61 * a11 + A62 * a21 + A63 * a31 + A64 * a41 + A65 * a51)
                u62 = v2 + dt * (0.0 + A61 * a12 + A62 * a22 + A63 * a32 + A64 * a42 + A65 * a52)
                x = l + dt * (0.0 + A61 * v0 + A62 * u20 + A63 * u30 + A64 * u40 + A65 * u50)
                y = r1 + dt * (0.0 + A61 * v1 + A62 * u21 + A63 * u31 + A64 * u41 + A65 * u51)
                z = r2 + dt * (0.0 + A61 * v2 + A62 * u22 + A63 * u32 + A64 * u42 + A65 * u52)
                rsq = y * y + z * z
                if rsq <= (eps * (1.0 + abs(x))) ** 2 or abs(x) <= eps:
                    raise OnSingularSet
                lr = x * rsq
                a60, a61, a62 = -g / rsq, -g * y / lr, -g * z / lr
                # the 5th-order solution (p7, u7) is the 7th stage's state
                u70 = v0 + dt * (0.0 + A71 * a10 + A73 * a30 + A74 * a40 + A75 * a50 + A76 * a60)
                u71 = v1 + dt * (0.0 + A71 * a11 + A73 * a31 + A74 * a41 + A75 * a51 + A76 * a61)
                u72 = v2 + dt * (0.0 + A71 * a12 + A73 * a32 + A74 * a42 + A75 * a52 + A76 * a62)
                p70 = l + dt * (0.0 + A71 * v0 + A73 * u30 + A74 * u40 + A75 * u50 + A76 * u60)
                p71 = r1 + dt * (0.0 + A71 * v1 + A73 * u31 + A74 * u41 + A75 * u51 + A76 * u61)
                p72 = r2 + dt * (0.0 + A71 * v2 + A73 * u32 + A74 * u42 + A75 * u52 + A76 * u62)
                rsq = p71 * p71 + p72 * p72
                if rsq <= (eps * (1.0 + abs(p70))) ** 2 or abs(p70) <= eps:
                    raise OnSingularSet
                lr = p70 * rsq
                a70, a71, a72 = -g / rsq, -g * p71 / lr, -g * p72 / lr
                if abs(p70) * rsq < guard:
                    raise OnSingularSet
            except OnSingularSet:
                raise SingularApproach(f"approached the singular set near t = {t:.6g}", traj) from None
            # error estimate per component, RMS-normed against tol (1 + max(|old|, |new|))
            e0 = dt * (0.0 + E1 * v0 + E3 * u30 + E4 * u40 + E5 * u50 + E6 * u60 + E7 * u70)
            e1 = dt * (0.0 + E1 * v1 + E3 * u31 + E4 * u41 + E5 * u51 + E6 * u61 + E7 * u71)
            e2 = dt * (0.0 + E1 * v2 + E3 * u32 + E4 * u42 + E5 * u52 + E6 * u62 + E7 * u72)
            e3 = dt * (0.0 + E1 * a10 + E3 * a30 + E4 * a40 + E5 * a50 + E6 * a60 + E7 * a70)
            e4 = dt * (0.0 + E1 * a11 + E3 * a31 + E4 * a41 + E5 * a51 + E6 * a61 + E7 * a71)
            e5 = dt * (0.0 + E1 * a12 + E3 * a32 + E4 * a42 + E5 * a52 + E6 * a62 + E7 * a72)
            o0, o1, o2, o3, o4, o5 = abs(l), abs(r1), abs(r2), abs(v0), abs(v1), abs(v2)
            n0, n1, n2, n3, n4, n5 = abs(p70), abs(p71), abs(p72), abs(u70), abs(u71), abs(u72)
            try:
                err = (
                    (e0 / (tol + tol * (n0 if n0 > o0 else o0))) ** 2
                    + (e1 / (tol + tol * (n1 if n1 > o1 else o1))) ** 2
                    + (e2 / (tol + tol * (n2 if n2 > o2 else o2))) ** 2
                    + (e3 / (tol + tol * (n3 if n3 > o3 else o3))) ** 2
                    + (e4 / (tol + tol * (n4 if n4 > o4 else o4))) ** 2
                    + (e5 / (tol + tol * (n5 if n5 > o5 else o5))) ** 2
                )
            except OverflowError:  # float ** raises where a product would give inf
                msg = f"error norm overflows at t = {t}: tol = {tol} is too small to resolve"
                raise StepFailure(msg, traj) from None
            err = sqrt(err / 6.0)
            if err <= 1.0:
                t += dt
                l, r1, r2, v0, v1, v2 = p70, p71, p72, u70, u71, u72
                a10, a11, a12 = a70, a71, a72  # first-same-as-last
                times.append(t)
                states.append((l, r1, r2, v0, v1, v2))
                n_accepted += 1
            else:
                n_rejected += 1
            factor = 0.9 * (err ** -0.2 if err > 0.0 else 5.0)
            factor = factor if factor > 0.2 else 0.2
            dt *= factor if factor < 5.0 else 5.0
            if max_step is not None and max_step < dt:
                dt = max_step
    finally:
        traj.n_accepted, traj.n_rejected = n_accepted, n_rejected
    return traj


# ---------------------------------------------------------------------------
# Planar closed form


def _f_planar(z, z0: float):
    """z * ln|z/(e z0)|, the planar trajectory kernel, at a float z or
    elementwise on a float array."""
    return z * (_lib(z).log(abs(z / z0)) - 1.0)


def _time_integral(f, a: float, b: float) -> float:
    """Integral of f^-2 from a to b to TIME_TOL, the time of both closed
    forms; f runs once per quadrature call (see ternion.quadrature), on 15
    nodes for the first cell and 30 for a bisection's halves."""
    val = adaptive_quad(lambda u: _pow(f(u), -2.0)[None], a, b, TIME_TOL)
    return float(val[0])


def _root_on_grid(fun, points, bound, what, missing):
    """Brent on the first sign change of fun along points; raises missing if
    the scan finds none or runs into the pole.  The root must meet |fun| <=
    bound(root); bound is called only after the solve, so a failed scan costs
    no extra evaluations."""
    try:
        bracket = scan_bracket(fun, points)
    except PoleOnRange:
        bracket = None
    if bracket is None:
        raise missing
    a, b, fa, fb = bracket
    root = a if a == b else brent(fun, a, b, fa, fb)
    res, limit = abs(fun(root)), bound(root)
    if res > limit:
        raise RootFindingFailure(f"{what} residual {res:.3e} above {limit:.1e} at {root}")
    return root


def asymptote_solve(z0: float, z1: float) -> float:
    """Second solution of  z ln|z/(e z0)| = z1 ln|z1/(e z0)|  besides z = z1.

    Exists for 0 < z1 < e z0 (the turnaround regime) and lies on the other
    side of z0; raises NoSecondSolution otherwise.  In u = ln(z/z0) the left
    side z0 e^u (u - 1) falls from 0 at -inf to -z0 at 0 and rises back to 0
    at 1: one sign change on (-inf, 0) or (0, 1), found by Brent in u (so to
    a relative tolerance in z) to a residual of 1e-12 z0.  A z0 or z1 that
    is not finite raises DomainError.
    """
    _require_finite("asymptote equation", z0=z0, z1=z1)
    if z0 <= 0.0 or z1 <= 0.0:
        raise DomainError(f"asymptote equation normalized to z0 > 0, z1 > 0; got ({z0}, {z1})")
    target = _f_planar(z1, z0)
    if target >= 0.0:
        raise NoSecondSolution(f"no second asymptote: z1 = {z1} >= e z0 = {math.e * z0}")

    def fun(u):
        return z0 * (math.exp(u) * (u - 1.0)) - target

    # exp(-750) underflows to 0, the value at u = -inf
    end = -750.0 if z1 > z0 else 1.0
    missing = RootFindingFailure(f"no bracket for the second asymptote near z0 = {z0}")
    u = _root_on_grid(fun, (0.0, end), lambda u: ROOT_RESIDUAL * z0, "asymptote", missing)
    return z0 * math.exp(u)


class PlanarSolution:
    """Closed-form planar trajectory (r2 = M0 = M1 = 0) in the slope z = l/r1.

    v1(z) = (g/M2) ln|z/z0|
    r1(z) = M2^2 / (g (f(z) - f(z1))),  f(z) = z ln|z/(e z0)|
    t(z)  = -(M2^3/g^2) * integral from z0 to z of (f - f(z1))^(-2)

    The trajectory lives on the branch of z where f - f(z1) keeps its sign:
    between the two asymptotic slopes in the turnaround regime, or on
    (0, z1) when no second asymptote exists and the trajectory reaches the
    center.  t diverges at the branch ends (the asymptotes are reached only
    as t -> +-infinity); t is referenced so t(z0) = 0.  An input that is not
    finite raises DomainError.
    """

    def __init__(self, g: float, m2: float, z0: float, z1: float):
        _require_finite("planar solution", g=g, m2=m2, z0=z0, z1=z1)
        if m2 == 0.0:
            raise DomainError("planar solution needs M2 != 0")
        if g == 0.0:
            raise DomainError("planar solution needs g != 0")
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

    def t(self, z: float) -> float:
        """Time at slope z, with t(z0) = 0; adaptive quadrature of the
        inverse-square kernel, divergent only at the branch ends."""
        self._check_branch(z)
        if z == self.z0:
            return 0.0
        return -(self.m2**3 / self.g**2) * _time_integral(
            lambda u: _f_planar(u, self.z0) - self._c, self.z0, z
        )


def planar_solution(g: float, m2: float, z0: float, z1: float) -> PlanarSolution:
    return PlanarSolution(g, m2, z0, z1)


def state_from_planar(sol: PlanarSolution, z: float) -> MonopoleState:
    """Exact planar state at slope z (for seeding or checking integrations)."""
    r1 = sol.r1(z)
    l = z * r1
    v1 = sol.v1(z)
    v0 = (l * v1 - sol.m2) / r1
    return MonopoleState(l, r1, 0.0, v0, v1, 0.0)


# ---------------------------------------------------------------------------
# General closed form


def _kernel(m1: float, m2: float, u: float) -> float:
    """k(u) = 1/((1 + u^2)(M1 + M2 u)), the slope derivative of v1/g."""
    return 1.0 / ((1.0 + u * u) * (m1 + m2 * u))


def _pole_residue(m1: float, m2: float) -> float:
    """M2 / (M1^2 + M2^2), the residue of k at the pole -M1/M2.

    Where the sum of squares would overflow or underflow, M1 and M2 are first
    scaled by the power of two that brings max(|M1|, |M2|) into [0.5, 1),
    which is exact.
    """
    s = m1 * m1 + m2 * m2
    if 1e-300 < s < 1e300:
        return m2 / s
    e = math.frexp(max(abs(m1), abs(m2)))[1]
    s1, s2 = math.ldexp(m1, -e), math.ldexp(m2, -e)
    return math.ldexp(s2 / (s1 * s1 + s2 * s2), -e)


class _Coefficients:
    """The closed-form constants that depend on (M1, M2) alone: the pole
    -M1/M2 (None for M2 = 0), the log pair's coefficient a = -0.5i/(M1 + i M2)
    and c3 = M2/(M1^2 + M2^2).

    The base-slope solve builds one set per scattering map and evaluates
    every trial y0 through it; GeneralSolution extends it with the base
    points.

    The closed forms hold a complex-log pair a L + conj(a) conj(L) and
    evaluate it as 2 Re(a L).  Complex division, product and log are
    conjugate-symmetric in floating point (cmath's and numpy's alike), so
    the pair's imaginary part is exactly 0.0 (NaN at a non-finite slope) and
    its real part is 2 Re(a L) bit for bit, but for the sign of a zero or a
    NaN: where a difference cancels, x - x is +0.0 in either half, so the
    pair can sum -0.0 + 0.0 where the fold keeps -0.0 (v1 at y = y0 with
    M2 = 0 and |y0| >= 1).  tests/test_conjugate_pair.py keeps the pair.
    """

    def __init__(self, m1: float, m2: float):
        self.m1 = m1
        self.m2 = m2
        self.pole = (-m1 / m2) if m2 != 0.0 else None
        self._a = -0.5j / complex(m1, m2)
        self._c3 = _pole_residue(m1, m2)

    def _check_side(self, y: float, base: float):
        """Raises PoleOnRange when y and base straddle the pole; the hot
        paths test (y - pole) (base - pole) <= 0 inline and call this only to
        raise."""
        if self.pole is not None and (y - self.pole) * (base - self.pole) <= 0.0:
            raise PoleOnRange(
                f"y = {y} and y = {base} straddle the pole at y = {self.pole}"
            )

    def _check_bases(self, y0: float, y1: float):
        """Neither base point on the pole, and y1 on y0's side of it."""
        self._check_side(y0, y0)
        self._check_side(y1, y0)

    def _v1(self, g: float, y: float, y0: float) -> float:
        """v1(y) of the solution with base slope y0 (the caller checks sides)."""
        s = 2.0 * (self._a * cmath.log(complex(y, -1.0) / complex(y0, -1.0))).real
        if self.m2 != 0.0:
            ratio = (self.m1 + self.m2 * y) / (self.m1 + self.m2 * y0)
            if ratio <= 0.0:
                raise PoleOnRange(f"log argument crossed the pole between {y0} and {y}")
            s += self._c3 * math.log(ratio)
        return g * s


class GeneralSolution(_Coefficients):
    """Closed-form general trajectory in the transverse slope y = r2/r1.

    v1(y) is g times the exact partial-fraction antiderivative of
    1/((1+y^2)(M1+M2 y)) between y0 and y; r1(y) and t(y) follow from the
    angular-momentum integrals:

        r1(y) = -(M0/g) / psi(y),  psi(y) = integral from y1 to y of v1/g,
        t(y)  = (M0/g^2) * integral from y0 to y of psi^(-2).

    The complex-log pair is conjugate, so the velocity is real; it is
    evaluated as twice the real part of its first half (see _Coefficients).
    A pole at y = -M1/M2 (the l = 0 plane) must not lie between the
    evaluation point and the base points.

    The constants of the base point y0 (complex(y0, -1) and M1 + M2 y0) are
    computed once here.  psi memoizes its base term A(y1), the
    antiderivative at y1, on first use; every thread that fills the memo
    stores the same value, so a solution stays safe to share.  An input that
    is not finite raises DomainError.
    """

    def __init__(self, g: float, m0: float, m1: float, m2: float, y0: float, y1: float):
        _require_finite("general solution", g=g, m0=m0, m1=m1, m2=m2, y0=y0, y1=y1)
        if m0 == 0.0:
            raise DomainError("general solution needs M0 != 0")
        if g == 0.0:
            raise DomainError("general solution needs g != 0")
        if m1 == 0.0 and m2 == 0.0:
            raise DomainError("general solution needs M1 != 0 or M2 != 0")
        super().__init__(m1, m2)
        self.g = g
        self.m0 = m0
        self.y0 = y0
        self.y1 = y1
        self._w0 = complex(y0, -1.0)
        self._den = m1 + m2 * y0
        self._base_term = None
        self._check_bases(y0, y1)

    def v1(self, y: float) -> float:
        """Velocity component along r1 as a function of the slope y."""
        self._check_side(y, self.y0)
        return self._v1(self.g, y, self.y0)

    def _antiderivative(self, y, m=math):
        """Exact antiderivative of v1/g (base point y0 in the logs), at a
        float slope, or elementwise on a float array of slopes with m = np
        (psi picks m by algebra._lib, so floats pay for no type check here).
        """
        if m is np:
            w, clog = y - 1j, np.log
        else:
            w, clog = complex(y, -1.0), cmath.log
        pair = 2.0 * (self._a * w * (clog(w / self._w0) - 1.0)).real
        if self.m2 == 0.0:
            return pair
        num = self.m1 + self.m2 * y
        ratio = num / self._den
        if m is np:
            _fault(ratio <= 0.0, self._antiderivative, y)
        elif ratio <= 0.0:
            raise PoleOnRange(f"antiderivative crossed the pole at y = {self.pole}")
        return pair + self._c3 * (num / self.m2) * (m.log(ratio) - 1.0)

    # Derivatives in (M1, M2) at fixed y and y0.  With c = M1 + i M2 the log
    # pair's coefficient is a = -0.5i/c, so da/dM1 = 0.5i/c^2 and da/dM2 is
    # i da/dM1; c3 = -2 Re(a), and the antiderivative's c3 term is
    # q (M1 + M2 y)(log(ratio) - 1) with q = c3/M2 = |1/c|^2.  These
    # coefficients come from 1/c, so no M1^2 + M2^2 is formed for them, and
    # there is no M2 = 0 branch: there the log(ratio) terms vanish and the
    # q term's derivatives do not depend on y, so they cancel in the
    # differences that use them.

    def _d_dm(self, y: float) -> tuple:
        """((d/dM1, d/dM2) of v1(y)/g, (d/dM1, d/dM2) of _antiderivative(y)),
        the latter up to terms free of y."""
        ic = 1.0 / complex(self.m1, self.m2)
        da = 0.5j * ic * ic
        w = complex(y, -1.0)
        log_w = cmath.log(w / self._w0)
        z, za = da * log_w, da * (w * (log_w - 1.0))
        num, den, dy = self.m1 + self.m2 * y, self._den, y - self.y0
        log_ratio = math.log(num / den)
        frac = (self._c3 / num) * (dy / den)
        q = ic.real * ic.real + ic.imag * ic.imag
        qlog, qfrac = q * (log_ratio - 1.0), q * dy / den
        v_m1 = 2.0 * z.real - 2.0 * da.real * log_ratio - self.m2 * frac
        v_m2 = -2.0 * z.imag + 2.0 * da.imag * log_ratio + self.m1 * frac
        a_m1 = 2.0 * za.real + qlog * (1.0 - 2.0 * ic.real * num) - self.m2 * qfrac
        a_m2 = -2.0 * za.imag + qlog * (y + 2.0 * ic.imag * num) + self.m1 * qfrac
        return (v_m1, v_m2), (a_m1, a_m2)

    def psi(self, y):
        """Integral of v1/g from y1 to y (closed form), at a float slope or
        elementwise on a float array of slopes: A(y) - A(y1) with A the
        antiderivative.  A(y) is evaluated first, then A(y1) is taken from
        the memo, which the first call fills; an A(y1) that raises is not
        stored, so every call raises what the unmemoized psi would."""
        m, pole = _lib(y), self.pole
        if m is math:
            if pole is not None and (y - pole) * (self.y1 - pole) <= 0.0:
                self._check_side(y, self.y1)
        elif pole is not None and ((y - pole) * (self.y1 - pole) <= 0.0).any():
            # psi replays every slope in order, so the first slope whose
            # scalar psi faults raises, across the pole or otherwise
            _fault(True, self.psi, y)
        at_y = self._antiderivative(y, m)
        if self._base_term is None:
            self._base_term = self._antiderivative(self.y1)
        return at_y - self._base_term

    def r1(self, y: float) -> float:
        p = self.psi(y)
        if p == 0.0:
            raise DomainError(f"r1 diverges where the velocity integral vanishes (y = {y})")
        return -(self.m0 / self.g) / p

    def t(self, y: float) -> float:
        """Time at slope y with t(y0) = 0; diverges toward y1 and the exit slope.

        The kernel psi^(-2) has non-integrable poles at the zeros of psi, y1
        and the exit slope.  psi has the sign of psi(y0) strictly between them
        and the other sign beyond either, so y must lie where it does.
        """
        self._check_side(y, self.y0)
        p0, p = self.psi(self.y0), self.psi(y)
        if p * p0 <= 0.0 or abs(p) <= ROOT_RESIDUAL * (1.0 + abs(p0)):
            raise DomainError(
                f"t diverges at the zeros of psi, y1 = {self.y1} and the exit slope; "
                f"y = {y} is not between them (psi = {p:.3e})"
            )
        if y == self.y0:
            return 0.0
        return (self.m0 / self.g**2) * _time_integral(self.psi, self.y0, y)


def general_solution(g, m0, m1, m2, y0, y1) -> GeneralSolution:
    return GeneralSolution(g, m0, m1, m2, y0, y1)


def state_from_general(sol: GeneralSolution, y: float) -> MonopoleState:
    """Exact general-case state at slope y."""
    r1 = sol.r1(y)
    r2 = y * r1
    l = -(sol.m1 + sol.m2 * y) * r1 / sol.m0
    v1 = sol.v1(y)
    v2 = y * v1 + sol.m0 / r1
    v0 = -(sol.m1 + sol.m2 * y) * v1 / sol.m0 - sol.m2 / r1
    return MonopoleState(l, r1, r2, v0, v1, v2)


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
        _require_finite("scattering setup", **vars(self))
        if self.g == 0.0 or self.z1 == 0.0 or self.v1_inf == 0.0:
            raise DomainError("scattering setup needs g, z1 and v1_inf nonzero")
        if self.m1 + self.m2 * self.y1 == 0.0:
            raise DomainError("M1 + M2 y1 = 0 makes M0 vanish")

    @property
    def m0(self) -> float:
        return -(self.m1 + self.m2 * self.y1) / self.z1

    @property
    def v_in(self) -> tuple:
        """Incoming velocity (v0, v1, v2) at t -> -infinity."""
        return (self.z1 * self.v1_inf, self.v1_inf, self.y1 * self.v1_inf)

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
    v_in: tuple
    v_out: tuple
    rho_pl: float
    rho_perp: float


def _branch_walk(start: float, direction: float, span: float, pole: float | None):
    """start, then the end of its branch in direction: the pole, clipped,
    when it lies ahead, else points span * 10**k out, up to FAR_SPANS * span."""
    yield start
    if pole is not None and (pole - start) * direction > 0.0:
        yield pole - direction * 1e-9 * (1.0 + abs(pole))
        return
    step = span
    while step <= FAR_SPANS * span:
        yield start + direction * step
        step *= 10.0


def _solve_y0(g, m1, m2, y1, v1_inf):
    """Base slope y0 (where v1 vanishes) from v1(y1) = v1_inf.

    v1(y1) is monotone in y0 on y1's side of the pole and has the sign of
    g (M1 + M2 y1) for y0 < y1, so the sign of v1_inf picks y0's side.

    The (M1, M2) constants are computed once, and every trial y0 evaluates
    v1(y1) through them with the formula GeneralSolution.v1 uses, so no
    trial builds a solution.  Each trial still runs every check a solution
    would: PoleOnRange when y0 lies on the pole or y0 and y1 straddle it
    (tested inline, with _check_bases called only to raise), and PoleOnRange
    when the log ratio is not positive.  No trial tests an imaginary
    residue: the formula's complex-log pair is exactly real in floating
    point too (see _Coefficients).

    Near the pole |dv1/dy0| = |g k(y0)| grows like 1/|y0 - pole|, and Brent's
    x error d = brent_xerr(y0) alone moves v1 past the plain residual bound.
    So when y0 lies nearer the pole than y1, the bound adds d |g k(y0)|.
    Elsewhere it does not: when |M| is tiny, k is huge on the whole branch,
    and the added term would admit roots that psi cannot resolve.
    """
    coeffs = _Coefficients(m1, m2)
    pole = coeffs.pole
    direction = -1.0 if (v1_inf > 0.0) == (g * (m1 + m2 * y1) > 0.0) else 1.0

    def vel_from_y0(y0):
        if pole is not None:
            d0 = y0 - pole
            if d0 * d0 <= 0.0 or (y1 - pole) * d0 <= 0.0:
                coeffs._check_bases(y0, y1)
        return coeffs._v1(g, y1, y0) - v1_inf

    points = _branch_walk(y1, direction, 1.0 + abs(y1), pole)
    missing = RootFindingFailure(
        f"no base slope y0 matches v1_inf = {v1_inf} (M1 = {m1}, M2 = {m2})"
    )

    def bound(y0):
        limit = ROOT_RESIDUAL * (1.0 + abs(v1_inf))
        if pole is not None and abs(y0 - pole) < abs(y0 - y1):
            limit += brent_xerr(y0) * abs(g * _kernel(m1, m2, y0))
        return limit

    return _root_on_grid(vel_from_y0, points, bound, "base-slope", missing)


def _solve_ytilde1(sol: GeneralSolution):
    """Second zero of psi besides y1 (the exit slope): psi is monotone beyond
    y0, away from y1, so it is the one sign change there."""
    y0, y1 = sol.y0, sol.y1
    points = _branch_walk(y0, math.copysign(1.0, y0 - y1), 1.0 + abs(y0 - y1), sol.pole)
    missing = NoSecondSolution(
        f"velocity integral has no second zero beyond y0 = {y0} (M1 = {sol.m1}, M2 = {sol.m2})"
    )
    return _root_on_grid(
        sol.psi, points, lambda yt: ROOT_RESIDUAL * (1.0 + abs(sol.psi(y0))), "exit-slope", missing
    )


def _slope_derivatives(sol: GeneralSolution, ytilde1: float, v1_out: float) -> list:
    """(dy0/dMi, dytilde1/dMi, dv1_out/dMi) for i = 1, 2; the formulas are in
    scattering_map's docstring."""
    y0, y1 = sol.y0, sol.y1
    k0 = _kernel(sol.m1, sol.m2, y0)
    k_out = _kernel(sol.m1, sol.m2, ytilde1)
    (dv_in, da_in), (dv_out, da_out) = sol._d_dm(y1), sol._d_dm(ytilde1)
    rows = []
    for i in (0, 1):
        dy0 = dv_in[i] / k0
        dyt = -(da_out[i] - da_in[i] - k0 * (ytilde1 - y1) * dy0) / (v1_out / sol.g)
        rows.append((dy0, dyt, sol.g * (dv_out[i] + k_out * dyt - k0 * dy0)))
    return rows


def _scatter(setup: ScatteringSetup) -> ScatteringResult:
    """scattering_map without its guard for float errors."""
    g, y1, z1, v1_inf = setup.g, setup.y1, setup.z1, setup.v1_inf
    m1, m2 = setup.m1, setup.m2
    m0 = -(m1 + m2 * y1) / z1
    if m0 == 0.0:
        raise DomainError("M0 = 0 at this grid point")
    y0 = _solve_y0(g, m1, m2, y1, v1_inf)
    sol = GeneralSolution(g, m0, m1, m2, y0, y1)
    ytilde1 = _solve_ytilde1(sol)
    v1_out = sol.v1(ytilde1)
    if v1_out == 0.0:
        raise RootFindingFailure(f"v1 = 0 at the exit slope {ytilde1}: not resolved from y0 = {y0}")
    r = (m1 + m2 * ytilde1) / m0
    spread = 1.0 + ytilde1 * ytilde1 + r * r

    (_, dy1, dv1), (_, dy2, dv2) = _slope_derivatives(sol, ytilde1, v1_out)
    # dR/dMi = (d(M1 + M2 ytilde1)/dMi - R dM0/dMi) / M0, dM0/dMi = -(1, y1)/z1
    dr1 = (1.0 + m2 * dy1 + r / z1) / m0
    dr2 = (ytilde1 + m2 * dy2 + r * y1 / z1) / m0
    de1 = v1_out * (dv1 * spread + v1_out * (ytilde1 * dy1 + r * dr1))
    de2 = v1_out * (dv2 * spread + v1_out * (ytilde1 * dy2 + r * dr2))
    jac = dy1 * de2 - dy2 * de1
    e2 = v1_out * v1_out * spread
    if not (math.isfinite(jac) and math.isfinite(e2)):
        raise NumericalBreakdown(f"E or J is not finite (J = {jac})")
    if abs(jac) < EPS_JACOBIAN:
        raise JacobianSingular(f"|J| = {abs(jac):.3e} below {EPS_JACOBIAN:.1e}")

    vx, vy, vz = v_in = setup.v_in
    speed_sq = vx * vx + vy * vy + vz * vz
    speed = math.sqrt(speed_sq)
    return ScatteringResult(
        m1=m1,
        m2=m2,
        m0=m0,
        y0=y0,
        ytilde1=ytilde1,
        energy=0.5 * e2,
        jacobian=jac,
        dsigma=1.0 / (jac * abs(vx) * speed),
        v_in=v_in,
        v_out=(-(m1 + m2 * ytilde1) * v1_out / m0, v1_out, ytilde1 * v1_out),
        rho_pl=m2 / speed,
        rho_perp=(vx * m1 - vy * m0) / speed_sq,
    )


def scattering_map(setup: ScatteringSetup) -> ScatteringResult:
    """Exit slope, final energy, and differential cross-section element.

    One solve gives the base slope y0 (v1(y1) = v1_inf) and the exit slope
    ytilde1 (psi(ytilde1) = 0 beyond y0).  The map (M1, M2) -> (ytilde1, E),
    with the incoming direction and speed fixed, is then differentiated
    implicitly.  Write D(y) = v1(y)/g = K(y) - K(y0), k = K' =
    1/((1 + u^2)(M1 + M2 u)), A for the antiderivative of D, and d_i for the
    derivative in Mi at fixed y and y0 (closed forms beside v1):

        dy0/dMi      = d_i D(y1) / k(y0)
        dytilde1/dMi = -[d_i A(ytilde1) - d_i A(y1)
                         - k(y0) (ytilde1 - y1) dy0/dMi] / D(ytilde1)
        dv1_out/dMi  = g [d_i D(ytilde1) + k(ytilde1) dytilde1/dMi
                          - k(y0) dy0/dMi]

    and E = v1_out^2 (1 + ytilde1^2 + R^2) / 2 with R = (M1 + M2 ytilde1)/M0
    and M0 = -(M1 + M2 y1)/z1 follows by the chain rule.  With
    J = dytilde1/dM1 dE/dM2 - dytilde1/dM2 dE/dM1 the cross-section element is

        dsigma = d(ytilde1) dE / (J |v0(-inf)| |v(-inf)|).
    """
    try:
        return _scatter(setup)
    except (ArithmeticError, ValueError) as exc:
        # extreme inputs (|M| near 1e-300, say) leave the float range
        where = f"(M1, M2) = ({setup.m1}, {setup.m2})"
        raise NumericalBreakdown(f"{type(exc).__name__}: {exc} at {where}") from exc


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
