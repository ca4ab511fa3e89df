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
    "angular_momentum",
    "integrate",
    "planar_solution",
    "asymptote_solve",
    "general_solution",
    "scattering_map",
    "state_from_planar",
    "state_from_general",
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


def _accel(l, r1, r2, g):
    """Acceleration -g h = k (l, r1, r2) with k = -g / (l |r|^2): the force is
    central, so one division gives all three components.  Raises
    OnSingularSet near the singular sets."""
    rsq = r1 * r1 + r2 * r2
    edge = EPS_FIELD * (1.0 + abs(l))
    if rsq <= edge * edge or abs(l) <= EPS_FIELD:
        raise OnSingularSet(f"state at (l, r1, r2) = ({l}, {r1}, {r2})")
    k = -g / (l * rsq)
    return (k * l, k * r1, k * r2)


# DOP853, the Dormand-Prince 8(5,3) pair, as scipy 1.17.1 lists it
# (scipy/integrate/_ivp/dop853_coefficients.py).  Row i of _DOP853_A holds
# a_i1 .. a_i,i-1 of stage i = 2..12; _DOP853_B holds the 8th-order weights,
# which are also the row of a 13th stage at the new state, whose slope is the
# next step's first (first-same-as-last).  _DOP853_E5 holds the weights of the
# 5th-order error estimate over stages 1..13; the 3rd-order one's are b minus
# _DOP853_BHAT3, with a 13th entry of 0.0.
_DOP853_A = (
    (  # stage 2
        5.26001519587677318785587544488e-2,
    ),
    (  # stage 3
        1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2,
    ),
    (  # stage 4
        2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2,
    ),
    (  # stage 5
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (  # stage 6
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (  # stage 7
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ),
    (  # stage 8
        3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (  # stage 9
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ),
    (  # stage 10
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (  # stage 11
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ),
    (  # stage 12
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
)
_DOP853_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
_DOP853_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0,
)
_DOP853_BHAT3 = (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1,
)

_DOP853_E3 = tuple(b - bhat for b, bhat in zip(_DOP853_B, _DOP853_BHAT3)) + (0.0,)


def _row_sum(row) -> float:
    """Plain float sum from 0.0 in row order (builtin sum compensates from
    Python 3.12 on, which would move bits)."""
    s = 0.0
    for x in row:
        s += x
    return s


def _times_a(w) -> tuple:
    """w A for weights w over stages 1..n (n <= 13, b as row 13): entry k
    is the sum over j of w_j a_jk, k = 1..n-1, from 0.0 in stage order."""
    rows = ((),) + _DOP853_A + (_DOP853_B,)
    out = []
    for k in range(len(w) - 1):
        s = 0.0
        for j in range(k + 1, len(w)):
            s += w[j] * rows[j][k]
        out.append(s)
    return tuple(out)


# DOP853 in Nystrom form (Hairer, Norsett & Wanner, Solving ODEs I, II.14).
# The force depends on the position alone, so stage i's velocity
# v + dt sum_k a_ik a_k enters only positions and folds into the tables:
# stage i sits at x + dt (c_i v + dt sum_k abar_ik a_k), the new state is
# (x + dt (v + dt sum_k bbar_k a_k), v + dt sum_k b_k a_k), and the position
# errors are dt^2 sum_k ebar_k a_k, with c_i = sum_j a_ij, abar = A A,
# bbar = b A and ebar = E A.  No stage velocity is formed.
_C = tuple(_row_sum(row) for row in _DOP853_A)
_ABAR = tuple(_times_a(row) for row in _DOP853_A)
_BBAR = _times_a(_DOP853_B)
_EBAR5 = _times_a(_DOP853_E5)
_EBAR3 = _times_a(_DOP853_E3)


def integrate(
    s0: MonopoleState,
    g: float,
    t_end: float,
    tol: float = 1e-10,
    max_step: float | None = None,
) -> Trajectory:
    """Adaptive DOP853 integration in Nystrom form from s0.t to t_end.

    Each stage evaluates the central force as one scalar k = -g / (l |r|^2)
    times the position.  The step size follows Gustafsson's predictive
    controller (Hairer & Wanner, Solving ODEs II, IV.8): after an accept the
    factor is the smaller of the usual 0.9 err^(-1/8) and 0.9 (dt / dt_acc)
    (err_acc / err^2)^(1/8) from the previous accept, clamped to [0.2, 5].
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
    scale0 = math.sqrt(l * l + r1 * r1 + r2 * r2)
    guard = SINGULAR_GUARD * (scale0 * scale0 * scale0)
    traj = Trajectory()
    times, states = traj.times, traj.states
    times.append(t)
    states.append((l, r1, r2, v0, v1, v2))

    # Stage k's slope is the acceleration (ak_0, ak_1, ak_2) at its position;
    # stage 1's is carried over from the previous step.
    try:
        a1_0, a1_1, a1_2 = _accel(l, r1, r2, g)
    except OnSingularSet as exc:
        raise SingularApproach("initial state inadmissible", traj) from exc

    span = t_end - t
    fnorm = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2 + a1_0 * a1_0 + a1_1 * a1_1 + a1_2 * a1_2)
    ynorm = math.sqrt(l * l + r1 * r1 + r2 * r2 + v0 * v0 + v1 * v1 + v2 * v2)
    dt = min(span / 100.0, 0.01 * (1.0 + ynorm) / (1.0 + fnorm))
    if max_step is not None:
        dt = min(dt, max_step)

    # The step is written out for speed, with no call but abs, list.append and
    # math.sqrt (correctly rounded, so no libm reaches a step's bits).  The
    # tables' nonzero entries are unpacked into locals: C_i = c_i, AAi_k =
    # abar_ik, BA_k = bbar_k, B_k = b_k, E5_k and E3_k the velocity error
    # weights and E5A_k and E3A_k the position ones; the _ are zero entries,
    # left out.  Each stage's admissibility test and acceleration repeat
    # _accel's expressions, and each min/max is a conditional that picks what
    # min/max would (the first argument on ties and NaN); tests/oracles.py
    # keeps the loop with the calls as the bit-for-bit reference.  Each sum
    # starts at its first term and adds the rest in stage order: the samples'
    # bits, signed zeros included, are pinned in tests/test_dynamics.py.
    C_2, C_3, C_4, C_5, C_6, C_7, C_8, C_9, C_10, C_11, C_12 = _C
    (
        (),
        (AA3_1,),
        (AA4_1, AA4_2),
        (AA5_1, AA5_2, AA5_3),
        (AA6_1, _, AA6_3, AA6_4),
        (AA7_1, _, AA7_3, AA7_4, AA7_5),
        (AA8_1, _, AA8_3, AA8_4, AA8_5, AA8_6),
        (AA9_1, _, AA9_3, AA9_4, AA9_5, AA9_6, AA9_7),
        (AA10_1, _, AA10_3, AA10_4, AA10_5, AA10_6, AA10_7, AA10_8),
        (AA11_1, _, AA11_3, AA11_4, AA11_5, AA11_6, AA11_7, AA11_8, AA11_9),
        (AA12_1, _, AA12_3, AA12_4, AA12_5, AA12_6, AA12_7, AA12_8, AA12_9, AA12_10),
    ) = _ABAR
    BA_1, _, _, BA_4, BA_5, BA_6, BA_7, BA_8, BA_9, BA_10, BA_11 = _BBAR
    B_1, _, _, _, _, B_6, B_7, B_8, B_9, B_10, B_11, B_12 = _DOP853_B
    E5A_1, _, _, E5A_4, E5A_5, E5A_6, E5A_7, E5A_8, E5A_9, E5A_10, E5A_11, _ = _EBAR5
    E5_1, _, _, _, _, E5_6, E5_7, E5_8, E5_9, E5_10, E5_11, E5_12, _ = _DOP853_E5
    E3A_1, _, _, E3A_4, E3A_5, E3A_6, E3A_7, E3A_8, E3A_9, E3A_10, E3A_11, _ = _EBAR3
    E3_1, _, _, _, _, E3_6, E3_7, E3_8, E3_9, E3_10, E3_11, E3_12, _ = _DOP853_E3
    eps, max_steps, sqrt, inf = EPS_FIELD, MAX_STEPS, math.sqrt, math.inf
    n_accepted = n_rejected = 0
    dt_acc = err_acc = 1.0  # the last accepted step and its error, floored at 0.01
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
                # stage 2: its AA row is empty, so it has no sum
                x = l + dt * (C_2 * v0)
                y = r1 + dt * (C_2 * v1)
                z = r2 + dt * (C_2 * v2)
                rsq = y * y + z * z
                edge = eps * (1.0 + abs(x))
                if rsq <= edge * edge or abs(x) <= eps:
                    raise OnSingularSet
                k = -g / (x * rsq)
                a2_0, a2_1, a2_2 = k * x, k * y, k * z
                # stage 3
                x = l + dt * (C_3 * v0 + dt * (AA3_1 * a1_0))
                y = r1 + dt * (C_3 * v1 + dt * (AA3_1 * a1_1))
                z = r2 + dt * (C_3 * v2 + dt * (AA3_1 * a1_2))
                rsq = y * y + z * z
                edge = eps * (1.0 + abs(x))
                if rsq <= edge * edge or abs(x) <= eps:
                    raise OnSingularSet
                k = -g / (x * rsq)
                a3_0, a3_1, a3_2 = k * x, k * y, k * z
                # stage 4
                x = l + dt * (C_4 * v0 + dt * (AA4_1 * a1_0 + AA4_2 * a2_0))
                y = r1 + dt * (C_4 * v1 + dt * (AA4_1 * a1_1 + AA4_2 * a2_1))
                z = r2 + dt * (C_4 * v2 + dt * (AA4_1 * a1_2 + AA4_2 * a2_2))
                rsq = y * y + z * z
                edge = eps * (1.0 + abs(x))
                if rsq <= edge * edge or abs(x) <= eps:
                    raise OnSingularSet
                k = -g / (x * rsq)
                a4_0, a4_1, a4_2 = k * x, k * y, k * z
                # stage 5
                x = l + dt * (C_5 * v0 + dt * (AA5_1 * a1_0 + AA5_2 * a2_0 + AA5_3 * a3_0))
                y = r1 + dt * (C_5 * v1 + dt * (AA5_1 * a1_1 + AA5_2 * a2_1 + AA5_3 * a3_1))
                z = r2 + dt * (C_5 * v2 + dt * (AA5_1 * a1_2 + AA5_2 * a2_2 + AA5_3 * a3_2))
                rsq = y * y + z * z
                edge = eps * (1.0 + abs(x))
                if rsq <= edge * edge or abs(x) <= eps:
                    raise OnSingularSet
                k = -g / (x * rsq)
                a5_0, a5_1, a5_2 = k * x, k * y, k * z
                # stage 6
                x = l + dt * (C_6 * v0 + dt * (AA6_1 * a1_0 + AA6_3 * a3_0 + AA6_4 * a4_0))
                y = r1 + dt * (C_6 * v1 + dt * (AA6_1 * a1_1 + AA6_3 * a3_1 + AA6_4 * a4_1))
                z = r2 + dt * (C_6 * v2 + dt * (AA6_1 * a1_2 + AA6_3 * a3_2 + AA6_4 * a4_2))
                rsq = y * y + z * z
                edge = eps * (1.0 + abs(x))
                if rsq <= edge * edge or abs(x) <= eps:
                    raise OnSingularSet
                k = -g / (x * rsq)
                a6_0, a6_1, a6_2 = k * x, k * y, k * z
                # stage 7
                x = l + dt * (C_7 * v0 + dt * (
                    AA7_1 * a1_0 + AA7_3 * a3_0 + AA7_4 * a4_0 + AA7_5 * a5_0
                ))
                y = r1 + dt * (C_7 * v1 + dt * (
                    AA7_1 * a1_1 + AA7_3 * a3_1 + AA7_4 * a4_1 + AA7_5 * a5_1
                ))
                z = r2 + dt * (C_7 * v2 + dt * (
                    AA7_1 * a1_2 + AA7_3 * a3_2 + AA7_4 * a4_2 + AA7_5 * a5_2
                ))
                rsq = y * y + z * z
                edge = eps * (1.0 + abs(x))
                if rsq <= edge * edge or abs(x) <= eps:
                    raise OnSingularSet
                k = -g / (x * rsq)
                a7_0, a7_1, a7_2 = k * x, k * y, k * z
                # stage 8
                x = l + dt * (C_8 * v0 + dt * (
                    AA8_1 * a1_0 + AA8_3 * a3_0 + AA8_4 * a4_0 + AA8_5 * a5_0 + AA8_6 * a6_0
                ))
                y = r1 + dt * (C_8 * v1 + dt * (
                    AA8_1 * a1_1 + AA8_3 * a3_1 + AA8_4 * a4_1 + AA8_5 * a5_1 + AA8_6 * a6_1
                ))
                z = r2 + dt * (C_8 * v2 + dt * (
                    AA8_1 * a1_2 + AA8_3 * a3_2 + AA8_4 * a4_2 + AA8_5 * a5_2 + AA8_6 * a6_2
                ))
                rsq = y * y + z * z
                edge = eps * (1.0 + abs(x))
                if rsq <= edge * edge or abs(x) <= eps:
                    raise OnSingularSet
                k = -g / (x * rsq)
                a8_0, a8_1, a8_2 = k * x, k * y, k * z
                # stage 9
                x = l + dt * (C_9 * v0 + dt * (
                    AA9_1 * a1_0 + AA9_3 * a3_0 + AA9_4 * a4_0 + AA9_5 * a5_0 + AA9_6 * a6_0
                    + AA9_7 * a7_0
                ))
                y = r1 + dt * (C_9 * v1 + dt * (
                    AA9_1 * a1_1 + AA9_3 * a3_1 + AA9_4 * a4_1 + AA9_5 * a5_1 + AA9_6 * a6_1
                    + AA9_7 * a7_1
                ))
                z = r2 + dt * (C_9 * v2 + dt * (
                    AA9_1 * a1_2 + AA9_3 * a3_2 + AA9_4 * a4_2 + AA9_5 * a5_2 + AA9_6 * a6_2
                    + AA9_7 * a7_2
                ))
                rsq = y * y + z * z
                edge = eps * (1.0 + abs(x))
                if rsq <= edge * edge or abs(x) <= eps:
                    raise OnSingularSet
                k = -g / (x * rsq)
                a9_0, a9_1, a9_2 = k * x, k * y, k * z
                # stage 10
                x = l + dt * (C_10 * v0 + dt * (
                    AA10_1 * a1_0 + AA10_3 * a3_0 + AA10_4 * a4_0 + AA10_5 * a5_0
                    + AA10_6 * a6_0 + AA10_7 * a7_0 + AA10_8 * a8_0
                ))
                y = r1 + dt * (C_10 * v1 + dt * (
                    AA10_1 * a1_1 + AA10_3 * a3_1 + AA10_4 * a4_1 + AA10_5 * a5_1
                    + AA10_6 * a6_1 + AA10_7 * a7_1 + AA10_8 * a8_1
                ))
                z = r2 + dt * (C_10 * v2 + dt * (
                    AA10_1 * a1_2 + AA10_3 * a3_2 + AA10_4 * a4_2 + AA10_5 * a5_2
                    + AA10_6 * a6_2 + AA10_7 * a7_2 + AA10_8 * a8_2
                ))
                rsq = y * y + z * z
                edge = eps * (1.0 + abs(x))
                if rsq <= edge * edge or abs(x) <= eps:
                    raise OnSingularSet
                k = -g / (x * rsq)
                a10_0, a10_1, a10_2 = k * x, k * y, k * z
                # stage 11
                x = l + dt * (C_11 * v0 + dt * (
                    AA11_1 * a1_0 + AA11_3 * a3_0 + AA11_4 * a4_0 + AA11_5 * a5_0
                    + AA11_6 * a6_0 + AA11_7 * a7_0 + AA11_8 * a8_0 + AA11_9 * a9_0
                ))
                y = r1 + dt * (C_11 * v1 + dt * (
                    AA11_1 * a1_1 + AA11_3 * a3_1 + AA11_4 * a4_1 + AA11_5 * a5_1
                    + AA11_6 * a6_1 + AA11_7 * a7_1 + AA11_8 * a8_1 + AA11_9 * a9_1
                ))
                z = r2 + dt * (C_11 * v2 + dt * (
                    AA11_1 * a1_2 + AA11_3 * a3_2 + AA11_4 * a4_2 + AA11_5 * a5_2
                    + AA11_6 * a6_2 + AA11_7 * a7_2 + AA11_8 * a8_2 + AA11_9 * a9_2
                ))
                rsq = y * y + z * z
                edge = eps * (1.0 + abs(x))
                if rsq <= edge * edge or abs(x) <= eps:
                    raise OnSingularSet
                k = -g / (x * rsq)
                a11_0, a11_1, a11_2 = k * x, k * y, k * z
                # stage 12
                x = l + dt * (C_12 * v0 + dt * (
                    AA12_1 * a1_0 + AA12_3 * a3_0 + AA12_4 * a4_0 + AA12_5 * a5_0
                    + AA12_6 * a6_0 + AA12_7 * a7_0 + AA12_8 * a8_0 + AA12_9 * a9_0
                    + AA12_10 * a10_0
                ))
                y = r1 + dt * (C_12 * v1 + dt * (
                    AA12_1 * a1_1 + AA12_3 * a3_1 + AA12_4 * a4_1 + AA12_5 * a5_1
                    + AA12_6 * a6_1 + AA12_7 * a7_1 + AA12_8 * a8_1 + AA12_9 * a9_1
                    + AA12_10 * a10_1
                ))
                z = r2 + dt * (C_12 * v2 + dt * (
                    AA12_1 * a1_2 + AA12_3 * a3_2 + AA12_4 * a4_2 + AA12_5 * a5_2
                    + AA12_6 * a6_2 + AA12_7 * a7_2 + AA12_8 * a8_2 + AA12_9 * a9_2
                    + AA12_10 * a10_2
                ))
                rsq = y * y + z * z
                edge = eps * (1.0 + abs(x))
                if rsq <= edge * edge or abs(x) <= eps:
                    raise OnSingularSet
                k = -g / (x * rsq)
                a12_0, a12_1, a12_2 = k * x, k * y, k * z
                # the new position; its slope is the next step's first (first-same-as-last)
                p0 = l + dt * (v0 + dt * (
                    BA_1 * a1_0 + BA_4 * a4_0 + BA_5 * a5_0 + BA_6 * a6_0 + BA_7 * a7_0
                    + BA_8 * a8_0 + BA_9 * a9_0 + BA_10 * a10_0 + BA_11 * a11_0
                ))
                p1 = r1 + dt * (v1 + dt * (
                    BA_1 * a1_1 + BA_4 * a4_1 + BA_5 * a5_1 + BA_6 * a6_1 + BA_7 * a7_1
                    + BA_8 * a8_1 + BA_9 * a9_1 + BA_10 * a10_1 + BA_11 * a11_1
                ))
                p2 = r2 + dt * (v2 + dt * (
                    BA_1 * a1_2 + BA_4 * a4_2 + BA_5 * a5_2 + BA_6 * a6_2 + BA_7 * a7_2
                    + BA_8 * a8_2 + BA_9 * a9_2 + BA_10 * a10_2 + BA_11 * a11_2
                ))
                rsq = p1 * p1 + p2 * p2
                edge = eps * (1.0 + abs(p0))
                if rsq <= edge * edge or abs(p0) <= eps:
                    raise OnSingularSet
                k = -g / (p0 * rsq)
                a13_0, a13_1, a13_2 = k * p0, k * p1, k * p2
                if abs(p0) * rsq < guard:
                    raise OnSingularSet
            except OnSingularSet:
                raise SingularApproach(f"approached the singular set near t = {t:.6g}", traj) from None
            # the new velocity
            u0 = v0 + dt * (
                B_1 * a1_0 + B_6 * a6_0 + B_7 * a7_0 + B_8 * a8_0 + B_9 * a9_0 + B_10 * a10_0
                + B_11 * a11_0 + B_12 * a12_0
            )
            u1 = v1 + dt * (
                B_1 * a1_1 + B_6 * a6_1 + B_7 * a7_1 + B_8 * a8_1 + B_9 * a9_1 + B_10 * a10_1
                + B_11 * a11_1 + B_12 * a12_1
            )
            u2 = v2 + dt * (
                B_1 * a1_2 + B_6 * a6_2 + B_7 * a7_2 + B_8 * a8_2 + B_9 * a9_2 + B_10 * a10_2
                + B_11 * a11_2 + B_12 * a12_2
            )
            # 5th- and 3rd-order error estimates: dt^2 sums in the positions, dt sums
            # in the velocities
            h2 = dt * dt
            d5_0 = h2 * (
                E5A_1 * a1_0 + E5A_4 * a4_0 + E5A_5 * a5_0 + E5A_6 * a6_0 + E5A_7 * a7_0
                + E5A_8 * a8_0 + E5A_9 * a9_0 + E5A_10 * a10_0 + E5A_11 * a11_0
            )
            d5_1 = h2 * (
                E5A_1 * a1_1 + E5A_4 * a4_1 + E5A_5 * a5_1 + E5A_6 * a6_1 + E5A_7 * a7_1
                + E5A_8 * a8_1 + E5A_9 * a9_1 + E5A_10 * a10_1 + E5A_11 * a11_1
            )
            d5_2 = h2 * (
                E5A_1 * a1_2 + E5A_4 * a4_2 + E5A_5 * a5_2 + E5A_6 * a6_2 + E5A_7 * a7_2
                + E5A_8 * a8_2 + E5A_9 * a9_2 + E5A_10 * a10_2 + E5A_11 * a11_2
            )
            d5_3 = dt * (
                E5_1 * a1_0 + E5_6 * a6_0 + E5_7 * a7_0 + E5_8 * a8_0 + E5_9 * a9_0
                + E5_10 * a10_0 + E5_11 * a11_0 + E5_12 * a12_0
            )
            d5_4 = dt * (
                E5_1 * a1_1 + E5_6 * a6_1 + E5_7 * a7_1 + E5_8 * a8_1 + E5_9 * a9_1
                + E5_10 * a10_1 + E5_11 * a11_1 + E5_12 * a12_1
            )
            d5_5 = dt * (
                E5_1 * a1_2 + E5_6 * a6_2 + E5_7 * a7_2 + E5_8 * a8_2 + E5_9 * a9_2
                + E5_10 * a10_2 + E5_11 * a11_2 + E5_12 * a12_2
            )
            d3_0 = h2 * (
                E3A_1 * a1_0 + E3A_4 * a4_0 + E3A_5 * a5_0 + E3A_6 * a6_0 + E3A_7 * a7_0
                + E3A_8 * a8_0 + E3A_9 * a9_0 + E3A_10 * a10_0 + E3A_11 * a11_0
            )
            d3_1 = h2 * (
                E3A_1 * a1_1 + E3A_4 * a4_1 + E3A_5 * a5_1 + E3A_6 * a6_1 + E3A_7 * a7_1
                + E3A_8 * a8_1 + E3A_9 * a9_1 + E3A_10 * a10_1 + E3A_11 * a11_1
            )
            d3_2 = h2 * (
                E3A_1 * a1_2 + E3A_4 * a4_2 + E3A_5 * a5_2 + E3A_6 * a6_2 + E3A_7 * a7_2
                + E3A_8 * a8_2 + E3A_9 * a9_2 + E3A_10 * a10_2 + E3A_11 * a11_2
            )
            d3_3 = dt * (
                E3_1 * a1_0 + E3_6 * a6_0 + E3_7 * a7_0 + E3_8 * a8_0 + E3_9 * a9_0
                + E3_10 * a10_0 + E3_11 * a11_0 + E3_12 * a12_0
            )
            d3_4 = dt * (
                E3_1 * a1_1 + E3_6 * a6_1 + E3_7 * a7_1 + E3_8 * a8_1 + E3_9 * a9_1
                + E3_10 * a10_1 + E3_11 * a11_1 + E3_12 * a12_1
            )
            d3_5 = dt * (
                E3_1 * a1_2 + E3_6 * a6_2 + E3_7 * a7_2 + E3_8 * a8_2 + E3_9 * a9_2
                + E3_10 * a10_2 + E3_11 * a11_2 + E3_12 * a12_2
            )
            # RMS norms over the per-component scale tol (1 + max(|old|, |new|)),
            # combined as DOP853 does: err5^2 / sqrt((err5^2 + 0.01 err3^2) 6)
            o0, o1, o2, o3, o4, o5 = abs(l), abs(r1), abs(r2), abs(v0), abs(v1), abs(v2)
            n0, n1, n2, n3, n4, n5 = abs(p0), abs(p1), abs(p2), abs(u0), abs(u1), abs(u2)
            w0 = tol + tol * (n0 if n0 > o0 else o0)
            w1 = tol + tol * (n1 if n1 > o1 else o1)
            w2 = tol + tol * (n2 if n2 > o2 else o2)
            w3 = tol + tol * (n3 if n3 > o3 else o3)
            w4 = tol + tol * (n4 if n4 > o4 else o4)
            w5 = tol + tol * (n5 if n5 > o5 else o5)
            q0, q1, q2 = d5_0 / w0, d5_1 / w1, d5_2 / w2
            q3, q4, q5 = d5_3 / w3, d5_4 / w4, d5_5 / w5
            err5 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4 + q5 * q5
            q0, q1, q2 = d3_0 / w0, d3_1 / w1, d3_2 / w2
            q3, q4, q5 = d3_3 / w3, d3_4 / w4, d3_5 / w5
            err3 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4 + q5 * q5
            denom = (err5 + 0.01 * err3) * 6.0
            if denom == inf:
                msg = f"error norm overflows at t = {t}: tol = {tol} is too small to resolve"
                raise StepFailure(msg, traj)
            err = err5 / sqrt(denom) if err5 > 0.0 else 0.0
            # err^(-1/8) as three square roots
            factor = 0.9 * (1.0 / sqrt(sqrt(sqrt(err))) if err > 0.0 else 5.0)
            if err <= 1.0:
                t += dt
                l, r1, r2, v0, v1, v2 = p0, p1, p2, u0, u1, u2
                a1_0, a1_1, a1_2 = a13_0, a13_1, a13_2  # first-same-as-last
                times.append(t)
                states.append((l, r1, r2, v0, v1, v2))
                n_accepted += 1
                # Gustafsson's predictive control: from the second accept on, the
                # factor is at most 0.9 (dt / dt_acc) (err_acc / err^2)^(1/8), which
                # keeps a steadily shrinking step from growing into a rejection.
                # err_acc is divided by err twice: err^2 underflows to 0.0 for
                # err below 1e-162 (g = 1e-165 reaches it), where this gives inf
                if n_accepted > 1 and err > 0.0:
                    pred = 0.9 * (dt / dt_acc) * sqrt(sqrt(sqrt(err_acc / err / err)))
                    if pred < factor:
                        factor = pred
                dt_acc, err_acc = dt, (0.01 if err < 0.01 else err)
            else:
                n_rejected += 1
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
    """Brent on the first sign change of fun along points; raises missing()
    if the scan finds none or runs into the pole, so that a solve that
    succeeds formats no message.  The root must meet |fun| <= bound(root);
    bound is called only after the solve, so a failed scan costs no extra
    evaluations."""
    try:
        bracket = scan_bracket(fun, points)
    except PoleOnRange:
        bracket = None
    if bracket is None:
        raise missing()
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

    def missing():
        return RootFindingFailure(f"no bracket for the second asymptote near z0 = {z0}")

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

    def _v1(self, g: float, w: complex, num: float, w0: complex, den: float) -> float:
        """v1(y) of the solution with base slope y0, y0 off the pole, from the
        slopes' constants: w = complex(y, -1), num = M1 + M2 y, and w0, den
        the same of y0."""
        s = 2.0 * (self._a * cmath.log(w / w0)).real
        if self.m2 != 0.0:
            ratio = num / den
            if ratio <= 0.0:
                raise PoleOnRange(f"log argument crossed the pole between {w0.real} and {w.real}")
            s += self._c3 * math.log(ratio)
        return g * s


class GeneralSolution(_Coefficients):
    """Closed-form general trajectory in the transverse slope y = r2/r1.

    v1(y) is g times the exact partial-fraction antiderivative of
    1/((1+y^2)(M1+M2 y)) between y0 and y; r1(y) and t(y) follow from the
    angular-momentum integrals:

        r1(y) = -(M0/g) / psi(y),  psi(y) = integral from y1 to y of v1/g,
        t(y)  = (M0/g^2) * integral from y0 to y of psi^(-2).

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
        if m2 != 0.0 and (self._den == 0.0 or (m1 + m2 * y1) / self._den <= 0.0):
            y = y1 if self._den else y0
            raise PoleOnRange(f"y = {y} and y = {y0} straddle the pole at y = {self.pole}")

    def v1(self, y: float) -> float:
        """Velocity component along r1 as a function of the slope y."""
        return self._v1(self.g, complex(y, -1.0), self.m1 + self.m2 * y, self._w0, self._den)

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
        at_y = self._antiderivative(y, _lib(y))
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

    The (M1, M2) constants and y1's are computed once, and every trial y0
    evaluates v1(y1) through them with the formula GeneralSolution.v1 uses,
    so no trial builds a solution; its log ratio raises PoleOnRange where y0
    and y1 straddle the pole.  A y1 on the pole has no base slope.

    Near the pole |dv1/dy0| = |g k(y0)| grows like 1/|y0 - pole|, and Brent's
    x error d = brent_xerr(y0) alone moves v1 past the plain residual bound.
    So when y0 lies nearer the pole than y1, the bound adds d |g k(y0)|.
    Elsewhere it does not: when |M| is tiny, k is huge on the whole branch,
    and the added term would admit roots that psi cannot resolve.
    """
    coeffs = _Coefficients(m1, m2)
    pole = coeffs.pole
    direction = -1.0 if (v1_inf > 0.0) == (g * (m1 + m2 * y1) > 0.0) else 1.0

    def missing():
        return RootFindingFailure(f"no base slope y0 matches v1_inf = {v1_inf} (M1 = {m1}, M2 = {m2})")

    if y1 == pole:
        raise missing()
    points = _branch_walk(y1, direction, 1.0 + abs(y1), pole)

    def bound(y0):
        limit = ROOT_RESIDUAL * (1.0 + abs(v1_inf))
        if pole is not None and abs(y0 - pole) < abs(y0 - y1):
            limit += brent_xerr(y0) * abs(g * _kernel(m1, m2, y0))
        return limit

    w1, num1 = complex(y1, -1.0), m1 + m2 * y1

    def residual(y0):
        return coeffs._v1(g, w1, num1, complex(y0, -1.0), m1 + m2 * y0) - v1_inf

    return _root_on_grid(residual, points, bound, "base-slope", missing)


def _solve_ytilde1(sol: GeneralSolution):
    """Second zero of psi besides y1 (the exit slope): psi is monotone beyond
    y0, away from y1, so it is the one sign change there."""
    y0, y1 = sol.y0, sol.y1
    points = _branch_walk(y0, math.copysign(1.0, y0 - y1), 1.0 + abs(y0 - y1), sol.pole)

    def missing():
        return NoSecondSolution(
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

