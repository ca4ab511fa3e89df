"""A fixed reference loop that calibrates timings for the host's speed.

The benchmark's host alternates between fast and slow phases; a slow phase can
outlast a whole run, and then every repetition of every op is slow and
min-of-N cannot help.  The workers therefore time this loop between ops, and
run.py reports the end-to-end timings at a fixed reference speed, the one at
which the loop takes ``REF_PROBE_S``.

The loop uses no ternion code, so a change to the program moves the measured
times and not the probe.  It is written in the styles of ternion's hot loops,
so that a slow phase slows it as much as it slows them: an explicit
Runge-Kutta step over a 6-tuple (the DP5 loop of ``dynamics.integrate``), a
bracket scan and bisection of a closed form held by an object (the root finds
of ``dynamics.scattering_map``), and node sums over a small frozen dataclass
(``Ternary`` arithmetic in the quadratures of ``calculus``).  In slow phases
of up to 1.7x, the workloads' ops and this loop slowed by the same factor to
within ~5% in most 3-second windows.  ``REF_PROBE_S`` is roughly the loop's
fastest time in a fast phase on a 2-vCPU x86-64 VM with CPython 3.11, so
calibrated figures read roughly as wall times there.
"""

import math
from dataclasses import dataclass
from time import perf_counter

REF_PROBE_S = 1.0e-3

# Dormand-Prince tableau, stages 2 to 6, and 5th-order weights
_A = (
    (),
    (0.2,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)


def _rhs(y):
    r = math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2]) + 1.0
    inv = 1.0 / (r * r * r)
    return (y[3], y[4], y[5], -y[0] * inv, -y[1] * inv, -y[2] * inv)


def _rk(y, dt, steps):
    for _ in range(steps):
        k = [_rhs(y)]
        for row in _A[1:]:
            yi = tuple(y[j] + dt * sum(a * k[m][j] for m, a in enumerate(row)) for j in range(6))
            k.append(_rhs(yi))
        y = tuple(y[j] + dt * sum(b * k[m][j] for m, b in enumerate(_B)) for j in range(6))
    return y


class _Curve:
    def __init__(self, a, b):
        self.a, self.b = a, b

    def f(self, x):
        return math.log(1.0 + x * x) * self.a - math.atan(x) * self.b - 0.3


def _roots(n):
    out = 0.0
    for k in range(n):
        f = _Curve(1.0 + 0.01 * k, 0.5).f
        xs = [0.05 * i for i in range(1, 60)]
        vals = [f(x) for x in xs]
        for x0, x1, f0, f1 in zip(xs, xs[1:], vals, vals[1:]):
            if f0 * f1 < 0.0:
                lo, hi = x0, x1
                for _ in range(30):
                    mid = 0.5 * (lo + hi)
                    if f(lo) * f(mid) <= 0.0:
                        hi = mid
                    else:
                        lo = mid
                out += lo
                break
    return out


@dataclass(frozen=True)
class _Triple:
    x0: float
    x1: float
    x2: float

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise ValueError("non-finite component")

    def __add__(self, other):
        return _Triple(self.x0 + other.x0, self.x1 + other.x1, self.x2 + other.x2)


def _mul(a, b):
    return _Triple(
        a.x0 * b.x0 + a.x1 * b.x2 + a.x2 * b.x1,
        a.x0 * b.x1 + a.x1 * b.x0 + a.x2 * b.x2,
        a.x0 * b.x2 + a.x2 * b.x0 + a.x1 * b.x1,
    )


_NODES = [(-0.95 + 0.135 * i, 0.13 + 0.01 * i) for i in range(15)]


def _quad(n):
    acc = _Triple(0.0, 0.0, 0.0)
    for k in range(n):
        for x, w in _NODES:
            z = _Triple(1.0 + 0.1 * x, 0.2 * k, x)
            acc = acc + _mul(_mul(z, z), _Triple(w, 0.0, 0.0))
    return acc


def probe_s() -> float:
    """Seconds one pass of the reference loop takes now."""
    t0 = perf_counter()
    _rk((1.0, 0.0, 0.5, 0.0, 0.8, 0.1), 0.01, 10)
    _roots(8)
    _quad(5)
    return perf_counter() - t0


def best_probe_s(passes: int) -> float:
    return min(probe_s() for _ in range(passes))
