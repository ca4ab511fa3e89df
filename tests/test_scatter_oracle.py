"""The scattering closed forms against an mpmath oracle at 50 digits.

From the same float inputs, the oracle evaluates v1 in real partial
fractions, independently of the complex-log pair that ternion.dynamics folds:

    v1(y; y0) / g = K(y) - K(y0),
    K(y) = (M2 log|M1 + M2 y| + M1 atan y - (M2/2) log(1 + y^2)) / (M1^2 + M2^2),

psi(y) = integral of v1/g from y1 to y through the antiderivative of K, the
base slope y0 and the exit slope ytilde1 as Newton roots from the float
roots, and E = v1_out^2 (1 + ytilde1^2 + R^2) / 2 as scattering_map defines
it.  Each float result is compared with the oracle:

* the residuals v1(y1; y0) - v1_inf and psi(ytilde1), at the float y0 and
  ytilde1, in units of the root bounds' scales 1 + |v1_inf| and
  1 + |psi(y0)|;
* y0, ytilde1 and E, relative to the oracle's value.

Each bound is the smallest power of ten at least twice the worst error
measured (the same on AVX2/FMA and non-FMA glibc libm).  The README point
keeps its bounds down to |M| = 1e-4, where ytilde1 and E have lost about
eight digits; below that the base-slope solve ends in RootFindingFailure,
which a mend of those closed forms has to change on purpose.
"""

import pytest

from ternion import dynamics as td
from ternion.errors import TernionError

from test_dynamics import _perfbench_scatter_rows

mp = pytest.importorskip("mpmath")

QUANTITIES = ("v1 residual", "psi residual", "y0", "ytilde1", "E")
#: bounds in QUANTITIES' order: over the 222 seed-1 perfbench ok rows, and
#: at the README point with (M1, M2) scaled by s
SEED_1_BOUNDS = (1e-14, 1e-13, 1e-13, 1e-12, 1e-11)
SCALED_BOUNDS = {
    1.0: (1e-16, 1e-16, 1e-15, 1e-15, 1e-15),
    1e-1: (1e-15, 1e-15, 1e-15, 1e-14, 1e-13),
    1e-2: (1e-14, 1e-14, 1e-13, 1e-11, 1e-11),
    1e-3: (1e-13, 1e-12, 1e-12, 1e-8, 1e-8),
    1e-4: (1e-11, 1e-12, 1e-11, 1e-7, 1e-7),
}
README = (1.0, 0.0, 0.8, 0.5, -1.0, 0.9)


class _Oracle:
    """v1, psi, their roots and E at 50 digits for one row's float inputs."""

    def __init__(self, g, y1, z1, v1_inf, m1, m2):
        self.g, self.y1, self.z1, self.v1_inf, self.m1, self.m2 = map(mp.mpf, (g, y1, z1, v1_inf, m1, m2))
        self.d = self.m1**2 + self.m2**2

    def k(self, y):
        m1, m2 = self.m1, self.m2
        return (m2 * mp.log(abs(m1 + m2 * y)) + m1 * mp.atan(y) - m2 / 2 * mp.log(1 + y * y)) / self.d

    def dk(self, y):
        return 1 / ((1 + y * y) * (self.m1 + self.m2 * y))

    def k_antiderivative(self, y):
        m1, m2, n = self.m1, self.m2, self.m1 + self.m2 * y
        log_sq = mp.log(1 + y * y)
        linear = n * (mp.log(abs(n)) - 1) if n else mp.zero
        atan_term = m1 * (y * mp.atan(y) - log_sq / 2)
        return (linear + atan_term - m2 / 2 * (y * log_sq - 2 * y + 2 * mp.atan(y))) / self.d

    def v1(self, y, y0):
        return self.g * (self.k(y) - self.k(y0))

    def psi(self, y, y0):
        return self.k_antiderivative(y) - self.k_antiderivative(self.y1) - self.k(y0) * (y - self.y1)

    def energy(self, y0, ytilde1):
        m0 = -(self.m1 + self.m2 * self.y1) / self.z1
        r = (self.m1 + self.m2 * ytilde1) / m0
        return self.v1(ytilde1, y0) ** 2 * (1 + ytilde1**2 + r * r) / 2


def _newton(f, df, x):
    x = mp.mpf(x)
    for _ in range(50):
        step = f(x) / df(x)
        x -= step
        if abs(step) <= mp.mpf(10) ** -45 * (1 + abs(x)):
            return x
    raise AssertionError(f"Newton did not settle from {x}")


def _errors(row):
    """The errors of scattering_map at row = (g, y1, z1, v1_inf, M1, M2)
    against the oracle, in QUANTITIES' order, as the module docstring
    defines them."""
    g, y1, _, v1_inf, m1, m2 = row
    res = td.scattering_map(td.ScatteringSetup(*row))
    sol = td.GeneralSolution(g, res.m0, m1, m2, res.y0, y1)
    with mp.workdps(50):
        o = _Oracle(*row)
        y0 = _newton(lambda t: o.v1(o.y1, t) - o.v1_inf, lambda t: -o.g * o.dk(t), res.y0)
        ytilde1 = _newton(lambda t: o.psi(t, y0), lambda t: o.k(t) - o.k(y0), res.ytilde1)
        energy = o.energy(y0, ytilde1)
        v1_residual = o.v1(o.y1, mp.mpf(res.y0)) - o.v1_inf
        psi_residual = o.psi(mp.mpf(res.ytilde1), mp.mpf(res.y0))
        return (
            float(abs(sol.v1(y1) - v1_inf - v1_residual) / (1 + abs(o.v1_inf))),
            float(abs(sol.psi(res.ytilde1) - psi_residual) / (1 + abs(o.psi(y0, y0)))),
            float(abs(res.y0 - y0) / abs(y0)),
            float(abs(res.ytilde1 - ytilde1) / abs(ytilde1)),
            float(abs(res.energy - energy) / energy),
        )


def _beyond(errors, bounds):
    """The quantities whose error is not within its bound, with the error."""
    return {name: err for name, err, bound in zip(QUANTITIES, errors, bounds) if not err <= bound}


def _scaled(s):
    g, y1, z1, v1_inf, m1, m2 = README
    return (g, y1, z1, v1_inf, s * m1, s * m2)


def test_seed_1_scatter_rows_match_the_oracle():
    ok = []
    for row in _perfbench_scatter_rows(1):
        try:
            td.scattering_map(td.ScatteringSetup(*row))
        except TernionError:
            continue
        ok.append(row)
    assert len(ok) == 222
    worst = [max(column) for column in zip(*map(_errors, ok))]
    assert _beyond(worst, SEED_1_BOUNDS) == {}


@pytest.mark.parametrize("s", sorted(SCALED_BOUNDS, reverse=True))
def test_scaled_readme_point_matches_the_oracle(s):
    assert _beyond(_errors(_scaled(s)), SCALED_BOUNDS[s]) == {}


@pytest.mark.parametrize("s", [1e-5, 1e-6])
def test_scaled_readme_point_below_1e_4_is_a_root_finding_failure(s):
    with pytest.raises(td.RootFindingFailure, match="base-slope residual"):
        td.scattering_map(td.ScatteringSetup(*_scaled(s)))
