"""Independent numerical oracles used only by the test suite."""

import math

import numpy as np

from ternion.algebra import ComplexTernary, Ternary, conjugates, mul


def expm_taylor(m: np.ndarray, order: int = 16) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated series.

    Squares down to 1-norm <= 0.25, then sums the Taylor series to the given
    order (>= 13-equivalent accuracy); independent of the multisine code path.
    """
    norm = np.linalg.norm(m, 1)
    s = max(0, int(math.ceil(math.log2(norm / 0.25)))) if norm > 0.25 else 0
    a = m / 2.0**s
    term = np.eye(m.shape[0])
    out = np.eye(m.shape[0])
    for k in range(1, order + 1):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def random_ternary(rng, lo=-3.0, hi=3.0) -> Ternary:
    return Ternary(*rng.uniform(lo, hi, size=3))


def random_admissible(rng, lo=-3.0, hi=3.0, min_norm=1e-2) -> Ternary:
    """Nonsingular sample with positive trisectrice component (log domain)."""
    while True:
        z = random_ternary(rng, lo, hi)
        n = z.x0**3 + z.x1**3 + z.x2**3 - 3 * z.x0 * z.x1 * z.x2
        if n > min_norm and (z.x0 + z.x1 + z.x2) > min_norm:
            return z


def random_nonsingular(rng, lo=-3.0, hi=3.0, min_norm=1e-2) -> Ternary:
    while True:
        z = random_ternary(rng, lo, hi)
        n = z.x0**3 + z.x1**3 + z.x2**3 - 3 * z.x0 * z.x1 * z.x2
        if abs(n) > min_norm:
            return z


def conjugate_product(z: Ternary) -> ComplexTernary:
    """z~ * z~~ by explicit complex multiplication (expansion oracle)."""
    zt, ztt = conjugates(z)
    return zt * ztt


def ternary_close(a: Ternary, b: Ternary, tol: float) -> bool:
    return (a - b).max_abs() <= tol


# Pointwise form integrands: one call per quadrature node, with floats, as the
# form integrals evaluated them before they batched each cell.  Integrated by
# the public adaptive_quad* they are the reference for ternion.calculus.


def line_integrand(F, curve):
    def integrand(t):
        return mul(F(curve.gamma(t)), curve.velocity(t)).components()

    return integrand


def surface_integrand(Phi, patch):
    def integrand(u, v):
        x = patch.param(u, v)
        du, dv = patch.tangents(u, v)
        j12 = du.x1 * dv.x2 - du.x2 * dv.x1
        j20 = du.x2 * dv.x0 - du.x0 * dv.x2
        j01 = du.x0 * dv.x1 - du.x1 * dv.x0
        f0, f1, f2 = Phi(x).components()
        o = patch.orientation
        return (
            o * (f0 * j12 + f1 * j20 + f2 * j01),
            o * (f1 * j12 + f2 * j20 + f0 * j01),
            o * (f2 * j12 + f0 * j20 + f1 * j01),
        )

    return integrand


def volume_integrand(W):
    def integrand(x0, x1, x2):
        return W(Ternary(x0, x1, x2)).components()

    return integrand
