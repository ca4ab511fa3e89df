"""Bracketed root finding: a sign-change scan along points plus a Brent-style solve.

The solver is the classic inverse-quadratic/secant/bisection hybrid; brent
raises RootFindingFailure when its interval holds no sign change, and
callers check the residual of the root they get.
"""

from __future__ import annotations

import math

from .errors import RootFindingFailure

__all__ = ["brent", "brent_xerr", "scan_bracket"]

_EPS = 2.220446049250313e-16
# absolute x tolerance and iteration cap of brent
_XTOL = 1e-15
_MAXITER = 200


def brent(f, a, b, fa=None, fb=None):
    """Root of f in the sign-change interval [a, b]."""
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise RootFindingFailure(f"no sign change on [{a}, {b}]: f = ({fa:.3e}, {fb:.3e})")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAXITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * _XTOL
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b


def brent_xerr(x: float) -> float:
    """Largest distance of a root returned by brent at x from the sign change
    it bracketed: brent stops once the bracket is at most twice its step
    tolerance 2 eps |x| + XTOL / 2 wide."""
    return 4.0 * _EPS * abs(x) + _XTOL


def scan_bracket(f, points):
    """First sign-change interval of f on consecutive points (read lazily), or None."""
    it = iter(points)
    try:
        x_prev = next(it)
    except StopIteration:
        return None
    f_prev = f(x_prev)
    if f_prev == 0.0:
        return (x_prev, x_prev, 0.0, 0.0)
    for x in it:
        fx = f(x)
        if fx == 0.0 or (fx > 0.0) != (f_prev > 0.0):
            return (x_prev, x, f_prev, fx)
        x_prev, f_prev = x, fx
    return None

