"""Adaptive Gauss-Kronrod quadrature for vector-valued integrands.

One tensor rule and one refinement loop serve 1D, 2D and 3D.  A cell is a
box of d axes, evaluated on its 15^d (G7, K15) tensor nodes: its value is the
K15 estimate, its error on an axis is max |value - the rule with G7 on that
axis|, and the worst cell is bisected on its worst axis until the summed error
is <= the absolute tolerance.

Every integrand is batched: the engine calls it once per cell, with one
read-only array of node coordinates per axis (in itertools.product order),
and takes back a (15^d, m) array of values.  adaptive_quad, adaptive_quad_2d
and adaptive_quad_3d are the entry points for 1, 2 and 3 axes; there is no
pointwise adapter, so an integrand written for floats must be vectorized (or
wrapped by its caller) first.

Each call owns one budget of 10**6 integrand evaluations.  QuadratureFailure
is raised when the budget runs out, a cell stalls (see _integrate) or the
integrand is not finite.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math

import numpy as np

from .errors import QuadratureFailure

__all__ = ["adaptive_quad", "adaptive_quad_2d", "adaptive_quad_3d", "DEFAULT_TOL", "BUDGET"]

DEFAULT_TOL = 1e-10
#: Integrand evaluations allowed per public call.
BUDGET = 10**6

# Kronrod-15 abscissae (positive half) and weights; the Gauss-7 subset sits at
# every second node.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

NODES = np.array([-x for x in _XGK[:7]] + [0.0] + [x for x in reversed(_XGK[:7])])
WEIGHTS_K = np.array(list(_WGK[:7]) + [_WGK[7]] + list(reversed(_WGK[:7])))
# Gauss weights aligned on the 15-node grid (zero where the node is Kronrod-only).
WEIGHTS_G = np.zeros(15)
for _i, _w in zip((1, 3, 5), _WG[:3]):
    WEIGHTS_G[_i] = _w
    WEIGHTS_G[14 - _i] = _w
WEIGHTS_G[7] = _WG[3]


def _tensor(factors):
    """The tensor product of 1D weights, flattened in itertools.product order."""
    return functools.reduce(np.multiply.outer, factors).ravel()


@functools.cache
def _rule(d):
    """The rule on [-1, 1]^d, in itertools.product order: the nodes, one row
    per axis; and a (d + 1, 15^d, 1) table of weights, the tensor Kronrod
    weights in row 0 and in row 1 + i those with G7 on axis i.  Built on
    first use, so runs without volume integrals never hold the 15^3 tables."""
    rows = [_tensor([WEIGHTS_K] * d)]
    rows += [_tensor([WEIGHTS_G if j == i else WEIGHTS_K for j in range(d)]) for i in range(d)]
    return [g.ravel() for g in np.meshgrid(*[NODES] * d, indexing="ij")], np.stack(rows)[:, :, None]


def _span(box) -> str:
    return " x ".join(f"[{lo}, {hi}]" for lo, hi in box)


def _cell(f, box, budget):
    """Kronrod value, error estimate and split axis of f on a box.

    budget is a one-item list holding the evaluations left.
    """
    d = len(box)
    budget[0] -= 15**d
    if budget[0] < 0:
        raise QuadratureFailure("quadrature evaluation budget exhausted")
    unit_nodes, weights = _rule(d)
    halves = [0.5 * (hi - lo) for lo, hi in box]
    axes = [0.5 * (lo + hi) + h * u for (lo, hi), h, u in zip(box, halves, unit_nodes)]
    for a in axes:
        a.flags.writeable = False
    vals = f(*axes)
    if np.ndim(vals) != 2 or len(vals) != 15**d:
        # a (nodes,) array would broadcast against the weights into a wrong value
        raise ValueError(f"integrand returned shape {np.shape(vals)}; expected ({15**d}, m)")
    # checked before the weights multiply it: inf times a zero G7 weight
    # would warn
    if not np.isfinite(vals).all():
        raise QuadratureFailure(f"non-finite integrand on {_span(box)}")
    # accumulate adds the nodes one after another, as sum() does, for every
    # rule at once; reduce would sum a one-column array pairwise and change
    # the last bits.  In place, a 15^3 cell holds one large temporary, not two.
    terms = weights * vals
    sums = math.prod(halves) * np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    k = sums[0]
    if not np.isfinite(k).all():
        raise QuadratureFailure(f"non-finite integrand on {_span(box)}")
    errs = np.abs(sums[1:] - k).max(axis=1)
    axis = int(errs.argmax())
    return k, float(errs[axis]), axis


def _integrate(f, box, tol, budget):
    """Bisect the worst cell until the summed error estimate is <= tol.

    Reversed 1D limits flip the sign; a reversed axis of a 2D or 3D box gets
    a negative half-width, which also gives the oriented value.  A cell
    stalls, and the integral fails, when its error is 0 or its split axis is
    no wider than |lo| 1e-15 + 1e-300.
    """
    if len(box) == 1 and box[0][1] < box[0][0]:
        return -_integrate(f, (box[0][::-1],), tol, budget)
    order = itertools.count()
    val, err, axis = _cell(f, box, budget)
    heap = [(-err, next(order), box, val, err, axis)]
    total_err = err
    while total_err > tol:
        _, _, box, val, err, axis = heapq.heappop(heap)
        lo, hi = box[axis]
        if err <= 0.0 or abs(hi - lo) <= abs(lo) * 1e-15 + 1e-300:
            raise QuadratureFailure(f"cell {_span(box)} stalled with error {err:.3e} (tol {tol:.1e})")
        mid = 0.5 * (lo + hi)
        total_err -= err
        for part in ((lo, mid), (mid, hi)):
            half = box[:axis] + (part,) + box[axis + 1 :]
            hval, herr, haxis = _cell(f, half, budget)
            total_err += herr
            heapq.heappush(heap, (-herr, next(order), half, hval, herr, haxis))
    return sum(item[3] for item in heap)


def adaptive_quad(f, a, b, tol=DEFAULT_TOL):
    """Integrate f(x) over [a, b] to absolute tolerance tol.

    f is batched: it takes an array of nodes and returns a (nodes, m) array.
    Reversed limits flip the sign, as usual.
    """
    return _integrate(f, ((a, b),), tol, [BUDGET])


def adaptive_quad_2d(f, u_range, v_range, tol=DEFAULT_TOL):
    """Integrate batched f(u, v) over a rectangle to absolute tol."""
    return _integrate(f, (u_range, v_range), tol, [BUDGET])


def adaptive_quad_3d(f, ranges, tol=DEFAULT_TOL):
    """Integrate batched f(x0, x1, x2) over a box to absolute tol."""
    return _integrate(f, tuple(ranges), tol, [BUDGET])
