"""Adaptive Gauss-Kronrod quadrature for vector-valued integrands.

One tensor rule and one refinement loop serve 1D, 2D and 3D.  A cell is a
box of d axes, evaluated on its 15^d (G7, K15) tensor nodes: its value is the
K15 estimate, its error on an axis is max |value - the rule with G7 on that
axis|, and the worst cell is bisected on its worst axis until the summed error
is <= the absolute tolerance.

Every integrand is batched, and this is the one place that says how.  The
engine calls it once on the first cell, then once per bisection on both
halves, the first half first.  A call gets one read-only array of node
coordinates per axis (each cell's nodes in itertools.product order) and
returns an (m, nodes) array: one row per component, nodes last, the layout of
every batched result in the package (see the array contract of
ternion.algebra).  adaptive_quad, adaptive_quad_2d and adaptive_quad_3d are
the entry points for 1, 2 and 3 axes; there is no pointwise adapter, so an
integrand written for floats must be vectorized (or wrapped by its caller)
first.

Each call owns one budget of 10**6 integrand evaluations, charged cell by
cell.  QuadratureFailure is raised when the budget runs out, a cell stalls
(see _integrate) or the integrand is not finite.  Every failure is the one
that one call per cell, in the same order, raises, and so is every bit of
the value when the integrand works node by node.
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
    per axis; and a (d + 1, 1, 1, 15^d) table of weights, the tensor Kronrod
    weights in row 0 and in row 1 + i those with G7 on axis i, nodes last.
    Built on first use, so runs without volume integrals never hold the 15^3
    tables."""
    rows = [_tensor([WEIGHTS_K] * d)]
    rows += [_tensor([WEIGHTS_G if j == i else WEIGHTS_K for j in range(d)]) for i in range(d)]
    return [g.ravel() for g in np.meshgrid(*[NODES] * d, indexing="ij")], np.stack(rows)[:, None, None]


def _span(box) -> str:
    return " x ".join(f"[{lo}, {hi}]" for lo, hi in box)


def _cells(f, boxes, budget):
    """Each box's Kronrod value, its error estimates (one per axis) and its
    split axis (the worst one), from one call of f on the nodes of all the
    boxes, box after box.

    budget is a one-item list holding the evaluations left; it is charged
    for every box.  When there is more than one box and the budget runs
    short, or the call or a check fails, the boxes are replayed one call
    each, in order, and the replay's first failure is raised: the failures
    are those of one call per box.
    """
    left = budget[0]
    try:
        d, c = len(boxes[0]), len(boxes)
        n = 15**d
        budget[0] -= c * n
        if budget[0] < 0:
            raise QuadratureFailure("quadrature evaluation budget exhausted")
        unit_nodes, weights = _rule(d)
        # one row of nodes per axis, box after box
        rows, vols = [], []
        for box in boxes:
            halves = [0.5 * (hi - lo) for lo, hi in box]
            rows.append([0.5 * (lo + hi) + h * u for (lo, hi), h, u in zip(box, halves, unit_nodes)])
            vols.append(math.prod(halves))
        axes = rows[0] if c == 1 else [np.concatenate(parts) for parts in zip(*rows)]
        for a in axes:
            a.flags.writeable = False
        vals = np.asarray(f(*axes))
        if vals.ndim != 2 or vals.shape[1] != c * n:
            # one layout only: a (nodes,) array would pass the reshape below
            raise ValueError(f"integrand returned shape {vals.shape}; expected (m, {c * n})")
        # checked before the weights multiply it: inf times a zero G7 weight
        # would warn
        if not np.logical_and.reduce(np.isfinite(vals), axis=None):
            raise QuadratureFailure(f"non-finite integrand on {' and '.join(map(_span, boxes))}")
        # nodes last: accumulate adds each (rule, component, box) sum's nodes
        # one after another along a contiguous axis, as sum() does; reduce
        # would sum it pairwise and change the last bits.  In place, a 15^3
        # box holds one large temporary, not two.
        terms = np.multiply(weights, vals.reshape(-1, c, n))
        sums = np.multiply(vols, np.add.accumulate(terms, axis=3, out=terms)[..., -1])
        k = sums[0]
        if not np.logical_and.reduce(np.isfinite(k), axis=None):
            raise QuadratureFailure(f"non-finite integrand on {' and '.join(map(_span, boxes))}")
        errs = np.maximum.reduce(np.abs(sums[1:] - k), axis=1)
        return zip([k[:, i] for i in range(c)], zip(*errs.tolist()), errs.argmax(axis=0).tolist())
    except Exception as exc:
        if len(boxes) == 1:
            raise
        error = exc
    budget[0] = left
    for box in boxes:
        _cells(f, (box,), budget)
    raise error


def _integrate(f, box, tol, budget):
    """Bisect the worst cell until the summed error estimate is <= tol.

    f is called as the module docstring says.  Reversed 1D limits flip the
    sign; a reversed axis of a 2D or 3D box gets a negative half-width, which
    also gives the oriented value.  A cell stalls, and the integral fails, when
    its error is 0 or its split axis is no wider than |lo| 1e-15 + 1e-300.
    """
    if len(box) == 1 and box[0][1] < box[0][0]:
        return -_integrate(f, (box[0][::-1],), tol, budget)
    order = itertools.count()
    ((val, errs, axis),) = _cells(f, (box,), budget)
    err = errs[axis]
    heap = [(-err, next(order), box, val, err, axis)]
    total_err = err
    while total_err > tol:
        _, _, box, val, err, axis = heapq.heappop(heap)
        lo, hi = box[axis]
        if err <= 0.0 or abs(hi - lo) <= abs(lo) * 1e-15 + 1e-300:
            raise QuadratureFailure(f"cell {_span(box)} stalled with error {err:.3e} (tol {tol:.1e})")
        mid = 0.5 * (lo + hi)
        total_err -= err
        parts = [box[:axis] + (part,) + box[axis + 1 :] for part in ((lo, mid), (mid, hi))]
        for half, (hval, herrs, haxis) in zip(parts, _cells(f, parts, budget)):
            herr = herrs[haxis]
            total_err += herr
            heapq.heappush(heap, (-herr, next(order), half, hval, herr, haxis))
    return sum(item[3] for item in heap)


def adaptive_quad(f, a, b, tol=DEFAULT_TOL):
    """Integrate f(x) over [a, b] to absolute tolerance tol.

    f is batched: it takes an array of nodes and returns an (m, nodes) array.
    Reversed limits flip the sign, as usual.
    """
    return _integrate(f, ((a, b),), tol, [BUDGET])


def adaptive_quad_2d(f, u_range, v_range, tol=DEFAULT_TOL):
    """Integrate batched f(u, v) over a rectangle to absolute tol."""
    return _integrate(f, (u_range, v_range), tol, [BUDGET])


def adaptive_quad_3d(f, ranges, tol=DEFAULT_TOL):
    """Integrate batched f(x0, x1, x2) over a box to absolute tol."""
    return _integrate(f, tuple(ranges), tol, [BUDGET])
