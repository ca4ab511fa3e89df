"""The singular ternary magnetic field in trisectrice-frame coordinates.

The cartesian field H = x / ||z||^3 is divergence-free away from the
trisectrice x0 = x1 = x2, where a string of monopoles sits.  In the rotated
orthonormal frame (l along the trisectrice, r1, r2 transverse) the rescaled
field h = (3 sqrt3/2) H has the closed form

    h0 = 1/|r|^2,   h_i = r_i / (l |r|^2),   |r|^2 = r1^2 + r2^2,

and splits into a gradient part (of the scalar potential of the monopole
density) plus a rotational part sourced by azimuthal currents.

The kernels field_h, potential_decompose, current_density,
vector_potential and h_cartesian, and the maps to_frame and from_frame,
follow the array contract of ternion.algebra; a vector result at array
components is an array of shape (3,) + their broadcast shape.

to_frame and from_frame are plain float arithmetic, three products added
left to right per component, with no BLAS call: floats and the elements of
arrays get the same bits, and so does every host, whatever CPU kernel its
BLAS would pick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Ternary, _fault, _lib, _pow, norm_cubed
from .errors import DomainError, OnSingularSet

__all__ = [
    "FrameVector",
    "EPS_FIELD",
    "EPS_DIV",
    "FRAME_MATRIX",
    "to_frame",
    "from_frame",
    "field_h",
    "potential_decompose",
    "current_density",
    "vector_potential",
    "cycle_components",
    "cycle_point",
    "h_cartesian",
]

EPS_FIELD = 1e-8   # admissibility margin around the singular sets
EPS_DIV = 1e-5     # tolerance for stencil divergence/curl checks on O(1) points

# Frame rows (trisectrice, then two transverse directions), acting on the
# component vector ordered (x1, x2, x0).  Stored once to keep the ordering
# convention in a single place.
FRAME_MATRIX = np.array(
    [
        [1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)],
        [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0],
        [1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0)],
    ]
)
# Its rows (for to_frame) and columns (for from_frame) as Python floats.
_ROWS = tuple(tuple(map(float, row)) for row in FRAME_MATRIX)
_COLUMNS = tuple(tuple(map(float, col)) for col in FRAME_MATRIX.T)


@dataclass(frozen=True)
class FrameVector:
    """Coordinates (l, r1, r2): l along the trisectrice, r transverse."""

    l: float
    r1: float
    r2: float

    def components(self):
        return (self.l, self.r1, self.r2)

    @property
    def r_mag(self) -> float:
        return _lib(self.r1, self.r2).hypot(self.r1, self.r2)

    def as_array(self) -> np.ndarray:
        return _stack(self.l, self.r1, self.r2)


def _stack(*c) -> np.ndarray:
    """The values as one array of shape (len(c),) + their broadcast shape."""
    return np.array(np.broadcast_arrays(*c) if _lib(*c) is np else c)


def _components(x) -> tuple[float, float, float]:
    if isinstance(x, Ternary):
        return x.components()
    x0, x1, x2 = x
    return (float(x0), float(x1), float(x2))


def _apply(rows, a, b, c) -> tuple:
    """rows applied to (a, b, c): m0 a + m1 b + m2 c per row, added left to
    right in float arithmetic, so floats and every element of an array get
    the same bits on every host.  Floats (numpy scalars too) give floats."""
    out = [m0 * a + m1 * b + m2 * c for m0, m1, m2 in rows]
    return tuple(out) if _lib(a, b, c) is np else tuple(map(float, out))


def to_frame(x) -> FrameVector:
    """Frame coordinates of a point given as Ternary or an (x0, x1, x2) triple."""
    x0, x1, x2 = _components(x)
    return FrameVector(*_apply(_ROWS, x1, x2, x0))


def from_frame(v: FrameVector) -> Ternary:
    """Inverse frame map (the transpose, since the frame is orthonormal)."""
    x1, x2, x0 = _apply(_COLUMNS, v.l, v.r1, v.r2)
    return Ternary(x0, x1, x2)


def _faults(v: FrameVector, r, kernel, other=False) -> bool:
    """Raise OnSingularSet if v lies within EPS_FIELD of the trisectrice (|r|
    small against 1 + |l|) or of the l = 0 plane, else return other: whether
    v fails kernel's own domain check.  At array components, kernel replays
    the points that do either (see algebra._fault).
    """
    near_axis = r <= EPS_FIELD * (1.0 + abs(v.l))
    near_plane = abs(v.l) <= EPS_FIELD
    if not _fault(near_axis | near_plane | other, lambda *c: kernel(FrameVector(*c)), *v.components()):
        return False
    if near_axis:
        raise OnSingularSet(f"point within {EPS_FIELD} of the trisectrice: {v}")
    if near_plane:
        raise OnSingularSet(f"point within {EPS_FIELD} of the l = 0 plane: {v}")
    return True


def field_h(v: FrameVector) -> np.ndarray:
    """Frame components (h0, h1, h2) of the rescaled field."""
    r = v.r_mag
    _faults(v, r, field_h)
    r2 = r * r
    return _stack(1.0 / r2, v.r1 / (v.l * r2), v.r2 / (v.l * r2))


def potential_decompose(v: FrameVector):
    """(phi_s, h_pot, h_rot): scalar potential, its gradient, and the rest.

    phi_s = ln((R - l)/(R + l)) / (2R) with R^2 = l^2 + |r|^2; the log ratio
    is formed from r^2/(R + |l|)^2 so it stays accurate for |l| >> |r|.
    h_pot is the analytic gradient; h_rot the closed-form remainder, and
    h_pot + h_rot reproduces field_h exactly.
    """
    r = v.r_mag
    l = v.l
    m = _lib(l, r)
    big_r = m.hypot(l, r)
    if _faults(v, r, potential_decompose, big_r <= abs(l)):
        raise DomainError(f"|R| <= |l| at {v}")
    log_ratio = 2.0 * (m.log(r) - m.log(big_r + abs(l)))
    if m is np:
        log_ratio = np.where(l < 0.0, -log_ratio, log_ratio)
    elif l < 0.0:
        log_ratio = -log_ratio
    phi_s = log_ratio / (2.0 * big_r)
    r2 = r * r
    rr3 = _pow(big_r, 3)
    rr2 = _pow(big_r, 2)
    h_pot = _stack(
        -l / (2.0 * rr3) * log_ratio - 1.0 / rr2,
        -v.r1 / (2.0 * rr3) * log_ratio + l * v.r1 / (r2 * rr2),
        -v.r2 / (2.0 * rr3) * log_ratio + l * v.r2 / (r2 * rr2),
    )
    h_rot = _stack(
        l / (2.0 * rr3) * log_ratio + 1.0 / rr2 + 1.0 / r2,
        v.r1 / (2.0 * rr3) * log_ratio + v.r1 / (rr2 * l),
        v.r2 / (2.0 * rr3) * log_ratio + v.r2 / (rr2 * l),
    )
    return phi_s, h_pot, h_rot


def current_density(v: FrameVector) -> np.ndarray:
    """Azimuthal current (0, j1, j2) sourcing the rotational part.

    j_k = eps_kl r_l (-2/|r|^4 + 1/(l^2 |r|^2)); tangential to circles around
    the trisectrice and vanishing on the cone |r| = sqrt2 |l|.
    """
    r = v.r_mag
    _faults(v, r, current_density)
    r2 = r * r
    t = -2.0 / (r2 * r2) + 1.0 / (v.l * v.l * r2)
    return _stack(0.0, v.r2 * t, -v.r1 * t)


def vector_potential(v: FrameVector) -> np.ndarray:
    """Gauge A0 = 0 potential with curl A = h in the region l > 0.

    A1 = r2 ln(l/|r|)/|r|^2, A2 = -r1 ln(l/|r|)/|r|^2.
    """
    r = v.r_mag
    if _faults(v, r, vector_potential, v.l <= 0.0):
        raise DomainError(f"vector potential requires l > 0, got l = {v.l}")
    ratio = v.l / r
    u = _lib(ratio).log(ratio) / (r * r)
    return _stack(0.0, v.r2 * u, -v.r1 * u)


def cycle_components(vec: np.ndarray) -> np.ndarray:
    """Cyclic transmutation of cartesian components: new_i = old_{i+1 mod 3}."""
    return np.array([vec[1], vec[2], vec[0]])


def cycle_point(z: Ternary) -> Ternary:
    """The point rotation matching cycle_components (2 pi/3 about the trisectrice)."""
    return Ternary(z.x1, z.x2, z.x0)


def h_cartesian(z: Ternary) -> np.ndarray:
    """Cartesian components (H_x0, H_x1, H_x2) of H = x / ||z||^3."""
    n = norm_cubed(z)
    if _fault(n == 0.0, lambda *c: h_cartesian(Ternary(*c)), *z.components()):
        raise OnSingularSet(f"cartesian field undefined on the singular set at {z}")
    return _stack(z.x0 / n, z.x1 / n, z.x2 / n)
