"""Arithmetic and transcendental functions on ternary complex numbers.

A ternary complex number is z = x0 + x1*q + x2*q**2 with real components and
q**3 = 1, i.e. an element of R[X]/(1 - X**3).  The algebra is commutative and
splits into a real line (spanned by the idempotent K0) and a complex plane
(spanned by E0 and I), glued along the cubic pseudo-norm

    ||z||^3 = x0^3 + x1^3 + x2^3 - 3*x0*x1*x2.

Numbers with vanishing cubic norm are singular (non-invertible).  Nonsingular
numbers with positive trisectrice component x0+x1+x2 admit a polar form
z = rho * e^{phi1*q + phi2*q^2}, whose component functions are the Appell
multi-sine functions implemented here.

The array contract
------------------
This module states it once for the package; ternion.calculus, ternion.field
and ternion.dynamics follow it.

* Dispatch.  A kernel takes floats or float arrays whose shapes broadcast
  (floats broadcast against the arrays); _lib picks math when no argument is
  an array and numpy otherwise.  An array call runs elementwise, one element
  per point, with every check applied elementwise, and gives for each
  element what the float call gives for that point: bit for bit where both
  paths do the same float arithmetic (real products and sums, ** through
  _pow), and within a few ulp where numpy's exp, log, arctan2, ** or complex
  product (which fuses a multiply and an add) stand in for the float path's.
  Array arithmetic itself follows numpy's floating-point error state.
* Faults.  numpy returns inf or nan where the float path raises, so an
  array call that meets a fault replays the flagged points, in order, on
  floats (_fault): the first point whose float call raises decides the
  error, which is that call's error, type and message.
* Layout.  A batched result of several components holds them first and the
  points last, one contiguous row per component: field's vectors,
  calculus._on_stencil, and the (m, nodes) values that the quadrature
  integrands return (see ternion.quadrature).
* One point only.  Some results speak for a single point, and over many a
  failing point would hide: calculus.check_holo_type1, check_holo_type2 and
  conformal_jacobian raise DomainError on array components.

Kernels in this module that take arrays: the Ternary and ComplexTernary
arithmetic, cubic_form, norm_cubed, norm, singular_tolerance, inverse, bar,
conjugates, the idempotent maps, multisine, exp, log, to_polar, from_polar
and characteristic_matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularNumber

__all__ = [
    "Ternary",
    "ComplexTernary",
    "PolarForm",
    "IdempotentCoords",
    "ZERO",
    "ONE",
    "Q",
    "Q2",
    "K0",
    "E0",
    "I_UNIT",
    "J",
    "J2",
    "THETA_PERIOD",
    "scale",
    "mul",
    "cubic_form",
    "norm_cubed",
    "norm",
    "singular_tolerance",
    "tilde_product",
    "inverse",
    "bar",
    "conjugates",
    "idempotent_decompose",
    "idempotent_reconstruct",
    "multisine",
    "exp",
    "log",
    "to_polar",
    "from_polar",
    "characteristic_matrix",
]

SQRT3 = math.sqrt(3.0)

#: Canonical reduction interval for the compact angle theta is [0, THETA_PERIOD).
THETA_PERIOD = 2.0 * math.pi / SQRT3

#: Coefficient of the singularity cutoff; the cutoff scales cubically because
#: the norm is cubic in the components.
EPS_SINGULAR = 1e-12

#: Primitive cube root of unity used by the conjugate copies.
J = complex(-0.5, SQRT3 / 2.0)
J2 = complex(-0.5, -SQRT3 / 2.0)


# bound once: _lib runs on every kernel call, and the attribute lookup is a
# third of its time
_ndarray = np.ndarray


def _lib(x, *more):
    """numpy if any argument is a numpy array, else math: the one test of
    the array contract (see the module docstring)."""
    if isinstance(x, _ndarray):
        return np
    if more:  # spares the one-argument call, as psi makes it, the loop
        for m in more:
            if isinstance(m, _ndarray):
                return np
    return math


def _pow(x, k):
    """x**k, with the bits of the float path also for the elements of an array:
    each element goes through float ** (libm's pow), since numpy's own power
    rounds a few percent of cubes and some squares differently."""
    if _lib(x) is np:
        return np.fromiter((v**k for v in x.ravel().tolist()), float, x.size).reshape(x.shape)
    return x**k


def _max3(a, b, c):
    """The largest of three values, elementwise for arrays.  Three floats,
    the common case, skip the _lib call."""
    if float is type(a) is type(b) is type(c) or _lib(a, b, c) is math:
        return max(a, b, c)
    return np.maximum(np.maximum(a, b), c)


def _cbrt(n):
    """Real cube root, sign kept, through _pow: the float path's bits on arrays too."""
    return _lib(n).copysign(_pow(abs(n), 1.0 / 3.0), n)


def _fault(mask, kernel, *args) -> bool:
    """Whether a point faults by mask, the one replay of the array contract.

    At a float point (neither mask nor args an array) this is mask itself.
    Otherwise mask is broadcast against args, kernel is called on the float
    arguments of each flagged point, in order, so the first point whose float
    call raises raises its error, and False is returned if none does.
    """
    if not isinstance(mask, _ndarray):
        if not mask or _lib(*args) is math:
            return mask
    elif not mask.any():
        return False
    mask, *columns = (a.ravel() for a in np.broadcast_arrays(mask, *args))
    for i in np.flatnonzero(mask):
        kernel(*(float(c[i]) for c in columns))
    return False


def _finite(x, kernel, *args):
    """x, the components of kernel(*args), once the array points where one is
    not finite are replayed through kernel (see _fault)."""
    if _lib(*x) is np:
        _fault(~(np.isfinite(x[0]) & np.isfinite(x[1]) & np.isfinite(x[2])), kernel, *args)
    return x


@dataclass(frozen=True)
class Ternary:
    """z = x0 + x1*q + x2*q^2 with real, finite components.

    Components are floats or float arrays; array components are marked
    read-only, as the value is immutable.
    """

    x0: float
    x1: float
    x2: float

    # keep numpy from broadcasting array * Ternary into an object array
    __array_ufunc__ = None

    def __post_init__(self):
        try:
            for c in (self.x0, self.x1, self.x2):
                if not math.isfinite(c):
                    raise ValueError(f"non-finite ternary component: {c!r}")
        except TypeError:
            x = self.components()
            if _lib(*x) is math:
                raise
            _finite(x, Ternary, *x)
            for c in x:
                if _lib(c) is np:
                    c.flags.writeable = False

    def components(self):
        return (self.x0, self.x1, self.x2)

    def max_abs(self):
        return _max3(abs(self.x0), abs(self.x1), abs(self.x2))

    def __add__(self, other):
        return Ternary(self.x0 + other.x0, self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other):
        return Ternary(self.x0 - other.x0, self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self):
        return Ternary(-self.x0, -self.x1, -self.x2)

    def __mul__(self, other):
        if isinstance(other, Ternary):
            return mul(self, other)
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __repr__(self):
        return f"Ternary({self.x0!r}, {self.x1!r}, {self.x2!r})"


ZERO = Ternary(0.0, 0.0, 0.0)
ONE = Ternary(1.0, 0.0, 0.0)
Q = Ternary(0.0, 1.0, 0.0)
Q2 = Ternary(0.0, 0.0, 1.0)

# Idempotent basis: K0 spans the real ideal, {E0, I} the complex one.
K0 = Ternary(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
E0 = Ternary(2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0)
I_UNIT = Ternary(0.0, 1.0 / SQRT3, -1.0 / SQRT3)


def scale(z: Ternary, c: float) -> Ternary:
    return Ternary(c * z.x0, c * z.x1, c * z.x2)


def mul(z: Ternary, w: Ternary) -> Ternary:
    """Ring product; q^3 = 1 folds every power of q back into {1, q, q^2}."""
    return Ternary(
        z.x0 * w.x0 + z.x1 * w.x2 + z.x2 * w.x1,
        z.x0 * w.x1 + z.x1 * w.x0 + z.x2 * w.x2,
        z.x0 * w.x2 + z.x1 * w.x1 + z.x2 * w.x0,
    )


def cubic_form(u: float, v: float, w: float) -> float:
    """u^3 + v^3 + w^3 - 3uvw, evaluated in the factored form

    (u + v + w) * ((u-v)^2 + (v-w)^2 + (w-u)^2) / 2,

    which avoids the cancellation of the direct power sum when the three
    values are large and nearly equal.  The squares are products, so floats
    and arrays give the same bits.  A result outside the float range raises
    OverflowError.
    """
    d = u - v
    s = d * d
    d = v - w
    s = s + d * d  # broadcast shape of u, v and w: the next sum can be in place
    d = w - u
    s += d * d
    c = (u + v + w) * 0.5 * s
    if _lib(c) is np:
        _fault(~np.isfinite(c), cubic_form, u, v, w)
    elif not math.isfinite(c):
        raise OverflowError(f"cubic form out of float range: {c}")
    return c


def norm_cubed(z: Ternary) -> float:
    """Cubic pseudo-norm x0^3 + x1^3 + x2^3 - 3*x0*x1*x2 (sign preserved)."""
    return cubic_form(z.x0, z.x1, z.x2)


def norm(z: Ternary) -> float:
    """Real cube root of the cubic norm (sign preserved)."""
    return _cbrt(norm_cubed(z))


def singular_tolerance(z: Ternary) -> float:
    """EPS_SINGULAR (1 + max |x_i|)^3, the cutoff below which |norm_cubed(z)|
    counts as singular.  The cube is a product, so floats and arrays give the
    same bits and the same cutoff.  A result outside the float range raises
    OverflowError.
    """
    m = 1.0 + z.max_abs()
    t = EPS_SINGULAR * (m * m * m)
    if _lib(t) is np:
        _fault(~np.isfinite(t), lambda *c: singular_tolerance(Ternary(*c)), *z.components())
    elif not math.isfinite(t):
        raise OverflowError(f"singular tolerance out of float range: {t}")
    return t


def tilde_product(z: Ternary) -> Ternary:
    """Product of the two conjugate copies, a real ternary number.

    z * tilde_product(z) = ||z||^3 * 1, which is what makes division work.
    """
    return Ternary(
        z.x0 * z.x0 - z.x1 * z.x2,
        z.x2 * z.x2 - z.x0 * z.x1,
        z.x1 * z.x1 - z.x2 * z.x0,
    )


def inverse(z: Ternary) -> Ternary:
    n = norm_cubed(z)
    if _fault(abs(n) <= singular_tolerance(z), lambda *c: inverse(Ternary(*c)), *z.components()):
        raise SingularNumber(f"non-invertible: ||z||^3 = {n:.3e} for z = {z}")
    return scale(tilde_product(z), 1.0 / n)


def bar(z: Ternary) -> Ternary:
    """Norm-preserving duality z -> z~ z~~ / ||z||; an involution."""
    n = norm_cubed(z)
    if _fault(abs(n) <= singular_tolerance(z), lambda *c: bar(Ternary(*c)), *z.components()):
        raise SingularNumber(f"duality undefined: ||z||^3 = {n:.3e} for z = {z}")
    return scale(tilde_product(z), 1.0 / _cbrt(n))


def _complex(x, c=1.0):
    """complex(x) * c for a real or complex x and c, elementwise for arrays
    with the float path's bits and signed zeros.  numpy's complex product
    fuses a multiply and an add, which changes the last bit of most products
    and can give a product that underflows to zero the other sign, so the
    array path spells out CPython's product, real = xr cr - xi ci and
    imag = xr ci + xi cr, in real arithmetic."""
    if _lib(x, c) is math:
        return complex(x) * c
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(c)), complex)
    out.real = x.real * c.real - x.imag * c.imag
    out.imag = x.real * c.imag + x.imag * c.real
    return out


@dataclass(frozen=True)
class ComplexTernary:
    """Ternary number with complex components; houses the conjugate copies."""

    c0: complex
    c1: complex
    c2: complex

    @staticmethod
    def from_real(z: Ternary) -> "ComplexTernary":
        return ComplexTernary(*map(_complex, z.components()))

    def components(self):
        return (self.c0, self.c1, self.c2)

    def real_part(self) -> Ternary:
        return Ternary(self.c0.real, self.c1.real, self.c2.real)

    def imag_part(self) -> Ternary:
        return Ternary(self.c0.imag, self.c1.imag, self.c2.imag)

    def max_imag(self) -> float:
        return _max3(abs(self.c0.imag), abs(self.c1.imag), abs(self.c2.imag))

    def __add__(self, other):
        return ComplexTernary(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other):
        return ComplexTernary(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def __mul__(self, other):
        if isinstance(other, ComplexTernary):
            return ComplexTernary(
                _complex(self.c0, other.c0) + _complex(self.c1, other.c2) + _complex(self.c2, other.c1),
                _complex(self.c0, other.c1) + _complex(self.c1, other.c0) + _complex(self.c2, other.c2),
                _complex(self.c0, other.c2) + _complex(self.c1, other.c1) + _complex(self.c2, other.c0),
            )
        return ComplexTernary(_complex(self.c0, other), _complex(self.c1, other), _complex(self.c2, other))

    def __rmul__(self, other):
        return ComplexTernary(_complex(self.c0, other), _complex(self.c1, other), _complex(self.c2, other))


def conjugates(z: Ternary) -> tuple[ComplexTernary, ComplexTernary]:
    """The two conjugate copies (z~, z~~) with j = e^{2 pi i/3}:

    z~  = x0 + x1*j*q   + x2*j^2*q^2
    z~~ = x0 + x1*j^2*q + x2*j*q^2
    """
    x0 = _complex(z.x0)
    zt = ComplexTernary(x0, _complex(z.x1, J), _complex(z.x2, J2))
    ztt = ComplexTernary(x0, _complex(z.x1, J2), _complex(z.x2, J))
    return zt, ztt


@dataclass(frozen=True)
class IdempotentCoords:
    """Coordinates of z in the basis {K0, E0, I}."""

    k: float
    e: float
    i: float


def idempotent_decompose(z: Ternary) -> IdempotentCoords:
    """z = k*K0 + e*E0 + i*I with

    k = x0 + x1 + x2,  e = x0 - (x1 + x2)/2,  i = (sqrt3/2)(x1 - x2).

    The e-coefficient is fixed by requiring exact reconstruction (it also
    matches the diagonal of the characteristic matrix); with it the cubic
    norm factors as k*(e^2 + i^2).
    """
    return IdempotentCoords(
        z.x0 + z.x1 + z.x2,
        z.x0 - 0.5 * (z.x1 + z.x2),
        (SQRT3 / 2.0) * (z.x1 - z.x2),
    )


def idempotent_reconstruct(c: IdempotentCoords) -> Ternary:
    """Inverse linear map of idempotent_decompose."""
    return Ternary(
        (c.k + 2.0 * c.e) / 3.0,
        (c.k - c.e + SQRT3 * c.i) / 3.0,
        (c.k - c.e - SQRT3 * c.i) / 3.0,
    )


def multisine(k: int, phi1: float, phi2: float) -> float:
    """Appell multi-sine m_k(phi1, phi2), k in {0, 1, 2}:

    m_k = (1/3) * (e^{phi1+phi2}
                   + 2 e^{-(phi1+phi2)/2} cos((sqrt3/2)(phi1-phi2) - 2 pi k/3))

    These are the components of e^{phi1*q + phi2*q^2}; they preserve the cubic
    form: m0^3 + m1^3 + m2^3 - 3 m0 m1 m2 = 1 identically.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"multisine index must be 0, 1 or 2, got {k}")
    try:
        m = _multisines(phi1, phi2)
    except OverflowError:
        raise OverflowError(
            f"multisine out of float range at (phi1, phi2) = ({phi1}, {phi2})"
        ) from None
    return _finite(m, lambda a, b: multisine(k, a, b), phi1, phi2)[k]


def _multisines(phi1, phi2, shift=0.0):
    """(m0, m1, m2) at (phi1, phi2), each times e^shift: the one kernel of
    multisine, from_polar and exp.  Both exponentials are formed once, with
    the shift inside them, e^(shift + s) and e^(shift - s/2), so a large
    shift cannot overflow a product spuriously; each m_k is the expression
    (big + small cos(psi - 2 pi k/3)) / 3 of the docstring above.

    At a float point an exponential that overflows raises OverflowError,
    which each caller reraises naming itself and the point.  Array points
    where one overflows are left inf or nan; each caller replays the points
    where its own result is not finite through its float call (see _finite),
    so that call's first error is raised.
    """
    s = phi1 + phi2
    psi = (SQRT3 / 2.0) * (phi1 - phi2)
    m = _lib(shift, s)
    big = m.exp(shift + s)
    small = 2.0 * m.exp(shift - 0.5 * s)
    return tuple((big + small * m.cos(psi - 2.0 * math.pi * k / 3.0)) / 3.0 for k in (0, 1, 2))


def exp(z: Ternary) -> Ternary:
    """Componentwise e^z = e^{x0} (m0(x1,x2) + m1(x1,x2) q + m2(x1,x2) q^2).

    The two exponential scales e^{x0+x1+x2} and e^{x0-(x1+x2)/2} are formed
    directly (the multi-sines with shift x0) so intermediate products cannot
    overflow spuriously; a genuine overflow of either scale raises
    OverflowError naming the point.
    """
    try:
        m = _multisines(z.x1, z.x2, z.x0)
    except OverflowError:
        raise OverflowError(f"exp out of float range at z = ({z.x0}, {z.x1}, {z.x2})") from None
    return Ternary(*_finite(m, lambda *c: exp(Ternary(*c)), *z.components()))


def _log_parts(z: Ternary) -> tuple[float, float, float]:
    """(ln rho, phi, theta) for admissible z; theta reduced into [0, period)."""
    n = norm_cubed(z)
    k = z.x0 + z.x1 + z.x2
    singular = abs(n) <= singular_tolerance(z)
    if _fault(singular | (n <= 0.0) | (k <= 0.0), lambda *c: _log_parts(Ternary(*c)), *z.components()):
        if singular:
            raise SingularNumber(f"log undefined on the singular set: ||z||^3 = {n:.3e}")
        raise DomainError(f"log requires ||z||^3 > 0 and x0+x1+x2 > 0, got {n:.3e} and {k:.3e}")
    m = _lib(n)
    atan2 = np.arctan2 if m is np else math.atan2
    ln_rho = m.log(n) / 3.0
    phi = 0.5 * (m.log(k) - ln_rho)
    psi = atan2(SQRT3 * (z.x1 - z.x2), 2.0 * z.x0 - z.x1 - z.x2)
    theta = psi / SQRT3
    if m is np:
        theta = np.where(theta < 0.0, theta + THETA_PERIOD, theta)
    elif theta < 0.0:
        theta += THETA_PERIOD
    return ln_rho, phi, theta


def log(z: Ternary) -> Ternary:
    """Principal logarithm: ln z = ln rho + phi1*q + phi2*q^2 with

    ln rho = (1/3) ln ||z||^3,
    phi    = (phi1+phi2)/2 = (1/2) ln((x0+x1+x2)/rho),
    theta  = (phi1-phi2)/2 = psi/sqrt3,  psi = atan2(sqrt3 (x1-x2), 2x0-x1-x2),

    with theta reduced into [0, 2 pi/sqrt3).  exp(log(z)) = z on the domain
    (nonsingular, x0+x1+x2 > 0); the formulas are not extended elsewhere.
    """
    ln_rho, phi, theta = _log_parts(z)
    return Ternary(ln_rho, phi + theta, phi - theta)


@dataclass(frozen=True)
class PolarForm:
    """Polar coordinates (rho, phi1, phi2) of a nonsingular ternary number."""

    rho: float
    phi1: float
    phi2: float

    def __post_init__(self):
        try:
            if not (math.isfinite(self.rho) and self.rho > 0.0):
                raise DomainError(f"polar modulus must be positive and finite, got {self.rho!r}")
            if not (math.isfinite(self.phi1) and math.isfinite(self.phi2)):
                raise ValueError("non-finite polar angle")
        except TypeError:
            args = (self.rho, self.phi1, self.phi2)
            if _lib(*args) is math:
                raise
            ok = np.isfinite(self.rho) & (self.rho > 0.0) & np.isfinite(self.phi1) & np.isfinite(self.phi2)
            _fault(~ok, PolarForm, *args)

    @property
    def theta(self) -> float:
        """Compact angle (phi1-phi2)/2 reduced into [0, 2 pi/sqrt3)."""
        t = 0.5 * (self.phi1 - self.phi2)
        m = _lib(t)
        t = m.fmod(t, THETA_PERIOD)  # fmod is exact, so arrays keep the float bits
        if m is np:
            return np.where(t < 0.0, t + THETA_PERIOD, t)
        if t < 0.0:
            t += THETA_PERIOD
        return t

    @property
    def phi(self) -> float:
        """Non-compact angle (phi1+phi2)/2."""
        return 0.5 * (self.phi1 + self.phi2)


def to_polar(z: Ternary) -> PolarForm:
    """Polar form of z; same domain as log, theta canonicalized."""
    ln_rho, phi, theta = _log_parts(z)
    rho = _lib(ln_rho).exp(ln_rho)
    return PolarForm(rho, phi + theta, phi - theta)


def from_polar(p: PolarForm) -> Ternary:
    """x_k = rho * m_k(phi1, phi2); an exponential of m_k that leaves the
    float range raises OverflowError naming the point."""
    try:
        m0, m1, m2 = _multisines(p.phi1, p.phi2)
    except OverflowError:
        raise OverflowError(
            f"from_polar out of float range at (rho, phi1, phi2) = ({p.rho}, {p.phi1}, {p.phi2})"
        ) from None
    x = (p.rho * m0, p.rho * m1, p.rho * m2)
    return Ternary(*_finite(x, lambda *c: from_polar(PolarForm(*c)), p.rho, p.phi1, p.phi2))


def characteristic_matrix(z: Ternary) -> np.ndarray:
    """3x3 matrix sum x_i R(q^i) over the vector rotation matrices

    R(q) = rotation by 2 pi/3 in the plane orthogonal to the trisectrice.

    The map is an algebra homomorphism (matrix product matches mul) and its
    determinant equals the cubic norm.  Array components of shape S give
    the stack of shape S + (3, 3).
    """
    k = z.x0 + z.x1 + z.x2
    e = z.x0 - 0.5 * (z.x1 + z.x2)
    i = (SQRT3 / 2.0) * (z.x1 - z.x2)
    out = np.zeros(np.shape(k) + (3, 3))
    out[..., 0, 0] = k
    out[..., 1, 1] = out[..., 2, 2] = e
    out[..., 1, 2] = i
    out[..., 2, 1] = -i
    return out
