"""Seeded inputs, operations and output checks for the four workloads.

Each workload is a list of ``Op`` objects.  ``Op.run`` is the timed call into
``ternion``'s public API; ``Op.check`` inspects its outcome outside the timed
region and returns ``(passed, ok)``: ``passed`` is False when the op raised
an unexpected error or its output is wrong, ``ok`` is False when the outcome
is a typed non-result (a scattering row whose status is not ``ok``).

Ops call the library through module attributes (``td.scattering_map``, not a
name bound at import) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import os
import zlib

import numpy as np

import ternion.algebra as ta
import ternion.calculus as tc
import ternion.cli as tcli
import ternion.dynamics as td
import ternion.field as tf
from ternion.errors import TernionError
from ternion.rootfind import brent

SQRT3 = math.sqrt(3.0)
LOOP_RESIDUE = (0.0, 2.0 * math.pi / SQRT3, -2.0 * math.pi / SQRT3)
FORM_TOL = 1e-9  # the integrate-form CLI default
ODE_TOL = 1e-10

# Incoming data and (M1, M2) window of acceptance criterion 11; every point
# in it scatters, so trajectories and CLI grids built from it always exist.
C11 = {"g": 1.0, "y1": 0.0, "z1": 0.8, "v1_inf": 0.5}
C11_M1 = (-1.25, -0.75)
C11_M2 = (0.85, 1.15)

STATUSES = ("ok", "NoSecondSolution", "RootFindingFailure", "JacobianSingular", "other")


def status_of(exc) -> str:
    if exc is None:
        return "ok"
    name = type(exc).__name__
    return name if name in STATUSES else "other"


class Op:
    """kind labels the op in reports; outputs are files whose sizes count
    toward cli.bytes_written."""

    __slots__ = ("kind", "run", "check", "outputs")

    def __init__(self, kind, run, check, outputs=()):
        self.kind = kind
        self.run = run
        self.check = check
        self.outputs = outputs


def rng_for(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def latin_hypercube(rng, n, bounds):
    """n points, one per stratum in every coordinate (seeded, jittered)."""
    cols = []
    for lo, hi in bounds:
        u = (rng.permutation(n) + rng.random(n)) / n
        cols.append(lo + (hi - lo) * u)
    return [tuple(float(c[i]) for c in cols) for i in range(n)]


def shifted_halton(rng, n, bounds):
    """n Halton points under one seeded random shift (mod 1), evenly spread
    in all coordinates jointly.  Python floats: numpy scalars as inputs would
    slow every closed-form evaluation an op makes (~1.7x on scatter)."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19)[: len(bounds)]
    shift = rng.random(len(bounds))
    points = []
    for i in range(1, n + 1):
        row = []
        for base, s, (lo, hi) in zip(primes, shift, bounds):
            f, x, k = 1.0, 0.0, i
            while k:
                f /= base
                x += f * (k % base)
                k //= base
            row.append(lo + (hi - lo) * ((x + float(s)) % 1.0))
        points.append(tuple(row))
    return points


def _close(got, want, tol):
    """Componentwise |got - want| <= tol; a shorter want checks a prefix."""
    return all(abs(g - w) <= tol for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# scatter: one scattering-map point per op


def _scatter_op(g, y1, z1, v1_inf, m1, m2):
    def run():
        return td.scattering_map(td.ScatteringSetup(g=g, y1=y1, z1=z1, v1_inf=v1_inf, m1=m1, m2=m2))

    def check(res, exc):
        if exc is not None:
            # a typed outcome is a row the CLI writes with its status
            return isinstance(exc, TernionError), False
        setup = td.ScatteringSetup(g=g, y1=y1, z1=z1, v1_inf=v1_inf, m1=m1, m2=m2)
        sol = td.GeneralSolution(g, res.m0, m1, m2, res.y0, y1)
        passed = (
            abs(sol.psi(res.ytilde1)) <= 1e-11
            and abs(setup.constraint_residual) <= 1e-12
            and math.isfinite(res.jacobian)
            and math.isfinite(res.dsigma)
        )
        return passed, True

    return Op("scattering_map", run, check)


def scatter_ops(seed: int, workdir):
    rng = rng_for("scatter", seed)
    draws = shifted_halton(rng, 300, [(-2.0, 2.0), (-2.0, 2.0), (-0.5, 0.5), (0.5, 1.2), (0.3, 0.8)])
    return [_scatter_op(1.0, y1, z1, v1, m1, m2) for m1, m2, y1, z1, v1 in draws], None


# ---------------------------------------------------------------------------
# trajectory: one DP5 integration per op, initial states from closed forms


def _drift(traj) -> float:
    return float(np.max(traj.max_m_drift()))


def _r1_mismatch(traj, r1_of, slope, samples) -> float:
    worst = 0.0
    for i in np.linspace(0, len(traj) - 1, samples).astype(int):
        st = traj.state(int(i))
        worst = max(worst, abs(st.r1 - r1_of(slope(st))) / abs(st.r1))
    return worst


def _integrate_op(kind, s0, g, t_end, r1_of, slope, samples, r1_tol):
    def run():
        return td.integrate(s0, g, t_end, tol=ODE_TOL)

    def check(traj, exc):
        if exc is not None:
            return False, False
        return _drift(traj) <= 1e-8 and _r1_mismatch(traj, r1_of, slope, samples) <= r1_tol, True

    return Op(kind, run, check)


# (g, M2, z0, z1/z0, start, stop): turnaround runs, z0 < z1 < e z0
PLANAR_BOUNDS = [(0.8, 1.2), (0.7, 1.5), (0.8, 1.5), (1.3, 2.4), (0.85, 0.95), (0.2, 0.6)]


def _planar_case(g, m2, z0, ratio, start, stop):
    sol = td.planar_solution(g, m2, z0, z0 * ratio)
    lo, hi = sol.branch
    z_start = z0 + start * (hi - z0)
    z_stop = lo + stop * (z0 - lo)
    return g, sol, z_start, z_stop


def _general_case(m1, m2):
    """A scattering trajectory between the radius-400 edges (criterion 11)."""
    g, y1 = C11["g"], C11["y1"]
    res = td.scattering_map(td.ScatteringSetup(m1=m1, m2=m2, **C11))
    sol = td.general_solution(g, res.m0, m1, m2, res.y0, y1)
    psi_edge = abs(res.m0) / (g * 400.0)
    ya = brent(lambda y: abs(sol.psi(y)) - psi_edge, y1 + 1e-12, res.y0)
    yb = brent(lambda y: abs(sol.psi(y)) - psi_edge, res.y0, res.ytilde1 - 1e-12)
    return g, sol, ya, yb


def trajectory_ops(seed: int, workdir):
    rng = rng_for("trajectory", seed)
    ops = []
    for draw in latin_hypercube(rng, 72, PLANAR_BOUNDS):
        g, sol, z_start, z_stop = _planar_case(*draw)
        s0 = td.state_from_planar(sol, z_start)
        t_end = s0.t + (sol.t(z_stop) - sol.t(z_start))
        ops.append(
            _integrate_op("planar", s0, g, t_end, sol.r1, lambda st: st.l / st.r1, 20, 1e-4)
        )
    for m1, m2 in latin_hypercube(rng, 36, [C11_M1, C11_M2]):
        g, sol, ya, yb = _general_case(m1, m2)
        s0 = td.state_from_general(sol, ya)
        t_end = s0.t + (sol.t(yb) - sol.t(ya))
        ops.append(
            _integrate_op("general", s0, g, t_end, sol.r1, lambda st: st.r2 / st.r1, 15, 1e-3)
        )
    return ops, None


# ---------------------------------------------------------------------------
# forms: one calculus integral per op at the CLI default tolerance


# Fields look their algebra functions up at call time, so that traced rounds
# count the calls.
def reciprocal(z):
    return ta.inverse(z)


def inverse_conjugate(z):
    return ta.scale(z, 1.0 / ta.norm_cubed(z))


def _form_op(kind, run, reference, tol):
    def check(value, exc):
        if exc is not None:
            return False, False
        return _close(value.components(), reference(), tol), True

    return Op(kind, run, check)


def _sphere_reference(center, radius):
    """Form integral of x/||x||^3 over a sphere by a tensor Gauss-Legendre
    rule, written with numpy independently of ternion.calculus; two orders
    must agree to 1e-12.  (scipy.integrate would do the same, but importing
    it would add ~45 MB to the measured interpreter's peak RSS.)"""
    c = np.asarray(center, dtype=float)

    def omega(u, v):
        su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
        x = c[:, None] + radius * np.array([su * cv, su * sv, cu])
        du = radius * np.array([cu * cv, cu * sv, -su])
        dv = radius * np.array([-su * sv, su * cv, np.zeros_like(u)])
        j12 = du[1] * dv[2] - du[2] * dv[1]
        j20 = du[2] * dv[0] - du[0] * dv[2]
        j01 = du[0] * dv[1] - du[1] * dv[0]
        n3 = x[0] ** 3 + x[1] ** 3 + x[2] ** 3 - 3.0 * x[0] * x[1] * x[2]
        f0, f1, f2 = x / n3
        return np.array(
            [
                f0 * j12 + f1 * j20 + f2 * j01,
                f1 * j12 + f2 * j20 + f0 * j01,
                f2 * j12 + f0 * j20 + f1 * j01,
            ]
        )

    def integral(n):
        x, w = np.polynomial.legendre.leggauss(n)
        u, wu = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w  # [0, pi]
        v, wv = math.pi * (x + 1.0), math.pi * w  # [0, 2 pi]
        uu, vv = np.meshgrid(u, v, indexing="ij")
        vals = omega(uu.ravel(), vv.ravel()).reshape(3, n, n)
        return np.einsum("kij,i,j->k", vals, wu, wv)

    coarse, fine = integral(64), integral(96)
    if np.max(np.abs(fine - coarse)) > 1e-12:
        raise RuntimeError(f"sphere reference did not converge: {coarse} vs {fine}")
    return tuple(float(v) for v in fine)


def _box_volume_reference(box, c0, c1):
    """Closed form of the integral of c1 z^2 + c0 over a box."""
    (a0, b0), (a1, b1), (a2, b2) = box
    lens = (b0 - a0, b1 - a1, b2 - a2)
    vol = lens[0] * lens[1] * lens[2]
    sq = [(b**3 - a**3) / 3.0 for a, b in box]  # integral of x_i^2 along axis i
    lin = [(b * b - a * a) / 2.0 for a, b in box]  # integral of x_i along axis i

    def sq_int(i):
        return sq[i] * vol / lens[i]

    def cross_int(i, j):
        k = 3 - i - j
        return lin[i] * lin[j] * lens[k]

    # z^2 = (x0^2 + 2 x1 x2, 2 x0 x1 + x2^2, 2 x0 x2 + x1^2)
    z2 = ta.Ternary(
        sq_int(0) + 2.0 * cross_int(1, 2),
        2.0 * cross_int(0, 1) + sq_int(2),
        2.0 * cross_int(0, 2) + sq_int(1),
    )
    return (ta.mul(c1, z2) + ta.scale(c0, vol)).components()


def forms_ops(seed: int, workdir):
    """Op counts are set so that p50 falls among the 225-evaluation bands and
    p90 among the 3375-evaluation boxes, whose costs do not depend on the
    draw; spheres (225 to ~2500 evaluations) stay below the boxes."""
    rng = rng_for("forms", seed)
    loop_field = tc.TernaryField(reciprocal, name="reciprocal")
    phi = tc.TernaryField(inverse_conjugate, name="inverse-conjugate")
    ops, spheres = [], []
    for rho, phase in latin_hypercube(rng, 40, [(0.5, 2.0), (-0.5, 0.5)]):
        curve = tc.trisectrice_loop(rho, phase)
        ops.append(
            _form_op(
                "line",
                lambda c=curve: tc.line_integral(loop_field, c, tol=FORM_TOL),
                lambda: LOOP_RESIDUE,
                1e-8,
            )
        )
    for rho, a1, ratio in latin_hypercube(rng, 20, [(0.7, 1.5), (0.6, 1.2), (1.5, 3.0)]):
        a2 = a1 * ratio
        patch = tc.cubic_band_patch(rho, a1, a2)
        x0 = 2.0 * math.pi / SQRT3 * math.log(a2 / a1)
        ops.append(
            _form_op(
                "cubic-band",
                lambda p=patch: tc.surface_integral_2form(phi, p, tol=FORM_TOL),
                lambda x0=x0: (x0,),
                1e-6 * x0,
            )
        )
    for rho, lo, width in latin_hypercube(rng, 24, [(0.7, 1.5), (-0.4, 0.0), (0.2, 0.6)]):
        hi = lo + width
        patch = tc.polar_band_patch(rho, lo, hi)
        x0 = 4.0 * math.pi / SQRT3 * (hi - lo)
        ops.append(
            _form_op(
                "polar-band",
                lambda p=patch: tc.surface_integral_2form(phi, p, tol=FORM_TOL),
                lambda x0=x0: (x0,),
                1e-6 * x0,
            )
        )
    # centres at frame distance >= 1.5 from the trisectrice and the l = 0
    # plane, so the spheres stay clear of the singular set
    for l, r, ang, radius in latin_hypercube(rng, 8, [(2.0, 3.0), (1.5, 2.5), (0.0, 2.0 * math.pi), (0.15, 0.3)]):
        center = tf.from_frame(tf.FrameVector(l, r * math.cos(ang), r * math.sin(ang)))
        patch = tc.sphere_patch(center, radius)
        ref = {}
        spheres.append((ref, center.components(), radius))
        ops.append(
            _form_op(
                "sphere",
                lambda p=patch: tc.surface_integral_2form(phi, p, tol=FORM_TOL),
                lambda ref=ref: ref["value"],
                1e-8,
            )
        )
    for draw in latin_hypercube(rng, 14, [(-1.0, 0.5)] * 3 + [(0.5, 1.5)] * 3 + [(-1.0, 1.0)] * 6):
        box = tuple((a, a + s) for a, s in zip(draw[0:3], draw[3:6]))
        c0, c1 = ta.Ternary(*draw[6:9]), ta.Ternary(*draw[9:12])
        field = tc.TernaryField(lambda z, c0=c0, c1=c1: ta.mul(c1, ta.mul(z, z)) + c0, name="quadratic")
        ref = _box_volume_reference(box, c0, c1)
        ops.append(
            _form_op(
                "box",
                lambda f=field, b=box: tc.volume_integral_3form(f, b, tol=FORM_TOL),
                lambda ref=ref: ref,
                1e-9 * (1.0 + max(abs(v) for v in ref)),
            )
        )

    def prepare():
        for ref, center, radius in spheres:
            ref["value"] = _sphere_reference(center, radius)

    return ops, prepare


# ---------------------------------------------------------------------------
# cli: one in-process `ternion.cli.main(argv)` per op, writing into workdir


def _num(x: float) -> str:
    return repr(float(x))


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def cli_ops(seed: int, workdir):
    """Op counts are set so that p50 and p90 each fall inside a group of
    compute-bound ops whose cost does not depend on the draw: p50 among the
    25 cubic bands (a2/a1 <= 2, so 225 evaluations each, like the polar
    bands beside them) above the 42 trisectrice loops, and p90 among the 22
    unit-field box integrals (3375 evaluations each; only `verify dynamics`
    costs more).  The loops, whose ~1.5 ms is mostly CLI overhead and file
    writes, made a noisy median; the other kinds run a few times each.

    Config files are written into workdir as part of input generation.
    The ops run with workdir as the current directory and name their files
    relatively, so manifests (which record output paths) are byte-identical
    wherever the checkout lives."""
    rng = rng_for("cli", seed)
    w = lambda name: os.path.join(workdir, name)  # noqa: E731
    ops = []

    def add(kind, argv, check, outputs):
        def run():
            return tcli.main(argv)

        def checked(code, exc):
            if exc is not None or code != 0:
                return False, False
            try:
                return bool(check()), True
            except (OSError, ValueError, KeyError, IndexError):
                return False, False

        ops.append(Op(kind, run, checked, tuple(w(o) for o in outputs)))

    # verify: each suite at the documented acceptance seed; drawn seeds would
    # make the checks' own rare finite-difference misses part of the timing
    # benchmark
    for suite in ("algebra", "calculus", "field", "dynamics"):
        out = f"verify-{suite}.json"

        def passed_all(out=out):
            return all(r["passed"] for r in _read_json(w(out)))

        add("verify", ["verify", suite, "--seed", "42", "--out", out], passed_all, [out])

    # scatter on 2x2 grids with a manifest, then a rerun from the manifest
    for i in range(2):
        m1 = sorted(float(v) for v in rng.uniform(*C11_M1, size=2))
        m2 = sorted(float(v) for v in rng.uniform(*C11_M2, size=2))
        _write_json(w(f"scatter{i}.json"), dict(C11, m1_grid=m1, m2_grid=m2))
        csv, again, man = f"scatter{i}.csv", f"scatter{i}.again.csv", f"scatter{i}.manifest.json"
        rows = len(m1) * len(m2)

        def all_rows_ok(csv=csv, rows=rows):
            with open(w(csv)) as fh:
                lines = fh.read().splitlines()
            return len(lines) == rows + 1 and all(line.endswith(",ok") for line in lines[1:])

        def same_bytes(csv=csv, again=again):
            with open(w(csv), "rb") as a, open(w(again), "rb") as b:
                return a.read() == b.read()

        add("scatter", ["scatter", "--config", f"scatter{i}.json", "--out", csv, "--manifest", man],
            all_rows_ok, [csv, man])
        add("scatter-rerun", ["scatter", "--config", man, "--out", again], same_bytes, [again])

    # planar simulate compared against the closed form
    for i, draw in enumerate(latin_hypercube(rng, 6, PLANAR_BOUNDS)):
        g, sol, z_start, z_stop = _planar_case(*draw)
        _write_json(
            w(f"planar{i}.json"),
            {"kind": "planar", "g": g, "m2": sol.m2, "z0": sol.z0, "z1": sol.z1,
             "z_start": z_start, "z_stop": z_stop, "tol": ODE_TOL},
        )
        csv, man = f"planar{i}.csv", f"planar{i}.manifest.json"

        def planar_ok(man=man):
            doc = _read_json(w(man))
            return (
                doc["status"] == "ok"
                and doc["closed_form_max_rel_dev"] <= 1e-4
                and max(doc["conservation"]["m_drift"]) <= 1e-8
            )

        add("simulate-planar",
            ["simulate", "--config", f"planar{i}.json", "--out", csv, "--manifest", man,
             "--compare-closed-form"],
            planar_ok, [csv, man])

    # centre-reaching state runs that end at the singular-approach guard
    for i in range(3):
        g = float(rng.uniform(0.8, 1.2))
        z0 = float(rng.uniform(0.8, 1.2))
        sol = td.planar_solution(g, float(rng.uniform(0.7, 1.3)), z0, z0 * float(rng.uniform(2.9, 3.5)))
        z_start = sol.z1 * float(rng.uniform(0.75, 0.9))
        s0 = td.state_from_planar(sol, z_start)
        t_centre = sol.t(1e-6 * sol.z1) - sol.t(z_start)
        _write_json(
            w(f"centre{i}.json"),
            {"kind": "state", "g": g, "tol": ODE_TOL, "state": list(s0.as_tuple()), "t_end": 1.5 * t_centre},
        )
        csv, man = f"centre{i}.csv", f"centre{i}.manifest.json"

        def centre_ok(man=man):
            doc = _read_json(w(man))
            return doc["status"] == "singular-stop" and max(doc["conservation"]["m_drift"]) <= 1e-8

        add("simulate-centre",
            ["simulate", "--config", f"centre{i}.json", "--out", csv, "--manifest", man,
             "--allow-singular-stop"],
            centre_ok, [csv, man])

    # integrate-form presets with closed-form references
    def value_close(out, want, tol):
        return lambda: _close(_read_json(w(out))["value"], want, tol)

    for i in range(42):
        out = f"loop{i}.json"
        add("form-line",
            ["integrate-form", "line", "--preset", "trisectrice-loop", "--rho=" + _num(rng.uniform(0.5, 2.0)),
             "--phi=" + _num(rng.uniform(-0.5, 0.5)), "--field", "reciprocal", "--out", out],
            value_close(out, LOOP_RESIDUE, 1e-8), [out])
    for i in range(25):
        a1 = float(rng.uniform(0.6, 1.2))
        a2 = a1 * float(rng.uniform(1.5, 2.0))  # 225 evaluations at tol 1e-9
        x0 = 2.0 * math.pi / SQRT3 * math.log(a2 / a1)
        out, man = f"cubic{i}.json", f"cubic{i}.manifest.json"
        add("form-cubic-band",
            ["integrate-form", "surface", "--preset", "cubic-band", "--rho=" + _num(rng.uniform(0.7, 1.5)),
             "--a1=" + _num(a1), "--a2=" + _num(a2), "--out", out, "--manifest", man],
            value_close(out, (x0,), 1e-6 * x0), [out, man])
    for i in range(2):
        lo = float(rng.uniform(-0.4, 0.0))
        hi = lo + float(rng.uniform(0.2, 0.6))
        x0 = 4.0 * math.pi / SQRT3 * (hi - lo)
        out = f"polar{i}.json"
        add("form-polar-band",
            ["integrate-form", "surface", "--preset", "polar-band", "--rho=" + _num(rng.uniform(0.7, 1.5)),
             "--phi-lo=" + _num(lo), "--phi-hi=" + _num(hi), "--out", out],
            value_close(out, (x0,), 1e-6 * x0), [out])
    for i in range(2):
        radius = float(rng.uniform(0.2, 0.5))
        center = ",".join(_num(v) for v in rng.uniform(-2.0, 2.0, size=3))
        out = f"sphere{i}.json"
        # flux of the identity field through a sphere: (3 V, 0, 0)
        add("form-sphere",
            ["integrate-form", "surface", "--preset", "sphere", "--center=" + center, "--radius=" + _num(radius),
             "--field", "identity", "--out", out],
            value_close(out, (4.0 * math.pi * radius**3, 0.0, 0.0), 1e-8), [out])
    for i in range(22):
        lo = rng.uniform(-1.0, 0.5, size=3)
        hi = lo + rng.uniform(0.5, 1.5, size=3)
        vol = float(np.prod(hi - lo))
        box = ",".join(_num(v) for pair in zip(lo, hi) for v in pair)
        out = f"box{i}.json"
        add("form-box",
            ["integrate-form", "volume", "--preset", "box", "--box=" + box, "--field", "one", "--out", out],
            value_close(out, (vol, 0.0, 0.0), 1e-9 * (1.0 + vol)), [out])
    return ops, None


OP_SETS = {
    "scatter": scatter_ops,
    "trajectory": trajectory_ops,
    "forms": forms_ops,
    "cli": cli_ops,
}
