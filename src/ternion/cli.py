"""Command-line front end: verify / simulate / scatter / integrate-form.

All commands are deterministic: verify given its seed, the others given
their config; simulation and scattering emit CSV plus a JSON manifest
recording every tolerance, so rerun from the manifest reproduces the bytes.
Exit codes: 0 success, 1 failed properties, singular stop or numerical
failure, 2 bad usage, config or unwritable output, 3 scatter grid entirely
failed.  A simulation stopped by the singular-approach guard or a step
failure still writes its CSV up to the last accepted step and its manifest,
with status singular-stop or step-failure.  ternion.config formats and
writes every output file, whole or not at all.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import os
import sys

from . import algebra as ta
from . import calculus as tc
from . import dynamics as td
from .algebra import Ternary
from .config import (
    ConfigError,
    FormConfig,
    _json_text,
    load_config,
    write_json,
    write_manifest,
    write_scatter_csv,
    write_trajectory_csv,
)
from .errors import DomainError, NumericalBreakdown, SingularApproach, SingularNumber, StepFailure, TernionError
from .verify import SUITE_NAMES, run_suite

__all__ = ["main"]


# --------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed (seed {args.seed})")
    if args.out:
        write_json(args.out, [dataclasses.asdict(r) for r in results])
    if failed:
        first = failed[0]
        print("first counterexample: " + _json_text({"check": first.name, "data": first.counterexample}))
        return 1
    return 0


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, else a usage error."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _path(text: str) -> str:
    """An --out or --manifest value: a path that is not empty, else a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("needs a path, got ''")
    return text


def _check_outputs(config, out, manifest):
    """ConfigError, before the run, when two of --config, --out and
    --manifest name one file, compared as resolved paths."""
    named = [(flag, path) for flag, path in (("--config", config), ("--out", out), ("--manifest", manifest)) if path]
    for (flag1, path1), (flag2, path2) in itertools.combinations(named, 2):
        if os.path.realpath(path1) == os.path.realpath(path2):
            raise ConfigError(f"{flag1} {path1} and {flag2} {path2} name one file")


# --------------------------------------------------------------------------
# simulate


def _simulate_run(cfg):
    if cfg.kind == "planar":
        try:
            sol = td.planar_solution(cfg.g, cfg.m2, cfg.z0, cfg.z1)
            s0 = td.state_from_planar(sol, cfg.z_start)
            span = sol.t(cfg.z_stop) - sol.t(cfg.z_start)
        except (ArithmeticError, ValueError) as exc:  # the closed form left the float range
            seed = (cfg.g, cfg.m2, cfg.z0, cfg.z1, cfg.z_start, cfg.z_stop)
            where = f"planar seed (g, m2, z0, z1, z_start, z_stop) = {seed}"
            raise NumericalBreakdown(f"{type(exc).__name__}: {exc} at {where}") from exc
        if not span > 0.0:
            raise DomainError(
                f"z_stop = {cfg.z_stop} must come after z_start = {cfg.z_start} on the orbit: "
                f"the closed-form time span is {span} <= 0"
            )
        t_end = s0.t + span
    else:
        sol = None
        s0 = td.MonopoleState(*cfg.state)
        t_end = s0.t + cfg.t_end
    return sol, s0, t_end


def _cmd_simulate(args) -> int:
    _check_outputs(args.config, args.out, args.manifest)
    cfg = load_config(args.config, "simulate")
    if args.tol is not None:
        cfg = dataclasses.replace(cfg, tol=args.tol)
    if args.compare_closed_form and cfg.kind != "planar":
        raise ConfigError("--compare-closed-form needs a planar config")

    try:
        sol, s0, t_end = _simulate_run(cfg)
    except DomainError as exc:  # a planar seed the closed form rejects
        raise ConfigError(str(exc)) from None
    # both stops carry the trajectory up to the last accepted step, which
    # is written before the exit code reports the stop
    status, failure = "ok", None
    try:
        traj = td.integrate(s0, cfg.g, t_end, tol=cfg.tol, max_step=cfg.max_step)
    except SingularApproach as exc:
        traj, status = exc.trajectory, "singular-stop"
        print(f"singular approach: {exc}", file=sys.stderr)
    except StepFailure as exc:
        traj, status, failure = exc.trajectory, "step-failure", f"StepFailure: {exc}"
        print(failure, file=sys.stderr)

    extra, max_dev = None, 0.0
    if args.compare_closed_form:
        closed = [sol.r1(y[0] / y[1]) for y in traj.states]
        devs = (abs(c - y[1]) / max(1e-300, abs(y[1])) for c, y in zip(closed, traj.states))
        max_dev = max(0.0, *devs)
        extra = ("r1_closed", closed)
    write_trajectory_csv(traj, args.out, extra)

    drift = traj.max_m_drift()
    print(
        f"{len(traj)} samples ({traj.n_accepted} accepted / {traj.n_rejected} rejected steps), "
        f"M drift ({drift[0]:.3e}, {drift[1]:.3e}, {drift[2]:.3e}), |dE| = {traj.energy_change():.3e}"
    )
    if extra is not None:
        print(f"max relative deviation from closed-form r1(z): {max_dev:.3e}")

    if args.manifest:
        extras = {
            "conservation": {
                "m_drift": [float(d) for d in drift],
                "energy_change": traj.energy_change(),
            },
            "steps": {"accepted": traj.n_accepted, "rejected": traj.n_rejected},
        }
        if extra is not None:
            extras["closed_form_max_rel_dev"] = max_dev
        if status == "singular-stop":
            extras["truncated"] = "stopped at the singular-approach guard"
        if failure is not None:
            extras["message"] = failure
        write_manifest(args.manifest, cfg, {"trajectory_csv": args.out}, status, extras)
    if failure is not None or (status == "singular-stop" and not args.allow_singular_stop):
        return 1
    return 0


# --------------------------------------------------------------------------
# scatter


def _scatter_row(cfg, m1, m2):
    try:
        res = td.scattering_map(
            td.ScatteringSetup(g=cfg.g, y1=cfg.y1, z1=cfg.z1, v1_inf=cfg.v1_inf, m1=m1, m2=m2)
        )
        return (m1, m2, res, "ok")
    except TernionError as exc:
        return (m1, m2, None, type(exc).__name__)


def _cmd_scatter(args) -> int:
    _check_outputs(args.config, args.out, args.manifest)
    cfg = load_config(args.config, "scatter")
    rows = [_scatter_row(cfg, m1, m2) for m1 in cfg.m1_grid for m2 in cfg.m2_grid]
    write_scatter_csv(rows, args.out)
    n_ok = sum(1 for r in rows if r[3] == "ok")
    print(f"{n_ok}/{len(rows)} grid points solved -> {args.out}")
    if args.manifest:
        write_manifest(
            args.manifest,
            cfg,
            {"table_csv": args.out},
            "ok" if n_ok else "all-failed",
            {"rows_ok": n_ok, "rows_total": len(rows)},
        )
    return 0 if n_ok else 3


# --------------------------------------------------------------------------
# integrate-form


def _inverse_conjugate(z):
    """z / ||z||^3; SingularNumber where ||z||^3 is 0, tested before the
    division as ta.inverse tests, or where 1/||z||^3 is out of float range."""
    n = ta.norm_cubed(z)
    if ta._fault(n == 0.0, lambda *x: _inverse_conjugate(Ternary(*x)), *z.components()):
        raise SingularNumber(f"non-invertible: ||z||^3 = 0 for z = {z}")
    c = 1.0 / n
    if ta._fault(abs(c) == math.inf, lambda *x: _inverse_conjugate(Ternary(*x)), *z.components()):
        raise SingularNumber(f"1/||z||^3 out of float range: ||z||^3 = {n:.3e} for z = {z}")
    return ta.scale(z, c)


#: The fields by name.  Builders and fields look up ta.* and tc.* when they
#: run, so that a function patched on its module is the one called.
_FIELDS = {
    "one": lambda z: ta.ONE,
    "identity": lambda z: z,
    "square": lambda z: ta.mul(z, z),
    "reciprocal": lambda z: ta.inverse(z),
    "inverse-conjugate": _inverse_conjugate,
}

def _box(p):
    """The ((lo, hi), ...) box of a box param; an empty or reversed axis is a DomainError."""
    box = tuple(zip(p["box"][0::2], p["box"][1::2]))
    for axis, (lo, hi) in enumerate(box):
        if not lo < hi:
            raise DomainError(f"box axis x{axis} needs lo < hi, got ({lo}, {hi})")
    return box


#: Per preset of FormConfig.PRESETS, the curve, patch or box its params give;
#: the constructors reject params outside their range with DomainError.
_DOMAINS = {
    "trisectrice-loop": lambda p: tc.trisectrice_loop(p["rho"], p["phi"]),
    "segment": lambda p: tc.segment(Ternary(*p["from"]), Ternary(*p["to"])),
    "cubic-band": lambda p: tc.cubic_band_patch(p["rho"], p["a1"], p["a2"]),
    "polar-band": lambda p: tc.polar_band_patch(p["rho"], p["phi_lo"], p["phi_hi"]),
    "sphere": lambda p: tc.sphere_patch(Ternary(*p["center"]), p["radius"]),
    "box": _box,
}


def _numbers_flag(key, text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"--{key} needs comma-separated numbers, got {text!r}") from None


def _form_config(args) -> FormConfig:
    """The run's FormConfig: from --config, whose tol --tol alone may
    override, or else from KIND, --preset, --field, --tol and the param flags."""
    given = {key: getattr(args, key) for key in FormConfig.PARAMS if getattr(args, key) is not None}
    flags = {"kind": args.kind, "preset": args.preset, "field_name": args.field}
    flags = {key: val for key, val in flags.items() if val is not None}
    if args.config:
        names = [{"kind": "KIND", "preset": "--preset", "field_name": "--field"}[key] for key in flags]
        names += ["--" + key.replace("_", "-") for key in given]
        if names:
            raise ConfigError(f"--config gives every input but --tol; drop {', '.join(names)}")
        cfg = load_config(args.config, "integrate-form")
        return cfg if args.tol is None else dataclasses.replace(cfg, tol=args.tol)
    if not (args.kind and args.preset):
        raise ConfigError("integrate-form needs either --config or KIND and --preset")
    params = {key: _numbers_flag(key, val) if isinstance(val, str) else val for key, val in given.items()}
    if args.tol is not None:
        flags["tol"] = args.tol
    return FormConfig(params=params, **flags)


def _cmd_form(args) -> int:
    _check_outputs(args.config, args.out, args.manifest)
    cfg = _form_config(args)
    if not isinstance(cfg.field_name, str) or cfg.field_name not in _FIELDS:
        raise ConfigError(f"unknown field {cfg.field_name!r}; choose from {sorted(_FIELDS)}")
    field = tc.TernaryField(_FIELDS[cfg.field_name], name=cfg.field_name)
    try:
        domain = _DOMAINS[cfg.preset](cfg.preset_params())
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.kind == "line":
        value = tc.line_integral(field, domain, tol=cfg.tol)
    elif cfg.kind == "surface":
        value = tc.surface_integral_2form(field, domain, tol=cfg.tol)
    else:
        value = tc.volume_integral_3form(field, domain, tol=cfg.tol)
    doc = {
        "kind": cfg.kind,
        "preset": cfg.preset,
        "field": cfg.field_name,
        "tol": cfg.tol,
        "value": list(value.components()),
    }
    write_json(args.out, doc)
    if args.manifest:
        write_manifest(args.manifest, cfg, {"result": args.out}, "ok")
    return 0


# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors are one stderr line, exit 2; the
    subcommand parsers inherit it."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call and reused by later ones."""
    parser = _Parser(
        prog="ternion",
        description="Ternary complex analysis and monopole dynamics toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a seeded property suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=_path, help="optional JSON report path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="integrate a monopole trajectory to CSV")
    p.add_argument(
        "--config", required=True, help="JSON config (or a previous manifest); --tol overrides its tol"
    )
    p.add_argument("--out", type=_path, default="trajectory.csv")
    p.add_argument("--manifest", type=_path, help="write a JSON run manifest here")
    p.add_argument("--tol", type=float, default=None, help="override the config tolerance")
    p.add_argument("--allow-singular-stop", action="store_true")
    p.add_argument(
        "--compare-closed-form",
        action="store_true",
        help="append the closed-form r1(z) column (planar configs only)",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("scatter", help="scattering table over an (M1, M2) grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", type=_path, default="scatter.csv")
    p.add_argument("--manifest", type=_path)
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("integrate-form", help="line/surface/volume form integrals")
    p.add_argument("kind", choices=FormConfig.KINDS, nargs="?")
    p.add_argument(
        "--config",
        help="JSON config (or a previous manifest) giving every input; only --tol may be given with it",
    )
    p.add_argument("--preset")
    p.add_argument("--field", choices=sorted(_FIELDS), help="default: inverse-conjugate")
    p.add_argument("--tol", type=float, default=None, help="default 1e-9; overrides the config tolerance")
    for key in FormConfig.PARAMS:  # one number, or a point or box as comma-separated text
        flag = "--" + key.replace("_", "-")
        size = FormConfig.VECTOR_PARAMS.get(key)
        text = f"{size} comma-separated numbers; give a negative first one as {flag}=-1,..." if size else None
        p.add_argument(flag, type=None if size else float, help=text)
    p.add_argument("--out", type=_path, default="-")
    p.add_argument("--manifest", type=_path)
    p.set_defaults(func=_cmd_form)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except (TernionError, ArithmeticError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
