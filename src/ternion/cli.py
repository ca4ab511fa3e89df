"""Command-line front end: verify / simulate / scatter / integrate-form.

All commands are deterministic: verify given its seed, the others given
their config; simulation and scattering emit CSV plus a JSON manifest
recording every tolerance, so rerun from the manifest reproduces the bytes.
Exit codes: 0 success, 1 failed properties, singular stop or numerical
failure, 2 bad usage, config or unwritable output, 3 scatter grid entirely
failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import algebra as ta
from . import calculus as tc
from . import dynamics as td
from .algebra import Ternary
from .config import ConfigError, FormConfig, load_config, write_manifest
from .errors import SingularApproach, TernionError
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
        with open(args.out, "w") as fh:
            json.dump(
                [dataclasses.asdict(r) for r in results], fh, indent=2, sort_keys=True, default=str
            )
            fh.write("\n")
    if failed:
        first = failed[0]
        print(
            "first counterexample: "
            + json.dumps({"check": first.name, "data": first.counterexample}, default=str)
        )
        return 1
    return 0


# --------------------------------------------------------------------------
# simulate


def _simulate_run(cfg):
    if cfg.kind == "planar":
        sol = td.planar_solution(cfg.g, cfg.m2, cfg.z0, cfg.z1)
        s0 = td.state_from_planar(sol, cfg.z_start)
        t_end = s0.t + (sol.t(cfg.z_stop) - sol.t(cfg.z_start))
    else:
        sol = None
        s0 = td.MonopoleState(*cfg.state)
        t_end = s0.t + cfg.t_end
    return sol, s0, t_end


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, "simulate")
    if args.tol is not None:
        cfg = dataclasses.replace(cfg, tol=args.tol)
    if args.compare_closed_form and cfg.kind != "planar":
        raise ConfigError("--compare-closed-form needs a planar config")

    sol, s0, t_end = _simulate_run(cfg)
    status = "ok"
    try:
        traj = td.integrate(s0, cfg.g, t_end, tol=cfg.tol, max_step=cfg.max_step)
    except SingularApproach as exc:
        traj = exc.trajectory
        status = "singular-stop"
        print(f"singular approach: {exc}", file=sys.stderr)

    extra, max_dev = None, 0.0
    if args.compare_closed_form:
        closed = [sol.r1(y[0] / y[1]) for y in traj.states]
        devs = (abs(c - y[1]) / max(1e-300, abs(y[1])) for c, y in zip(closed, traj.states))
        max_dev = max(0.0, *devs)
        extra = ("r1_closed", closed)
    td.write_trajectory_csv(traj, args.out, extra)

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
        write_manifest(args.manifest, "simulate", cfg, {"trajectory_csv": args.out}, status, extras)
    if status == "singular-stop" and not args.allow_singular_stop:
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
    cfg = load_config(args.config, "scatter")
    rows = [_scatter_row(cfg, m1, m2) for m1 in cfg.m1_grid for m2 in cfg.m2_grid]
    td.write_scatter_csv(rows, args.out)
    n_ok = sum(1 for r in rows if r[3] == "ok")
    print(f"{n_ok}/{len(rows)} grid points solved -> {args.out}")
    if args.manifest:
        write_manifest(
            args.manifest,
            "scatter",
            cfg,
            {"table_csv": args.out},
            "ok" if n_ok else "all-failed",
            {"rows_ok": n_ok, "rows_total": len(rows)},
        )
    return 0 if n_ok else 3


# --------------------------------------------------------------------------
# integrate-form


_FIELDS = {
    "one": lambda: tc.TernaryField(lambda z: ta.ONE, name="one"),
    "identity": lambda: tc.TernaryField(lambda z: z, name="identity"),
    "square": lambda: tc.TernaryField(lambda z: ta.mul(z, z), name="square"),
    "reciprocal": lambda: tc.TernaryField(ta.inverse, name="reciprocal"),
    "inverse-conjugate": lambda: tc.TernaryField(
        lambda z: ta.scale(z, 1.0 / ta.norm_cubed(z)), name="inverse-conjugate"
    ),
}


def _form_domain(cfg: FormConfig):
    p = cfg.params

    def need(key):
        if key not in p:
            raise ConfigError(f"{cfg.kind} preset {cfg.preset!r} needs parameter {key!r}")
        return p[key]

    if cfg.kind == "line":
        if cfg.preset == "trisectrice-loop":
            return tc.trisectrice_loop(p.get("rho", 1.0), p.get("phi", 0.0))
        if cfg.preset == "segment":
            a = Ternary(*need("from"))
            b = Ternary(*need("to"))
            diff = b - a
            return tc.Curve(lambda t: a + ta.scale(diff, t), 0.0, 1.0, derivative=lambda t: diff)
    elif cfg.kind == "surface":
        if cfg.preset == "cubic-band":
            return tc.cubic_band_patch(p.get("rho", 1.0), need("a1"), need("a2"))
        if cfg.preset == "polar-band":
            return tc.polar_band_patch(p.get("rho", 1.0), need("phi_lo"), need("phi_hi"))
        if cfg.preset == "sphere":
            return tc.sphere_patch(Ternary(*need("center")), need("radius"))
    elif cfg.kind == "volume":
        if cfg.preset == "box":
            b = need("box")
            return ((b[0], b[1]), (b[2], b[3]), (b[4], b[5]))
    raise ConfigError(f"unknown {cfg.kind} preset {cfg.preset!r}")


def _numbers_flag(key, text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"--{key} needs comma-separated numbers, got {text!r}") from None


def _cmd_form(args) -> int:
    if args.config:
        cfg = load_config(args.config, "integrate-form")
    else:
        params = {}
        for key in ("rho", "phi", "a1", "a2", "phi_lo", "phi_hi", "radius"):
            val = getattr(args, key.replace("-", "_"))
            if val is not None:
                params[key] = val
        for key in ("center", "from", "to", "box"):
            val = getattr(args, "from_" if key == "from" else key)
            if val is not None:
                params[key] = _numbers_flag(key, val)
        flags = {"kind": args.kind, "preset": args.preset, "field_name": args.field, "tol": args.tol}
        cfg = FormConfig.from_dict(
            {"params": params, **{k: v for k, v in flags.items() if v is not None}}
        )
    if cfg.field_name not in _FIELDS:
        raise ConfigError(f"unknown field {cfg.field_name!r}; choose from {sorted(_FIELDS)}")
    field = _FIELDS[cfg.field_name]()
    domain = _form_domain(cfg)
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
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.manifest:
        write_manifest(args.manifest, "integrate-form", cfg, {"result": args.out or "-"}, "ok")
    return 0


# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternion",
        description="Ternary complex analysis and monopole dynamics toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a seeded property suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="integrate a monopole trajectory to CSV")
    p.add_argument("--config", required=True, help="JSON config (or a previous manifest)")
    p.add_argument("--out", default="trajectory.csv")
    p.add_argument("--manifest", help="write a JSON run manifest here")
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
    p.add_argument("--out", default="scatter.csv")
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("integrate-form", help="line/surface/volume form integrals")
    p.add_argument("kind", choices=FormConfig.KINDS, nargs="?")
    p.add_argument("--config", help="JSON config (overrides the flag parameters)")
    p.add_argument("--preset")
    p.add_argument("--field", choices=sorted(_FIELDS), help="default: inverse-conjugate")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--rho", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--a1", type=float)
    p.add_argument("--a2", type=float)
    p.add_argument("--phi-lo", dest="phi_lo", type=float)
    p.add_argument("--phi-hi", dest="phi_hi", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--center", help="x0,x1,x2")
    p.add_argument("--from", dest="from_", help="x0,x1,x2")
    p.add_argument("--to", help="x0,x1,x2")
    p.add_argument("--box", help="x0lo,x0hi,x1lo,x1hi,x2lo,x2hi")
    p.add_argument("--out", default="-")
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_form)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "integrate-form" and not args.config and not (args.kind and args.preset):
        print("integrate-form needs either --config or KIND and --preset", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        print("run `ternion --help` for usage", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except (TernionError, ArithmeticError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
