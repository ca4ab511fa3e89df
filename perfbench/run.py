"""The ternion benchmark: one workload, seeded, measured for a fixed time.

    python3 perfbench/run.py --workload {scatter,trajectory,forms,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload runs in fresh single-threaded
interpreters (perfbench/worker.py) against the sources in src/: several
set-up-only interpreters time set-up, then one measuring interpreter runs
rounds of the workload's ops for S seconds.  Timings are each op's fastest
repetition across rounds (min-of-N): the host alternates between fast and
slow phases lasting seconds, which moves medians of single rounds but not
the fastest repetition.  Throughput is the op set over the sum of those
fastest repetitions: each op needs only one repetition in a fast phase, where
the fastest whole round needs every op of one round in it.

A slow phase can also outlast a whole run.  So the end-to-end timings are
calibrated for the host's speed with the reference loop of reference.py,
which the workers time between ops and after set-up, and reported at the
speed where that loop takes REF_PROBE_S: an op's time is its fastest
repetition in units of the fastest reference pass of the same round, times
REF_PROBE_S; a set-up time is scaled by its own interpreter's probe.  The
report lines give the raw figures beside them.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced rounds and prints the per-layer metrics, with
the tracing overhead.  The last stdout line is the JSON result; the lines
before it are a readable report.  The full record (per-round times, load
average, versions) goes to .perfbench_out/, and a traced run also writes its
first traced round's spans there.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import REF_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scatter", "trajectory", "forms", "cli")
# set-up-only interpreters before and after the measuring one, so that the
# set-up samples span the run instead of one host phase
SETUP_REPEATS = 4
SETUP_TIMEOUT_S = 60
# as in workloads.STATUSES; run.py stays free of numpy and ternion imports
STATUSES = ("ok", "NoSecondSolution", "RootFindingFailure", "JacobianSingular", "other")


class BenchError(Exception):
    pass


def _parse():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def _child_env():
    env = dict(os.environ)
    env.pop("TERNION_THREADS", None)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def _spawn(args, workdir, setup_only, timeout, spans_out=None):
    """Start a worker; return (set-up seconds, parsed JSON of its last line)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timed_out = not timer.is_alive()
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if timed_out:
        raise BenchError(f"worker killed after {timeout} s")
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1])


def _pctl(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res, setups, imports):
    """Timings at the reference host speed (see the module docstring)."""
    best_ms = [c * REF_PROBE_S * 1e3 for c in res["best_op_probes"]]
    return {
        "throughput_ops_per_s": res["n_ops"] / sum(best_ms) * 1e3,
        "op_ms.p50": statistics.median(best_ms),
        "op_ms.p90": _pctl(best_ms, 90),
        "setup_s": statistics.median(s * REF_PROBE_S / i["setup_probe_s"] for s, i in zip(setups, imports)),
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_ok_frac": res["ok_frac"],
    }


def per_layer(res, imports):
    rounds = res["traced_rounds"]
    n = res["n_ops"]
    counts = rounds[0]["counts"]

    def c(key):
        return counts.get(key, 0)

    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    def self_ms(*names):
        return med(lambda r: sum(r["self_s"].get(name, 0.0) for name in names) / n * 1e3)

    def per_call_ms(name):
        calls = [d for r in rounds for d in r["per_call_s"].get(name, [])]
        return statistics.median(calls) * 1e3 if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    steps = c("dynamics.integrate.steps_accepted") + c("dynamics.integrate.steps_rejected")
    evals = c("quadrature.integrand_evals")
    m = {
        "rootfind.scan_bracket.calls": c("rootfind.scan_bracket.calls") / n,
        "rootfind.scan_points": c("rootfind.scan_points") / n,
        "rootfind.brent.calls": c("rootfind.brent.calls") / n,
        "rootfind.brent_fevals": c("rootfind.brent_fevals") / n,
        "rootfind.bracket_hit_ratio": ratio(c("rootfind.scan_hits"), c("rootfind.scan_bracket.calls")),
        "rootfind.self_ms": self_ms("rootfind.scan_bracket", "rootfind.brent"),
        "dynamics.scattering_map.self_ms": self_ms("dynamics.scattering_map"),
        "dynamics.closed_form.self_ms": self_ms("dynamics.closed_form"),
        "dynamics.general_solution_built": c("dynamics.general_solution_built") / n,
        "dynamics.psi_evals": c("dynamics.psi_evals") / n,
        "dynamics.v1_evals": c("dynamics.v1_evals") / n,
        "dynamics.integrate.us_per_step": med(
            lambda r: ratio(r["self_s"].get("dynamics.integrate", 0.0), steps) * 1e6
        ),
        "dynamics.integrate.steps_accepted": c("dynamics.integrate.steps_accepted") / n,
        "dynamics.integrate.steps_rejected": c("dynamics.integrate.steps_rejected") / n,
        "dynamics.integrate.accept_ratio": ratio(c("dynamics.integrate.steps_accepted"), steps),
        "dynamics.integrate.m_drift_max": rounds[0]["drift_max"],
        "quadrature.calls.1d": c("quadrature.calls.1d") / n,
        "quadrature.calls.2d": c("quadrature.calls.2d") / n,
        "quadrature.calls.3d": c("quadrature.calls.3d") / n,
        "quadrature.integrand_evals": evals / n,
        "quadrature.self_ms": self_ms("quadrature"),
        "quadrature.us_per_eval": med(lambda r: ratio(r["incl_s"].get("quadrature", 0.0), evals) * 1e6),
        "calculus.field_evals": c("calculus.field_evals") / n,
        "calculus.line.self_ms": self_ms("calculus.line"),
        "calculus.surface.self_ms": self_ms("calculus.surface"),
        "calculus.volume.self_ms": self_ms("calculus.volume"),
        "calculus.field_eval.self_ms": self_ms("calculus.field_eval"),
        "algebra.ternary_constructed": c("algebra.ternary_constructed") / n,
        "field.calls": c("field.calls") / n,
        "field.self_ms": self_ms("field"),
        "verify.checks_passed": c("verify.checks_passed"),
        "config.load_config.ms": per_call_ms("config.load_config"),
        "config.write_manifest.ms": per_call_ms("config.write_manifest"),
        "cli.import_s": statistics.median(i["import_s"] for i in imports),
        "cli.import_numpy_s": statistics.median(i["import_numpy_s"] for i in imports),
        "cli.bytes_written": rounds[0]["bytes_written"],
        "trace.untraced_ops_per_s": n / sum(res["best_op_s"]),
        "trace.traced_ops_per_s": n / sum(res["best_traced_op_s"]),
        "trace.overhead_frac": 1.0 - sum(res["best_op_s"]) / sum(res["best_traced_op_s"]),
        "trace.spans_per_op": rounds[0]["spans"] / n,
    }
    for status in STATUSES:
        m[f"dynamics.scatter_status.{status}"] = c(f"dynamics.scatter_status.{status}")
    for fn in ("mul", "inverse", "exp", "log", "to_polar", "from_polar"):
        m[f"algebra.{fn}.calls"] = c(f"algebra.{fn}.calls") / n
    for fn, ns in res["micro_ns"].items():
        m[f"algebra.{fn}.ns"] = ns
    for suite in ("algebra", "calculus", "field", "dynamics"):
        m[f"verify.{suite}.ms"] = per_call_ms(f"verify.{suite}")
    for cmd in ("verify", "scatter", "simulate", "integrate-form"):
        m[f"cli.main.{cmd}.ms"] = per_call_ms(f"cli.main.{cmd}")
    return m


def _select(spec, values):
    names = [entry["name"] for entry in spec]
    if set(names) != set(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in spec}


def _report(args, env, res, metrics, setups, counts_repeat):
    rounds = res["rounds"]
    print(f"ternion benchmark: workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(
        "host: python {python}, numpy {numpy}, nproc {nproc}, TERNION_THREADS unset in the workload "
        "(caller had it {caller_threads}), loadavg start {load_start} end {load_end}".format(**env)
    )
    print(f"set-up (s, {len(setups)} fresh interpreters): " + " ".join(f"{s:.3f}" for s in setups))
    for traced in sorted({t for t, _ in rounds}):
        times = [s * 1e3 for t, s in rounds if t == traced]
        label = "traced" if traced else "untraced"
        print(f"{label} round ms ({len(times)} rounds of {res['n_ops']} ops): " + " ".join(f"{t:.1f}" for t in times))
    probe = sorted(res["host_probe_ms"])
    print(
        f"reference loop ms, fastest of each round (larger in a slow host phase; {REF_PROBE_S * 1e3:g} "
        f"is the reference speed): min {probe[0]:.4f} median {statistics.median(probe):.4f} max {probe[-1]:.4f}"
    )
    n = res["n_ops"]
    raw_ms = [t * 1e3 for t in res["best_op_s"]]
    print(
        f"raw, before calibration: throughput {n / sum(res['best_op_s']):.2f} ops/s, op_ms p50 "
        f"{statistics.median(raw_ms):.4f} p90 {_pctl(raw_ms, 90):.4f}, setup_s {statistics.median(setups):.4f}; "
        f"fastest untraced probe {res['best_probe_s'] * 1e3:.4f} ms"
    )
    print(
        f"op_ms over {n} ops ({n - int(0.9 * n)} beyond p90), each op's fastest of "
        f"{res['untraced_rounds']} untraced rounds; ops {res['attempted']} attempted, {res['failed']} failed, "
        f"typed non-ok outcomes {res['not_ok_frac']:.4f}"
    )
    if counts_repeat is not None:
        print(f"per-layer counts repeat across traced rounds: {counts_repeat}")
    for f in res["failures"]:
        print(f"FAILED op {f['op']} ({f['kind']}): {f['error']}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "caller_threads": "set" if "TERNION_THREADS" in os.environ else "unset",
        "load_start": " ".join(f"{v:.2f}" for v in os.getloadavg()),
    }
    try:
        setups, imports = [], []

        def setup_only():
            setup_s, info = _spawn(args, workdir, True, SETUP_TIMEOUT_S)
            setups.append(setup_s)
            imports.append(info)

        for _ in range(SETUP_REPEATS):
            setup_only()
        spans_out = out_dir / f"{tag}.spans.json.gz" if args.trace else None
        setup_s, res = _spawn(args, workdir, False, args.seconds + 120, spans_out)
        setups.append(setup_s)
        imports.append(res)
        for _ in range(SETUP_REPEATS):
            setup_only()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["numpy"] = res["numpy_version"]
    env["load_end"] = " ".join(f"{v:.2f}" for v in os.getloadavg())

    counts_repeat = None
    if args.trace:
        values = per_layer(res, imports)
        counts_repeat = all(r["counts"] == res["traced_rounds"][0]["counts"] for r in res["traced_rounds"])
        metrics = _select(spec["per_layer"], values)
    else:
        metrics = _select(spec["end_to_end"], end_to_end(res, setups, imports))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "setup_s": setups, "setup_probe_s": [i["setup_probe_s"] for i in imports],
        "counts_repeat": counts_repeat, "metrics": metrics,
        "raw": {k: v for k, v in res.items() if k != "traced_rounds"},
    }
    if args.trace:
        record["per_layer_counts"] = res["traced_rounds"][0]["counts"]
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    _report(args, env, res, metrics, setups, counts_repeat)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main():
    args = _parse()
    if not (ROOT / "src" / "ternion" / "__init__.py").is_file():
        print(f"no ternion sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    # byte-compile once, so no interpreter's set-up pays for compilation
    for path in (ROOT / "src" / "ternion", HERE):
        compileall.compile_dir(str(path), quiet=1)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
