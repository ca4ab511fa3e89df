"""One workload in a fresh interpreter: set up, then time rounds of its ops.

Started by run.py.  Prints ``ready`` as soon as modules are imported and the
inputs are generated (run.py times set-up up to that line), then, unless
``--setup-only``, one JSON line with the run's raw measurements.

A round runs every op of the workload once, in order.  An op's time is its
own call only; output checks run after it, outside the timed region.  With
``--trace 1`` untraced and traced rounds alternate, so both see the same
host phases, and the traced rounds give the per-layer numbers.

The reference loop of reference.py runs between ops, about once per
PROBE_EVERY_S of op time and after a round's last op, and right after set-up,
so that run.py can calibrate the timings for the host's speed.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# reference-loop passes right after set-up (~20 ms), which calibrate setup_s
SETUP_PROBE_PASSES = 20
# op time between reference-loop passes in the rounds; a pass takes ~1 ms
PROBE_EVERY_S = 0.01


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out")
    return p.parse_args()


def main():
    args = _parse()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy

    t1 = time.perf_counter()
    import ternion.cli  # noqa: F401  (the import every CLI command pays)

    t2 = time.perf_counter()
    import reference
    import workloads

    ops, prepare = workloads.OP_SETS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    imports = {
        "import_numpy_s": t1 - t0,
        "import_s": t2 - t0,
        "setup_probe_s": reference.best_probe_s(SETUP_PROBE_PASSES),
    }
    if args.setup_only:
        print(json.dumps(imports), flush=True)
        return 0

    if prepare is not None:
        prepare()
    os.chdir(args.workdir)  # anything the CLI writes by default lands here
    result = run_rounds(ops, args)
    result.update(imports)
    result["numpy_version"] = numpy.__version__
    result["n_ops"] = len(ops)
    print(json.dumps(result), flush=True)
    return 0


def _time_op(op):
    t0 = time.perf_counter()
    try:
        out, exc = op.run(), None
    except Exception as e:  # the op's outcome, judged by its check
        out, exc = None, e
    return time.perf_counter() - t0, out, exc


def run_rounds(ops, args):
    import reference

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    n = len(ops)
    best = [float("inf")] * n
    best_traced = [float("inf")] * n
    # each op's fastest untraced time in units of its round's fastest probe
    best_in_probes = [float("inf")] * n
    rounds = []  # (traced, seconds) per round
    probe_ms = []  # fastest reference-loop pass of each round
    best_probe = float("inf")  # fastest over the untraced rounds
    attempted = failed = not_ok = 0
    failures = []
    traced_rounds = []
    first_spans = None
    sink = io.StringIO()
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        total = 0.0
        written = 0
        round_probe = float("inf")
        since_probe = 0.0
        op_s = []
        for i, op in enumerate(ops):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if traced:
                    rec = tracer.begin_op(i)
                    dt, out, exc = _time_op(op)
                    tracer.end_op(rec)
                else:
                    dt, out, exc = _time_op(op)
                passed, ok = op.check(out, exc)
            sink.seek(0)
            sink.truncate()
            total += dt
            if traced:
                best_traced[i] = min(best_traced[i], dt)
            else:
                best[i] = min(best[i], dt)
            attempted += 1
            if not passed:
                failed += 1
                if len(failures) < 5:
                    failures.append({"op": i, "kind": op.kind, "error": repr(exc)})
            elif not ok:
                not_ok += 1
            for path in op.outputs:
                if os.path.exists(path):  # a failed op may not have written it
                    written += os.path.getsize(path)
            op_s.append(dt)
            since_probe += dt
            if since_probe >= PROBE_EVERY_S or i == n - 1:
                round_probe = min(round_probe, reference.probe_s())
                since_probe = 0.0
        if traced:
            tracer.uninstall()
            summary, spans = tracer.end_round()
            summary["bytes_written"] = written
            traced_rounds.append(summary)
            if first_spans is None:
                first_spans = spans
        rounds.append((traced, total))
        probe_ms.append(round_probe * 1e3)
        if not traced:
            best_probe = min(best_probe, round_probe)
            for i, dt in enumerate(op_s):
                best_in_probes[i] = min(best_in_probes[i], dt / round_probe)
        k += 1
        if time.perf_counter() >= deadline and (tracer is None or k >= 2):
            break

    untraced = sum(1 for t, _ in rounds if not t)
    result = {
        "rounds": rounds,
        "best_op_s": best,
        "host_probe_ms": probe_ms,
        "best_probe_s": best_probe,
        "best_op_probes": best_in_probes,
        "op_kinds_by_index": [op.kind for op in ops],
        "attempted": attempted,
        "failed": failed,
        "not_ok_frac": not_ok / attempted,
        "ok_frac": (attempted - failed - not_ok) / attempted,
        "failures": failures,
        "untraced_rounds": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        import micro

        result["traced_rounds"] = traced_rounds
        result["best_traced_op_s"] = best_traced
        result["micro_ns"] = micro.algebra_ns()
        if args.spans_out:
            _write_spans(args.spans_out, first_spans)
    return result


def _write_spans(path, spans):
    """The first traced round's spans, once, as gzipped JSON."""
    import gzip

    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    t_base = spans[0][1] if spans else 0.0
    doc = {
        "fields": ["name", "start_us", "end_us", "parent", "op"],
        "names": names,
        "spans": [
            [index[s[0]], round((s[1] - t_base) * 1e6, 3), round((s[2] - t_base) * 1e6, 3), s[3], s[4]]
            for s in spans
        ],
    }
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(doc, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
