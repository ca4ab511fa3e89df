"""Spans and counts recorded from outside ``ternion``.

``Tracer.install`` replaces public functions at the names their callers bind
(``ternion.dynamics.brent``, ``ternion.calculus.adaptive_quad_2d``,
``GeneralSolution.psi`` ...) with wrappers that record a span (name, start,
end, parent span, op id) and bump counters, but only while an op is running,
so set-up and output checks are not traced.  ``uninstall`` restores the
originals.  Spans stay in memory; ``end_round`` folds one round's spans into
per-name self times (duration minus the time covered by child spans).
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import ternion.algebra as ta
import ternion.calculus as tc
import ternion.cli as tcli
import ternion.dynamics as td
import ternion.field as tf
import ternion.quadrature as tq
import ternion.verify as tv

from workloads import status_of

QUAD = "quadrature"
INTEGRAND = ":integrand"  # suffix of integrand spans, folded into their layer

# Spans whose per-call duration is reported (median ms per call).
PER_CALL = ("verify.", "config.", "cli.main.")


class Tracer:
    def __init__(self):
        self.op = None
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = Counter()
        self.drift_max = 0.0
        self._patches = []

    # -- span recording ----------------------------------------------------

    def _open(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id):
        self.op = op_id
        return self._open("op")

    def end_op(self, rec):
        self._close(rec)
        self.op = None

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- wrappers ----------------------------------------------------------

    def spanned(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(args, kwargs) may replace the arguments,
        after(result, exc) records counts once the span has closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = tracer._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(rec)
                if after is not None:
                    after(None, exc)
                raise
            tracer._close(rec)
            if after is not None:
                after(result, None)
            return result

        return wrapper

    def counted(self, key, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_calls(self, fn, key):
        counts = self.counts

        def counting(*args):
            counts[key] += 1
            return fn(*args)

        return counting

    def _patch(self, owner, attr, wrapper):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self):
        counts = self.counts
        patch = self._patch

        # rootfind, at the names dynamics binds
        def scan_before(args, kwargs):
            counts["rootfind.scan_bracket.calls"] += 1
            f, *rest = args
            return (self._count_calls(f, "rootfind.scan_points"), *rest), kwargs

        def scan_after(result, exc):
            if result is not None:
                counts["rootfind.scan_hits"] += 1

        def brent_before(args, kwargs):
            counts["rootfind.brent.calls"] += 1
            f, *rest = args
            return (self._count_calls(f, "rootfind.brent_fevals"), *rest), kwargs

        patch(td, "scan_bracket", self.spanned("rootfind.scan_bracket", td.scan_bracket, scan_before, scan_after))
        patch(td, "brent", self.spanned("rootfind.brent", td.brent, brent_before))

        # dynamics: scattering map, closed forms, the DP5 integrator
        def status_after(result, exc):
            counts["dynamics.scatter_status." + status_of(exc)] += 1

        patch(td, "scattering_map", self.spanned("dynamics.scattering_map", td.scattering_map, after=status_after))

        def counting_before(key):
            def before(args, kwargs):
                counts[key] += 1
                return args, kwargs

            return before

        closed = "dynamics.closed_form"
        for cls, attr, key in (
            (td.GeneralSolution, "__init__", "dynamics.general_solution_built"),
            (td.GeneralSolution, "psi", "dynamics.psi_evals"),
            (td.GeneralSolution, "v1", "dynamics.v1_evals"),
            (td.GeneralSolution, "r1", None),
            (td.GeneralSolution, "t", None),
            (td.PlanarSolution, "__init__", None),
            (td.PlanarSolution, "v1", None),
            (td.PlanarSolution, "r1", None),
            (td.PlanarSolution, "t", None),
        ):
            before = counting_before(key) if key else None
            patch(cls, attr, self.spanned(closed, getattr(cls, attr), before))

        def integrate_after(traj, exc):
            traj = traj if exc is None else getattr(exc, "trajectory", None)
            if traj is None:
                return
            counts["dynamics.integrate.calls"] += 1
            counts["dynamics.integrate.steps_accepted"] += traj.n_accepted
            counts["dynamics.integrate.steps_rejected"] += traj.n_rejected
            if len(traj) > 1:
                self.drift_max = max(self.drift_max, float(max(traj.max_m_drift())))

        patch(td, "integrate", self.spanned("dynamics.integrate", td.integrate, after=integrate_after))

        # quadrature, at every name a caller binds; a call nested in another
        # quadrature (the 3D rule's inner 1D/2D calls) is not a new span
        def quad(kind, fn):
            tracer = self

            def integrand_span(f, name):
                spanned_f = tracer.spanned(name, f)

                def evaluate(*args):
                    counts["quadrature.integrand_evals"] += 1
                    return spanned_f(*args)

                return evaluate

            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                if tracer.op is None or tracer.parent_name() == QUAD:
                    return fn(f, *args, **kwargs)
                counts["quadrature.calls." + kind] += 1
                # integrand time belongs to the layer that called quadrature
                f = integrand_span(f, tracer.parent_name() + INTEGRAND)
                rec = tracer._open(QUAD)
                try:
                    return fn(f, *args, **kwargs)
                finally:
                    tracer._close(rec)

            return wrapper

        for owner in (tc, td, tq):
            patch(owner, "adaptive_quad", quad("1d", owner.adaptive_quad))
        for owner in (tc, tq):
            patch(owner, "adaptive_quad_2d", quad("2d", owner.adaptive_quad_2d))
        patch(tc, "adaptive_quad_3d", quad("3d", tc.adaptive_quad_3d))

        # calculus
        for attr, name in (
            ("line_integral", "calculus.line"),
            ("surface_integral_2form", "calculus.surface"),
            ("volume_integral_3form", "calculus.volume"),
        ):
            patch(tc, attr, self.spanned(name, getattr(tc, attr)))
        patch(
            tc.TernaryField,
            "__call__",
            self.spanned("calculus.field_eval", tc.TernaryField.__call__, counting_before("calculus.field_evals")),
        )

        # algebra: counts only (these run millions of times)
        patch(ta.Ternary, "__post_init__", self.counted("algebra.ternary_constructed", ta.Ternary.__post_init__))
        for attr in ("mul", "inverse", "exp", "log", "to_polar", "from_polar"):
            patch(ta, attr, self.counted(f"algebra.{attr}.calls", getattr(ta, attr)))
        patch(tc, "mul", ta.mul)  # calculus binds mul at import

        # field: every public function
        for attr in tf.__all__:
            fn = getattr(tf, attr)
            if callable(fn) and not isinstance(fn, type):
                patch(tf, attr, self.spanned("field", fn, counting_before("field.calls")))

        # verify suites, as run_suite looks them up
        def passed_after(results, exc):
            if results is not None:
                counts["verify.checks_passed"] += sum(1 for r in results if r.passed)

        for suite, fn in list(tv.SUITES.items()):
            patch(tv.SUITES, suite, self.spanned(f"verify.{suite}", fn, after=passed_after))

        # config and the CLI entry point, at the names cli binds
        patch(tcli, "load_config", self.spanned("config.load_config", tcli.load_config))
        patch(tcli, "write_manifest", self.spanned("config.write_manifest", tcli.write_manifest))
        patch(tcli, "main", self.spanned(lambda args: "cli.main." + args[0][0], tcli.main))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- per-round aggregation --------------------------------------------

    def end_round(self):
        """Fold this round's spans into sums; return (summary, spans)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        per_call = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(spans):
            dur = end - start
            if name.endswith(INTEGRAND):
                self_s[name[: -len(INTEGRAND)]] += dur - child[i]
                continue
            self_s[name] += dur - child[i]
            incl_s[name] += dur
            if name.startswith(PER_CALL):
                per_call[name].append(dur)
        summary = {
            "counts": dict(self.counts),
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "per_call_s": dict(per_call),
            "drift_max": self.drift_max,
            "spans": len(spans),
        }
        self.spans = []
        self.counts.clear()
        self.drift_max = 0.0
        return summary, spans
