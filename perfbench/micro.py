"""Fixed micro-loop over the scalar algebra kernels, in ns per call.

The inputs do not depend on the workload seed, so the numbers compare across
workloads and runs.  Each kernel's figure is the fastest of several passes.
"""

from time import perf_counter

import numpy as np

import ternion.algebra as ta

PASSES = 7
SIZE = 256


def _inputs():
    rng = np.random.default_rng(20071)
    # x0 dominant: nonsingular with positive trisectrice component, so every
    # kernel (log and to_polar included) is defined on every input
    zs = [ta.Ternary(float(a), float(b), float(c)) for a, b, c in zip(
        rng.uniform(1.0, 3.0, SIZE), rng.uniform(-0.5, 0.5, SIZE), rng.uniform(-0.5, 0.5, SIZE))]
    ws = [ta.Ternary(*(float(v) for v in rng.uniform(-1.0, 1.0, 3))) for _ in range(SIZE)]
    return zs, ws


def algebra_ns():
    zs, ws = _inputs()
    polars = [ta.to_polar(z) for z in zs]
    pairs = list(zip(zs, ws))
    loops = {
        "mul": lambda: [ta.mul(z, w) for z, w in pairs],
        "inverse": lambda: [ta.inverse(z) for z in zs],
        "norm_cubed": lambda: [ta.norm_cubed(z) for z in zs],
        "exp": lambda: [ta.exp(w) for w in ws],
        "log": lambda: [ta.log(z) for z in zs],
        "to_polar": lambda: [ta.to_polar(z) for z in zs],
        "from_polar": lambda: [ta.from_polar(p) for p in polars],
    }
    out = {}
    for name, loop in loops.items():
        best = float("inf")
        for _ in range(PASSES):
            t0 = perf_counter()
            loop()
            best = min(best, perf_counter() - t0)
        out[name] = best / SIZE * 1e9
    return out
