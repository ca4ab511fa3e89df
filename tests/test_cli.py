import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ternion
import ternion.algebra as algebra_module
import ternion.dynamics as td
import ternion.field as field_module
from ternion import cli
from ternion.algebra import Ternary, mul
from ternion.calculus import _FD3
from ternion.cli import main
from ternion.config import FormConfig, ScatterConfig, SimulateConfig, load_config
from ternion.dynamics import ScatteringSetup
from ternion.errors import QuadratureFailure, RootFindingFailure, SingularNumber
from ternion.verify import (
    _admissible_rows,
    _far_from_trisectrice,
    _frame_rows,
    _rejection_rows,
    algebra_suite,
    calculus_suite,
    field_suite,
)

from oracles import (
    _loop_admissible,
    _rand_frame,
    algebra_suite_loops,
    calculus_suite_loops,
    field_suite_loops,
)


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


PLANAR_CFG = {
    "kind": "planar",
    "g": 1.0,
    "m2": 1.0,
    "z0": 1.0,
    "z1": 2.0,
    "z_start": 1.8,
    "z_stop": 0.5,
    "tol": 1e-10,
}

SCATTER_CFG = {
    "g": 1.0,
    "y1": 0.0,
    "z1": 0.8,
    "v1_inf": 0.5,
    "m1_grid": [-1.0, -0.8],
    "m2_grid": [0.9, 1.1],
}


def test_verify_all_passes(capsys):
    assert main(["verify", "all", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    # the printed report, residual digits included, is pinned
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7d2bb3cad02b6fad52e1a91c4e57df4fdd3e1cb4bf962450e0b5f6bbb5599931"
    )


@pytest.mark.parametrize("seed", range(10))
def test_algebra_suite_matches_the_loop_oracle(seed):
    # the array evaluation draws the loops' samples and reaches their
    # verdicts; residuals may differ in roundoff digits (numpy's exp, log and
    # arctan2 round differently from libm's)
    got, want = algebra_suite(seed), algebra_suite_loops(seed)
    assert [(r.name, r.passed) for r in got] == [(r.name, r.passed) for r in want]
    assert all(r.passed for r in got)


def test_algebra_suite_failures_match_the_loop_oracle(monkeypatch):
    # with the multi-sines' indices shifted, six checks fail (two of them
    # through exp); the array evaluation must report the counterexample the
    # loops report.  The shift is made in the kernel that multisine,
    # from_polar and exp share.
    original = algebra_module._multisines

    def shifted(phi1, phi2, *shift):
        m0, m1, m2 = original(phi1, phi2, *shift)
        return m1, m2, m0

    monkeypatch.setattr(algebra_module, "_multisines", shifted)
    got, want = algebra_suite(7), algebra_suite_loops(7)
    assert [(r.name, r.passed) for r in got] == [(r.name, r.passed) for r in want]

    def failures(results):
        return json.dumps([(r.detail, r.counterexample) for r in results if not r.passed], default=str)

    assert sum(not r.passed for r in want) == 6
    assert failures(got) == failures(want)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n, lo, hi", [(1, -3.0, 3.0), (7, -3.0, 3.0), (300, -3.0, 3.0), (40, 0.5, 2.0)])
def test_admissible_rows_are_the_rejection_loops_draws(seed, n, lo, hi):
    batch, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = _admissible_rows(batch, n, lo, hi)
    want = np.array([_loop_admissible(loop, lo, hi).components() for _ in range(n)])
    assert rows.tobytes() == want.tobytes()
    assert batch.random() == loop.random()


def _residual(detail):
    """(residual, bound) of a check's printed detail."""
    value, bound = re.fullmatch(r".* (\S+) \((?:bound|must exceed) (\S+)\)", detail).groups()
    return float(value), float(bound)


def _assert_matches_the_loops(got, want):
    # names, verdicts and counterexamples exactly; a printed residual within
    # 1e-3 of its bound (numpy's log and hypot round differently from libm's,
    # and the difference stencils amplify it: at most 3.3e-4 of the bound at
    # seeds 0-199)
    assert [(r.name, r.passed) for r in got] == [(r.name, r.passed) for r in want]
    assert json.dumps([r.counterexample for r in got], default=str) == json.dumps(
        [r.counterexample for r in want], default=str
    )
    for g, w in zip(got, want):
        (gv, bound), (wv, _) = _residual(g.detail), _residual(w.detail)
        assert abs(gv - wv) <= 1e-3 * bound, (g.name, g.detail, w.detail)


@pytest.mark.parametrize("seed", range(10))
def test_calculus_suite_matches_the_loop_oracle(seed):
    _assert_matches_the_loops(calculus_suite(seed), calculus_suite_loops(seed))


@pytest.mark.parametrize("seed", range(10))
def test_field_suite_matches_the_loop_oracle(seed):
    _assert_matches_the_loops(field_suite(seed), field_suite_loops(seed))


def _skewed_h(original):
    def field_h(v):
        h = original(v)
        return np.array([h[0], h[1], 1.1 * h[2]])

    return field_h


def _skewed_mul(original):
    # adds 1e-3 x0 w0 to the first component: z^2 and z^3 stop being holomorphic
    ta = algebra_module
    return lambda z, w: original(z, w) + ta.scale(ta.Ternary(z.x0 * w.x0, 0.0, 0.0), 1e-3)


@pytest.mark.parametrize(
    "module, name, mutate, suite, loops, fails",
    [
        (field_module, "field_h", _skewed_h, field_suite, field_suite_loops, 3),
        (algebra_module, "mul", _skewed_mul, calculus_suite, calculus_suite_loops, 4),
    ],
    ids=["field", "calculus"],
)
def test_suite_failures_match_the_loop_oracle(monkeypatch, module, name, mutate, suite, loops, fails):
    # with a kernel skewed, checks fail; the array evaluation must report the
    # counterexamples the loops report
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    got, want = suite(3), loops(3)
    assert sum(not r.passed for r in want) == fails
    _assert_matches_the_loops(got, want)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1, 10, 100])
def test_frame_rows_are_the_rejection_loops_draws(seed, n):
    batch, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = _frame_rows(batch, n)
    want = np.array([_rand_frame(loop).as_array() for _ in range(n)])
    assert rows.tobytes() == want.tobytes()
    assert batch.random() == loop.random()


@pytest.mark.parametrize("seed", range(5))
def test_log_stencil_points_are_the_loops_draws(seed):
    # the calculus suite's log points: admissible draws in [0.5, 2), redrawn
    # while within 50 third-difference steps of the trisectrice
    batch, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = _rejection_rows(batch, 5, 0.5, 2.0, _far_from_trisectrice)
    want = []
    for _ in range(5):
        p = _loop_admissible(loop, 0.5, 2.0)
        while np.sqrt(3.0) * np.std(p.components()) < 50.0 * _FD3 * (1.0 + p.max_abs()):
            p = _loop_admissible(loop, 0.5, 2.0)
        want.append(p.components())
    assert rows.tobytes() == np.array(want).tobytes()
    assert batch.random() == loop.random()


def test_verify_calculus_seed_115_passes(capsys):
    # its log point 0.037 from the trisectrice made the third differences miss
    assert main(["verify", "calculus", "--seed", "115"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_algebra_lists_cubic_identity(capsys):
    assert main(["verify", "algebra", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "cubic-identity" in out and "m0^3+m1^3+m2^3-3m0m1m2=1" in out


def test_verify_report_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "algebra", "--seed", "3", "--out", str(report)]) == 0
    capsys.readouterr()
    rows = json.loads(report.read_text())
    assert all(r["passed"] for r in rows)


def test_verify_detects_multisine_mutation(monkeypatch, capsys):
    original = algebra_module.multisine

    def shifted(k, phi1, phi2):
        return original((k + 1) % 3, phi1, phi2)

    monkeypatch.setattr(algebra_module, "multisine", shifted)
    code = main(["verify", "algebra", "--seed", "7"])
    out = capsys.readouterr().out
    assert code != 0
    assert "FAIL" in out and "first counterexample" in out


def test_simulate_planar_demo(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", PLANAR_CFG)
    out = tmp_path / "traj.csv"
    manifest = tmp_path / "run.json"
    code = main(
        [
            "simulate",
            "--config",
            cfg,
            "--out",
            str(out),
            "--manifest",
            str(manifest),
            "--compare-closed-form",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "max relative deviation from closed-form" in text
    # README's planar.json; t_end comes from the closed-form time PlanarSolution.t
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "d8195f101c599fdf1a281608e255411fdd7b2e113afa3d4f5f92816363fce5f1"
    lines = out.read_text().splitlines()
    assert lines[0] == "t,l,r1,r2,v0,v1,v2,M0,M1,M2,E,r1_closed"
    data = np.array([[float(c) for c in row.split(",")] for row in lines[1:]])
    m2 = data[:, 9]
    assert np.max(np.abs(m2 - m2[0])) <= 1e-8  # conserved column
    assert np.max(np.abs(data[:, 2] - data[:, 11]) / np.abs(data[:, 2])) <= 1e-6
    doc = json.loads(manifest.read_text())
    assert doc["command"] == "simulate" and doc["status"] == "ok"
    assert doc["config"]["tol"] == 1e-10
    assert doc["closed_form_max_rel_dev"] <= 1e-6


def test_simulate_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("")
    assert main(["simulate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "usage" in err
    cfg = write_json(tmp_path / "unknown.json", {**PLANAR_CFG, "bogus": 1})
    assert main(["simulate", "--config", cfg]) == 2


def test_simulate_singular_stop_exit_codes(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "sing.json",
        {"kind": "state", "g": 1.0, "state": [1.0, 1.0, 0.0, -1.0, 0.0, 0.0], "t_end": 10.0, "tol": 1e-8},
    )
    out = tmp_path / "t.csv"
    manifest = tmp_path / "m.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    capsys.readouterr()
    code = main(
        [
            "simulate",
            "--config",
            cfg,
            "--out",
            str(out),
            "--manifest",
            str(manifest),
            "--allow-singular-stop",
        ]
    )
    assert code == 0
    doc = json.loads(manifest.read_text())
    assert doc["status"] == "singular-stop"
    assert "truncated" in doc


def test_simulate_tiny_tol_exits_1_with_one_line(tmp_path, capsys):
    # the step failure still leaves the trajectory up to the failure, here
    # the initial state alone, and a manifest with its status and message
    cfg = write_json(tmp_path / "p.json", PLANAR_CFG)
    full, out, manifest = tmp_path / "full.csv", tmp_path / "t.csv", tmp_path / "m.json"
    argv = ["simulate", "--config", cfg, "--out", str(out), "--manifest", str(manifest), "--tol", "1e-300"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    line = "StepFailure: error norm overflows at t = 0.0: tol = 1e-300 is too small to resolve"
    assert err == line + "\n"
    assert main(["simulate", "--config", cfg, "--out", str(full)]) == 0
    assert out.read_text().splitlines() == full.read_text().splitlines()[:2]
    doc = json.loads(manifest.read_text())
    assert doc["status"] == "step-failure" and doc["message"] == line
    assert doc["steps"] == {"accepted": 0, "rejected": 0}
    # a step failure is no singular stop: the flag leaves the exit at 1
    assert main([*argv, "--allow-singular-stop"]) == 1


def test_simulate_compare_flag_needs_planar(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "state.json",
        {"kind": "state", "g": 1.0, "state": [-10.0, -8.0, 0.0, 1.0, 0.5, 0.0], "t_end": 1.0},
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv"), "--compare-closed-form"]) == 2


@pytest.mark.parametrize("error", [QuadratureFailure, RootFindingFailure])
def test_planar_seed_that_fails_numerically_exits_1(tmp_path, monkeypatch, capsys, error):
    # only a DomainError of the closed form is a bad config
    def fail(*args):
        raise error("no solve")

    monkeypatch.setattr(td, "planar_solution", fail)
    cfg = write_json(tmp_path / "cfg.json", PLANAR_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "traj.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{error.__name__}: no solve"]


def test_scatter_demo_grid(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", SCATTER_CFG)
    out = tmp_path / "scatter.csv"
    manifest = tmp_path / "m.json"
    code = main(["scatter", "--config", cfg, "--out", str(out), "--manifest", str(manifest)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "M1,M2,ytilde1,E,J,dsigma,status"
    assert len(lines) == 5
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[-1] == "ok"
        m1, m2 = float(cells[0]), float(cells[1])
        setup = ScatteringSetup(g=1.0, y1=0.0, z1=0.8, v1_inf=0.5, m1=m1, m2=m2)
        assert abs(setup.constraint_residual) <= 1e-12


def test_simulate_rerun_from_manifest_is_byte_identical(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", PLANAR_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    manifest = tmp_path / "m.json"
    assert main(["simulate", "--config", cfg, "--out", str(out1), "--manifest", str(manifest)]) == 0
    assert main(["simulate", "--config", str(manifest), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_scatter_rerun_from_manifest_is_byte_identical(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", SCATTER_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    manifest = tmp_path / "m.json"
    assert main(["scatter", "--config", cfg, "--out", str(out1), "--manifest", str(manifest)]) == 0
    assert main(["scatter", "--config", str(manifest), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_scatter_reports_no_second_solution_rows(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {**SCATTER_CFG, "v1_inf": 5.0, "m1_grid": [-1.0]})
    out = tmp_path / "scatter.csv"
    code = main(["scatter", "--config", cfg, "--out", str(out)])
    capsys.readouterr()
    assert code == 3  # every grid point failed
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert all(row.endswith("NoSecondSolution") for row in lines[1:])


def test_scatter_mixed_statuses(tmp_path, capsys):
    # slow and fast rows: fast ones report NoSecondSolution but stay in the table
    cfg = write_json(
        tmp_path / "s.json",
        {"g": 1.0, "y1": 0.0, "z1": 0.8, "v1_inf": 0.5, "m1_grid": [-1.0], "m2_grid": [0.9]},
    )
    out = tmp_path / "scatter.csv"
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()


def test_scatter_pinned_bytes_for_each_row_status(tmp_path, capsys):
    # one grid point per outcome of the root solves: no base slope y0
    # (RootFindingFailure), a solved exit slope, and no second zero of psi
    cfg = write_json(
        tmp_path / "s.json",
        {"g": 1.0, "y1": 0.2, "z1": 0.9, "v1_inf": 0.6, "m1_grid": [-2.0], "m2_grid": [-2.0, 0.2, 1.0]},
    )
    out = tmp_path / "scatter.csv"
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == (
        "M1,M2,ytilde1,E,J,dsigma,status\n"
        "-2.0,-2.0,,,,,RootFindingFailure\n"
        "-2.0,0.2,8.165407992843901,1.4347795384051052,-166.74728436769675,-0.013608503076934633,ok\n"
        "-2.0,1.0,,,,,NoSecondSolution\n"
    )


def test_scatter_extreme_grid_points_get_status_rows(tmp_path, capsys):
    # M1^2 + M2^2 underflowed to 0 at (1e-200, 0) and (1e-200, 1e-200), and
    # the ZeroDivisionError aborted the whole run with no CSV
    readme = write_json(tmp_path / "r.json", {**SCATTER_CFG, "m1_grid": [-1.0], "m2_grid": [0.9]})
    assert main(["scatter", "--config", readme, "--out", str(tmp_path / "r.csv")]) == 0
    readme_row = (tmp_path / "r.csv").read_text().splitlines()[1]
    tiny = write_json(tmp_path / "s.json", {**SCATTER_CFG, "m1_grid": [1e-200, -1.0], "m2_grid": [0.0, 0.9]})
    out = tmp_path / "s.csv"
    assert main(["scatter", "--config", tiny, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert rows[:2] == ["1e-200,0.0,,,,,RootFindingFailure", "1e-200,0.9,,,,,RootFindingFailure"]
    assert rows[2].startswith("-1.0,0.0,") and rows[2].endswith(",ok")
    assert rows[3] == readme_row
    corner = write_json(
        tmp_path / "c.json", {**SCATTER_CFG, "m1_grid": [1e-200, 1e200], "m2_grid": [-1e200, 1e-200]}
    )
    assert main(["scatter", "--config", corner, "--out", str(out)]) == 3
    rows = out.read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["RootFindingFailure"] * 4
    assert capsys.readouterr().err == ""


RANGE_GRID = {"start": -2.0, "stop": 2.0, "num": 12}
RANGE_GRID_CFG = {"g": 1.0, "y1": 0.2, "z1": 0.9, "v1_inf": 0.6, "m1_grid": RANGE_GRID, "m2_grid": RANGE_GRID}
RANGE_GRID_SHA256 = "9192c686476519b60009aca717b5fcc29ea85feba51bb5840ddc6c84347f592f"


def test_scatter_status_counts_on_range_grid(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", RANGE_GRID_CFG)
    out = tmp_path / "scatter.csv"
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    statuses = [row.rsplit(",", 1)[1] for row in out.read_text().splitlines()[1:]]
    counts = {s: statuses.count(s) for s in set(statuses)}
    assert counts == {"ok": 88, "NoSecondSolution": 31, "RootFindingFailure": 25}
    # every value and status row, to the last bit, on every host
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == RANGE_GRID_SHA256


# Run in a fresh interpreter, so OpenBLAS picks its kernel from the
# environment: the range grid's digest, then the bits of the frame maps at a
# few fixed points, one JSON line.
HOST_PROBE = """
import hashlib, json, sys
from ternion.cli import main
from ternion.field import FrameVector, from_frame, to_frame
assert main(["scatter", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
points = [(1.0, 2.0, 3.0), (0.3, -1.7, 2.9), (1e-3, 5.0, -7.25), (-2.5, 0.125, 1.1)]
bits = [[c.hex() for c in to_frame(p).components() + from_frame(FrameVector(*p)).components()] for p in points]
digest = hashlib.sha256(open(sys.argv[2], "rb").read()).hexdigest()
print(json.dumps({"digest": digest, "frame_bits": bits}))
"""

# kernels forced through OPENBLAS_CORETYPE: AVX-512, AVX2 and SSE3
OPENBLAS_KERNELS = ("SkylakeX", "Haswell", "Prescott")


def _host_probe(tmp_path, coretype):
    cfg = write_json(tmp_path / "s.json", RANGE_GRID_CFG)
    src = str(Path(ternion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    run = subprocess.run(
        [sys.executable, "-c", HOST_PROBE, cfg, str(tmp_path / f"{coretype}.csv")],
        env=env, capture_output=True, text=True,
    )
    if run.returncode == -signal.SIGILL:
        pytest.skip(f"this CPU lacks the instructions of OpenBLAS's {coretype} kernel")
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("coretype", OPENBLAS_KERNELS)
def test_scatter_and_frame_bits_do_not_depend_on_the_blas_kernel(tmp_path, coretype):
    # E once came from a 3-element BLAS dot product and the frame maps from
    # BLAS matrix products, whose rounding followed the kernel OpenBLAS picks
    # for the CPU: the range grid had three digests across four kernels
    forced = _host_probe(tmp_path, coretype)
    assert forced["digest"] == RANGE_GRID_SHA256
    assert forced["frame_bits"] == _host_probe(tmp_path, None)["frame_bits"]


def test_manifest_with_seed_key_still_reruns(tmp_path, capsys):
    # version 0.1.0 wrote an unread "seed": 0 into simulate and scatter configs
    cfg = write_json(tmp_path / "s.json", SCATTER_CFG)
    old = write_json(
        tmp_path / "old.json",
        {
            "command": "scatter",
            "config": {**SCATTER_CFG, "seed": 0},
            "outputs": {"table_csv": "scatter.csv"},
            "rows_ok": 4,
            "rows_total": 4,
            "status": "ok",
            "tool": "ternion",
            "version": "0.1.0",
        },
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scatter", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["scatter", "--config", old, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    sim = write_json(tmp_path / "sim.json", {**PLANAR_CFG, "seed": 5})
    assert load_config(sim, "simulate") == SimulateConfig.from_dict(PLANAR_CFG)
    assert "seed" not in load_config(old, "scatter").to_dict()


STATE_CFG = {"kind": "state", "g": 1.0, "state": [-10.0, -8.0, 0.0, 1.0, 0.5, 0.0], "t_end": 1.0}
LOOP_CFG = {"kind": "line", "preset": "trisectrice-loop", "params": {"rho": "1"}}
SPHERE_CFG = {"kind": "surface", "preset": "sphere", "params": {"center": [0, 0], "radius": 1.0}}
SPHERE_AT = {"kind": "surface", "preset": "sphere", "field_name": "identity"}
CUBIC_CFG = {"kind": "surface", "preset": "cubic-band", "params": {"rho": 1.0, "a1": 1.0, "a2": 2.0}}
POLAR_CFG = {"kind": "surface", "preset": "polar-band", "params": {"rho": 1.0, "phi_lo": 0.0, "phi_hi": 0.5}}
A1_RULE = "config error: need 0 < a1 < a2, got "
RHO_RULE = "config error: modulus level rho must be positive, got "
PHI_RULE = "config error: need phi_lo < phi_hi, got "
BOX_CFG = {"kind": "volume", "preset": "box", "field_name": "one", "params": {"box": [0, 1, 0, 1, 0, 1]}}


@pytest.mark.parametrize(
    "command, cfg, flags, message",
    [
        ("simulate", {**PLANAR_CFG, "tol": 0}, [], "config error: 'tol' must be > 0"),
        ("simulate", {**PLANAR_CFG, "g": "1.0"}, [], "config error: 'g' must be a finite number"),
        ("simulate", {**PLANAR_CFG, "g": True}, [], "config error: 'g' must be a finite number"),
        ("simulate", {**STATE_CFG, "t_end": float("nan")}, [], "config error: 't_end' must be a finite"),
        ("simulate", {**STATE_CFG, "t_end": -1.0}, [], "config error: 't_end' must be > 0"),
        ("simulate", PLANAR_CFG, ["--tol", "0"], "config error: 'tol' must be > 0"),
        ("simulate", {**PLANAR_CFG, "m2": 0.0}, [], "config error: planar solution needs M2 != 0"),
        (
            "simulate",
            {**PLANAR_CFG, "z_start": 5.0},
            [],
            "config error: z = 5.0 outside the trajectory branch (0.26258284104916146, 2.0)",
        ),
        ("simulate", PLANAR_CFG, ["--out", "missing/t.csv"], "cannot write output: "),
        ("scatter", {**SCATTER_CFG, "g": "1.0"}, [], "config error: 'g' must be a finite number"),
        ("scatter", {**SCATTER_CFG, "m1_grid": [float("nan")]}, [], "config error: 'm1_grid' must be"),
        ("scatter", SCATTER_CFG, ["--manifest", "missing/m.json"], "cannot write output: "),
        ("integrate-form", LOOP_CFG, [], "config error: 'rho' must be a finite number, got '1'"),
        ("integrate-form", SPHERE_CFG, [], "config error: 'center' must have 3 entries, got [0, 0]"),
        (
            "integrate-form",
            {**SPHERE_AT, "params": {"center": [0, 0, 2], "radius": -0.5}},
            [],
            "config error: sphere radius must be positive, got -0.5",
        ),
        (
            "integrate-form",
            {**SPHERE_AT, "params": {"center": [0, 0, 2], "radius": 0}},
            [],
            "config error: sphere radius must be positive, got 0",
        ),
        (
            "integrate-form",
            None,
            ["line", "--preset", "trisectrice-loop", "--a1", "5", "--radius", "3"],
            "config error: line preset 'trisectrice-loop' takes ['phi', 'rho'], not ['a1', 'radius']",
        ),
        (
            "integrate-form",
            {**LOOP_CFG, "params": {"rho": 1.0, "bogus": 2}},
            [],
            "config error: line preset 'trisectrice-loop' takes ['phi', 'rho'], not ['bogus']",
        ),
        (
            "integrate-form",
            {**LOOP_CFG, "params": {}, "field_name": ["one"]},
            [],
            "config error: unknown field ['one']",
        ),
        # params the preset's constructor rejects: a bad config, not a failed run
        ("integrate-form", None, ["surface", "--preset", "cubic-band", "--a1", "0", "--a2", "1"], A1_RULE),
        ("integrate-form", None, ["surface", "--preset", "cubic-band", "--a1", "-1", "--a2", "1"], A1_RULE),
        ("integrate-form", None, ["surface", "--preset", "cubic-band", "--a1", "2", "--a2", "1"], A1_RULE),
        ("integrate-form", None, ["surface", "--preset", "cubic-band", "--a1", "1", "--a2", "1"], A1_RULE),
        ("integrate-form", {**CUBIC_CFG, "params": {"a1": 2.0, "a2": 1.0}}, [], A1_RULE),
        ("integrate-form", None, ["line", "--preset", "trisectrice-loop", "--rho", "0"], RHO_RULE),
        ("integrate-form", None, ["line", "--preset", "trisectrice-loop", "--rho", "-1"], RHO_RULE),
        ("integrate-form", {**LOOP_CFG, "params": {"rho": -0.5}}, [], RHO_RULE),
        (
            "integrate-form",
            None,
            ["surface", "--preset", "cubic-band", "--rho", "0", "--a1", "1", "--a2", "2"],
            RHO_RULE,
        ),
        ("integrate-form", {**CUBIC_CFG, "params": {"rho": -1.0, "a1": 1.0, "a2": 2.0}}, [], RHO_RULE),
        (
            "integrate-form",
            None,
            ["surface", "--preset", "polar-band", "--rho", "-2", "--phi-lo", "0", "--phi-hi", "1"],
            RHO_RULE,
        ),
        ("integrate-form", {**POLAR_CFG, "params": {**POLAR_CFG["params"], "rho": 0.0}}, [], RHO_RULE),
        (
            "integrate-form",
            None,
            ["surface", "--preset", "polar-band", "--rho", "1", "--phi-lo", "0.3", "--phi-hi", "-0.2"],
            PHI_RULE + "(0.3, -0.2)",
        ),
        (
            "integrate-form",
            None,
            ["surface", "--preset", "polar-band", "--phi-lo", "0.3", "--phi-hi", "0.3"],
            PHI_RULE + "(0.3, 0.3)",
        ),
        (
            "integrate-form",
            {**POLAR_CFG, "params": {"phi_lo": 0.5, "phi_hi": 0.0}},
            [],
            PHI_RULE + "(0.5, 0.0)",
        ),
        (
            "integrate-form",
            None,
            ["volume", "--preset", "box", "--box=1,0,0,1,0,1", "--field", "one"],
            "config error: box axis x0 needs lo < hi, got (1.0, 0.0)",
        ),
        (
            "integrate-form",
            None,
            ["volume", "--preset", "box", "--box=0,1,0,1,0.5,0.5", "--field", "one"],
            "config error: box axis x2 needs lo < hi, got (0.5, 0.5)",
        ),
        (
            "integrate-form",
            {**BOX_CFG, "params": {"box": [0, 1, 2, -1, 0, 1]}},
            [],
            "config error: box axis x1 needs lo < hi, got (2, -1)",
        ),
    ],
    ids=[
        "tol-zero",
        "g-string",
        "g-bool",
        "t_end-nan",
        "t_end-negative",
        "tol-flag-zero",
        "planar-m2-zero",
        "planar-z_start-off-branch",
        "simulate-missing-dir",
        "scatter-g-string",
        "grid-nan",
        "manifest-missing-dir",
        "form-param-string",
        "sphere-center-2",
        "sphere-radius-negative",
        "sphere-radius-zero",
        "form-flag-not-taken",
        "form-param-not-taken",
        "form-field-list",
        "cubic-a1-zero",
        "cubic-a1-negative",
        "cubic-a1-above-a2",
        "cubic-a1-equal-a2",
        "cubic-a1-above-a2-config",
        "loop-rho-zero",
        "loop-rho-negative",
        "loop-rho-negative-config",
        "cubic-rho-zero",
        "cubic-rho-negative-config",
        "polar-rho-negative",
        "polar-rho-zero-config",
        "polar-phi-reversed",
        "polar-phi-equal",
        "polar-phi-reversed-config",
        "box-x0-reversed",
        "box-x2-empty",
        "box-x1-reversed-config",
    ],
)
def test_invalid_values_exit_2_with_one_line(tmp_path, monkeypatch, capsys, command, cfg, flags, message):
    # cfg None: the flags alone give the run
    monkeypatch.chdir(tmp_path)
    config = []
    if cfg is not None:
        write_json(tmp_path / "cfg.json", cfg)
        config = ["--config", "cfg.json"]
    assert main([command, *config, "--out", "out.csv", *flags]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)
    assert "Traceback" not in captured.err
    if message.startswith("config error"):  # found before the run, which writes nothing
        assert not (tmp_path / "out.csv").exists()


MAIN = "import sys; from ternion.cli import main; sys.exit(main(sys.argv[1:]))"

# main in a fresh interpreter whose files may grow to 2048 bytes, with
# SIGXFSZ ignored, so that a longer write fails with EFBIG instead of
# killing the process; the limit is set after the imports.
SMALL_FILES = """
import resource, signal, sys
from ternion.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (2048, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main(sys.argv[1:]))
"""


def _run_main(workdir, argv, script=MAIN, unbuffered=False, **kwargs):
    """main(argv) run by script in a fresh interpreter in workdir, with this
    checkout's package on the path and, if unbuffered, PYTHONUNBUFFERED set."""
    src = str(Path(ternion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-c", script, *argv], cwd=workdir, env=env, text=True, **kwargs)


def _run_with_small_files(workdir, argv):
    return _run_main(workdir, argv, SMALL_FILES, capture_output=True)


def test_a_failed_write_leaves_the_old_output_whole(tmp_path, capsys):
    # the README planar CSV (~4 kB) and a 100-point scatter manifest (~3 kB)
    # outgrow the limit: each run exits 2 with one line, the file it would
    # have replaced keeps its bytes and no temp file is left behind
    write_json(tmp_path / "planar.json", PLANAR_CFG)
    write_json(tmp_path / "scatter.json", {**SCATTER_CFG, "m1_grid": {"start": -1.2, "stop": -0.8, "num": 100}})
    old = b"t,l,r1,r2,v0,v1,v2,M0,M1,M2,E\n0.0,1.0,2.0,0.0,0.1,0.2,0.0,0.0,0.0,-0.2,0.025\n"
    for name in ("traj.csv", "run.json"):
        (tmp_path / name).write_bytes(old)
    for argv in (
        ["simulate", "--config", "planar.json", "--out", "traj.csv"],
        ["scatter", "--config", "scatter.json", "--out", "/dev/null", "--manifest", "run.json"],
    ):
        run = _run_with_small_files(tmp_path, argv)
        assert run.returncode == 2, run.stderr
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cannot write output: "), run.stderr
    assert (tmp_path / "traj.csv").read_bytes() == old
    assert (tmp_path / "run.json").read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["planar.json", "run.json", "scatter.json", "traj.csv"]

    # a path that is not a regular file is written in place: the limit does
    # not apply to a pipe, which receives the whole CSV
    run = _run_with_small_files(tmp_path, ["simulate", "--config", "planar.json", "--out", "/dev/stdout"])
    assert run.returncode == 0, run.stderr
    ref = tmp_path / "ref.csv"
    assert main(["simulate", "--config", str(tmp_path / "planar.json"), "--out", str(ref)]) == 0
    capsys.readouterr()
    assert run.stdout.startswith(ref.read_text())


@pytest.mark.parametrize(
    "command, cfg", [("simulate", PLANAR_CFG), ("scatter", SCATTER_CFG), ("integrate-form", CUBIC_CFG)]
)
def test_out_and_manifest_naming_one_file_exit_2_before_the_run(tmp_path, monkeypatch, capsys, command, cfg):
    # the manifest would replace the output, or an output the config that
    # the run reads; paths are compared resolved
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "cfg.json", cfg)
    config = (tmp_path / "cfg.json").read_bytes()
    for outputs, named in (
        (["--out", "out.csv", "--manifest", "./out.csv"], "--out out.csv and --manifest ./out.csv"),
        (["--out", "./cfg.json"], "--config cfg.json and --out ./cfg.json"),
        (["--out", "out.csv", "--manifest", "./cfg.json"], "--config cfg.json and --manifest ./cfg.json"),
    ):
        assert main([command, "--config", "cfg.json", *outputs]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"config error: {named} name one file"]
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        assert (tmp_path / "cfg.json").read_bytes() == config


def test_out_to_the_file_stdout_has_open_keeps_every_byte_in_order(tmp_path, monkeypatch, capsys):
    # with stdout redirected to a regular file, --out /dev/stdout names that
    # file: the output goes through sys.stdout, after what the run printed
    # before writing it and before what it prints after, buffered or not;
    # so does --out -
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "planar.json", PLANAR_CFG)
    assert main(["simulate", "--config", "planar.json", "--out", "ref.csv"]) == 0
    summary = capsys.readouterr().out
    assert main(["verify", "algebra", "--seed", "42", "--out", "ref.json"]) == 0
    report = capsys.readouterr().out
    for argv, want in (
        (["simulate", "--config", "planar.json", "--out", "/dev/stdout"], (tmp_path / "ref.csv").read_text() + summary),
        (["verify", "algebra", "--seed", "42", "--out", "/dev/stdout"], report + (tmp_path / "ref.json").read_text()),
    ):
        for unbuffered in (False, True):
            with open(tmp_path / "log.txt", "w") as log:
                run = _run_main(tmp_path, argv, unbuffered=unbuffered, stdout=log, stderr=subprocess.PIPE)
            assert run.returncode == 0, run.stderr
            assert (tmp_path / "log.txt").read_text() == want
        run = _run_main(tmp_path, argv, capture_output=True)  # a pipe
        assert run.returncode == 0 and run.stdout == want, run.stderr
        assert main([*argv[:-1], "-"]) == 0
        assert capsys.readouterr().out == want


def test_out_naming_the_regular_file_stdout_is_redirected_to_keeps_the_printed_lines(
    tmp_path, monkeypatch, capsys
):
    # `--out log.txt > log.txt`: a rename over log.txt left stdout on the old,
    # unlinked inode, so the lines printed after the write were lost.  A
    # regular file that is stdout's goes through sys.stdout, in order, and no
    # temp file is left beside it.
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "planar.json", PLANAR_CFG)
    assert main(["simulate", "--config", "planar.json", "--out", "ref.csv"]) == 0
    summary = capsys.readouterr().out
    assert main(["verify", "algebra", "--seed", "42", "--out", "ref.json"]) == 0
    report = capsys.readouterr().out
    for argv, want in (
        (["simulate", "--config", "planar.json", "--out", "log.txt"], (tmp_path / "ref.csv").read_text() + summary),
        (["verify", "algebra", "--seed", "42", "--out", "log.txt"], report + (tmp_path / "ref.json").read_text()),
    ):
        for unbuffered in (False, True):
            with open(tmp_path / "log.txt", "w") as log:
                run = _run_main(tmp_path, argv, unbuffered=unbuffered, stdout=log, stderr=subprocess.PIPE)
            assert run.returncode == 0, run.stderr
            assert (tmp_path / "log.txt").read_text() == want
            assert sorted(p.name for p in tmp_path.iterdir()) == ["log.txt", "planar.json", "ref.csv", "ref.json"]


def test_integrate_form_loop(tmp_path, capsys):
    out = tmp_path / "loop.json"
    code = main(
        [
            "integrate-form",
            "line",
            "--preset",
            "trisectrice-loop",
            "--rho",
            "1.0",
            "--field",
            "reciprocal",
            "--tol",
            "1e-10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    import math

    expected = 2 * math.pi / math.sqrt(3)
    assert doc["value"][0] == pytest.approx(0.0, abs=1e-8)
    assert doc["value"][1] == pytest.approx(expected, abs=1e-8)
    assert doc["value"][2] == pytest.approx(-expected, abs=1e-8)


def test_integrate_form_config_takes_only_tol(tmp_path, capsys):
    cfg = write_json(tmp_path / "loop.json", {**LOOP_CFG, "params": {"rho": 1.0}})
    # KIND, --preset and a param flag beside --config used to be dropped
    # without a word, and the loop ran at the config's tol
    argv = ["integrate-form", "surface", "--preset", "sphere", "--config", cfg, "--rho", "5", "--tol", "1e-3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: --config gives every input but --tol; drop KIND, --preset, --rho\n"
    assert captured.out == ""
    assert main(["integrate-form", "--config", cfg, "--field", "one"]) == 2
    assert capsys.readouterr().err.endswith("drop --field\n")
    # --tol alone overrides the config's tol, as it does for simulate
    assert main(["integrate-form", "--config", cfg, "--tol", "1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["tol"] == 1e-3
    assert main(["integrate-form", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["tol"] == 1e-9


def test_integrate_form_requires_domain(capsys):
    for argv in (["integrate-form"], ["integrate-form", "line"], ["integrate-form", "--preset", "segment"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: integrate-form needs either --config or KIND and --preset\n"
        assert captured.out == ""


def test_vector_flag_with_a_leading_minus_takes_the_equals_form(capsys):
    # argparse reads a separate "-1,0.5,0" as a flag; joined by = it is the value
    argv = ["integrate-form", "line", "--preset", "segment", "--to", "1,1,1", "--field", "square"]
    assert main([*argv, "--from", "-1,0.5,0"]) == 2
    assert "argument --from: expected one argument" in capsys.readouterr().err
    assert main([*argv, "--from=-1,0.5,0"]) == 0
    result = json.loads(capsys.readouterr().out)
    # z^2 dz has the primitive z^3/3
    a, b = Ternary(-1.0, 0.5, 0.0), Ternary(1.0, 1.0, 1.0)
    cubes = mul(mul(b, b), b) - mul(mul(a, a), a)
    assert np.allclose(result["value"], np.array(cubes.components()) / 3.0, rtol=0.0, atol=1e-12)


def test_param_flags_and_domains_are_the_preset_table():
    # one table, FormConfig.PRESETS: the parser's param flags are its params
    # and every preset has a domain builder
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    form = sub.choices["integrate-form"]
    flags = {opt for action in form._actions for opt in action.option_strings}
    others = {"-h", "--help", "--config", "--preset", "--field", "--tol", "--out", "--manifest"}
    params = {key for kind in FormConfig.PRESETS.values() for takes in kind.values() for key in takes}
    assert flags - others == {"--" + key.replace("_", "-") for key in params}
    assert len(params) == 11 and set(FormConfig.PARAMS) == params
    assert set(cli._DOMAINS) == {preset for kind in FormConfig.PRESETS.values() for preset in kind}


SEED_RULE = "ternion verify: error: argument --seed: must be a non-negative integer, got "


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["integrate-form", "line", "--field", "bogus"],
            "ternion integrate-form: error: argument --field: invalid choice: 'bogus'",
        ),
        (["verify", "bogus"], "ternion verify: error: argument suite: invalid choice: 'bogus'"),
        (["simulate"], "ternion simulate: error: the following arguments are required: --config"),
        (["verify", "all", "--bogus"], "ternion: error: unrecognized arguments: --bogus"),
        (["verify", "algebra", "--seed", "-1"], SEED_RULE + "'-1'"),
        (["verify", "dynamics", "--seed", "-1"], SEED_RULE + "'-1'"),
        (["verify", "all", "--seed", "1.5"], SEED_RULE + "'1.5'"),
        (["verify", "all", "--out="], "ternion verify: error: argument --out: needs a path, got ''"),
        *(
            (argv + [f"{flag}="], f"ternion {argv[0]}: error: argument {flag}: needs a path, got ''")
            for argv in (
                ["simulate", "--config", "run.json"],
                ["scatter", "--config", "run.json"],
                ["integrate-form", "line", "--preset", "segment"],
            )
            for flag in ("--out", "--manifest")
        ),
    ],
    ids=[
        "bad-field",
        "unknown-suite",
        "simulate-without-config",
        "unknown-flag",
        "negative-seed-algebra",
        "negative-seed-dynamics",
        "seed-not-an-integer",
        "verify-empty-out",
        "simulate-empty-out",
        "simulate-empty-manifest",
        "scatter-empty-out",
        "scatter-empty-manifest",
        "integrate-form-empty-out",
        "integrate-form-empty-manifest",
    ],
)
def test_usage_errors_exit_2_with_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)
    assert captured.out == ""


def test_help_prints_the_full_help(capsys):
    assert main(["integrate-form", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ternion integrate-form") and "--field" in out


def test_parser_reuse_matches_fresh_parsers(tmp_path, capsys):
    # the parser is built once per process; a run after an override, --help
    # or a usage error must behave as it does on a parser of its own
    cfg = write_json(tmp_path / "cfg.json", PLANAR_CFG)
    runs = {}
    for tag in ("alone", "reused"):
        (tmp_path / tag).mkdir()
        out = lambda name: str(tmp_path / tag / name)  # noqa: E731
        runs[tag] = []
        for argv in (
            ["simulate", "--config", cfg, "--out", out("tol.csv"), "--tol", "1e-6"],
            ["simulate", "--config", cfg, "--out", out("cfg.csv")],
            ["simulate", "--help"],
            ["simulate", "--config", cfg, "--tol", "x"],
            ["integrate-form", "line", "--preset", "trisectrice-loop", "--out", out("loop.json")],
        ):
            if tag == "alone":
                cli._build_parser.cache_clear()
            runs[tag].append((main(argv), capsys.readouterr()))
    assert runs["alone"] == runs["reused"]
    assert [code for code, _ in runs["reused"]] == [0, 0, 0, 2, 0]
    for name in ("tol.csv", "cfg.csv", "loop.json"):
        assert (tmp_path / "alone" / name).read_bytes() == (tmp_path / "reused" / name).read_bytes()
    assert (tmp_path / "reused" / "tol.csv").read_bytes() != (tmp_path / "reused" / "cfg.csv").read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["surface", "--preset", "cubic-band", "--rho", "1"],
            "config error: surface preset 'cubic-band' needs parameter 'a1'",
        ),
        (
            ["surface", "--preset", "sphere", "--center", "0,0,x", "--radius", "1"],
            "config error: --center needs comma-separated numbers, got '0,0,x'",
        ),
    ],
    ids=["missing-a1", "center-not-numbers"],
)
def test_integrate_form_flag_errors_exit_2(capsys, argv, message):
    assert main(["integrate-form", *argv]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--phi", "1e308"], "ValueError: non-finite ternary component: inf"),
        (["--rho", "1e308"], "OverflowError: "),
    ],
    ids=["phi-overflow", "rho-overflow"],
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_numeric_failure_is_not_a_config_error(capsys, flags, message):
    # valid config values whose integrand overflows: a failed run, not bad input
    assert main(["integrate-form", "line", "--preset", "trisectrice-loop", *flags]) == 1
    err = capsys.readouterr().err
    assert any(line.startswith(message) for line in err.splitlines())
    assert "config error" not in err and "Traceback" not in err


def test_inverse_conjugate_out_of_float_range_is_singular_on_path(capsys):
    # the segment's nodes close in on the origin until 1/||z||^3 overflows;
    # that node is on the singular set, as for the reciprocal field
    argv = ["integrate-form", "line", "--preset", "segment", "--from", "0,0,0", "--to", "1,1,0"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("SingularOnPath: integrand hit the singular set: 1/||z||^3 out of float range: ")
    assert "for z = Ternary(" in err[0]
    # on an array of nodes, the first whose 1/||z||^3 overflows is named
    zero = np.zeros(3)
    with np.errstate(over="ignore"), pytest.raises(SingularNumber) as exc:
        cli._FIELDS["inverse-conjugate"](Ternary(np.array([1.0, 1e-103, 1e-104]), zero, zero))
    assert str(exc.value).endswith(f"for z = {Ternary(1e-103, 0.0, 0.0)}")


@pytest.mark.parametrize(
    "argv, node",
    [
        (["volume", "--preset", "box", "--box=-1,1,-1,1,-1,1"], Ternary(*[-0.991455371120813] * 3)),
        (["line", "--preset", "segment", "--from=-1,-1,0", "--to", "1,1,0"], Ternary(0.0, 0.0, 0.0)),
    ],
    ids=["box", "segment"],
)
def test_inverse_conjugate_at_a_zero_norm_node_names_it(capsys, argv, node):
    # the default field divides by ||z||^3, which is exactly 0 on the
    # trisectrice and on the plane x0 + x1 + x2 = 0: it is tested before the
    # division, and the first such node is named (the box's first node, the
    # segment's midpoint)
    assert main(["integrate-form", *argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"SingularOnPath: integrand hit the singular set: non-invertible: ||z||^3 = 0 for z = {node}"]


def test_form_out_of_float_range_names_the_point(capsys):
    # e^(phi1 + phi2) on the loop overflows: a failed run, one stderr line
    # naming the operation and the point
    argv = ["integrate-form", "line", "--preset", "trisectrice-loop", "--rho", "1", "--phi", "400"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("OverflowError: from_polar out of float range at (rho, phi1, phi2) = (1.0, ")


def test_config_round_trips():
    sim = SimulateConfig.from_dict(PLANAR_CFG)
    assert SimulateConfig.from_dict(sim.to_dict()) == sim
    sc = ScatterConfig.from_dict(SCATTER_CFG)
    assert ScatterConfig.from_dict(sc.to_dict()) == sc
    form = FormConfig.from_dict(
        {"kind": "surface", "preset": "cubic-band", "params": {"rho": 1.0, "a1": 1.0, "a2": 2.0}}
    )
    assert FormConfig.from_dict(form.to_dict()) == form


def test_scatter_grid_range_spec(tmp_path):
    cfg = write_json(
        tmp_path / "s.json",
        {**SCATTER_CFG, "m1_grid": {"start": -1.0, "stop": -0.8, "num": 3}},
    )
    loaded = load_config(cfg, "scatter")
    assert loaded.m1_grid == pytest.approx([-1.0, -0.9, -0.8])
