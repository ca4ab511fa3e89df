import json

import numpy as np
import pytest

import ternion.algebra as algebra_module
from ternion.cli import main
from ternion.config import FormConfig, ScatterConfig, SimulateConfig, load_config
from ternion.dynamics import ScatteringSetup


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


def test_simulate_compare_flag_needs_planar(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "state.json",
        {"kind": "state", "g": 1.0, "state": [-10.0, -8.0, 0.0, 1.0, 0.5, 0.0], "t_end": 1.0},
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv"), "--compare-closed-form"]) == 2


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
        "-2.0,0.2,8.165407992843901,1.4347795384051063,-166.7472863656162,-0.013608502913881347,ok\n"
        "-2.0,1.0,,,,,NoSecondSolution\n"
    )


def test_scatter_status_counts_on_range_grid(tmp_path, capsys):
    grid = {"start": -2.0, "stop": 2.0, "num": 12}
    cfg = write_json(
        tmp_path / "s.json",
        {"g": 1.0, "y1": 0.2, "z1": 0.9, "v1_inf": 0.6, "m1_grid": grid, "m2_grid": grid},
    )
    out = tmp_path / "scatter.csv"
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    statuses = [row.rsplit(",", 1)[1] for row in out.read_text().splitlines()[1:]]
    counts = {s: statuses.count(s) for s in set(statuses)}
    assert counts == {"ok": 88, "NoSecondSolution": 31, "RootFindingFailure": 25}


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


@pytest.mark.parametrize(
    "command, cfg, flags, message",
    [
        ("simulate", {**PLANAR_CFG, "tol": 0}, [], "config error: 'tol' must be > 0"),
        ("simulate", {**PLANAR_CFG, "g": "1.0"}, [], "config error: 'g' must be a finite number"),
        ("simulate", {**PLANAR_CFG, "g": True}, [], "config error: 'g' must be a finite number"),
        ("simulate", {**STATE_CFG, "t_end": float("nan")}, [], "config error: 't_end' must be a finite"),
        ("simulate", {**STATE_CFG, "t_end": -1.0}, [], "config error: 't_end' must be > 0"),
        ("simulate", PLANAR_CFG, ["--tol", "0"], "config error: 'tol' must be > 0"),
        ("simulate", PLANAR_CFG, ["--out", "missing/t.csv"], "cannot write output: "),
        ("scatter", {**SCATTER_CFG, "g": "1.0"}, [], "config error: 'g' must be a finite number"),
        ("scatter", {**SCATTER_CFG, "m1_grid": [float("nan")]}, [], "config error: 'm1_grid' must be"),
        ("scatter", SCATTER_CFG, ["--manifest", "missing/m.json"], "cannot write output: "),
        ("integrate-form", LOOP_CFG, [], "config error: 'rho' must be a finite number, got '1'"),
        ("integrate-form", SPHERE_CFG, [], "config error: 'center' must have 3 entries, got [0, 0]"),
    ],
    ids=[
        "tol-zero",
        "g-string",
        "g-bool",
        "t_end-nan",
        "t_end-negative",
        "tol-flag-zero",
        "simulate-missing-dir",
        "scatter-g-string",
        "grid-nan",
        "manifest-missing-dir",
        "form-param-string",
        "sphere-center-2",
    ],
)
def test_invalid_values_exit_2_with_one_line(tmp_path, monkeypatch, capsys, command, cfg, flags, message):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", "cfg.json", "--out", "out.csv", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[0].startswith(message)
    assert "Traceback" not in captured.err


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


def test_integrate_form_requires_domain(capsys):
    assert main(["integrate-form"]) == 2


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
    assert capsys.readouterr().err.splitlines()[0] == message


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
