"""Property tests of the CLI commands on small, extreme or malformed inputs."""

import json
import math
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ternion import errors  # noqa: E402
from ternion.cli import main  # noqa: E402

# finite floats of either sign from 1e-300 to 1e300, zero, and everyday values
NUMBERS = st.one_of(
    st.just(0.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.builds(
        lambda sign, mag: sign * mag,
        st.sampled_from((1.0, -1.0)),
        st.floats(min_value=1e-300, max_value=1e300),
    ),
)
GRID = st.lists(NUMBERS, min_size=1, max_size=3)
CONFIGS = st.fixed_dictionaries(
    {"g": NUMBERS, "y1": NUMBERS, "z1": NUMBERS, "v1_inf": NUMBERS, "m1_grid": GRID, "m2_grid": GRID}
)
README_POINT = {"g": 1.0, "y1": 0.0, "z1": 0.8, "v1_inf": 0.5}
STATUSES = {"ok"} | {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.TernionError)
}


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cfg=CONFIGS)
@example(cfg={**README_POINT, "m1_grid": [1e-200, -1.0], "m2_grid": [0.0, 0.9]})
@example(cfg={**README_POINT, "m1_grid": [1e-200, 1e200], "m2_grid": [-1e200, 1e-200]})
def test_scatter_writes_a_row_for_every_point(tmp_path, capsys, cfg):
    # every config drawn is valid, so every grid point must end in a value
    # or a typed status row: exit 0 or 3, at most one line on stderr, no
    # warning and never a traceback
    path, out = tmp_path / "s.json", tmp_path / "s.csv"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["scatter", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) + len(caught) <= 1, (err, [str(w.message) for w in caught])
    assert code in (0, 3), err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == len(cfg["m1_grid"]) * len(cfg["m2_grid"])
    for row in rows:
        assert row[-1] in STATUSES
        if row[-1] == "ok":
            assert all(math.isfinite(float(cell)) for cell in row[2:6])


# simulate and integrate-form: a valid config drawn around the README's runs,
# then perhaps one key set to an ill-typed or out-of-range value, one key
# dropped or an unknown key added.  Numbers that set a run's length
# (tolerances, durations, sizes) stay in ranges that finish in milliseconds.
JUNK = st.sampled_from(["1.0", True, None, [1.0], {"a": 1}, float("nan"), float("inf"), -1.0, 0.0])


def _perturbed(base):
    keys = sorted(base)
    return st.one_of(
        st.just(base),
        st.builds(lambda k, v: {**base, k: v}, st.sampled_from(keys), JUNK),
        st.builds(lambda k: {x: y for x, y in base.items() if x != k}, st.sampled_from(keys)),
        st.just({**base, "bogus": 1}),
    )


def _as_written(cfg, command):
    """cfg itself, or wrapped as a manifest of command."""
    return st.sampled_from([cfg, {"command": command, "config": cfg}])


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


TOLS = st.one_of(_floats(1e-9, 1e-3), st.just(1e-10))
PLANAR = st.fixed_dictionaries(
    {
        "kind": st.just("planar"),
        "g": st.sampled_from([1.0, 0.5, -1.0]),
        "m2": _floats(0.5, 1.5),
        "z0": _floats(0.8, 1.2),
        "z1": _floats(1.8, 2.5),
        "z_start": _floats(1.3, 1.9),
        "z_stop": _floats(0.3, 0.9),
        "tol": TOLS,
    },
    optional={"max_step": _floats(0.05, 10.0)},
)
STATE = st.fixed_dictionaries(
    {
        "kind": st.just("state"),
        "g": _floats(-2.0, 2.0),
        "state": st.tuples(
            _floats(-12.0, -8.0), _floats(-9.0, 9.0), *4 * [_floats(-1.0, 1.0)]
        ).map(list),
        "t_end": _floats(0.01, 2.0),
        "tol": TOLS,
    },
)


def _run(tmp_path, capsys, argv, cfg=None):
    """main(argv) with cfg written to --config, if given: (exit, stderr and
    warning lines), checked to be a documented exit with at most one line."""
    if cfg is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        argv = [*argv, "--config", str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines() + [str(w.message) for w in caught]
    assert code in (0, 1, 2) and len(lines) <= 1, (code, lines)
    return code, lines


FUZZ = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(
    cfg=st.one_of(PLANAR, STATE).flatmap(_perturbed).flatmap(lambda c: _as_written(c, "simulate")),
    tol=st.sampled_from([None, None, "1e-6", "0", "nan", "-1"]),
)
@example(cfg={"kind": "state", "g": 1.0, "state": [-10.0, -8.0, 0.0, 1.0, 0.5, 0.0], "t_end": 1.0}, tol=None)
@example(cfg={"command": "simulate", "config": 5}, tol=None)
def test_simulate_ends_in_a_documented_exit(tmp_path, capsys, cfg, tol):
    flags = [] if tol is None else [f"--tol={tol}"]
    _run(tmp_path, capsys, ["simulate", "--out", str(tmp_path / "t.csv"), *flags], cfg)


def _form(kind, preset, **params):
    return st.fixed_dictionaries(
        {"kind": st.just(kind), "preset": st.just(preset), "params": st.fixed_dictionaries(params)}
    )


def _points(lo, hi):
    return st.lists(_floats(lo, hi), min_size=3, max_size=3)


BOXES = st.sampled_from([[0, 1, 0, 1, 0, 1], [1, 2, -0.5, 0.5, 0, 1], [-1, 1, -1, 1, -1, 1]])
FORMS = st.one_of(
    _form("line", "trisectrice-loop", rho=_floats(0.2, 3.0), phi=_floats(-1.0, 1.0)),
    _form("line", "segment", **{"from": _points(-2.0, 2.0), "to": _points(-2.0, 2.0)}),
    _form("surface", "cubic-band", rho=_floats(0.5, 2.0), a1=_floats(0.5, 1.0), a2=_floats(1.0, 2.0)),
    _form("surface", "polar-band", rho=_floats(0.5, 2.0), phi_lo=_floats(-0.5, 0.0), phi_hi=_floats(0, 0.5)),
    _form("surface", "sphere", center=_points(-3.0, 3.0), radius=_floats(0.1, 1.0)),
    _form("volume", "box", box=BOXES),
)
FIELD_NAMES = st.sampled_from(["one", "identity", "square", "reciprocal", "inverse-conjugate"])
FORM_CONFIGS = st.tuples(FORMS, FIELD_NAMES, st.sampled_from([1e-3, 1e-6])).map(
    lambda t: {**t[0], "field_name": t[1], "tol": t[2]}
)


def _flags(cfg):
    """cfg as KIND and flags: what a command line without --config gives."""
    flags = {"--preset": cfg["preset"], "--field": cfg["field_name"], "--tol": repr(cfg["tol"])}
    for key, value in cfg["params"].items():
        flag = "--" + key.replace("_", "-")
        flags[flag] = ",".join(map(repr, value)) if isinstance(value, list) else repr(value)
    return cfg["kind"], flags


def _dropped_flag(kind, flags):
    return st.sampled_from(sorted(flags)).map(lambda k: (kind, {f: v for f, v in flags.items() if f != k}))


CONFIG_RULE = "config error: --config gives every input but --tol"
LOOP_CONFIG = {"kind": "line", "preset": "trisectrice-loop", "params": {"rho": 1.0}}
STRAY_FLAGS = st.sampled_from(
    [
        (None, {}),
        (None, {"--tol": "1e-4"}),
        (None, {"--tol": "0"}),
        ("surface", {}),
        (None, {"--preset": "sphere"}),
        (None, {"--rho": "5"}),
        (None, {"--field": "one"}),
    ]
)


@FUZZ
@given(
    case=st.one_of(
        # the inputs as flags alone, or with one flag dropped
        FORM_CONFIGS.map(lambda c: (None, *_flags(c))),
        FORM_CONFIGS.flatmap(lambda c: _dropped_flag(*_flags(c))).map(lambda t: (None, *t)),
        # the inputs as a (perturbed) config, perhaps with stray flags
        st.tuples(
            FORM_CONFIGS.flatmap(_perturbed).flatmap(lambda c: _as_written(c, "integrate-form")), STRAY_FLAGS
        ).map(lambda t: (t[0], *t[1])),
    )
)
@example(case=(LOOP_CONFIG, "surface", {"--preset": "sphere", "--rho": "5", "--tol": "1e-3"}))
@example(case=(LOOP_CONFIG, None, {"--tol": "1e-3"}))
def test_integrate_form_ends_in_a_documented_exit(tmp_path, capsys, case):
    # beside --config only --tol may be given; any other input exits 2
    cfg, kind, flags = case
    argv = ["integrate-form", *([kind] if kind else []), *(f"{f}={v}" for f, v in flags.items())]
    code, lines = _run(tmp_path, capsys, argv, cfg)
    if cfg is not None and (kind is not None or set(flags) - {"--tol"}):
        assert code == 2 and lines[0].startswith(CONFIG_RULE), lines
    if cfg == LOOP_CONFIG and flags == {"--tol": "1e-3"}:
        assert code == 0
