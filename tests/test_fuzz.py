"""Property test of the scatter command on small, extreme configs."""

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
