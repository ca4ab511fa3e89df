import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import ternion

MODULES = ["ternion"] + [f"ternion.{m.name}" for m in pkgutil.iter_modules(ternion.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


# The keyword options (parameters with a default) of every public function,
# class constructor and public method, by qualified name; names without
# options are left out.  A new knob or a removed one shows up here.
OPTIONS = {
    "ternion.calculus.HoloType1Report": ["residuals_polar"],
    "ternion.calculus.TernaryField": ["name"],
    "ternion.calculus.line_integral": ["tol"],
    "ternion.calculus.surface_integral_2form": ["tol"],
    "ternion.calculus.trisectrice_loop": ["rho", "phi"],
    "ternion.calculus.volume_integral_3form": ["tol"],
    "ternion.cli.main": ["argv"],
    "ternion.config.FormConfig": ["field_name", "tol", "params"],
    "ternion.config.SimulateConfig": [
        "g", "tol", "max_step", "m2", "z0", "z1", "z_start", "z_stop", "state", "t_end",
    ],
    "ternion.config.write_manifest": ["extras"],
    "ternion.config.write_trajectory_csv": ["extra"],
    "ternion.dynamics.MonopoleState": ["t"],
    "ternion.dynamics.integrate": ["tol", "max_step"],
    "ternion.quadrature.adaptive_quad": ["tol"],
    "ternion.quadrature.adaptive_quad_2d": ["tol"],
    "ternion.quadrature.adaptive_quad_3d": ["tol"],
    "ternion.rootfind.brent": ["fa", "fb"],
    "ternion.verify.CheckResult": ["counterexample"],
}


def _options(fn):
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # a class that keeps a builtin constructor
        return []
    return [p.name for p in params if p.default is not p.empty]


def test_keyword_options_are_pinned():
    found = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if not callable(obj) or getattr(obj, "__module__", None) != name:
                continue
            found[f"{name}.{attr}"] = _options(obj)
            if inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found[f"{name}.{attr}.{meth}"] = _options(fn)
    assert {k: v for k, v in found.items() if v} == OPTIONS


def test_package_does_not_import_scipy():
    # scipy and mpmath are test-only oracles; the package depends on numpy alone
    pattern = re.compile(r"^\s*(import|from)\s+(scipy|mpmath)\b", re.MULTILINE)
    sources = Path(ternion.__file__).parent.glob("*.py")
    assert [p.name for p in sources if pattern.search(p.read_text())] == []


def test_only_config_opens_files():
    # every output is written by config's one writer, whole or not at all
    sources = Path(ternion.__file__).parent.glob("*.py")
    assert [p.name for p in sources if "open(" in p.read_text() and p.name != "config.py"] == []
