"""Run configurations and JSON manifests for the CLI.

Configs round-trip exactly through JSON (parse(serialize(c)) == c) and every
tolerance a run uses is written into its manifest, so a rerun from a manifest
reproduces the output byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

from . import __version__

__all__ = [
    "ConfigError",
    "SimulateConfig",
    "ScatterConfig",
    "FormConfig",
    "load_config",
    "write_manifest",
]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


#: Keys that 0.1.0 wrote into simulate and scatter configs although no run
#: read them; they are accepted and dropped so those manifests still rerun.
_RETIRED_KEYS = {"seed"}


def _take(data: dict, cls, kind: str, retired=frozenset()) -> dict:
    """The keys of data that name fields of cls; the dataclass supplies the
    defaults of the rest."""
    known = fields(cls)
    names = {f.name for f in known}
    unknown = set(data) - names - retired
    if unknown:
        raise ConfigError(f"unknown {kind} config keys: {sorted(unknown)}")
    for f in known:
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing {kind} config key: {f.name!r}")
    return {key: value for key, value in data.items() if key in names}


def _number(key: str, value, positive: bool = False):
    """value itself if it is a finite int or float (not a bool), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key!r} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{key!r} must be > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class SimulateConfig:
    """Trajectory run: either an explicit initial state or a planar seed.

    kind = "planar": initial conditions come from the closed-form planar
    trajectory (m2, z0, z1) at slope z_start, integrated until slope z_stop.
    kind = "state": explicit (l, r1, r2, v0, v1, v2) plus duration t_end.
    """

    kind: str
    g: float = 1.0
    tol: float = 1e-10
    max_step: float | None = None
    m2: float | None = None
    z0: float | None = None
    z1: float | None = None
    z_start: float | None = None
    z_stop: float | None = None
    state: list[float] | None = None
    t_end: float | None = None

    def __post_init__(self):
        for key in ("g", "tol", "max_step", "m2", "z0", "z1", "z_start", "z_stop", "t_end"):
            if getattr(self, key) is not None:
                _number(key, getattr(self, key), positive=key in ("tol", "max_step", "t_end"))
        if self.kind == "planar":
            for key in ("m2", "z0", "z1", "z_start", "z_stop"):
                if getattr(self, key) is None:
                    raise ConfigError(f"planar simulate config needs {key!r}")
        elif self.kind == "state":
            if not isinstance(self.state, (list, tuple)) or len(self.state) != 6:
                raise ConfigError("state simulate config needs a 6-component 'state'")
            for value in self.state:
                _number("state", value)
            if self.t_end is None:
                raise ConfigError("state simulate config needs 't_end'")
        else:
            raise ConfigError(f"simulate kind must be 'planar' or 'state', got {self.kind!r}")

    @staticmethod
    def from_dict(data: dict) -> "SimulateConfig":
        return SimulateConfig(**_take(data, SimulateConfig, "simulate", _RETIRED_KEYS))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ScatterConfig:
    """Scattering table over an (M1, M2) grid at fixed incoming data."""

    g: float
    y1: float
    z1: float
    v1_inf: float
    m1_grid: list[float]
    m2_grid: list[float]

    def __post_init__(self):
        for key in ("g", "y1", "z1", "v1_inf"):
            _number(key, getattr(self, key))
        if not self.m1_grid or not self.m2_grid:
            raise ConfigError("scatter config needs non-empty m1_grid and m2_grid")
        for key in ("m1_grid", "m2_grid"):
            for value in getattr(self, key):
                _number(key, value)

    @staticmethod
    def from_dict(data: dict) -> "ScatterConfig":
        got = _take(data, ScatterConfig, "scatter", _RETIRED_KEYS)
        for key in ("m1_grid", "m2_grid"):
            got[key] = _expand_grid(got[key], key)
        return ScatterConfig(**got)

    def to_dict(self) -> dict:
        return asdict(self)


def _expand_grid(spec, key) -> list[float]:
    if isinstance(spec, dict):
        missing = {"start", "stop", "num"} - set(spec)
        if missing:
            raise ConfigError(f"{key} range spec needs start/stop/num, missing {sorted(missing)}")
        num = spec["num"]
        if isinstance(num, bool) or not isinstance(num, int) or num < 1:
            raise ConfigError(f"{key} num must be an integer >= 1, got {num!r}")
        start = float(_number(f"{key} start", spec["start"]))
        stop = float(_number(f"{key} stop", spec["stop"]))
        if num == 1:
            return [start]
        step = (stop - start) / (num - 1)
        return [start + i * step for i in range(num)]
    if isinstance(spec, (list, tuple)):
        return [float(_number(key, v)) for v in spec]
    raise ConfigError(f"{key} must be a list or a start/stop/num range")


@dataclass(frozen=True)
class FormConfig:
    """Differential-form integration: a preset domain plus a field name.

    kinds: line (presets: trisectrice-loop, segment), surface (cubic-band,
    polar-band, sphere), volume (box).  Fields: one, identity, reciprocal,
    inverse-conjugate.
    """

    kind: str
    preset: str
    field_name: str = "inverse-conjugate"
    tol: float = 1e-9
    params: dict = field(default_factory=dict)

    KINDS = ("line", "surface", "volume")
    #: Params that are points or boxes, by their number of entries; every
    #: other param is one number.
    VECTOR_PARAMS = {"center": 3, "from": 3, "to": 3, "box": 6}

    def __post_init__(self):
        _number("tol", self.tol, positive=True)
        if self.kind not in self.KINDS:
            raise ConfigError(f"form kind must be one of {self.KINDS}, got {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ConfigError(f"'params' must be a JSON object, got {self.params!r}")
        for key, value in self.params.items():
            size = self.VECTOR_PARAMS.get(key)
            if size is None:
                _number(key, value)
            elif not isinstance(value, (list, tuple)) or len(value) != size:
                raise ConfigError(f"{key!r} must have {size} entries, got {value!r}")
            else:
                for entry in value:
                    _number(key, entry)

    @staticmethod
    def from_dict(data: dict) -> "FormConfig":
        return FormConfig(**_take(data, FormConfig, "integrate-form"))

    def to_dict(self) -> dict:
        return asdict(self)


_CONFIG_TYPES = {
    "simulate": SimulateConfig,
    "scatter": ScatterConfig,
    "integrate-form": FormConfig,
}


def load_config(path, command: str):
    """Parse a config file; a manifest written by a previous run also works
    (its embedded config is extracted), which is what makes reruns exact."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if "config" in data:  # manifest rerun
        if data.get("command") not in (None, command):
            raise ConfigError(
                f"manifest {path} was written by {data.get('command')!r}, not {command!r}"
            )
        data = data["config"]
    return _CONFIG_TYPES[command].from_dict(data)


def write_manifest(path, command: str, config, outputs: dict, status: str, extras: dict | None = None):
    doc = {
        "tool": "ternion",
        "version": __version__,
        "command": command,
        "config": config.to_dict(),
        "outputs": outputs,
        "status": status,
    }
    if extras:
        doc.update(extras)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
