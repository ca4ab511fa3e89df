"""Run files for the CLI: configs in, and every output out.

Configs round-trip exactly through JSON (parse(serialize(c)) == c) and every
tolerance a run uses is written into its manifest, so a rerun from a manifest
reproduces the output byte for byte.

The outputs (trajectory and scattering CSVs, manifests and JSON reports) are
formatted here and written whole or not at all: the text goes to a temp file
beside the target, which then replaces it.  A run that fails mid-write leaves
the target as it was and no temp file behind.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

from . import __version__

__all__ = [
    "ConfigError",
    "SimulateConfig",
    "ScatterConfig",
    "FormConfig",
    "TRAJECTORY_HEADER",
    "SCATTER_HEADER",
    "load_config",
    "write_json",
    "write_manifest",
    "write_trajectory_csv",
    "write_scatter_csv",
]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


#: Keys that 0.1.0 wrote into simulate and scatter configs although no run
#: read them; they are accepted and dropped so those manifests still rerun.
_RETIRED_KEYS = {"seed"}


def _keys(data: dict, takes: dict, what: str):
    """ConfigError unless data holds only keys of takes, and each key whose
    default in takes is None."""
    extra = sorted(set(data) - set(takes))
    if extra:
        raise ConfigError(f"{what} takes {sorted(takes)}, not {extra}")
    for key, default in takes.items():
        if default is None and key not in data:
            raise ConfigError(f"{what} needs parameter {key!r}")


def _take(data: dict, cls, command: str, retired=frozenset()) -> dict:
    """data less its retired keys, checked by _keys against the fields of
    cls, each of which maps to itself or, without a default, to None; the
    dataclass supplies the defaults of the keys left out."""
    data = {key: value for key, value in data.items() if key not in retired}
    takes = {
        f.name: None if f.default is MISSING and f.default_factory is MISSING else f for f in fields(cls)
    }
    _keys(data, takes, f"{command} config")
    return data


def _number(key: str, value, positive: bool = False):
    """value itself if it is a finite int or float (not a bool), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key!r} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{key!r} must be > 0, got {value!r}")
    return value


def _values(values: dict, sizes: dict, positive=()):
    """Checks each value of values with _number: a list of sizes[key]
    numbers where sizes has the key, else one number, > 0 if its key is in
    positive."""
    for key, value in values.items():
        size = sizes.get(key)
        if size is None:
            _number(key, value, positive=key in positive)
        elif not isinstance(value, (list, tuple)) or len(value) != size:
            raise ConfigError(f"{key!r} must have {size} entries, got {value!r}")
        else:
            for entry in value:
                _number(key, entry)


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

    #: Per kind, the keys it takes beside g, tol and max_step, as in
    #: FormConfig.PRESETS: a default of None marks a key the kind needs.  A
    #: key of the other kind must be absent or null, as asdict writes it.
    KIND_KEYS = {
        "planar": {"m2": None, "z0": None, "z1": None, "z_start": None, "z_stop": None},
        "state": {"state": None, "t_end": None},
    }

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in self.KIND_KEYS:
            raise ConfigError(f"simulate kind must be 'planar' or 'state', got {self.kind!r}")
        given = {key: getattr(self, key) for keys in self.KIND_KEYS.values() for key in keys}
        given = {key: value for key, value in given.items() if value is not None}
        _keys(given, self.KIND_KEYS[self.kind], f"simulate kind {self.kind!r}")
        if self.max_step is not None:
            given["max_step"] = self.max_step
        _values({"g": self.g, "tol": self.tol, **given}, {"state": 6}, ("tol", "max_step", "t_end"))

    @staticmethod
    def from_dict(data: dict) -> "SimulateConfig":
        return SimulateConfig(**_take(data, SimulateConfig, "simulate", _RETIRED_KEYS))


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


#: The keys of a start/stop/num range spec, all needed.
_RANGE = {"start": None, "stop": None, "num": None}


def _expand_grid(spec, key) -> list[float]:
    if isinstance(spec, dict):
        _keys(spec, _RANGE, f"{key} range spec")
        num = spec["num"]
        if isinstance(num, bool) or not isinstance(num, int) or num < 2:
            raise ConfigError(f"{key} num must be an integer >= 2, got {num!r}")
        start = float(_number(f"{key} start", spec["start"]))
        stop = float(_number(f"{key} stop", spec["stop"]))
        step = (stop - start) / (num - 1)
        return [start + i * step for i in range(num)]
    if isinstance(spec, (list, tuple)):
        return [float(_number(key, v)) for v in spec]
    raise ConfigError(f"{key} must be a list or a start/stop/num range")


@dataclass(frozen=True)
class FormConfig:
    """Differential-form integration: a preset domain plus a field name.

    PRESETS lists the presets of each kind with their params; the range of
    a param is checked by the ternion.calculus constructor of the preset's
    domain.
    """

    kind: str
    preset: str
    field_name: str = "inverse-conjugate"
    tol: float = 1e-9
    params: dict = field(default_factory=dict)

    #: Per kind, the presets and the params each takes, with their defaults;
    #: a default of None marks a param the preset needs.
    PRESETS = {
        "line": {
            "trisectrice-loop": {"rho": 1.0, "phi": 0.0},
            "segment": {"from": None, "to": None},
        },
        "surface": {
            "cubic-band": {"rho": 1.0, "a1": None, "a2": None},
            "polar-band": {"rho": 1.0, "phi_lo": None, "phi_hi": None},
            "sphere": {"center": None, "radius": None},
        },
        "volume": {"box": {"box": None}},
    }
    KINDS = tuple(PRESETS)
    #: Every param of PRESETS, once, in the table's order.
    PARAMS = tuple(dict.fromkeys(key for kind in PRESETS.values() for p in kind.values() for key in p))
    #: Params that are points or boxes, by their number of entries; every
    #: other param is one number.
    VECTOR_PARAMS = {"center": 3, "from": 3, "to": 3, "box": 6}

    def __post_init__(self):
        _number("tol", self.tol, positive=True)
        if self.kind not in self.KINDS:
            raise ConfigError(f"form kind must be one of {self.KINDS}, got {self.kind!r}")
        presets = self.PRESETS[self.kind]
        if not isinstance(self.preset, str) or self.preset not in presets:
            raise ConfigError(f"unknown {self.kind} preset {self.preset!r}; choose from {sorted(presets)}")
        if not isinstance(self.params, dict):
            raise ConfigError(f"'params' must be a JSON object, got {self.params!r}")
        _keys(self.params, presets[self.preset], f"{self.kind} preset {self.preset!r}")
        _values(self.params, self.VECTOR_PARAMS)

    def preset_params(self) -> dict:
        """The params of the preset, its defaults filled in."""
        return {**self.PRESETS[self.kind][self.preset], **self.params}

    @staticmethod
    def from_dict(data: dict) -> "FormConfig":
        return FormConfig(**_take(data, FormConfig, "integrate-form"))


_CONFIG_TYPES = {
    "simulate": SimulateConfig,
    "scatter": ScatterConfig,
    "integrate-form": FormConfig,
}


def load_config(path, command: str):
    """Parse a config file; a manifest written by a previous run also works
    (its embedded config is extracted), which is what makes reruns exact.
    A file that does not hold a JSON object gets a pointer to the usage."""
    usage = f"see `ternion {command} --help` for usage"
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}; {usage}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}; {usage}") from exc
    if isinstance(data, dict) and "config" in data:  # manifest rerun
        if data.get("command") not in (None, command):
            raise ConfigError(
                f"manifest {path} was written by {data.get('command')!r}, not {command!r}"
            )
        data = data["config"]
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object; {usage}")
    return _CONFIG_TYPES[command].from_dict(data)


#: The command of each config type, as manifests record it.
_COMMANDS = {cls: command for command, cls in _CONFIG_TYPES.items()}

TRAJECTORY_HEADER = "t,l,r1,r2,v0,v1,v2,M0,M1,M2,E"

SCATTER_HEADER = "M1,M2,ytilde1,E,J,dsigma,status"


def _is_stdout(path) -> bool:
    """Whether path is "-" or names the file that sys.stdout has open: the
    same device and inode as its file descriptor.  A stdout without one (a
    capture in memory) names no file."""
    if path == "-":
        return True
    try:
        target, out = os.stat(path), os.fstat(sys.stdout.fileno())
    except (OSError, ValueError):
        return False
    return (target.st_dev, target.st_ino) == (out.st_dev, out.st_ino)


def _write(path, text: str):
    """Writes text to path whole or not at all.

    The text goes to <path>.<pid>.tmp beside the target, which os.replace
    then puts in its place, so the target's directory must be writable and a
    replaced file gets a new file's mode; on any failure the temp file is
    removed and the error raised.  "-", and a path that names stdout's file,
    regular or not, go through sys.stdout, so that the text keeps its place
    among what the run prints: a rename over the file that stdout is
    redirected to would leave stdout on the old, unlinked inode.  Any other
    existing path that is not a regular file (a FIFO, a device, a symlink) is
    written in place.
    """
    if _is_stdout(path):
        sys.stdout.write(text)
        return
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w") as fh:
            fh.write(text)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _json_text(doc, **options) -> str:
    """doc as strict JSON text: a value JSON cannot hold is written as its
    str, and so is a float that is not finite (a NaN or an infinity)."""
    try:
        return json.dumps(doc, default=str, allow_nan=False, **options)
    except ValueError:  # a float that is not finite: a round trip writes it as its str
        plain = json.loads(json.dumps(doc, default=str), parse_constant=lambda c: str(float(c)))
        return json.dumps(plain, allow_nan=False, **options)


def write_json(path, doc):
    """Writes doc to path as indented, key-sorted strict JSON text ending in
    a newline; a value JSON cannot hold is written as its str."""
    _write(path, _json_text(doc, indent=2, sort_keys=True) + "\n")


def write_manifest(path, config, outputs: dict, status: str, extras: dict | None = None):
    """Writes the run's manifest: the command its config type names, the
    config, the output paths, the status and any extras."""
    doc = {
        "tool": "ternion",
        "version": __version__,
        "command": _COMMANDS[type(config)],
        "config": asdict(config),
        "outputs": outputs,
        "status": status,
    }
    if extras:
        doc.update(extras)
    write_json(path, doc)
    return doc


def write_trajectory_csv(traj, path, extra=None):
    """One row per sample of a dynamics.Trajectory; extra = (name, values)
    appends a column."""
    header = TRAJECTORY_HEADER if extra is None else f"{TRAJECTORY_HEADER},{extra[0]}"
    extras = [()] * len(traj) if extra is None else [(v,) for v in extra[1]]
    lines = [header + "\n"]
    for t, y, m, e, x in zip(traj.times, traj.states, traj.m_ledger, traj.energy, extras):
        cells = (t, *y, *m, e, *x)
        lines.append(",".join(repr(float(c)) for c in cells) + "\n")
    _write(path, "".join(lines))
    return len(traj)


def write_scatter_csv(rows, path):
    """Rows are (m1, m2, result_or_None, status); failures keep their row."""
    lines = [SCATTER_HEADER + "\n"]
    for m1, m2, res, status in rows:
        if res is None:
            lines.append(f"{m1!r},{m2!r},,,,,{status}\n")
        else:
            cells = (m1, m2, res.ytilde1, res.energy, res.jacobian, res.dsigma)
            lines.append(",".join(repr(float(c)) for c in cells) + f",{status}\n")
    _write(path, "".join(lines))
    return len(rows)
