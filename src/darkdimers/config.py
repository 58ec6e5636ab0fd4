"""Experiment configuration: defaults, config files, flag overrides.

Config files are plain UTF-8 key/value text mirroring the CLI flags
(`n-at = 6`, hyphens and underscores interchangeable, `#` comments).
Angles accept `pi` expressions: `pi/4`, `2pi`, `0.5`.  Flags override
file values, which override defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields
from types import MappingProxyType
from typing import Dict, Optional

import numpy as np

from .dynamics import EvolveConfig
from .model import make_bath
from .operators import ground_state, product_state

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CONFIG_KEYS",
    "parse_angle",
    "parse_grid",
    "load_config_file",
    "resolve_config",
    "initial_state_vector",
]


class ConfigError(ValueError):
    """Malformed or out-of-range configuration; maps to exit code 2."""


# points of one 'lo:hi:n' grid axis: a 1024 x 1024 N = 4 sweep is about
# 2.6 hours at 9 ms a cell, and the bound keeps the task list small
_MAX_GRID_POINTS = 1024


def parse_angle(text) -> float:
    """Parse a float or a pi expression like 'pi/4', '2pi', '-pi'; the
    angle must be finite."""
    s = str(text).strip().lower().replace(" ", "")
    head, pi, tail = s.partition("pi")
    try:
        if isinstance(text, (int, float)):
            value = float(text)
        elif not pi:
            value = float(s)
        elif head in ("", "+", "-"):
            value = -math.pi if head == "-" else math.pi
        else:
            value = float(head) * math.pi
        if pi and tail.startswith("/"):
            value /= float(tail[1:])
        elif pi and tail:
            raise ValueError
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None
    except ZeroDivisionError:
        raise ConfigError(f"angle {text!r} divides by zero") from None
    if not math.isfinite(value):
        raise ConfigError(f"angle {text!r} is not finite")
    return value


def parse_grid(text) -> np.ndarray:
    """Parse 'lo:hi:n' (inclusive linspace) or a comma list of angles."""
    s = str(text).strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid spec {text!r} must be 'lo:hi:n'")
        lo, hi = parse_angle(parts[0]), parse_angle(parts[1])
        try:
            n = int(parts[2])
        except ValueError:
            raise ConfigError(f"grid point count {parts[2]!r} is not an integer") from None
        if not 1 <= n <= _MAX_GRID_POINTS:
            raise ConfigError(f"grid needs 1..{_MAX_GRID_POINTS} points, got {n}")
        return np.linspace(lo, hi, n)
    values = [parse_angle(tok) for tok in s.split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"grid {text!r} lists no angle")
    return np.array(values)


def _real(text) -> float:
    """A finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"{text!r} is not a finite number")
    return value


def _grid(text) -> str:
    """A sweep grid's text, once `parse_grid` accepts it."""
    parse_grid(text)
    return str(text)


def _key(default, parse, help_text):
    """A config field: its default, the parser of its text form (file
    value or flag), and the help text of its flag."""
    return field(default=default, metadata={"parse": parse, "help": help_text})


@dataclass
class ExperimentConfig:
    """The resolved configuration.  Each field is one key of the config
    file and one CLI flag, `--` + its name with `_` turned into `-`; the
    field order is the order of the flags in `--help`."""

    n_at: int = _key(4, int, "number of atoms")
    n_ph: float = _key(0.88, _real, "photons per mode N_ph")
    phi: float = _key(0.0, parse_angle,
                      "squeezing reference phase (accepts pi expressions)")
    k0a: float = _key(math.pi / 4, parse_angle, "dimensionless lattice constant k0*a")
    k0zc: float = _key(0.0, parse_angle, "dimensionless array center k0*z_c")
    gamma: float = _key(1.0, _real, "waveguide decay rate")
    dt: float = _key(EvolveConfig.dt, _real, "integrator step (units 1/gamma)")
    t_max: float = _key(EvolveConfig.t_max, _real, "integration horizon")
    tol: float = _key(EvolveConfig.convergence_tol, _real,
                      "steady-state residual tolerance on ||drho/dt||_F")
    record_stride: int = _key(EvolveConfig.record_stride, int, "EvolveConfig.record_stride for "
                              "library callers of evolve; no command reads it (series rows are "
                              "the steady-state walk's visited points)")
    initial: str = _key("ground", str, "ground | plus-pi-4 | state file")
    grid_zc: str = _key("0:pi:65", _grid, "sweep grid for k0zc: 'lo:hi:n' or comma list")
    grid_a: str = _key("0:pi:65", _grid, "sweep grid for k0a: 'lo:hi:n' or comma list")
    workers: int = _key(1, int, "parallel worker processes, at most the CPU count")
    out: Optional[str] = _key(None, str, "output file (or directory for experiments)")

    def to_dict(self) -> Dict:
        return asdict(self)


# The config keys, in field order: name -> dataclasses.Field, whose
# metadata holds "parse" and "help".
CONFIG_KEYS = MappingProxyType({f.name: f for f in fields(ExperimentConfig)})


def load_config_file(path: str) -> Dict[str, str]:
    """Read a key/value config file into a raw string dict."""
    values: Dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not part of a key
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}"
                    )
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def resolve_config(
    file_values: Optional[Dict[str, str]] = None,
    flag_values: Optional[Dict[str, object]] = None,
) -> ExperimentConfig:
    """Merge defaults < file < flags, convert types, validate ranges."""
    merged: Dict[str, object] = {}
    for source in (file_values or {}, flag_values or {}):
        for key, value in source.items():
            if value is None:
                continue
            key = key.replace("-", "_")
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
    cfg = ExperimentConfig()
    for key, value in merged.items():
        try:
            setattr(cfg, key, CONFIG_KEYS[key].metadata["parse"](value))
        except ConfigError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
        except (TypeError, ValueError):
            raise ConfigError(f"bad value for {key}: {value!r}") from None
    _validate(cfg)
    return cfg


# the integration keys, each with its EvolveConfig keyword
_EVOLVE_KEYS = {"dt": "dt", "t_max": "t_max", "tol": "convergence_tol",
                "record_stride": "record_stride"}


def _validate(cfg: ExperimentConfig):
    """Range checks; the bath and integration limits are those of
    `make_bath` and `EvolveConfig`, raised as the field's ConfigError."""
    if not 1 <= cfg.n_at <= 8:
        raise ConfigError(f"n_at must be in 1..8, got {cfg.n_at}")
    try:
        make_bath(cfg.n_ph, cfg.phi)
    except ValueError as exc:
        raise ConfigError(f"bad value for n_ph: {exc}") from None
    if cfg.gamma <= 0:
        raise ConfigError(f"gamma must be > 0, got {cfg.gamma}")
    for key, name in _EVOLVE_KEYS.items():
        try:
            EvolveConfig(**{name: getattr(cfg, key)})
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
    cpus = os.cpu_count() or 1
    if not 1 <= cfg.workers <= cpus:
        raise ConfigError(f"workers must be in 1..{cpus} (the CPU count), got {cfg.workers}")
    if cfg.initial not in ("ground", "plus-pi-4") and not os.path.exists(cfg.initial):
        raise ConfigError(
            f"initial must be 'ground', 'plus-pi-4', or an existing state "
            f"file; got {cfg.initial!r}"
        )


def initial_state_vector(cfg: ExperimentConfig) -> np.ndarray:
    """Initial pure state from the config selector."""
    dim = 2**cfg.n_at
    if cfg.initial == "ground":
        return ground_state(cfg.n_at)
    if cfg.initial == "plus-pi-4":
        single = np.array([1.0, np.exp(1j * math.pi / 4)]) / math.sqrt(2.0)
        return product_state([single] * cfg.n_at)
    try:
        with open(cfg.initial, encoding="utf-8-sig") as fh:
            amps = [complex(line.strip()) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read state file {cfg.initial}: {exc}") from exc
    if len(amps) != dim:
        raise ConfigError(
            f"state file {cfg.initial} has {len(amps)} amplitudes, "
            f"expected {dim} for n_at = {cfg.n_at}"
        )
    psi = np.array(amps, dtype=complex)
    if not np.all(np.isfinite(psi)):
        raise ConfigError(f"state file {cfg.initial} holds a non-finite amplitude")
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        raise ConfigError(f"state file {cfg.initial} holds a zero vector")
    return psi / norm
