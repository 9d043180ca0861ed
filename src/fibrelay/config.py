"""Configuration ingestion for the command-line tool.

``KEYS`` is the one table of configuration keys: each gives the commands
that read it, its default, its parser and its flag's help.
Sources, in increasing precedence: the defaults, a config file, the flags
``--<key after the dot>``.  Every value goes through its key's parser, so
a bad one raises ConfigError naming the key.  The file format is flat
``key = value`` text with dotted section prefixes (diff-friendly), e.g.::

    # network
    network.model = rayleigh:mu=1.0
    network.gain = 0.5
    network.n0 = 1.0
    run.n = 10000
    run.seed = 20260809

JSON is accepted as an alternative encoding (either the same flat keys or
one nesting level: ``{"network": {"model": ...}}``).  A run manifest is
also accepted: its ``config_echo`` is used directly, which is how a run is
reproduced from its manifest.  A config file that cannot be read or
parsed raises ConfigError naming its path.
"""
from __future__ import annotations

import json
import math
import os
import secrets
from dataclasses import make_dataclass
from functools import partial
from typing import Callable, NamedTuple

from .coeffs import CoefficientModel, ConstantGain, GainPolicy, parse_gains, parse_model
from .cocycle import NetworkConfig
from .errors import ConfigError
from .laws import DEFAULT_SLOPE_TOL, DEFAULT_TOLERANCE_SIGMA, default_burn_in
from .lyapunov import DEFAULT_BURN_IN, GROWTH_RATE, TAIL_RATIO

COMMANDS = ("lyapunov", "simulate", "calibrate", "verify", "sweep")

# the worker count when run.workers is not given
_ENV_WORKERS = "FIBRELAY_WORKERS"

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _positive_float(key, value) -> float:
    try:
        if isinstance(value, bool):  # JSON true would read as 1.0
            raise TypeError
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not out > 0.0:
        raise ConfigError(f"{key}: must be positive, got {out}")
    if not math.isfinite(out):
        raise ConfigError(f"{key}: must be finite, got {out}")
    return out


def _integer(key, value, expected="an integer") -> int:
    # int() reads JSON true as 1, truncates 2000.7 and overflows on inf
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key}: expected {expected}, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected {expected}, got {value!r}") from None


def _positive_int(key, value, minimum=1) -> int:
    out = _integer(key, value)
    if out < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {out}")
    return out


def _boolean(key, value) -> bool:
    if isinstance(value, str) and value.strip().lower() in _TRUE + _FALSE:
        return value.strip().lower() in _TRUE
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected true or false "
                          f"({'/'.join(_TRUE)} or {'/'.join(_FALSE)}), got {value!r}")
    return value


def _or_auto(parse):
    """``parse``, reading the string ``auto`` as None for resolve to fill."""
    return lambda key, value: None if str(value).strip().lower() == "auto" \
        else parse(key, value)


def _spec(parse, cls, what):
    """Parse a spec string with ``parse``; pass a built ``cls`` through."""
    def parse_spec(key, value):
        if isinstance(value, cls):
            return value
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a {what} spec string, got {value!r}")
        return parse(value)
    return parse_spec


def _kind(key, value) -> str:
    if value not in (GROWTH_RATE, TAIL_RATIO):
        raise ConfigError(f"{key}: must be {GROWTH_RATE} or {TAIL_RATIO}, got {value!r}")
    return value


def _grid(key, value) -> tuple:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    elif not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: malformed grid {value!r}")
    if not value:
        raise ConfigError(f"{key}: empty grid")
    return tuple(_positive_float(key, v) for v in value)


class Key(NamedTuple):
    commands: tuple  # the commands that read the key: its flag and echo
    default: object  # None: unset
    parse: Callable  # (key, value) -> value, raising ConfigError naming the key
    help: str


# the commands that run a relay chain under given gains, and those that
# estimate a growth rate over replicas
_CHAIN = ("lyapunov", "simulate", "verify")
_ESTIMATE = ("lyapunov", "calibrate", "verify", "sweep")

KEYS = {
    "network.model": Key(COMMANDS, None, _spec(parse_model, CoefficientModel, "model"),
                         "coefficient model spec, e.g. rayleigh:mu=1.0"),
    "network.gain": Key(_CHAIN, 1.0, _positive_float, "constant amplification gain"),
    "network.gains": Key(_CHAIN, None, _spec(
        lambda t: parse_gains(t if ":" in t else "pernode:g=" + t), GainPolicy, "gain"),
        "per-node gains, comma separated"),
    "network.n0": Key(("simulate", "verify"), 1.0, _positive_float,
                      "noise power per reception"),
    "network.i0": Key((*_CHAIN, "sweep"), 1.0, _positive_float, "source magnitude"),
    "run.n": Key(COMMANDS, 10_000, partial(_positive_int, minimum=2), "nodes / steps"),
    "run.replicas": Key(_ESTIMATE, 32, _positive_int, "independent replicas"),
    "run.seed": Key(COMMANDS, 20260809,
                    _or_auto(partial(_integer, expected="an integer or 'auto'")),
                    "master seed, an integer or 'auto'"),
    "run.burn_in": Key(_ESTIMATE, "auto", _or_auto(partial(_positive_int, minimum=0)),
                       "burn-in nodes or 'auto'"),
    "run.renorm_period": Key(COMMANDS, 1, _positive_int, "renormalize every k steps"),
    "run.workers": Key(COMMANDS, None, _positive_int,
                       f"replica parallelism (default ${_ENV_WORKERS} or 1)"),
    "lyapunov.kind": Key(("lyapunov",), GROWTH_RATE, _kind,
                         f"{GROWTH_RATE} or {TAIL_RATIO}"),
    "lyapunov.validation": Key(("lyapunov",), False, _boolean,
                               "allow the signed validation model"),
    "simulate.trajectories": Key(("simulate",), 1, _positive_int,
                                 "number of trajectories"),
    "calibrate.tol": Key(("calibrate",), 1e-3, _positive_float, "growth-rate tolerance"),
    "calibrate.g_init": Key(("calibrate",), 1.0, _positive_float, "bracket start"),
    "calibrate.max_doublings": Key(("calibrate",), 60, _positive_int,
                                   "bracket expansions before giving up"),
    "verify.tolerance_sigma": Key(("verify",), DEFAULT_TOLERANCE_SIGMA, _positive_float,
                                  "band half-width in combined standard errors"),
    "verify.slope_tol": Key(("verify",), DEFAULT_SLOPE_TOL, _positive_float,
                            "smallest band half-width"),
    "sweep.gain_grid": Key(("sweep",), None, _grid, "comma-separated gains"),
}


def _network_config(self) -> NetworkConfig:
    return NetworkConfig(model=self.model, gains=self.gains, n0=self.n0,
                         i0=self.i0, n_nodes=self.n, master_seed=self.seed)


def _echo(self) -> dict:
    """Dotted-key view of everything that determines the outputs: the
    keys the command reads but the worker count, an execution detail,
    and ``network.gain``, which ``network.gains`` holds."""
    out = {"command": self.command}
    for key, entry in KEYS.items():
        if self.command in entry.commands and key not in ("network.gain", "run.workers"):
            value = getattr(self, key.partition(".")[2])
            if key == "sweep.gain_grid":
                value = ",".join(f"{g:.17g}" for g in value)
            out[key] = value.spec_string() if hasattr(value, "spec_string") else value
    return out


# one field per key, named after the dot, network.gain folded into gains
RunParams = make_dataclass(
    "RunParams", ["command", *(key.partition(".")[2] for key in KEYS if key != "network.gain")],
    frozen=True, namespace={
        "__doc__": "Fully resolved parameters for one command invocation.",
        "__module__": __name__, "network_config": _network_config, "echo": _echo})


def _flatten(obj) -> dict:
    flat = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            flat.update((f"{key}.{sub}", v) for sub, v in value.items())
        else:
            flat[str(key)] = value
    return flat


def read_config_file(path) -> dict:
    """Read a flat KV file, a JSON config, or a run manifest."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: cannot read config file: {reason}") from None
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        obj = obj.get("config_echo", obj)
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: config_echo must be a JSON object, got {obj!r}")
        return {k: v for k, v in _flatten(obj).items() if k != "command"}
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve(command: str, file_values: dict | None = None,
            overrides: dict | None = None) -> RunParams:
    """Merge defaults, file values and flag overrides into RunParams.

    Unknown keys and invalid values raise ConfigError naming the key.
    ``run.seed`` may be the string ``auto`` to draw a fresh seed from the
    OS; the drawn value is what gets recorded downstream.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key not in KEYS:
                raise ConfigError(f"unknown configuration key {key!r}")
            if value is not None:
                merged[key] = value
    if "network.model" not in merged:
        raise ConfigError("network.model is required")
    if "network.gains" in merged and "network.gain" in merged:
        raise ConfigError("network.gain and network.gains are mutually exclusive")

    values = {}
    for key, entry in KEYS.items():
        value = merged.get(key, entry.default)
        values[key.partition(".")[2]] = None if value is None else entry.parse(key, value)

    gain = values.pop("gain")
    values["gains"] = values["gains"] or ConstantGain(gain)
    if values["seed"] is None:
        values["seed"] = secrets.randbits(63)
    n = values["n"]
    if command == "lyapunov" and values["kind"] == TAIL_RATIO:
        # the tail ratio always discards the first half of the chain
        if values["burn_in"] not in (None, n // 2):
            raise ConfigError(f"run.burn_in: {TAIL_RATIO} uses n // 2 = {n // 2}, "
                              f"got {values['burn_in']}")
        values["burn_in"] = n // 2
    elif values["burn_in"] is None:
        values["burn_in"] = default_burn_in(n) if command == "verify" else DEFAULT_BURN_IN
    if values["workers"] is None:
        # named by its source; an empty variable counts as unset
        values["workers"] = _positive_int(_ENV_WORKERS, os.environ.get(_ENV_WORKERS) or 1)
    if command == "sweep" and not values["gain_grid"]:
        raise ConfigError("sweep.gain_grid is required for the sweep command")
    return RunParams(command=command, **values)


def parse_config(command: str, path=None, overrides: dict | None = None) -> RunParams:
    """File plus flag ingestion; flags override file values."""
    return resolve(command, read_config_file(path) if path else None, overrides)
