"""Configuration ingestion for the command-line tool.

Accepted sources, in increasing precedence: built-in defaults, a config
file, command-line flags.  The file format is flat ``key = value`` text
with dotted section prefixes (diff-friendly), e.g.::

    # network
    network.model = rayleigh:mu=1.0
    network.gain = 0.5
    network.n0 = 1.0
    run.n = 10000
    run.seed = 20260809

JSON is accepted as an alternative encoding (either the same flat keys or
one nesting level: ``{"network": {"model": ...}}``).  A run manifest is
also accepted: its ``config_echo`` is used directly, which is how a run is
reproduced from its manifest.
"""
from __future__ import annotations

import json
import math
import os
import secrets
from dataclasses import dataclass

from .coeffs import CoefficientModel, ConstantGain, GainPolicy, parse_gains, parse_model
from .cocycle import NetworkConfig
from .errors import ConfigError
from .laws import DEFAULT_SLOPE_TOL, DEFAULT_TOLERANCE_SIGMA, default_burn_in
from .lyapunov import DEFAULT_BURN_IN, GROWTH_RATE, TAIL_RATIO

COMMANDS = ("lyapunov", "simulate", "calibrate", "verify", "sweep")

DEFAULT_SEED = 20260809

# the worker count when run.workers is not given
_ENV_WORKERS = "FIBRELAY_WORKERS"

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")

_GENERAL_KEYS = ("network.model", "network.gain", "network.gains", "network.n0",
                 "network.i0", "run.n", "run.replicas", "run.seed",
                 "run.burn_in", "run.renorm_period", "run.workers")
_COMMAND_KEYS = {
    "lyapunov": ("lyapunov.kind", "lyapunov.validation"),
    "simulate": ("simulate.trajectories",),
    "calibrate": ("calibrate.tol", "calibrate.g_init", "calibrate.max_doublings"),
    "verify": ("verify.tolerance_sigma", "verify.slope_tol"),
    "sweep": ("sweep.gain_grid",),
}
_ALL_KEYS = _GENERAL_KEYS + tuple(k for ks in _COMMAND_KEYS.values() for k in ks)


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


def _workers(merged) -> int:
    """run.workers, else the environment variable, else 1; a bad value is
    named by where it came from."""
    if "run.workers" in merged:
        return _positive_int("run.workers", merged["run.workers"])
    # an empty variable counts as unset
    return _positive_int(_ENV_WORKERS, os.environ.get(_ENV_WORKERS) or 1)


@dataclass(frozen=True)
class RunParams:
    """Fully resolved parameters for one command invocation."""

    command: str
    model: CoefficientModel
    gains: GainPolicy
    n0: float
    i0: float
    n: int
    replicas: int
    seed: int
    burn_in: int
    renorm_period: int
    workers: int
    kind: str = GROWTH_RATE
    validation: bool = False
    trajectories: int = 1
    tol: float = 1e-3
    g_init: float = 1.0
    max_doublings: int = 60
    tolerance_sigma: float = DEFAULT_TOLERANCE_SIGMA
    slope_tol: float = DEFAULT_SLOPE_TOL
    gain_grid: tuple = ()

    def network_config(self, n_nodes=None) -> NetworkConfig:
        return NetworkConfig(model=self.model, gains=self.gains, n0=self.n0,
                             i0=self.i0, n_nodes=n_nodes or self.n,
                             master_seed=self.seed)

    def echo(self) -> dict:
        """Dotted-key view of everything that determines the outputs.

        Worker count and output paths are execution details and are
        excluded; results are identical for any worker count.
        """
        out = {
            "command": self.command,
            "network.model": self.model.spec_string(),
            "network.gains": self.gains.spec_string(),
            "network.n0": self.n0,
            "network.i0": self.i0,
            "run.n": self.n,
            "run.replicas": self.replicas,
            "run.seed": self.seed,
            "run.burn_in": self.burn_in,
            "run.renorm_period": self.renorm_period,
        }
        for key in _COMMAND_KEYS[self.command]:
            value = getattr(self, key.partition(".")[2])
            if key == "sweep.gain_grid":
                value = ",".join(f"{g:.17g}" for g in value)
            out[key] = value
        return out


def _flatten(obj) -> dict:
    flat = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                flat[f"{key}.{sub}"] = v
        else:
            flat[str(key)] = value
    return flat


def read_config_file(path) -> dict:
    """Read a flat KV file, a JSON config, or a run manifest."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        if "config_echo" in obj:
            obj = obj["config_echo"]
        flat = _flatten(obj)
        flat.pop("command", None)
        return flat
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
            if key not in _ALL_KEYS:
                raise ConfigError(f"unknown configuration key {key!r}")
            if value is not None:
                merged[key] = value

    if "network.model" not in merged:
        raise ConfigError("network.model is required")
    model = merged["network.model"]
    if isinstance(model, str):
        model = parse_model(model)
    elif not isinstance(model, CoefficientModel):
        raise ConfigError(f"network.model: expected a model spec string, got {model!r}")

    if "network.gains" in merged and "network.gain" in merged:
        raise ConfigError("network.gain and network.gains are mutually exclusive")
    if "network.gains" in merged:
        gains = merged["network.gains"]
        if isinstance(gains, str):
            gains = parse_gains(gains if ":" in gains else "pernode:g=" + gains)
        elif not isinstance(gains, GainPolicy):
            raise ConfigError(f"network.gains: expected a gain spec string, got {gains!r}")
    elif "network.gain" in merged:
        gains = ConstantGain(_positive_float("network.gain", merged["network.gain"]))
    else:
        gains = ConstantGain(1.0)

    n = _positive_int("run.n", merged.get("run.n", 10_000), minimum=2)

    seed = merged.get("run.seed", DEFAULT_SEED)
    if isinstance(seed, str) and seed.strip().lower() == "auto":
        seed = secrets.randbits(63)
    else:
        seed = _integer("run.seed", seed, "an integer or 'auto'")

    burn = merged.get("run.burn_in", "auto")
    if isinstance(burn, str) and burn.strip().lower() == "auto":
        burn = default_burn_in(n) if command == "verify" else min(DEFAULT_BURN_IN, n // 2)
    else:
        burn = _positive_int("run.burn_in", burn, minimum=0)

    kind = str(merged.get("lyapunov.kind", GROWTH_RATE))
    if kind not in (GROWTH_RATE, TAIL_RATIO):
        raise ConfigError(f"lyapunov.kind: must be {GROWTH_RATE} or {TAIL_RATIO}, got {kind!r}")

    validation = _boolean("lyapunov.validation", merged.get("lyapunov.validation", False))

    grid_raw = merged.get("sweep.gain_grid", "")
    if isinstance(grid_raw, str):
        grid_raw = [v for v in grid_raw.split(",") if v.strip()]
    elif not isinstance(grid_raw, (list, tuple)):
        raise ConfigError(f"sweep.gain_grid: malformed grid {grid_raw!r}")
    gain_grid = tuple(_positive_float("sweep.gain_grid", v) for v in grid_raw)
    if command == "sweep" and not gain_grid:
        raise ConfigError("sweep.gain_grid is required for the sweep command")

    return RunParams(
        command=command,
        model=model,
        gains=gains,
        n0=_positive_float("network.n0", merged.get("network.n0", 1.0)),
        i0=_positive_float("network.i0", merged.get("network.i0", 1.0)),
        n=n,
        replicas=_positive_int("run.replicas", merged.get("run.replicas", 32)),
        seed=seed,
        burn_in=burn,
        renorm_period=_positive_int("run.renorm_period",
                                    merged.get("run.renorm_period", 1)),
        workers=_workers(merged),
        kind=kind,
        validation=validation,
        trajectories=_positive_int("simulate.trajectories",
                                   merged.get("simulate.trajectories", 1)),
        tol=_positive_float("calibrate.tol", merged.get("calibrate.tol", 1e-3)),
        g_init=_positive_float("calibrate.g_init", merged.get("calibrate.g_init", 1.0)),
        max_doublings=_positive_int("calibrate.max_doublings",
                                    merged.get("calibrate.max_doublings", 60)),
        tolerance_sigma=_positive_float("verify.tolerance_sigma",
                                        merged.get("verify.tolerance_sigma",
                                                   DEFAULT_TOLERANCE_SIGMA)),
        slope_tol=_positive_float("verify.slope_tol",
                                  merged.get("verify.slope_tol", DEFAULT_SLOPE_TOL)),
        gain_grid=gain_grid,
    )


def parse_config(command: str, path=None, overrides: dict | None = None) -> RunParams:
    """File plus flag ingestion; flags override file values."""
    file_values = read_config_file(path) if path else None
    return resolve(command, file_values, overrides)
