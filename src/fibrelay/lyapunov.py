"""Monte Carlo estimation of cocycle growth rates.

The top growth rate of the signal recursion is estimated from the log of
the renormalized state along the recursion's own initial vector: for
strictly positive coefficients every nonnegative nonzero start vector
realizes the top exponent.  Replicas run on independent streams and the
point estimate, standard error and confidence interval come from the
replica sample; the reduction is performed in ascending stream-id order so
results do not depend on worker count.

A burn-in prefix (default 100 nodes) is discarded from growth accounting:
the replica value is (log value[n] - log value[burn]) / (n - burn).  With
burn_in=0 nothing is subtracted and the value is the bare growth-rate
formula (1/n) * log value[n], source magnitude included.  Every estimate
(growth rate, tail ratio, signed validation, noise exponent) is this value
on one cocycle, computed by one worker that takes a contiguous range of
stream ids and runs it as one batch of the cocycle engine (ranges are
split so no call exceeds the engine's replica-steps budget, and there is
at least one range per worker).  A replica's value is the same in any
batch and for any worker count.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import map_ordered
from .coeffs import CoefficientModel, Deterministic, GainPolicy, RngStream
from .cocycle import NOISE, SIGNAL, SIGNED, NetworkConfig, _batches, logs_at
from .errors import ConfigError, NumericalError, ValidationOnlyModelError

logger = logging.getLogger("fibrelay")

GROWTH_RATE = "growth_rate"
TAIL_RATIO = "tail_ratio"

Z95 = 1.96
DEFAULT_BURN_IN = 100
MIN_GROWTH_STEPS = 1000

# offset for restarted replicas keeps their stream ids disjoint from all
# ordinary replica ids
_RESTART_STRIDE = 1 << 48
_MAX_RESTARTS = 8


@dataclass(frozen=True)
class LyapunovEstimate:
    """Replica-averaged growth-rate estimate with normal-theory CI."""

    lambda_hat: float
    std_err: float
    n_steps: int
    n_replicas: int
    ci95_lo: float
    ci95_hi: float
    estimator_kind: str
    replica_values: tuple = ()

    def to_report(self, model_spec: str, gain_spec: str, master_seed: int) -> dict:
        return {
            "lambda_hat": self.lambda_hat,
            "std_err": self.std_err,
            "ci95": [self.ci95_lo, self.ci95_hi],
            "n_steps": self.n_steps,
            "n_replicas": self.n_replicas,
            "estimator_kind": self.estimator_kind,
            "master_seed": master_seed,
            "model_spec": model_spec,
            "gain_spec": gain_spec,
        }


def _reduce(values, n_steps, kind) -> LyapunovEstimate:
    arr = np.asarray(values, dtype=float)
    lam = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return LyapunovEstimate(
        lambda_hat=lam,
        std_err=se,
        n_steps=n_steps,
        n_replicas=len(arr),
        ci95_lo=lam - Z95 * se,
        ci95_hi=lam + Z95 * se,
        estimator_kind=kind,
        replica_values=tuple(float(v) for v in arr),
    )


# ---------------------------------------------------------------------------
# the replica worker (module-level so it pickles for process pools)
# ---------------------------------------------------------------------------


def _check_counts(n_steps, n_replicas, what=GROWTH_RATE, minimum=MIN_GROWTH_STEPS):
    """The replica-count and run-length checks every estimator shares."""
    if n_replicas < 1:
        raise ConfigError(f"n_replicas must be >= 1, got {n_replicas}")
    if n_steps < minimum:
        raise ConfigError(f"{what} needs n_steps >= {minimum}, got {n_steps}")


def _rate_replicas(payload):
    """Rates (log value[n] - log value[burn]) / (n - burn) of one
    contiguous range of replicas, run as one engine batch."""
    kind, model, gains, n, seed, sids, burn, i0, n0, period = payload
    # burn_in = 0 is the bare formula (1/n) * log value[n], source factor kept
    checkpoints = (n,) if burn == 0 else (burn, n)

    def rates(stream_ids):
        logs = logs_at(kind, model, gains, [RngStream(seed, s) for s in stream_ids],
                       checkpoints, i0=i0, n0=n0, renorm_period=period)
        with np.errstate(invalid="ignore"):  # -inf - -inf marks a restart too
            return ((logs[n] - (0.0 if burn == 0 else logs[burn])) / (n - burn)).tolist()

    values = rates(sids)
    # only the signed recursion reads -inf (an exact zero); the other
    # cocycles raise NumericalError instead.  Such a replica reruns alone.
    for q, sid in enumerate(sids):
        attempt = 0
        while not math.isfinite(values[q]):
            if attempt == _MAX_RESTARTS:
                raise NumericalError(
                    f"replica {sid}: exactly-zero values persist after "
                    f"{_MAX_RESTARTS} restarts")
            attempt += 1
            logger.warning(
                "replica %d hit an exactly-zero value at a checkpoint; restarting "
                "with offset stream (attempt %d)", sid, attempt)
            [values[q]] = rates([sid + attempt * _RESTART_STRIDE])
    return values


def _estimate(kind, model, gains, n_steps, n_replicas, seed, burn, estimator_kind,
              *, i0=1.0, n0=1.0, renorm_period=1, workers=1) -> LyapunovEstimate:
    payloads = [(kind, model, gains, n_steps, seed, sids, burn, i0, n0, renorm_period)
                for sids in _batches(n_steps, n_replicas, workers)]
    values = [v for part in map_ordered(_rate_replicas, payloads, workers) for v in part]
    return _reduce(values, n_steps, estimator_kind)


# ---------------------------------------------------------------------------
# public estimators
# ---------------------------------------------------------------------------


def estimate_lambda(model: CoefficientModel, gains: GainPolicy, n_steps: int,
                    n_replicas: int, master_seed: int, kind: str = GROWTH_RATE,
                    *, burn_in: int | None = None, i0: float = 1.0,
                    validation: bool = False, renorm_period: int = 1,
                    workers: int = 1) -> LyapunovEstimate:
    """Estimate the top growth rate of the signal recursion.

    ``growth_rate`` averages (log value[n] - log value[burn]) / (n - burn)
    over replicas.  ``tail_ratio`` is the same value with burn = floor(n/2),
    the per-step log ratio over the last ceil(n/2) steps; it is restricted
    to deterministic models, where convergence is exponential.  Signed
    validation models are accepted only with ``validation=True``
    (growth_rate kind, signed arithmetic on log |value|); a replica whose
    checkpoint lands on an exact zero is restarted on an offset stream with
    a logged warning.
    """
    if kind not in (GROWTH_RATE, TAIL_RATIO):
        raise ConfigError(f"unknown estimator kind {kind!r}")
    if model.validation_only and not validation:
        raise ValidationOnlyModelError(
            "validation-only model requires validation=True")
    gains.require_length(n_steps)
    if kind == TAIL_RATIO:
        if not isinstance(model, Deterministic):
            raise ConfigError("tail_ratio is restricted to deterministic models")
        _check_counts(n_steps, n_replicas, TAIL_RATIO, minimum=4)
        burn = n_steps // 2
    else:
        _check_counts(n_steps, n_replicas)
        burn = DEFAULT_BURN_IN if burn_in is None else int(burn_in)
        if not 0 <= burn < n_steps:
            raise ConfigError(f"burn_in must be in [0, n_steps), got {burn}")
    cocycle = SIGNED if model.validation_only else SIGNAL
    return _estimate(cocycle, model, gains, n_steps, n_replicas, master_seed, burn, kind,
                     i0=i0, renorm_period=renorm_period, workers=workers)


def estimate_noise_exponent(config: NetworkConfig, n_steps: int, n_replicas: int,
                            *, burn_in: int | None = None, renorm_period: int = 1,
                            workers: int = 1) -> LyapunovEstimate:
    """Estimate the growth rate of the accumulated noise power.

    Averages (log noise[n] - log noise[burn]) / (n - burn) over replicas of
    the 3x3 cocycle.  Requires a positive noise floor (the zero-noise
    trajectory has no growth rate).
    """
    if not (config.n0 > 0.0):
        raise ConfigError("noise exponent undefined for n0 = 0")
    _check_counts(n_steps, n_replicas, "noise exponent")
    config.gains.require_length(n_steps)
    burn = DEFAULT_BURN_IN if burn_in is None else int(burn_in)
    if not 1 <= burn < n_steps:
        raise ConfigError(f"burn_in must be in [1, n_steps), got {burn}")
    return _estimate(NOISE, config.model, config.gains, n_steps, n_replicas,
                     config.master_seed, burn, GROWTH_RATE, n0=config.n0,
                     renorm_period=renorm_period, workers=workers)


def lambda_deterministic_closed_form(c: float, g: float) -> float:
    """Closed-form growth rate for a constant coefficient c*g.

    Log of the dominant root of x**2 = cg*x + cg; the test oracle for
    every deterministic configuration.
    """
    if not (c > 0.0 and g > 0.0):
        raise ConfigError("c and g must be positive")
    cg = c * g
    return math.log((cg + math.sqrt(cg * cg + 4.0 * cg)) / 2.0)
