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
split so no call exceeds the engine's lane budget, and there is at least
one range per worker).  ``estimate_lambdas`` estimates several gain
policies at once: their replicas run as extra columns of the same engine
calls, so each stream is drawn once for all of them, and each gain's
estimate is the one ``estimate_lambda`` gives for it alone.  A replica's
value is the same in any batch, next to any gains and for any worker
count.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import map_ordered
from .coeffs import CoefficientModel, Deterministic, GainPolicy, RngStream
from .cocycle import NOISE, SIGNAL, SIGNED, NetworkConfig, _calls, logs_at
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
    contiguous range of replicas under each of a few gain policies, run as
    one engine batch; one list per policy."""
    kind, model, gains, n, seed, sids, burn, i0, n0, period = payload
    # burn_in = 0 is the bare formula (1/n) * log value[n], source factor kept
    checkpoints = (n,) if burn == 0 else (burn, n)

    def rates(stream_ids, policies):
        logs = logs_at(kind, model, policies, [RngStream(seed, s) for s in stream_ids],
                       checkpoints, i0=i0, n0=n0, renorm_period=period)
        with np.errstate(invalid="ignore"):  # -inf - -inf marks a restart too
            rate = (logs[n] - (0.0 if burn == 0 else logs[burn])) / (n - burn)
        return rate.reshape(len(policies), -1).tolist()

    values = rates(sids, gains)
    # only the signed recursion reads -inf (an exact zero); the other
    # cocycles raise NumericalError instead.  Such a replica reruns alone,
    # under that gain only.
    for policy, per_gain in zip(gains, values):
        for q, sid in enumerate(sids):
            attempt = 0
            while not math.isfinite(per_gain[q]):
                if attempt == _MAX_RESTARTS:
                    raise NumericalError(
                        f"replica {sid}: exactly-zero values persist after "
                        f"{_MAX_RESTARTS} restarts")
                attempt += 1
                logger.warning(
                    "replica %d hit an exactly-zero value at a checkpoint; restarting "
                    "with offset stream (attempt %d)", sid, attempt)
                [[per_gain[q]]] = rates([sid + attempt * _RESTART_STRIDE], (policy,))
    return values


def _estimate(kind, model, gains, n_steps, n_replicas, seed, burn, estimator_kind,
              *, i0=1.0, n0=1.0, renorm_period=1, workers=1) -> list:
    """One estimate per gain policy in ``gains``, from one engine pass per
    group of gains that fits the lane budget."""
    calls = _calls(n_steps, n_replicas, workers, len(gains))
    payloads = [(kind, model, tuple(gains[i] for i in group), n_steps, seed, sids, burn,
                 i0, n0, renorm_period) for group, sids in calls]
    values = [[] for _ in gains]
    for (group, _), part in zip(calls, map_ordered(_rate_replicas, payloads, workers)):
        for i, per_gain in zip(group, part):
            values[i] += per_gain
    return [_reduce(v, n_steps, estimator_kind) for v in values]


# ---------------------------------------------------------------------------
# public estimators
# ---------------------------------------------------------------------------


def estimate_lambda(model: CoefficientModel, gains: GainPolicy, n_steps: int,
                    n_replicas: int, master_seed: int, kind: str = GROWTH_RATE,
                    **options) -> LyapunovEstimate:
    """Estimate the top growth rate of the signal recursion under one gain
    policy: ``estimate_lambdas`` with one policy."""
    [est] = estimate_lambdas(model, (gains,), n_steps, n_replicas, master_seed, kind,
                             **options)
    return est


def estimate_lambdas(model: CoefficientModel, gains, n_steps: int, n_replicas: int,
                     master_seed: int, kind: str = GROWTH_RATE, *,
                     burn_in: int | None = None, i0: float = 1.0,
                     validation: bool = False, renorm_period: int = 1,
                     workers: int = 1) -> list:
    """Estimate the top growth rate of the signal recursion under each gain
    policy of ``gains``, on the same streams (common random numbers).

    Every stream is drawn once per engine pass for all the policies; a pass
    holds as many policies as the engine's lane budget allows.  Each
    policy's estimate is bit for bit the one it gets alone.

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
    if not gains:
        raise ConfigError("estimate_lambdas needs at least one gain policy")
    for policy in gains:
        policy.require_length(n_steps)
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
    the 3x3 cocycle.  The noise floor is positive (``NetworkConfig``
    checks it): the zero-noise trajectory has no growth rate.
    """
    _check_counts(n_steps, n_replicas, "noise exponent")
    config.gains.require_length(n_steps)
    burn = DEFAULT_BURN_IN if burn_in is None else int(burn_in)
    if not 1 <= burn < n_steps:
        raise ConfigError(f"burn_in must be in [1, n_steps), got {burn}")
    [est] = _estimate(NOISE, config.model, (config.gains,), n_steps, n_replicas,
                      config.master_seed, burn, GROWTH_RATE, n0=config.n0,
                      renorm_period=renorm_period, workers=workers)
    return est


def lambda_deterministic_closed_form(c: float, g: float) -> float:
    """Closed-form growth rate for a constant coefficient c*g.

    Log of the dominant root of x**2 = cg*x + cg; the test oracle for
    every deterministic configuration.
    """
    if not (c > 0.0 and g > 0.0):
        raise ConfigError("c and g must be positive")
    cg = c * g
    return math.log((cg + math.sqrt(cg * cg + 4.0 * cg)) / 2.0)
