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
formula (1/n) * log value[n], source magnitude included; burn_in = n // 2
gives the per-step log ratio over the last ceil(n/2) steps.  Every estimate
(growth rate, signed validation, noise exponent) is this value on one
cocycle, computed by one worker that takes a contiguous range of stream
ids and runs it as one batch of the cocycle engine (ranges are split so
no call exceeds the engine's lane budget, and there is at least one range
per worker).  ``estimate_lambdas`` estimates several gain policies at
once: their replicas run as extra columns of the same engine calls, so
each stream is drawn once for all of them, and each gain's estimate is
the one ``estimate_lambda`` gives for it alone.  A replica's value is the
same in any batch, next to any gains and for any worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import map_ordered
from .coeffs import CoefficientModel, GainPolicy, RngStream
from .cocycle import NOISE, SIGNAL, SIGNED, NetworkConfig, _calls, logs_at
from .errors import ConfigError, ValidationOnlyModelError

# the estimator label in every report
GROWTH_RATE = "growth_rate"

Z95 = 1.96
DEFAULT_BURN_IN = 100
MIN_GROWTH_STEPS = 1000


@dataclass(frozen=True)
class LyapunovEstimate:
    """Replica-averaged growth-rate estimate with normal-theory CI."""

    lambda_hat: float
    std_err: float
    n_steps: int
    n_replicas: int
    ci95_lo: float
    ci95_hi: float
    replica_values: tuple = ()

    def to_report(self, model_spec: str, gain_spec: str, master_seed: int) -> dict:
        return {
            "lambda_hat": self.lambda_hat,
            "std_err": self.std_err,
            "ci95": [self.ci95_lo, self.ci95_hi],
            "n_steps": self.n_steps,
            "n_replicas": self.n_replicas,
            "estimator_kind": GROWTH_RATE,
            "master_seed": master_seed,
            "model_spec": model_spec,
            "gain_spec": gain_spec,
        }


def _reduce(values, n_steps) -> LyapunovEstimate:
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
        replica_values=tuple(float(v) for v in arr),
    )


def _check_counts(n_steps, n_replicas, what=GROWTH_RATE):
    """The replica-count and run-length checks every estimator shares."""
    if n_replicas < 1:
        raise ConfigError(f"n_replicas must be >= 1, got {n_replicas}")
    if n_steps < MIN_GROWTH_STEPS:
        raise ConfigError(f"{what} needs n_steps >= {MIN_GROWTH_STEPS}, got {n_steps}")


def _check_burn(n_steps, burn, low=0):
    if not low <= burn < n_steps:
        raise ConfigError(f"burn_in must be in [{low}, n_steps), got {burn}")


def _estimate(kind, model, gains, n_steps, n_replicas, seed, burn, *, i0=1.0, n0=1.0,
              workers=1) -> list:
    """One estimate per gain policy in ``gains``, from one engine pass per
    group of gains that fits the lane budget.

    A replica's value is (log value[n] - log value[burn]) / (n - burn).
    Every read is finite: a state that leaves double range raises
    NumericalError, and the signed kind reads the state's norm, which is
    never zero.
    """
    # burn_in = 0 is the bare formula (1/n) * log value[n], source factor kept
    checkpoints = (n_steps,) if burn == 0 else (burn, n_steps)

    def rates(call):
        """The rates of one call's replicas, one list per gain of the call."""
        group, sids = call
        logs = logs_at(kind, model, [gains[i] for i in group],
                       [RngStream(seed, s) for s in sids], checkpoints, i0=i0, n0=n0)
        rate = (logs[n_steps] - (0.0 if burn == 0 else logs[burn])) / (n_steps - burn)
        return rate.reshape(len(group), -1).tolist()

    calls = _calls(n_steps, n_replicas, workers, len(gains))
    values = [[] for _ in gains]
    for (group, _), part in zip(calls, map_ordered(rates, calls, workers)):
        for i, per_gain in zip(group, part):
            values[i] += per_gain
    return [_reduce(v, n_steps) for v in values]


# ---------------------------------------------------------------------------
# public estimators
# ---------------------------------------------------------------------------


def estimate_lambda(model: CoefficientModel, gains: GainPolicy, n_steps: int,
                    n_replicas: int, master_seed: int, **options) -> LyapunovEstimate:
    """Estimate the top growth rate of the signal recursion under one gain
    policy: ``estimate_lambdas`` with one policy."""
    [est] = estimate_lambdas(model, (gains,), n_steps, n_replicas, master_seed, **options)
    return est


def estimate_lambdas(model: CoefficientModel, gains, n_steps: int, n_replicas: int,
                     master_seed: int, *, burn_in: int | None = None, i0: float = 1.0,
                     validation: bool = False, workers: int = 1) -> list:
    """Estimate the top growth rate of the signal recursion under each gain
    policy of ``gains``, on the same streams (common random numbers).

    Every stream is drawn once per engine pass for all the policies; a pass
    holds as many policies as the engine's lane budget allows.  Each
    policy's estimate is bit for bit the one it gets alone.

    The estimate averages (log value[n] - log value[burn]) / (n - burn)
    over replicas.  Signed validation models are accepted only with
    ``validation=True`` (signed arithmetic), and their value is read through
    the log of the state's max-norm, log max(|value[n-1]|, |value[n]|),
    whose growth rate is the same top exponent and which is never -inf.
    """
    if model.validation_only and not validation:
        raise ValidationOnlyModelError(
            "validation-only model requires validation=True")
    if not gains:
        raise ConfigError("estimate_lambdas needs at least one gain policy")
    for policy in gains:
        policy.require_length(n_steps)
    _check_counts(n_steps, n_replicas)
    burn = DEFAULT_BURN_IN if burn_in is None else int(burn_in)
    _check_burn(n_steps, burn)
    cocycle = SIGNED if model.validation_only else SIGNAL
    return _estimate(cocycle, model, gains, n_steps, n_replicas, master_seed, burn, i0=i0,
                     workers=workers)


def estimate_noise_exponent(config: NetworkConfig, n_steps: int, n_replicas: int,
                            *, burn_in: int | None = None,
                            workers: int = 1) -> LyapunovEstimate:
    """Estimate the growth rate of the accumulated noise power.

    Averages (log noise[n] - log noise[burn]) / (n - burn) over replicas of
    the 3x3 cocycle.  The noise floor is positive (``NetworkConfig``
    checks it): the zero-noise trajectory has no growth rate.
    """
    _check_counts(n_steps, n_replicas, "noise exponent")
    config.gains.require_length(n_steps)
    burn = DEFAULT_BURN_IN if burn_in is None else int(burn_in)
    _check_burn(n_steps, burn, 1)
    [est] = _estimate(NOISE, config.model, (config.gains,), n_steps, n_replicas,
                      config.master_seed, burn, n0=config.n0, workers=workers)
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
