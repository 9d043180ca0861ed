"""Empirical verification of the capacity and transmit-power scaling laws.

Both laws predict the asymptotic per-node slope of a log series from the
signal growth rate: the capacity series log c_n should slope to
min{0, 2*lambda} and the transmit-power series log X_n^2 to
max{0, 2*lambda}.  Slopes are fit per replica and averaged (pooled OLS
would understate the error given within-trajectory correlation), and a
report is consistent when the measured slope sits within
``TOLERANCE_SIGMA`` combined standard errors of the prediction, with an
absolute floor ``SLOPE_TOL`` so exactly-converged deterministic runs
(replica spread zero) are judged at a sane tolerance.

Both predictions rest on one growth rate, so a verification is one pass per
replica: a single trajectory gives the replica's growth-rate value, its
capacity slope and its power slope, and the final values of both series,
from which each report's in-probability band is read.  The trajectories of
a contiguous range of replicas run as one batch of the cocycle engine,
within its replica-steps budget; the values do not depend on the batching
or on the worker count.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from ._parallel import map_ordered
from .cocycle import NetworkConfig, _calls, _node_logs
from .errors import ConfigError
from .lyapunov import DEFAULT_BURN_IN, LyapunovEstimate, _check_counts, _reduce

CAPACITY = "capacity"
POWER = "power"

# the verdict band: this many combined standard errors, at least SLOPE_TOL
TOLERANCE_SIGMA = 3.0
SLOPE_TOL = 0.01
# the Theta_P band: a final value within n**H_EXPONENT of rate * n
H_EXPONENT = 0.75


def default_burn_in(n: int) -> int:
    """Transient discard for slope fits: max(100, 5% of the series)."""
    return max(100, int(0.05 * n))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    std_err: float
    n_points: int
    burn_in: int

    def to_report(self) -> dict:
        return dataclasses.asdict(self)


def _check_fit(n: int, burn_in: int) -> None:
    if burn_in < 0:
        raise ConfigError(f"burn_in must be >= 0, got {burn_in}")
    if n <= burn_in + 10:
        raise ConfigError(
            f"series too short for a slope fit: {n} points, burn_in {burn_in}")


def slope_estimate(series, burn_in: int) -> SlopeFit:
    """Ordinary least squares of a per-node series against the node index.

    Fits over node indices strictly greater than ``burn_in``; needs at
    least 10 points after the burn-in.
    """
    y = np.asarray(series, dtype=float)
    n = len(y)
    _check_fit(n, burn_in)
    # plain reductions, not BLAS dot products: numpy's pairwise sums fix
    # the summation order, and with it verify's output bytes
    x = np.arange(burn_in + 1, n + 1, dtype=float)
    y = y[burn_in:]
    m = len(x)
    xm = 0.5 * (burn_in + 1 + n)
    ym = y.mean()
    dx = x - xm
    sxx = m * (m * m - 1) / 12.0  # sum of squared deviations of m consecutive integers
    slope = float(np.sum(dx * (y - ym))) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    rss = float(np.sum(resid * resid))
    var = max(rss, 0.0) / (m - 2)
    return SlopeFit(
        slope=slope,
        intercept=intercept,
        std_err=math.sqrt(var / sxx),
        n_points=m,
        burn_in=burn_in,
    )


@dataclass(frozen=True)
class ThetaBandCheck:
    """Empirical in-probability band fractions at the largest simulated n."""

    upper_fraction: float
    lower_fraction: float
    n: int
    rate: float
    h_value: float


def check_theta_p(finals, rate: float, n: int) -> ThetaBandCheck:
    """Fraction of replicas inside the slack envelope rate*n +/- n^H_EXPONENT.

    ``finals`` holds each replica's log-domain value at node ``n``.  The
    upper fraction counts replicas with final value <= rate*n + h(n); the
    lower fraction counts final value >= rate*n - h(n).
    """
    final = np.asarray(finals, dtype=float)
    if final.ndim != 1 or final.size == 0:
        raise ConfigError("finals must be a non-empty 1-D array, one value per replica")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    h = float(n) ** H_EXPONENT
    return ThetaBandCheck(
        upper_fraction=float(np.mean(final <= rate * n + h)),
        lower_fraction=float(np.mean(final >= rate * n - h)),
        n=n,
        rate=rate,
        h_value=h,
    )


@dataclass(frozen=True)
class LawReport:
    law: str
    predicted_exponent: float
    measured: SlopeFit
    lambda_estimate: LyapunovEstimate
    verdict: str
    replica_slopes: tuple
    replica_finals: tuple
    band: ThetaBandCheck

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"

    def to_report(self, model_spec: str, gain_spec: str, master_seed: int) -> dict:
        return {
            "law": self.law,
            "predicted_exponent": self.predicted_exponent,
            "measured": self.measured.to_report(),
            "lambda_estimate": self.lambda_estimate.to_report(
                model_spec, gain_spec, master_seed),
            "verdict": self.verdict,
            "tolerance_sigma": TOLERANCE_SIGMA,
            "slope_tol": SLOPE_TOL,
            # the laws are read in their probabilistic (in-probability) sense
            "order_notation": "Theta_P",
            "replica_slopes": list(self.replica_slopes),
            "theta_p_band": {**dataclasses.asdict(self.band), "h_exponent": H_EXPONENT},
        }


def _verify_replicas(config: NetworkConfig, sids, burn: int) -> list:
    """Growth-rate value and, for each law, the slope fit and the final
    value of its series, of each replica in one contiguous range, from one
    trajectory each."""
    out = []
    # only the trajectory columns the fits read, from the same engine pass
    for log_i, log_n2 in zip(*_node_logs(config, sids)):
        log_i_sq = 2.0 * log_i
        # the growth-rate estimator's replica value at its default burn-in
        # (log_i_sq is twice the log of the signal magnitude)
        rise = log_i_sq[-1] - log_i_sq[DEFAULT_BURN_IN - 1]
        lam = 0.5 * rise / (config.n_nodes - DEFAULT_BURN_IN)
        # log of the capacity via the log-domain helper: the raw capacity
        # column underflows once the SNR exponent is strongly negative
        capacity = metrics.log_capacity_nats(metrics.snr_log(log_i_sq, log_n2))
        power = metrics.transmit_power_log(log_i_sq, log_n2)
        out.append((float(lam), (slope_estimate(capacity, burn), float(capacity[-1])),
                    (slope_estimate(power, burn), float(power[-1]))))
    return out


def _law_report(law, predicted, pred_se, series, lam, burn) -> LawReport:
    """One law's report from the (slope fit, final value) of each replica."""
    fits, finals = zip(*series)
    slopes = np.array([f.slope for f in fits])
    slope = float(slopes.mean())
    slope_se = float(slopes.std(ddof=1) / math.sqrt(len(slopes))) if len(slopes) > 1 else 0.0
    measured = SlopeFit(
        slope=slope,
        intercept=float(np.mean([f.intercept for f in fits])),
        std_err=slope_se,
        n_points=fits[0].n_points,
        burn_in=burn,
    )
    combined = math.hypot(slope_se, pred_se)
    tolerance = max(TOLERANCE_SIGMA * combined, SLOPE_TOL)
    verdict = "consistent" if abs(slope - predicted) <= tolerance else "inconsistent"
    return LawReport(
        law=law,
        predicted_exponent=predicted,
        measured=measured,
        lambda_estimate=lam,
        verdict=verdict,
        replica_slopes=tuple(float(s) for s in slopes),
        replica_finals=finals,
        band=check_theta_p(finals, predicted, lam.n_steps),
    )


def verify_laws(config: NetworkConfig, n_steps: int, n_replicas: int, *,
                burn_in: int | None = None, workers: int = 1) -> tuple[LawReport, LawReport]:
    """Check both scaling laws; return the (capacity, power) reports.

    The fitted slope of log c_n is compared with min{0, 2*lambda_hat} and
    that of log X_n^2 with max{0, 2*lambda_hat}; a slope is consistent
    within max(3 combined standard errors, 0.01) of its prediction.  Each
    report also carries its law's in-probability band (``check_theta_p``):
    the fractions of replicas whose series ends at node n within n^0.75 of
    the predicted exponent times n.  Each replica runs one trajectory,
    which gives its growth-rate value (as ``estimate_lambda`` with the
    default burn-in), both slopes and both final values.
    """
    n_steps = int(n_steps)
    _check_counts(n_steps, n_replicas)
    # NetworkConfig checks the gain policy covers all n_steps nodes
    cfg = dataclasses.replace(config, n_nodes=n_steps)
    burn = default_burn_in(n_steps) if burn_in is None else int(burn_in)
    _check_fit(n_steps, burn)
    parts = map_ordered(lambda call: _verify_replicas(cfg, call[1], burn),
                        _calls(n_steps, n_replicas, workers), workers)
    values, capacity, power = zip(*(r for part in parts for r in part))
    lam = _reduce(values, n_steps)
    two_lam, two_se = 2.0 * lam.lambda_hat, 2.0 * lam.std_err
    return (
        _law_report(CAPACITY, min(0.0, two_lam), two_se if two_lam < 0.0 else 0.0,
                    capacity, lam, burn),
        _law_report(POWER, max(0.0, two_lam), two_se if two_lam > 0.0 else 0.0,
                    power, lam, burn),
    )
