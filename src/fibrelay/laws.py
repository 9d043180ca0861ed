"""Empirical verification of the capacity and transmit-power scaling laws.

Both laws predict the asymptotic per-node slope of a log series from the
signal growth rate: the capacity series log c_n should slope to
min{0, 2*lambda} and the transmit-power series log X_n^2 to
max{0, 2*lambda}.  Slopes are fit per replica and averaged (pooled OLS
would understate the error given within-trajectory correlation), and a
report is consistent when the measured slope sits within a sigma band of
the prediction, with an absolute floor so exactly-converged deterministic
runs (replica spread zero) are judged at a sane tolerance.

Both predictions rest on one growth rate, so a verification is one pass per
replica: a single trajectory gives the replica's growth-rate value, its
capacity slope and its power slope.  The trajectories of a contiguous
range of replicas run as one batch of the cocycle engine, within its
replica-steps budget; the values do not depend on the batching or on the
worker count.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from ._parallel import map_ordered
from .cocycle import NetworkConfig, _calls, _trajectories
from .errors import ConfigError
from .lyapunov import (
    DEFAULT_BURN_IN,
    GROWTH_RATE,
    LyapunovEstimate,
    _check_counts,
    _reduce,
)

CAPACITY = "capacity"
POWER = "power"

DEFAULT_TOLERANCE_SIGMA = 3.0
DEFAULT_SLOPE_TOL = 0.01


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
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "std_err": self.std_err,
            "n_points": self.n_points,
            "burn_in": self.burn_in,
        }


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
    # plain reductions, not BLAS dot products: a 1-D `@` wakes OpenBLAS
    # threads that keep spinning after the call
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
class LawReport:
    law: str
    predicted_exponent: float
    measured: SlopeFit
    lambda_estimate: LyapunovEstimate
    verdict: str
    tolerance_sigma: float
    slope_tol: float
    replica_slopes: tuple = ()
    # the laws are read in their probabilistic (in-probability) sense
    order_notation: str = "Theta_P"

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
            "tolerance_sigma": self.tolerance_sigma,
            "slope_tol": self.slope_tol,
            "order_notation": self.order_notation,
            "replica_slopes": list(self.replica_slopes),
        }


def _capacity_series(payload):
    config, sids, period = payload
    return [metrics.log_capacity_nats(traj.log_snr)
            for traj in _trajectories(config, sids, period)]


def simulate_capacity_ensemble(config: NetworkConfig, n_steps: int, n_replicas: int,
                               *, renorm_period: int = 1, workers: int = 1) -> np.ndarray:
    """Replicas-by-nodes matrix of log c_n, for band checks."""
    if n_replicas < 1:
        raise ConfigError(f"n_replicas must be >= 1, got {n_replicas}")
    cfg = dataclasses.replace(config, n_nodes=int(n_steps))
    payloads = [(cfg, sids, renorm_period)
                for _, sids in _calls(cfg.n_nodes, n_replicas, workers)]
    return np.vstack([s for part in map_ordered(_capacity_series, payloads, workers)
                      for s in part])


def _verify_replicas(payload):
    """Growth-rate value and both slope fits of each replica in one
    contiguous range, from one trajectory each."""
    config, sids, burn, period = payload
    out = []
    for traj in _trajectories(config, sids, period):
        # the growth-rate estimator's replica value at its default burn-in
        # (log_i_sq is twice the log of the signal magnitude)
        rise = traj.log_i_sq[-1] - traj.log_i_sq[DEFAULT_BURN_IN - 1]
        lam = 0.5 * rise / (config.n_nodes - DEFAULT_BURN_IN)
        # log of the capacity via the log-domain helper: the raw capacity
        # column underflows once the SNR exponent is strongly negative
        capacity = slope_estimate(metrics.log_capacity_nats(traj.log_snr), burn)
        power = slope_estimate(traj.log_x_sq, burn)
        out.append((float(lam), capacity, power))
    return out


def _law_report(law, predicted, pred_se, fits, lam, burn, tolerance_sigma,
                slope_tol) -> LawReport:
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
    band = max(tolerance_sigma * combined, slope_tol)
    verdict = "consistent" if abs(slope - predicted) <= band else "inconsistent"
    return LawReport(
        law=law,
        predicted_exponent=predicted,
        measured=measured,
        lambda_estimate=lam,
        verdict=verdict,
        tolerance_sigma=tolerance_sigma,
        slope_tol=slope_tol,
        replica_slopes=tuple(float(s) for s in slopes),
    )


def verify_laws(config: NetworkConfig, n_steps: int, n_replicas: int,
                *, tolerance_sigma: float = DEFAULT_TOLERANCE_SIGMA,
                slope_tol: float = DEFAULT_SLOPE_TOL,
                burn_in: int | None = None, renorm_period: int = 1,
                workers: int = 1) -> tuple[LawReport, LawReport]:
    """Check both scaling laws; return the (capacity, power) reports.

    The fitted slope of log c_n is compared with min{0, 2*lambda_hat} and
    that of log X_n^2 with max{0, 2*lambda_hat}.  Each replica runs one
    trajectory, which gives its growth-rate value (as ``estimate_lambda``
    with the default burn-in) and both slopes.
    """
    n_steps = int(n_steps)
    _check_counts(n_steps, n_replicas)
    # NetworkConfig checks the gain policy covers all n_steps nodes
    cfg = dataclasses.replace(config, n_nodes=n_steps)
    burn = default_burn_in(n_steps) if burn_in is None else int(burn_in)
    _check_fit(n_steps, burn)
    payloads = [(cfg, sids, burn, renorm_period)
                for _, sids in _calls(n_steps, n_replicas, workers)]
    values, capacity, power = zip(*(
        r for part in map_ordered(_verify_replicas, payloads, workers) for r in part))
    lam = _reduce(values, n_steps, GROWTH_RATE)
    two_lam, two_se = 2.0 * lam.lambda_hat, 2.0 * lam.std_err
    common = (lam, burn, tolerance_sigma, slope_tol)
    return (
        _law_report(CAPACITY, min(0.0, two_lam), two_se if two_lam < 0.0 else 0.0,
                    capacity, *common),
        _law_report(POWER, max(0.0, two_lam), two_se if two_lam > 0.0 else 0.0,
                    power, *common),
    )


@dataclass(frozen=True)
class ThetaBandCheck:
    """Empirical in-probability band fractions at the largest simulated n."""

    upper_fraction: float
    lower_fraction: float
    n: int
    rate: float
    h_value: float


def check_theta_p(ensemble, rate: float, h_exponent: float,
                  c_h: float = 1.0) -> ThetaBandCheck:
    """Fraction of replicas inside the slack envelope rate*n +/- c_h*n^h.

    ``ensemble`` is replicas-by-nodes, in log domain.  The upper fraction
    counts replicas with final value <= rate*n + h(n); the lower fraction
    counts final value >= rate*n - h(n).  Requires h_exponent in (0, 1) so
    the envelope is sublinear.
    """
    ens = np.asarray(ensemble, dtype=float)
    if ens.ndim != 2 or ens.size == 0:
        raise ConfigError("ensemble must be a non-empty replicas-by-nodes array")
    if not 0.0 < h_exponent < 1.0:
        raise ConfigError(f"h_exponent must be in (0, 1), got {h_exponent}")
    if not c_h > 0.0:
        raise ConfigError(f"c_h must be positive, got {c_h}")
    n = ens.shape[1]
    final = ens[:, -1]
    h = c_h * float(n) ** h_exponent
    return ThetaBandCheck(
        upper_fraction=float(np.mean(final <= rate * n + h)),
        lower_fraction=float(np.mean(final >= rate * n - h)),
        n=n,
        rate=rate,
        h_value=h,
    )
