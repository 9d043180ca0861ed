"""Zero-growth gain calibration.

Finds the constant amplification gain at which the signal recursion's
growth rate is zero, the operating point with neither exponential capacity
decay nor exponential transmit-power growth.  All growth-rate evaluations
during one calibration reuse identical random streams (common random
numbers): every coefficient is magnitude * gain with the magnitudes fixed
per stream, so the estimated rate is a deterministic, strictly increasing
function of the gain and a plain bisection converges.

One calibration is a geometric bracket expansion from ``g_init`` (halving
the low edge until its rate is clearly negative, then doubling the high
edge until its rate is clearly positive, two standard errors clear of
zero), a bisection of that bracket and a confirmation run on fresh
streams.  The budget is fixed: at most 200 growth-rate evaluations, with
``n_steps`` doubled, while the replica CI is too wide to resolve the
bracket, up to 8 times the requested count.

Gains are estimated in passes of three, one engine pass each with every
stream drawn once: a gain the search asks for and does not know yet, plus
the two gains its next step can ask for (g / 2 and 2g while expanding, the
two next midpoints while bisecting).  The search reads the same
values in the same order as one gain at a time, so it takes the same
decisions, and ``evaluations`` counts the gains it read.  Doubling
``n_steps`` forgets every estimate; the confirmation is its own pass.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .coeffs import CoefficientModel, ConstantGain
from .errors import ConfigError, NumericalError, UnbracketableError, ValidationOnlyModelError
from .lyapunov import Z95, LyapunovEstimate, estimate_lambda, estimate_lambdas

logger = logging.getLogger("fibrelay")

_MASK64 = (1 << 64) - 1
# growth-rate evaluations of one calibration, the confirmation run excluded
_MAX_EVALUATIONS = 200
# n_steps doubles at most up to this multiple of the requested count
_STEPS_CAP_FACTOR = 8


@dataclass(frozen=True)
class CalibrationResult:
    g_star: float
    lambda_at_g_star: LyapunovEstimate
    bracket_history: tuple
    evaluations: int
    converged: bool
    # independent confirmation at g_star on fresh streams (None if not run)
    confirmation: LyapunovEstimate | None = None

    def to_report(self, model_spec: str, tol: float, n_replicas: int,
                  master_seed: int) -> dict:
        gain_spec = ConstantGain(self.g_star).spec_string()
        return {
            "g_star": self.g_star,
            "lambda_at_g_star": self.lambda_at_g_star.to_report(
                model_spec, gain_spec, master_seed),
            "bracket_history": [list(b) for b in self.bracket_history],
            "evaluations": self.evaluations,
            "converged": self.converged,
            "confirmation": None if self.confirmation is None
            else self.confirmation.to_report(model_spec, gain_spec,
                                             (master_seed + 1) & _MASK64),
            "tol": tol,
            "n_steps": self.lambda_at_g_star.n_steps,
            "n_replicas": n_replicas,
            "master_seed": master_seed,
        }


def _clearly_negative(est) -> bool:
    return est.lambda_hat + 2.0 * est.std_err < 0.0


def _clearly_positive(est) -> bool:
    return est.lambda_hat - 2.0 * est.std_err > 0.0


def _bracket(rate, g_init: float, max_doublings: int) -> tuple:
    """Geometric expansion from g_init to a sign-changing gain bracket.

    Halves the low edge until its rate is clearly negative, then doubles the
    high edge until its rate is clearly positive; a probe clearly on the far
    side of zero tightens the other edge.  Raises UnbracketableError after
    ``max_doublings`` total expansions; that signals a model whose
    log-moment assumptions fail numerically.
    """
    spent = 0

    def expand(g, factor):
        nonlocal spent
        spent += 1
        if spent > max_doublings:
            raise UnbracketableError(
                f"no growth-rate sign change within {max_doublings} doublings "
                f"from g_init={g_init}")
        return g * factor

    g_lo = g_hi = g_init
    while not _clearly_negative(rate(g_lo, g_lo * 0.5, g_lo * 2.0)):
        if _clearly_positive(rate(g_lo)):
            g_hi = g_lo
        g_lo = expand(g_lo, 0.5)
    while not _clearly_positive(rate(g_hi, g_hi * 0.5, g_hi * 2.0)):
        if _clearly_negative(rate(g_hi)):
            g_lo = g_hi
        g_hi = expand(g_hi, 2.0)
    return g_lo, g_hi


def find_zero_lyapunov_gain(model: CoefficientModel, tol: float,
                            n_steps: int = 10_000, n_replicas: int = 32,
                            master_seed: int = 0, *, g_init: float = 1.0,
                            burn_in: int | None = None, renorm_period: int = 1,
                            workers: int = 1,
                            max_doublings: int = 60) -> CalibrationResult:
    """Bisection for the gain with zero growth rate, on common random numbers.

    First expands a bracket geometrically from ``g_init``: halving until the
    rate is clearly negative at the low edge and doubling until it is
    clearly positive at the high edge, raising UnbracketableError after
    ``max_doublings`` expansions.  Bisection then stops once |rate(g)| is
    within ``tol`` (and, for stochastic models, within the replica CI of
    zero, so zero lies inside the reported interval).  If the Monte Carlo
    CI is too wide to resolve the remaining bracket, the step count doubles
    adaptively up to 8 * ``n_steps``.  After at most 200 growth-rate
    evaluations the iterate closest to zero is returned unconverged.  After
    convergence the gain is re-validated with fresh streams
    (master_seed + 1).
    """
    if model.validation_only:
        raise ValidationOnlyModelError("cannot calibrate a validation-only model")
    if not (tol > 0.0):
        raise ConfigError(f"tol must be positive, got {tol}")
    if not (g_init > 0.0) or not math.isfinite(g_init):
        raise ConfigError(f"g_init must be positive, got {g_init}")
    steps = int(n_steps)
    steps_cap = steps * _STEPS_CAP_FACTOR
    cache = {}  # gain -> estimate at the current step count
    read = set()  # gains the search has read at the current step count
    evaluations = 0

    def estimates(gs):
        return estimate_lambdas(model, [ConstantGain(g) for g in gs], steps, n_replicas,
                                master_seed, burn_in=burn_in,
                                renorm_period=renorm_period, workers=workers)

    def rate(g, *ahead):
        """The estimate at g; when g is new, one pass also estimates the
        positive finite gains of ``ahead`` not known yet."""
        nonlocal evaluations
        if g not in cache:
            gs = list(dict.fromkeys(
                [g, *(a for a in ahead if 0.0 < a < math.inf and a not in cache)]))
            try:
                cache.update(zip(gs, estimates(gs)))
            except (ConfigError, NumericalError):
                if len(gs) == 1:
                    raise
                # a look-ahead gain that fails must not end a search that
                # would never read it: g alone fails or passes as before
                cache[g] = estimates([g])[0]
        if g not in read:
            read.add(g)
            evaluations += 1
        return cache[g]

    g_lo, g_hi = _bracket(rate, g_init, max_doublings)
    history = [(g_lo, g_hi)]

    best = None  # (abs rate, gain, estimate)
    converged = False
    g_star, est_star = g_hi, rate(g_hi)
    while evaluations < _MAX_EVALUATIONS:
        mid = 0.5 * (g_lo + g_hi)
        # the next midpoint is one of these two, whatever the sign at mid
        est = rate(mid, 0.5 * (g_lo + mid), 0.5 * (mid + g_hi))
        if best is None or abs(est.lambda_hat) < best[0]:
            best = (abs(est.lambda_hat), mid, est)
        target = min(tol, Z95 * est.std_err) if est.std_err > 0.0 else tol
        if abs(est.lambda_hat) <= target:
            g_star, est_star, converged = mid, est, True
            break
        ci_width = est.ci95_hi - est.ci95_lo
        resolution = rate(g_hi).lambda_hat - rate(g_lo).lambda_hat
        if ci_width > resolution and steps < steps_cap:
            logger.info("calibration: CI width %.3g exceeds bracket resolution "
                        "%.3g; doubling n_steps to %d", ci_width, resolution,
                        steps * 2)
            steps *= 2
            cache.clear()
            read.clear()
            continue
        if est.lambda_hat > 0.0:
            g_hi = mid
        else:
            g_lo = mid
        history.append((g_lo, g_hi))
        if g_hi - g_lo <= 1e-15 * max(1.0, g_hi):
            break
    if not converged and best is not None:
        _, g_star, est_star = best

    confirmation = None
    if converged:
        confirmation = estimate_lambda(
            model, ConstantGain(g_star), steps, n_replicas,
            (master_seed + 1) & _MASK64, burn_in=burn_in,
            renorm_period=renorm_period, workers=workers)

    return CalibrationResult(
        g_star=g_star,
        lambda_at_g_star=est_star,
        bracket_history=tuple(history),
        evaluations=evaluations,
        converged=converged,
        confirmation=confirmation,
    )
