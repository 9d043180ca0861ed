"""Zero-growth gain calibration."""
import math

import pytest

from fibrelay import (
    ConfigError,
    ConstantGain,
    Deterministic,
    NetworkConfig,
    Rayleigh,
    SignedBernoulli,
    UnbracketableError,
    ValidationOnlyModelError,
    estimate_lambda,
    find_zero_lyapunov_gain,
    verify_laws,
)
from fibrelay import calibrate

from conftest import SEED


def _first_bracket(model, g_init, n_replicas, n_steps=10_000, **kwargs):
    """The bracket the expansion from g_init hands to the bisection."""
    return find_zero_lyapunov_gain(model, 1e-3, n_steps, n_replicas, SEED,
                                   g_init=g_init, **kwargs).bracket_history[0]


class TestBracketExpand:
    def test_unit_coefficient_from_above(self):
        assert _first_bracket(Deterministic(1.0), 1.0, 2) == (0.25, 1.0)

    def test_unit_coefficient_from_far_above(self):
        # clearly positive probes on the way down tighten the high edge
        assert _first_bracket(Deterministic(1.0), 4.0, 2) == (0.25, 1.0)

    def test_unit_coefficient_from_the_zero(self):
        # starting exactly at the zero-growth gain expands both ways
        assert _first_bracket(Deterministic(1.0), 0.5, 2) == (0.25, 1.0)

    def test_small_coefficient_from_below(self):
        lo, hi = _first_bracket(Deterministic(0.2), 1.0, 2)
        assert lo < 2.5 < hi
        assert (lo, hi) == (2.0, 4.0)

    def test_bracket_endpoints_have_opposite_signs(self):
        lo, hi = _first_bracket(Rayleigh(1.0), 1.0, 8)
        lam_lo = estimate_lambda(Rayleigh(1.0), ConstantGain(lo), 10_000, 8, SEED)
        lam_hi = estimate_lambda(Rayleigh(1.0), ConstantGain(hi), 10_000, 8, SEED)
        assert lam_lo.lambda_hat < 0.0 < lam_hi.lambda_hat

    def test_unbracketable(self):
        with pytest.raises(UnbracketableError):
            # the zero-growth gain is about 2^99, past 60 doublings from 1
            _first_bracket(Deterministic(1e-30), 1.0, 1, n_steps=2000)

    def test_rejects_validation_model(self):
        with pytest.raises(ValidationOnlyModelError):
            _first_bracket(SignedBernoulli(0.5), 1.0, 32)


class TestFindZeroGain:
    @pytest.mark.parametrize("c,g_star", [(1.0, 0.5), (0.2, 2.5)])
    def test_deterministic_closed_form_targets(self, c, g_star):
        res = find_zero_lyapunov_gain(Deterministic(c), 1e-3, 10_000, 2, SEED)
        assert res.converged
        assert abs(res.g_star - g_star) <= 1e-3
        assert abs(res.lambda_at_g_star.lambda_hat) <= 1e-3
        assert res.evaluations >= 3
        assert res.bracket_history

    @pytest.mark.parametrize("c", [0.2, 0.5, 1.0, 2.0])
    def test_product_with_coefficient_is_half(self, c):
        """The zero-growth gain satisfies c * g = 0.5 for constant models."""
        res = find_zero_lyapunov_gain(Deterministic(c), 1e-3, 10_000, 1, SEED)
        assert res.converged
        assert abs(res.g_star * c - 0.5) <= 1e-3

    def test_rayleigh_converges_with_zero_in_fresh_ci(self):
        res = find_zero_lyapunov_gain(Rayleigh(1.0), 5e-3, 10_000, 32, SEED)
        assert res.converged
        assert abs(res.lambda_at_g_star.lambda_hat) <= 5e-3
        est = res.lambda_at_g_star
        assert est.ci95_lo <= 0.0 <= est.ci95_hi
        # independent confirmation on fresh streams
        assert res.confirmation is not None
        assert res.confirmation.ci95_lo <= 0.0 <= res.confirmation.ci95_hi

    def test_bracket_history_all_valid(self):
        """Every recorded bracket straddles the zero under the calibration seed."""
        res = find_zero_lyapunov_gain(Rayleigh(1.0), 5e-3, 5000, 8, SEED)
        n = res.lambda_at_g_star.n_steps
        for lo, hi in res.bracket_history:
            lam_lo = estimate_lambda(Rayleigh(1.0), ConstantGain(lo), n, 8, SEED)
            lam_hi = estimate_lambda(Rayleigh(1.0), ConstantGain(hi), n, 8, SEED)
            assert lam_lo.lambda_hat < 0.0 < lam_hi.lambda_hat

    def test_monotone_in_gain_under_common_random_numbers(self):
        vals = [estimate_lambda(Rayleigh(1.0), ConstantGain(g), 5000, 8,
                                SEED).lambda_hat
                for g in (0.4, 0.55, 0.7, 1.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_unreachable_tolerance_returns_best_iterate(self, monkeypatch):
        monkeypatch.setattr(calibrate, "_MAX_EVALUATIONS", 25)
        monkeypatch.setattr(calibrate, "_STEPS_CAP_FACTOR", 2)
        res = find_zero_lyapunov_gain(Rayleigh(1.0), 1e-9, 2000, 4, SEED)
        assert not res.converged
        assert math.isfinite(res.g_star)
        assert res.confirmation is None

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            find_zero_lyapunov_gain(Deterministic(1.0), 0.0, 2000, 1, SEED)
        with pytest.raises(ValidationOnlyModelError):
            find_zero_lyapunov_gain(SignedBernoulli(0.5), 1e-3, 2000, 1, SEED)
        for g_init in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigError):
                find_zero_lyapunov_gain(Deterministic(1.0), 1e-3, 2000, 1, SEED,
                                        g_init=g_init)

    @pytest.mark.parametrize("model,n_steps,n_replicas,tol,g_init,pinned", [
        (Deterministic(1.0), 10_000, 2, 1e-3, 1.0, (12, 10_000, 9, "0x1.0040000000000p-1")),
        (Deterministic(1.0), 10_000, 2, 1e-3, 0.5, (12, 10_000, 9, "0x1.0040000000000p-1")),
        (Deterministic(0.2), 10_000, 2, 1e-3, 1.0, (5, 10_000, 2, "0x1.4000000000000p+1")),
        (Rayleigh(1.0), 2000, 4, 1e-4, 1.0, (21, 16_000, 10, "0x1.2fc0000000000p-1")),
    ], ids=("unit-from-above", "unit-from-the-zero", "small-from-below",
            "rayleigh-doubling"))
    def test_bookkeeping_pinned(self, model, n_steps, n_replicas, tol, g_init, pinned):
        """Evaluation count, final step count, bisection length and g* at
        SEED; the Rayleigh run doubles n_steps from 2000 to 16000."""
        res = find_zero_lyapunov_gain(model, tol, n_steps, n_replicas, SEED,
                                      g_init=g_init)
        assert res.converged
        assert (res.evaluations, res.lambda_at_g_star.n_steps,
                len(res.bracket_history), res.g_star.hex()) == pinned

    def test_report_keys(self):
        res = find_zero_lyapunov_gain(Deterministic(1.0), 1e-3, 10_000, 2, SEED)
        doc = res.to_report("deterministic:c=1", 1e-3, 2, SEED)
        assert set(doc) >= {"g_star", "lambda_at_g_star", "bracket_history",
                            "evaluations", "converged", "confirmation", "tol"}
        assert doc["bracket_history"][0] == [0.25, 1.0]


class TestPostCalibrationLaws:
    @pytest.mark.parametrize("model", [Deterministic(1.0), Rayleigh(1.0)],
                             ids=("deterministic", "rayleigh"))
    def test_no_decay_no_growth_at_g_star(self, model):
        """At the calibrated gain both laws predict a zero exponent and the
        measured slopes vanish: no capacity decay, no power growth."""
        res = find_zero_lyapunov_gain(model, 1e-3, 10_000, 8, SEED)
        cfg = NetworkConfig(model, ConstantGain(res.g_star), n_nodes=2,
                            master_seed=SEED + 1)
        cap, pwr = verify_laws(cfg, 10_000, 32)
        # the residual growth-rate estimate at g_star is within tol of zero,
        # so both predicted exponents collapse to ~0
        assert abs(cap.predicted_exponent) <= 0.01
        assert abs(pwr.predicted_exponent) <= 0.01
        assert abs(cap.measured.slope) <= 0.01
        assert abs(pwr.measured.slope) <= 0.01
        assert cap.verdict == "consistent" and pwr.verdict == "consistent"
