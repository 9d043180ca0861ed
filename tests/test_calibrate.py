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
    bracket_expand,
    estimate_lambda,
    find_zero_lyapunov_gain,
    verify_laws,
)

from conftest import SEED


class TestBracketExpand:
    def test_unit_coefficient_from_above(self):
        lo, hi = bracket_expand(Deterministic(1.0), 1.0, SEED, n_replicas=2)
        assert (lo, hi) == (0.25, 1.0)

    def test_unit_coefficient_from_the_zero(self):
        # starting exactly at the zero-growth gain expands both ways
        lo, hi = bracket_expand(Deterministic(1.0), 0.5, SEED, n_replicas=2)
        assert (lo, hi) == (0.25, 1.0)

    def test_small_coefficient_from_below(self):
        lo, hi = bracket_expand(Deterministic(0.2), 1.0, SEED, n_replicas=2)
        assert lo < 2.5 < hi
        assert (lo, hi) == (2.0, 4.0)

    def test_bracket_endpoints_have_opposite_signs(self):
        lo, hi = bracket_expand(Rayleigh(1.0), 1.0, SEED, n_replicas=8)
        lam_lo = estimate_lambda(Rayleigh(1.0), ConstantGain(lo), 10_000, 8, SEED)
        lam_hi = estimate_lambda(Rayleigh(1.0), ConstantGain(hi), 10_000, 8, SEED)
        assert lam_lo.lambda_hat < 0.0 < lam_hi.lambda_hat

    def test_unbracketable(self):
        with pytest.raises(UnbracketableError):
            bracket_expand(Deterministic(1e-9), 1.0, SEED, n_steps=2000,
                           n_replicas=1, max_doublings=3)

    def test_rejects_validation_model(self):
        with pytest.raises(ValidationOnlyModelError):
            bracket_expand(SignedBernoulli(0.5), 1.0, SEED)


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

    def test_unreachable_tolerance_returns_best_iterate(self):
        res = find_zero_lyapunov_gain(Rayleigh(1.0), 1e-9, 2000, 4, SEED,
                                      max_evaluations=25, n_steps_cap_factor=2)
        assert not res.converged
        assert math.isfinite(res.g_star)
        assert res.confirmation is None

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            find_zero_lyapunov_gain(Deterministic(1.0), 0.0, 2000, 1, SEED)
        with pytest.raises(ValidationOnlyModelError):
            find_zero_lyapunov_gain(SignedBernoulli(0.5), 1e-3, 2000, 1, SEED)

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
