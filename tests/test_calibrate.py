"""Zero-growth gain calibration."""
import math

import pytest

from fibrelay import (
    ConfigError,
    ConstantGain,
    Deterministic,
    LogNormal,
    NetworkConfig,
    Rayleigh,
    SignedBernoulli,
    Uniform,
    UnbracketableError,
    ValidationOnlyModelError,
    estimate_lambda,
    find_zero_lyapunov_gain,
    verify_laws,
)
from fibrelay import calibrate

from conftest import SEED


@pytest.fixture
def start_at(monkeypatch):
    """Sets the gain the bracket expansion starts from, for any model."""
    bracket = calibrate._bracket
    return lambda g: monkeypatch.setattr(calibrate, "_bracket",
                                         lambda rate, _start: bracket(rate, g))


def _first_bracket(model, n_replicas, n_steps=10_000, **kwargs):
    """The bracket the expansion from the start hands to the bisection."""
    return find_zero_lyapunov_gain(model, 1e-3, n_steps, n_replicas, SEED,
                                   **kwargs).bracket_history[0]


class TestBracketExpand:
    @pytest.mark.parametrize("model,start", [
        (Deterministic(1.0), 1.0), (Rayleigh(1.0), 1.0), (LogNormal(0.0, 1.0), 1.0),
        (Uniform(0.5, 1.5), 1.0),
        (Deterministic(0.2), 4.0),  # -log2(0.2) = 2.32
        (Deterministic(1e-30), 2.0 ** 100),  # log2(1e30) = 99.66
        (Rayleigh(1e6), 2.0 ** -10),  # (log(1e6) - euler_gamma) / (2 log 2) = 9.55
        (LogNormal(5.0, 0.5), 2.0 ** -7),  # 5 / log 2 = 7.21
    ], ids=("deterministic", "rayleigh", "lognormal", "uniform", "deterministic-0.2",
            "deterministic-1e-30", "rayleigh-1e6", "lognormal-m5"))
    def test_start_is_the_power_of_two_nearest_zero_mean_log(self, model, start,
                                                             monkeypatch):
        """The start is 2**round(-E[log magnitude] / log 2): 1 at every
        model's default parameters."""
        starts, bracket = [], calibrate._bracket
        monkeypatch.setattr(calibrate, "_bracket",
                            lambda rate, g: starts.append(g) or bracket(rate, g))
        find_zero_lyapunov_gain(model, 1e-3, 2000, 1, SEED)
        assert starts == [start]

    def test_unit_coefficient_from_above(self):
        assert _first_bracket(Deterministic(1.0), 2) == (0.25, 1.0)

    def test_unit_coefficient_from_far_above(self, start_at):
        # clearly positive probes on the way down tighten the high edge
        start_at(4.0)
        assert _first_bracket(Deterministic(1.0), 2) == (0.25, 1.0)

    def test_unit_coefficient_from_the_zero(self, start_at):
        # starting exactly at the zero-growth gain expands both ways
        start_at(0.5)
        assert _first_bracket(Deterministic(1.0), 2) == (0.25, 1.0)

    def test_small_coefficient_from_below(self, start_at):
        start_at(1.0)
        lo, hi = _first_bracket(Deterministic(0.2), 2)
        assert lo < 2.5 < hi
        assert (lo, hi) == (2.0, 4.0)

    def test_bracket_endpoints_have_opposite_signs(self):
        lo, hi = _first_bracket(Rayleigh(1.0), 8)
        lam_lo = estimate_lambda(Rayleigh(1.0), ConstantGain(lo), 10_000, 8, SEED)
        lam_hi = estimate_lambda(Rayleigh(1.0), ConstantGain(hi), 10_000, 8, SEED)
        assert lam_lo.lambda_hat < 0.0 < lam_hi.lambda_hat

    def test_unbracketable(self, start_at):
        start_at(1.0)
        with pytest.raises(UnbracketableError, match="within 60 doublings from g=1.0$"):
            # the zero-growth gain is about 2^99, past 60 doublings from 1
            _first_bracket(Deterministic(1e-30), 1, n_steps=2000)

    def test_rejects_validation_model(self):
        with pytest.raises(ValidationOnlyModelError):
            _first_bracket(SignedBernoulli(0.5), 32)


class TestFindZeroGain:
    @pytest.mark.parametrize("c,g_star", [(1.0, 0.5), (0.2, 2.5)])
    def test_deterministic_closed_form_targets(self, c, g_star):
        res = find_zero_lyapunov_gain(Deterministic(c), 1e-3, 10_000, 2, SEED)
        assert res.converged
        assert abs(res.g_star - g_star) <= 1e-3
        assert abs(res.lambda_at_g_star.lambda_hat) <= 1e-3
        assert res.evaluations >= 3
        assert res.bracket_history

    # 1e14 ends below gain 1e-14, where a bisection stop absolute in the
    # gain ended the search unconverged; 1e-30 ends past 60 doublings from 1
    @pytest.mark.parametrize("c", [0.2, 0.5, 1.0, 2.0, 1e14, 1e-30])
    def test_product_with_coefficient_is_half(self, c):
        """The zero-growth gain satisfies c * g = 0.5 for constant models,
        the lower bound 1 / (2 E[magnitude])."""
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

    @pytest.mark.parametrize("model,mean", [
        (Rayleigh(1.0), math.sqrt(math.pi) / 2),
        (Rayleigh(1e6), math.sqrt(math.pi * 1e6) / 2),
        (Rayleigh(1e-6), math.sqrt(math.pi * 1e-6) / 2),
        (LogNormal(0.0, 1.0), math.exp(0.5)),
        (LogNormal(math.log(1e3), 1.0), math.exp(math.log(1e3) + 0.5)),
        (LogNormal(math.log(1e-3), 1.0), math.exp(math.log(1e-3) + 0.5)),
        (Uniform(0.5, 1.5), 1.0),
        (Uniform(0.5e3, 1.5e3), 1e3),
        (Uniform(0.5e-3, 1.5e-3), 1e-3),
    ], ids=("rayleigh", "rayleigh-1e6", "rayleigh-1e-6", "lognormal", "lognormal-1e6",
            "lognormal-1e-6", "uniform", "uniform-1e6", "uniform-1e-6"))
    def test_g_star_within_moment_bounds(self, model, mean):
        """1 / (2 E[a]) <= g* <= exp(-E[log a]) for magnitudes a: the growth
        rate is at least E log(g a) and at most that of the mean recursion,
        log of its root at g E[a].  Scaled models have their second moment
        times 1e6 or 1e-6."""
        res = find_zero_lyapunov_gain(model, 1e-3, 5000, 8, SEED)
        assert res.converged
        assert 1.0 / (2.0 * mean) <= res.g_star <= math.exp(-model.expected_log_magnitude())

    @pytest.mark.parametrize("model,n_steps,seed", [
        (Rayleigh(1.0), 2000, 901749037),
        (Rayleigh(1.0), 2000, 952158461),
        (Rayleigh(1e30), 2000, SEED),
    ], ids=("seed-901749037", "seed-952158461", "rayleigh-1e30"))
    def test_ends_keep_their_signs_after_doubling(self, model, n_steps, seed):
        """An end read at a smaller n_steps can change sign when n_steps
        doubles; the search restores a sign-changing bracket instead of
        bisecting onto that end."""
        res = find_zero_lyapunov_gain(model, 1e-3, n_steps, 4, seed)
        assert res.converged and res.lambda_at_g_star.n_steps > n_steps
        steps = res.lambda_at_g_star.n_steps
        lo, hi = res.bracket_history[-1]
        lam_lo, lam_hi = (estimate_lambda(model, ConstantGain(g), steps, 4, seed).lambda_hat
                          for g in (lo, hi))
        assert lam_lo <= 0.0 < lam_hi

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

    @pytest.mark.parametrize("model,n_steps,n_replicas,tol,start,pinned", [
        (Deterministic(1.0), 10_000, 2, 1e-3, None, (12, 10_000, 9, "0x1.0040000000000p-1")),
        (Deterministic(1.0), 10_000, 2, 1e-3, 0.5, (12, 10_000, 9, "0x1.0040000000000p-1")),
        (Deterministic(0.2), 10_000, 2, 1e-3, 1.0, (5, 10_000, 2, "0x1.4000000000000p+1")),
        # the model's start, 4, is above g* = 2.5
        (Deterministic(0.2), 10_000, 2, 1e-3, None, (4, 10_000, 2, "0x1.4000000000000p+1")),
        (Rayleigh(1.0), 2000, 4, 1e-4, None, (21, 16_000, 10, "0x1.2fc0000000000p-1")),
    ], ids=("unit-from-above", "unit-from-the-zero", "small-from-below",
            "small-from-above", "rayleigh-doubling"))
    def test_bookkeeping_pinned(self, model, n_steps, n_replicas, tol, start, pinned,
                                start_at):
        """Evaluation count, final step count, bisection length and g* at
        SEED, from the model's start (None) or a given one; the Rayleigh run
        doubles n_steps from 2000 to 16000."""
        if start is not None:
            start_at(start)
        res = find_zero_lyapunov_gain(model, tol, n_steps, n_replicas, SEED)
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
