"""Growth-rate estimators and their closed-form / statistical oracles."""
import math
from dataclasses import dataclass

import numpy as np
import pytest

from fibrelay import (
    GROWTH_RATE,
    CoefficientModel,
    ConfigError,
    ConstantGain,
    Deterministic,
    LogNormal,
    NetworkConfig,
    Rayleigh,
    RngStream,
    SignedBernoulli,
    Uniform,
    ValidationOnlyModelError,
    estimate_lambda,
    estimate_noise_exponent,
    lambda_deterministic_closed_form,
)
from fibrelay.coeffs import first_hop_magnitude, hop_magnitude_chunks

from conftest import SEED

# dominant-root growth rates, frozen from 50-digit evaluations
LOG_PHI = 0.48121182505960347        # unit coefficients
LAM_CG_02 = -0.5829348290244926      # coefficient 0.2
LAM_CG_025 = -0.44568071901268186    # coefficient 0.25
LOG_1_PLUS_SQRT3 = 1.005052538742381  # coefficient 2
LOG_VISWANATH = math.log(1.13198824)  # signed-recursion growth constant


class TestClosedForm:
    def test_golden_ratio(self):
        assert lambda_deterministic_closed_form(1.0, 1.0) == pytest.approx(
            LOG_PHI, abs=1e-12)

    def test_zero_growth_gain(self):
        # 0.5 + sqrt(0.25 + 2) = 2, dominant root exactly 1
        assert lambda_deterministic_closed_form(1.0, 0.5) == 0.0

    def test_decaying_coefficient(self):
        assert lambda_deterministic_closed_form(0.2, 1.0) == pytest.approx(
            LAM_CG_02, abs=1e-12)

    def test_gain_times_coefficient(self):
        assert lambda_deterministic_closed_form(0.5, 0.5) == pytest.approx(
            LAM_CG_025, abs=1e-12)


class TestGrowthRate:
    @pytest.mark.parametrize("c", [0.2, 0.5, 1.0, 2.0])
    def test_matches_closed_form(self, c):
        est = estimate_lambda(Deterministic(c), ConstantGain(1.0), 100_000, 1, SEED)
        assert est.lambda_hat == pytest.approx(
            lambda_deterministic_closed_form(c, 1.0), abs=1e-3)

    def test_golden_ratio_tight(self):
        est = estimate_lambda(Deterministic(1.0), ConstantGain(1.0), 100_000, 2, SEED)
        assert abs(est.lambda_hat - LOG_PHI) < 1e-3

    def test_doubled_coefficient(self):
        est = estimate_lambda(Deterministic(2.0), ConstantGain(1.0), 20_000, 1, SEED)
        assert abs(est.lambda_hat - LOG_1_PLUS_SQRT3) < 1e-3

    def test_minimum_steps_enforced(self):
        with pytest.raises(ConfigError):
            estimate_lambda(Deterministic(1.0), ConstantGain(1.0), 999, 1, SEED)

    def test_integer_coefficient_matches_float(self):
        ints = estimate_lambda(Deterministic(1), ConstantGain(1.0), 2000, 1, SEED)
        floats = estimate_lambda(Deterministic(1.0), ConstantGain(1.0), 2000, 1, SEED)
        assert ints.replica_values == floats.replica_values

    def test_bad_burn_in(self):
        with pytest.raises(ConfigError):
            estimate_lambda(Deterministic(1.0), ConstantGain(1.0), 2000, 1, SEED,
                            burn_in=2000)

    def test_short_per_node_gain_list_rejected(self):
        from fibrelay import PerNodeGain
        with pytest.raises(ConfigError, match="gains"):
            estimate_lambda(Deterministic(1.0), PerNodeGain((1.0,) * 100), 2000,
                            1, SEED)

    def test_estimate_fields(self):
        est = estimate_lambda(Rayleigh(1.0), ConstantGain(1.0), 2000, 16, SEED)
        values = np.array(est.replica_values)
        assert est.n_replicas == 16 and est.n_steps == 2000
        assert est.lambda_hat == pytest.approx(values.mean(), abs=1e-15)
        se = values.std(ddof=1) / math.sqrt(16)
        assert est.std_err == pytest.approx(se, abs=1e-15)
        assert est.ci95_lo == pytest.approx(est.lambda_hat - 1.96 * se, abs=1e-15)
        assert est.ci95_hi == pytest.approx(est.lambda_hat + 1.96 * se, abs=1e-15)
        assert est.ci95_lo <= est.lambda_hat <= est.ci95_hi

    def test_report_keys(self):
        est = estimate_lambda(Rayleigh(1.0), ConstantGain(1.0), 2000, 2, SEED)
        report = est.to_report("rayleigh:mu=1", "constant:g=1", SEED)
        assert set(report) == {"lambda_hat", "std_err", "ci95", "n_steps",
                               "n_replicas", "estimator_kind", "master_seed",
                               "model_spec", "gain_spec"}
        assert report["ci95"] == [est.ci95_lo, est.ci95_hi]
        assert report["estimator_kind"] == GROWTH_RATE


class TestTailRatio:
    """The growth rate over the last half of a deterministic chain
    (burn_in = n // 2) converges exponentially to the closed form."""

    def test_golden_ratio_exponential_convergence(self):
        est = estimate_lambda(Deterministic(1.0), ConstantGain(1.0), 1000, 1, SEED,
                              burn_in=500)
        assert abs(est.lambda_hat - LOG_PHI) < 1e-9

    @pytest.mark.parametrize("c,g", [(0.2, 1.0), (1.0, 0.5), (2.0, 1.0)])
    def test_matches_closed_form_tightly(self, c, g):
        est = estimate_lambda(Deterministic(c), ConstantGain(g), 1000, 1, SEED,
                              burn_in=500)
        assert abs(est.lambda_hat - lambda_deterministic_closed_form(c, g)) < 1e-9


class TestSignedValidationMode:
    def test_requires_flag(self):
        with pytest.raises(ValidationOnlyModelError):
            estimate_lambda(SignedBernoulli(0.5), ConstantGain(1.0), 2000, 1, SEED)

    def test_signed_growth_constant(self):
        est = estimate_lambda(SignedBernoulli(0.5), ConstantGain(1.0), 200_000, 8,
                              SEED, validation=True)
        assert abs(est.lambda_hat - LOG_VISWANATH) < 2e-3

    def test_period_three_chain_reads_exactly_zero(self):
        """p = 0 is x_n = -x_{n-1} - x_{n-2}: the state cycles through
        exact zeros of the value, and its norm reads rate 0 exactly."""
        est = estimate_lambda(SignedBernoulli(0.0), ConstantGain(1.0), 2000, 4, SEED,
                              validation=True)
        assert est.replica_values == (0.0,) * 4

    def test_all_plus_chain_reads_golden_ratio(self):
        est = estimate_lambda(SignedBernoulli(1.0), ConstantGain(1.0), 2000, 2, SEED,
                              validation=True)
        assert est.lambda_hat == pytest.approx(LOG_PHI, abs=1e-12)

    def test_short_burn_in_unbiased(self):
        """With a burn-in of 5, many replicas would meet an exact zero of
        the value at node 5; the norm read stays within 3 SE of the
        constant over 1000 replicas."""
        est = estimate_lambda(SignedBernoulli(0.5), ConstantGain(1.0), 1000, 1000, 3,
                              burn_in=5, validation=True)
        assert abs(est.lambda_hat - LOG_VISWANATH) < 3 * est.std_err


@dataclass(frozen=True)
class _Squared(CoefficientModel):
    """The squares of a base model's magnitudes, one uniform per draw."""

    base: CoefficientModel

    def transform_uniforms(self, u):
        return self.base.transform_uniforms(u) ** 2


class TestNoiseExponent:
    def _cfg(self, model, g):
        return NetworkConfig(model, ConstantGain(g), n0=1.0, n_nodes=2,
                             master_seed=SEED)

    def test_unit_network_rate(self):
        """With unit coefficients the noise recursion itself is Fibonacci-like,
        so its growth rate is the golden-ratio log (the squared-coefficient
        system's own dominant root, not twice the signal rate)."""
        est = estimate_noise_exponent(self._cfg(Deterministic(1.0), 1.0), 10_000, 2)
        assert abs(est.lambda_hat - LOG_PHI) < 1e-9

    @pytest.mark.parametrize("g", [0.25, 0.5])
    def test_bounded_noise_zero_rate(self, g):
        est = estimate_noise_exponent(self._cfg(Deterministic(1.0), g), 10_000, 2)
        assert abs(est.lambda_hat) < 1e-12

    def test_identity_when_signal_decays(self):
        """For a decaying signal the noise stays bounded: both the noise rate
        CI and the max{0, 2*lambda} CI sit at zero and overlap."""
        cfg = self._cfg(Rayleigh(1.0), 0.3)
        noise = estimate_noise_exponent(cfg, 10_000, 16)
        lam = estimate_lambda(cfg.model, cfg.gains, 10_000, 16, SEED)
        pred_lo = max(0.0, 2 * lam.ci95_lo)
        pred_hi = max(0.0, 2 * lam.ci95_hi)
        assert noise.ci95_lo <= pred_hi and pred_lo <= noise.ci95_hi

    def test_needs_minimum_steps(self):
        with pytest.raises(ConfigError):
            estimate_noise_exponent(self._cfg(Deterministic(1.0), 1.0), 500, 1)

    @pytest.mark.parametrize("c,g", [(1.0, 0.25), (1.0, 0.5), (1.0, 1.0), (1.0, 2.0),
                                     (0.2, 2.5), (0.2, 10.0)])
    def test_rate_of_squared_coefficient_recursion(self, c, g):
        """The verbatim 3x3 system grows at max(0, lambda_sq), where lambda_sq
        is the rate of the recursion with squared coefficients (c*g)**2: log
        phi at c = g = 1, where max(0, 2*lambda) would be 2 log phi."""
        est = estimate_noise_exponent(self._cfg(Deterministic(c), g), 10_000, 2)
        want = max(0.0, lambda_deterministic_closed_form(c * c, g * g))
        assert est.lambda_hat == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("model,g", [(Rayleigh(1.0), 1.0), (Rayleigh(1.0), 0.3),
                                         (LogNormal(0.0, 1.0), 0.5),
                                         (LogNormal(0.0, 1.0), 0.2),
                                         (Uniform(0.5, 1.5), 1.0), (Uniform(0.5, 1.5), 0.4)],
                             ids=("rayleigh-1", "rayleigh-0.3", "lognormal-0.5",
                                  "lognormal-0.2", "uniform-1", "uniform-0.4"))
    def test_random_rate_of_squared_coefficient_recursion(self, model, g):
        """For random models too the noise grows at max(0, lambda_sq): the
        signal recursion run on the squared magnitudes under gain g*g, on
        the same streams, is the Monte Carlo reference; the two agree
        within 4 combined standard errors."""
        n, reps = 20_000, 16
        noise = estimate_noise_exponent(self._cfg(model, g), n, reps)
        squared = estimate_lambda(_Squared(model), ConstantGain(g * g), n, reps, SEED)
        gap = noise.lambda_hat - max(0.0, squared.lambda_hat)
        assert abs(gap) <= 4.0 * math.hypot(noise.std_err, squared.std_err)


class TestMatrixNormCrossCheck:
    @pytest.mark.parametrize("model,g", [(Deterministic(1.0), 1.0),
                                         (Rayleigh(1.0), 1.0),
                                         (Rayleigh(1.0), 0.5)],
                             ids=("det", "rayleigh-grow", "rayleigh-decay"))
    def test_vector_growth_matches_norm_growth(self, model, g):
        """Independent estimator: Frobenius-norm growth of the accumulated
        2x2 matrix product agrees with the vector-growth estimate (for
        strictly positive matrices every nonnegative start vector realizes
        the top rate)."""
        from fibrelay.cocycle import _CHUNK_STEPS
        from fibrelay.coeffs import hop_magnitude_chunks

        n, reps = 20_000, 8
        vals = []
        for sid in range(reps):
            rng = RngStream(SEED, sid).generator()
            rng.random(1)  # skip the first-hop draw to mirror the engine
            prod = np.eye(2)
            log_norm = 0.0
            for _, magnitudes in hop_magnitude_chunks(model, rng, n, _CHUNK_STEPS):
                for e2, e1 in g * magnitudes:
                    prod = np.array([[0.0, 1.0], [e2, e1]]) @ prod
                    scale = np.linalg.norm(prod)
                    prod /= scale
                    log_norm += math.log(scale)
            vals.append(log_norm / (n - 1))
        norm_est = float(np.mean(vals))
        vec_est = estimate_lambda(model, ConstantGain(g), n, reps, SEED)
        assert norm_est == pytest.approx(vec_est.lambda_hat, abs=5e-3)


class TestEstimatorProperties:
    def test_gain_monotonicity_common_random_numbers(self):
        """Same streams, larger gain: strictly larger estimate."""
        vals = [estimate_lambda(Rayleigh(1.0), ConstantGain(g), 5000, 4,
                                SEED).lambda_hat
                for g in (0.5, 0.8, 1.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_replica_independence_sign_randomization(self):
        """Lag-1 autocorrelation of replica values is indistinguishable from
        zero under sign randomization."""
        est = estimate_lambda(Rayleigh(1.0), ConstantGain(1.0), 2000, 64, SEED)
        v = np.array(est.replica_values)
        v = v - v.mean()

        def lag1(x):
            return float(x[:-1] @ x[1:])

        stat = abs(lag1(v))
        rng = np.random.default_rng(SEED)
        null = [abs(lag1(v * rng.choice([-1.0, 1.0], size=len(v))))
                for _ in range(999)]
        p = (1 + sum(s >= stat for s in null)) / 1000
        assert p > 0.01

    def test_scale_invariance_with_burn_in(self):
        """The source magnitude cancels once the burn-in point is subtracted."""
        kw = dict(n_steps=2000, n_replicas=2, master_seed=SEED)
        a = estimate_lambda(Rayleigh(1.0), ConstantGain(1.0), kw["n_steps"], 2, SEED,
                            i0=1.0)
        b = estimate_lambda(Rayleigh(1.0), ConstantGain(1.0), kw["n_steps"], 2, SEED,
                            i0=7.0)
        assert abs(a.lambda_hat - b.lambda_hat) <= 1e-12

    def test_scale_shift_without_burn_in(self):
        """With burn_in=0 the bare formula keeps the log(i0)/n offset exactly."""
        n = 2000
        a = estimate_lambda(Rayleigh(1.0), ConstantGain(1.0), n, 2, SEED,
                            burn_in=0, i0=1.0)
        b = estimate_lambda(Rayleigh(1.0), ConstantGain(1.0), n, 2, SEED,
                            burn_in=0, i0=7.0)
        assert (b.lambda_hat - a.lambda_hat) == pytest.approx(math.log(7.0) / n,
                                                              abs=1e-12)

    @pytest.mark.parametrize("g", [0.3, 0.6, 2.0])
    @pytest.mark.parametrize("model", [Rayleigh(1.0), Rayleigh(1e6), LogNormal(0.0, 1.0),
                                       Uniform(0.5, 1.5), Deterministic(0.7)],
                             ids=("rayleigh", "rayleigh-mu1e6", "lognormal", "uniform",
                                  "deterministic"))
    def test_pathwise_lower_bound(self, model, g):
        """Every term of the recursion is positive, so value[m] >=
        g * a_m * value[m-1], a_m being the one-back magnitude into node m:
        each replica's value is at least log g plus that replica's mean of
        log a_m over nodes burn+1..n, up to rounding and with no Monte
        Carlo tolerance."""
        n, n_replicas, burn = 5000, 6, 100
        est = estimate_lambda(model, ConstantGain(g), n, n_replicas, SEED, burn_in=burn)
        for q, value in enumerate(est.replica_values):
            rng = RngStream(SEED, q).generator()
            first_hop_magnitude(model, rng)
            # column 1 holds the one-back magnitudes, node m at index m - 2
            one_back = np.concatenate([mags[:, 1] for _, mags in
                                       hop_magnitude_chunks(model, rng, n, n)])
            bound = math.log(g) + float(np.mean(np.log(one_back[burn - 1:])))
            assert value >= bound - 1e-12

    def test_workers_do_not_change_results(self):
        one = estimate_lambda(Rayleigh(1.0), ConstantGain(1.0), 2000, 4, SEED)
        two = estimate_lambda(Rayleigh(1.0), ConstantGain(1.0), 2000, 4, SEED,
                              workers=2)
        assert one.replica_values == two.replica_values
        assert one.lambda_hat == two.lambda_hat
