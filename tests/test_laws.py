"""Slope fits, scaling-law verification, and in-probability band checks."""
import numpy as np
import pytest
from scipy import stats

from fibrelay import (
    ConfigError,
    ConstantGain,
    Deterministic,
    NetworkConfig,
    Rayleigh,
    check_theta_p,
    estimate_lambda,
    lambda_deterministic_closed_form,
    log_capacity_nats,
    run_trajectory,
    slope_estimate,
    verify_laws,
)
from fibrelay import laws as laws_mod
from fibrelay.laws import default_burn_in

from conftest import SEED

TWO_LAM_02 = 2 * lambda_deterministic_closed_form(0.2, 1.0)   # -1.16586966...
TWO_LAM_1 = 2 * lambda_deterministic_closed_form(1.0, 1.0)    # 0.96242365...


def _cfg(model, g, seed=SEED, n0=1.0):
    return NetworkConfig(model, ConstantGain(g), n0=n0, n_nodes=2, master_seed=seed)


class TestSlopeEstimate:
    def test_exact_line(self):
        fit = slope_estimate(2.0 * np.arange(1, 101), burn_in=10)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.std_err == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)
        assert fit.n_points == 90

    def test_constant_series(self):
        fit = slope_estimate(np.full(50, 3.25), burn_in=0)
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_too_short_series(self):
        with pytest.raises(ConfigError):
            slope_estimate(np.arange(15), burn_in=10)

    def test_negative_burn_in(self):
        with pytest.raises(ConfigError, match="burn_in"):
            slope_estimate(np.arange(100.0), burn_in=-5)

    def test_matches_linregress(self):
        """Slope, intercept and the OLS standard error agree with an
        independent implementation."""
        rng = np.random.default_rng(SEED)
        y = 0.7 * np.arange(1, 201) + rng.normal(0, 2.0, 200)
        fit = slope_estimate(y, burn_in=0)
        ref = stats.linregress(np.arange(1, 201), y)
        assert fit.slope == pytest.approx(ref.slope, abs=1e-12)
        assert fit.intercept == pytest.approx(ref.intercept, abs=1e-10)
        assert fit.std_err == pytest.approx(ref.stderr, abs=1e-12)

    def test_capacity_decay_slope(self):
        """log capacity for a decaying deterministic chain slopes at twice
        the growth rate."""
        traj = run_trajectory(NetworkConfig(Deterministic(0.2), ConstantGain(1.0),
                                            n_nodes=5000, master_seed=SEED))
        fit = slope_estimate(log_capacity_nats(traj.log_snr), burn_in=default_burn_in(5000))
        assert fit.slope == pytest.approx(TWO_LAM_02, abs=1e-6)


class TestCapacityLaw:
    def test_decaying_chain(self):
        rep, _ = verify_laws(_cfg(Deterministic(0.2), 1.0), 10_000, 4)
        assert rep.predicted_exponent == pytest.approx(TWO_LAM_02, abs=1e-9)
        assert rep.measured.slope == pytest.approx(TWO_LAM_02, rel=0.01)
        assert rep.verdict == "consistent"

    def test_growing_chain_capacity_flat(self):
        rep, _ = verify_laws(_cfg(Deterministic(1.0), 1.0), 10_000, 4)
        assert rep.predicted_exponent == 0.0
        assert abs(rep.measured.slope) <= 0.01
        assert rep.verdict == "consistent"

    def test_boundary_gain(self):
        rep, _ = verify_laws(_cfg(Deterministic(1.0), 0.5), 10_000, 4)
        assert rep.predicted_exponent == 0.0
        assert abs(rep.measured.slope) <= 0.01
        assert rep.verdict == "consistent"


class TestPowerLaw:
    def test_growing_chain(self):
        _, rep = verify_laws(_cfg(Deterministic(1.0), 1.0), 10_000, 4)
        assert rep.predicted_exponent == pytest.approx(TWO_LAM_1, abs=1e-9)
        assert rep.measured.slope == pytest.approx(TWO_LAM_1, rel=0.01)
        assert rep.verdict == "consistent"

    def test_decaying_chain_power_flat(self):
        _, rep = verify_laws(_cfg(Deterministic(0.2), 1.0), 10_000, 4)
        assert rep.predicted_exponent == 0.0
        assert abs(rep.measured.slope) <= 0.01
        assert rep.verdict == "consistent"

    def test_boundary_gain(self):
        _, rep = verify_laws(_cfg(Deterministic(1.0), 0.5), 10_000, 4)
        assert rep.predicted_exponent == 0.0
        assert abs(rep.measured.slope) <= 0.01
        assert rep.verdict == "consistent"


class TestLawCoupling:
    @pytest.mark.parametrize("model,g", [(Deterministic(0.2), 1.0),
                                         (Deterministic(1.0), 1.0),
                                         (Rayleigh(1.0), 0.8)])
    def test_predicted_exponents_sum_to_twice_lambda(self, model, g):
        """min{0, 2L} + max{0, 2L} = 2L exactly on the predicted side."""
        cap, pwr = verify_laws(_cfg(model, g), 4000, 4)
        assert cap.lambda_estimate.lambda_hat == pwr.lambda_estimate.lambda_hat
        total = cap.predicted_exponent + pwr.predicted_exponent
        assert total == 2.0 * cap.lambda_estimate.lambda_hat

    def test_deterministic_slopes_converge(self):
        """Measured slopes land within 1e-3 of closed form at n = 1e4."""
        cap, _ = verify_laws(_cfg(Deterministic(0.2), 1.0), 10_000, 2)
        _, pwr = verify_laws(_cfg(Deterministic(1.0), 1.0), 10_000, 2)
        assert abs(cap.measured.slope - TWO_LAM_02) < 1e-3
        assert abs(pwr.measured.slope - TWO_LAM_1) < 1e-3

    def test_report_serialization(self):
        rep, _ = verify_laws(_cfg(Deterministic(0.2), 1.0), 2000, 2)
        doc = rep.to_report("deterministic:c=0.2", "constant:g=1", SEED)
        assert doc["law"] == "capacity"
        assert doc["order_notation"] == "Theta_P"
        # the verdict band is fixed and recorded with the verdict
        assert (doc["tolerance_sigma"], doc["slope_tol"]) == (3.0, 0.01)
        assert doc["verdict"] in ("consistent", "inconsistent")
        assert set(doc["measured"]) == {"slope", "intercept", "std_err",
                                        "n_points", "burn_in"}
        assert len(doc["replica_slopes"]) == 2
        # the band around the predicted exponent at n = 2000
        assert doc["theta_p_band"] == {
            "upper_fraction": rep.band.upper_fraction,
            "lower_fraction": rep.band.lower_fraction,
            "n": 2000, "rate": rep.predicted_exponent,
            "h_value": 2000 ** 0.75, "h_exponent": 0.75}


class TestVerifyLaws:
    @pytest.mark.parametrize("model,g", [(Rayleigh(1.0), 0.5), (Deterministic(0.2), 1.0)],
                             ids=("rayleigh", "deterministic"))
    def test_lambda_matches_estimate_lambda(self, model, g):
        """The growth rate read from each replica's trajectory is the
        estimator's replica value on the same stream."""
        cap, pwr = verify_laws(_cfg(model, g), 4000, 4)
        est = estimate_lambda(model, ConstantGain(g), 4000, 4, SEED)
        assert pwr.lambda_estimate is cap.lambda_estimate
        got = np.array(cap.lambda_estimate.replica_values)
        assert np.all(np.abs(got - np.array(est.replica_values)) <= 1e-15)

    def test_needs_a_replica(self):
        with pytest.raises(ConfigError, match="n_replicas"):
            verify_laws(_cfg(Rayleigh(1.0), 0.6), 2000, 0)

    @pytest.mark.parametrize("burn_in,match", [(-5, "burn_in"),
                                               (1995, "series too short for a slope fit")])
    def test_bad_burn_in_fails_before_any_replica(self, burn_in, match, monkeypatch):
        def no_fanout(*args):
            raise AssertionError("replicas ran")
        monkeypatch.setattr(laws_mod, "map_ordered", no_fanout)
        with pytest.raises(ConfigError, match=match):
            verify_laws(_cfg(Rayleigh(1.0), 0.5), 2000, 2, burn_in=burn_in)


class TestThetaBand:
    def test_exact_rate_series(self):
        n = 500
        chk = check_theta_p(np.full(5, 0.3 * n), rate=0.3, n=n)
        assert chk.upper_fraction == 1.0
        assert chk.lower_fraction == 1.0
        assert chk.h_value == n ** 0.75

    def test_grossly_wrong_rate(self):
        n = 500
        chk = check_theta_p(np.full(5, 0.3 * n), rate=1.3, n=n)
        assert chk.upper_fraction == 1.0
        assert chk.lower_fraction == 0.0

    def test_fraction_monotonicity_in_rate(self):
        """Raising the rate can only admit more replicas under the upper
        envelope and fewer above the lower one."""
        rng = np.random.default_rng(SEED)
        n = 400
        finals = np.cumsum(rng.normal(0.1, 1.0, size=(40, n)), axis=1)[:, -1]
        rates = np.linspace(-0.2, 0.4, 13)
        uppers = [check_theta_p(finals, r, n).upper_fraction for r in rates]
        lowers = [check_theta_p(finals, r, n).lower_fraction for r in rates]
        assert all(a <= b + 1e-12 for a, b in zip(uppers, uppers[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(lowers, lowers[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError, match="non-empty 1-D"):
            check_theta_p(np.empty(0), 0.0, 5)
        with pytest.raises(ConfigError, match="non-empty 1-D"):
            check_theta_p(np.ones((2, 5)), 0.0, 5)
        with pytest.raises(ConfigError, match="n must be >= 1"):
            check_theta_p(np.ones(2), 0.0, 0)

    @pytest.mark.parametrize("model,g", [(Rayleigh(1.0), 0.6), (Deterministic(0.2), 1.0),
                                         (Deterministic(1.0), 1.0)],
                             ids=("rayleigh", "decaying", "growing"))
    def test_verify_band_matches_trajectory_finals(self, model, g):
        """verify's band for each law is ``check_theta_p`` of each replica's
        series at node n, as ``run_trajectory`` gives it, around the law's
        predicted exponent."""
        n, n_replicas = 1500, 7
        cap, pwr = verify_laws(_cfg(model, g), n, n_replicas)
        cfg = NetworkConfig(model, ConstantGain(g), n_nodes=n, master_seed=SEED)
        trajs = [run_trajectory(cfg, sid) for sid in range(n_replicas)]
        for rep, want in ((cap, [log_capacity_nats(t.log_snr)[-1] for t in trajs]),
                          (pwr, [t.log_x_sq[-1] for t in trajs])):
            assert rep.replica_finals == tuple(want)
            assert np.all(np.isfinite(rep.replica_finals))
            assert rep.band == check_theta_p(want, rep.predicted_exponent, n)
