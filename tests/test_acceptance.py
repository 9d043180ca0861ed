"""Acceptance suite: end-to-end checks at their stated tolerances.

Each check prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
all).  Known genuine failure: the noise-rate identity check includes
growing-chain configurations where the identity max{0, 2*lambda} is
mathematically false for the implemented noise recursion; see the test's
docstring.  That check is implemented as stated and left red rather than
weakened.
"""
import math
import time

import numpy as np
import pytest

from fibrelay import (
    ConstantGain,
    Deterministic,
    NetworkConfig,
    Rayleigh,
    SignedBernoulli,
    estimate_lambda,
    estimate_noise_exponent,
    find_zero_lyapunov_gain,
    lambda_deterministic_closed_form,
    parse_model,
    run_trajectory,
    verify_laws,
)
from fibrelay.cli import main

from conftest import SEED, mp_oracle_logs

GOLDEN = 0.4812118251                  # golden-ratio log, as stated
VISWANATH_LOG = math.log(1.13198824)   # 0.1239756, signed-recursion constant
TWO_LAM_02 = 2 * lambda_deterministic_closed_form(0.2, 1.0)
TWO_LAM_1 = 2 * lambda_deterministic_closed_form(1.0, 1.0)


def _check(ok, label, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _cfg(model, g, n0=1.0, seed=SEED):
    return NetworkConfig(model, ConstantGain(g), n0=n0, n_nodes=2, master_seed=seed)


@pytest.fixture(scope="module")
def rayleigh_calibration():
    return find_zero_lyapunov_gain(Rayleigh(1.0), 5e-3, 10_000, 32, SEED)


def test_criterion_1_golden_ratio():
    """Deterministic unit chain reproduces the golden-ratio growth rate."""
    t0 = time.perf_counter()
    # the growth rate over the last half of the chain
    tail = estimate_lambda(Deterministic(1.0), ConstantGain(1.0), 1000, 1, SEED,
                           burn_in=500)
    growth = estimate_lambda(Deterministic(1.0), ConstantGain(1.0), 100_000, 1, SEED)
    elapsed = time.perf_counter() - t0
    err_tail = abs(tail.lambda_hat - GOLDEN)
    err_growth = abs(growth.lambda_hat - GOLDEN)
    _check(err_tail <= 1e-9 and err_growth <= 1e-3 and elapsed < 1.0,
           "criterion-1 golden-ratio",
           f"tail err {err_tail:.2e} (<=1e-9), growth err {err_growth:.2e} "
           f"(<=1e-3), {elapsed:.2f}s (<1s)")


def test_criterion_2_signed_recursion_constant():
    """Signed validation mode recovers the known growth constant 1.13198824."""
    t0 = time.perf_counter()
    est = estimate_lambda(SignedBernoulli(0.5), ConstantGain(1.0), 1_000_000, 32,
                          SEED, validation=True)
    elapsed = time.perf_counter() - t0
    err = abs(est.lambda_hat - VISWANATH_LOG)
    in_ci = est.ci95_lo <= VISWANATH_LOG <= est.ci95_hi
    _check(err <= 2e-3 and in_ci and elapsed < 60.0,
           "criterion-2 signed-constant",
           f"err {err:.2e} (<=2e-3), target in CI95 [{est.ci95_lo:.6f},"
           f" {est.ci95_hi:.6f}]: {in_ci}, {elapsed:.1f}s (<60s)")


def test_criterion_3_noise_exponent_identity():
    """Noise-rate CI overlaps the max{0, 2*lambda} CI on five configurations.

    Genuine failure, implemented as stated: whenever the signal rate is
    positive, the accumulated noise power grows at the top rate of the
    squared-coefficient recursion, which is strictly below twice the signal
    rate for these coefficient distributions (hand check, unit constant
    coefficients: noise powers follow 1, 1, 3, 6, 11, ..., a Fibonacci-type
    recursion with growth log((1+sqrt 5)/2) = 0.481, not 0.962; the
    simulation agrees to nine digits).  The identity does hold in every
    non-growing configuration, where both rates are zero.  The two growing
    cases below therefore fail with zero-or-negligible-width CIs that
    cannot overlap, and no estimator consistent with the defining
    recursions could make them pass.
    """
    cases = [(Deterministic(1.0), 0.25), (Deterministic(1.0), 0.5),
             (Deterministic(1.0), 1.0), (Rayleigh(1.0), 0.3), (Rayleigh(1.0), 1.0)]
    t0 = time.perf_counter()
    failures = []
    for model, g in cases:
        lam = estimate_lambda(model, ConstantGain(g), 10_000, 32, SEED)
        noise = estimate_noise_exponent(_cfg(model, g), 10_000, 32)
        pred_lo = max(0.0, 2 * lam.ci95_lo)
        pred_hi = max(0.0, 2 * lam.ci95_hi)
        overlap = noise.ci95_lo <= pred_hi and pred_lo <= noise.ci95_hi
        label = f"{model.spec_string()} g={g}"
        print(f"  {'ok ' if overlap else 'NO '}{label}: noise CI "
              f"[{noise.ci95_lo:.5f}, {noise.ci95_hi:.5f}] vs max(0,2L) CI "
              f"[{pred_lo:.5f}, {pred_hi:.5f}]")
        if not overlap:
            failures.append(label)
    elapsed = time.perf_counter() - t0
    _check(not failures and elapsed < 30.0,
           "criterion-3 noise-exponent-identity",
           f"non-overlapping configs: {failures or 'none'}, {elapsed:.1f}s (<30s)")


def test_criterion_4_capacity_slope():
    """Capacity decays at 2*lambda for a shrinking chain, stays flat for a
    growing one."""
    decay, _ = verify_laws(_cfg(Deterministic(0.2), 1.0), 10_000, 32)
    flat, _ = verify_laws(_cfg(Deterministic(1.0), 1.0), 10_000, 32)
    rel = abs(decay.measured.slope - TWO_LAM_02) / abs(TWO_LAM_02)
    ok_flat = abs(flat.measured.slope) <= 0.01
    _check(rel <= 0.01 and ok_flat,
           "criterion-4 capacity-slope",
           f"decaying slope {decay.measured.slope:.7f} vs {TWO_LAM_02:.7f} "
           f"(rel {rel:.2e} <=1%), growing slope {flat.measured.slope:.2e} (<=0.01)")


def test_criterion_5_power_slope():
    """Transmit power grows at 2*lambda for a growing chain, stays flat for a
    shrinking one."""
    _, grow = verify_laws(_cfg(Deterministic(1.0), 1.0), 10_000, 32)
    _, flat = verify_laws(_cfg(Deterministic(0.2), 1.0), 10_000, 32)
    rel = abs(grow.measured.slope - TWO_LAM_1) / TWO_LAM_1
    ok_flat = abs(flat.measured.slope) <= 0.01
    _check(rel <= 0.01 and ok_flat,
           "criterion-5 power-slope",
           f"growing slope {grow.measured.slope:.7f} vs {TWO_LAM_1:.7f} "
           f"(rel {rel:.2e} <=1%), decaying slope {flat.measured.slope:.2e} (<=0.01)")


def test_criterion_6_zero_growth_construction(rayleigh_calibration):
    """Calibration lands on the closed-form gains and the calibrated chain
    shows neither capacity decay nor power growth."""
    details = []
    ok = True
    for c, target in ((1.0, 0.5), (0.2, 2.5)):
        res = find_zero_lyapunov_gain(Deterministic(c), 1e-3, 10_000, 32, SEED)
        err = abs(res.g_star - target)
        ok &= res.converged and err <= 1e-3
        details.append(f"c={c}: g*={res.g_star:.6f} (|err| {err:.1e} <=1e-3)")
        cfg = _cfg(Deterministic(c), res.g_star, seed=SEED + 1)
        cap, pwr = verify_laws(cfg, 10_000, 32)
        ok &= abs(cap.predicted_exponent) <= 2e-3 and abs(pwr.predicted_exponent) <= 2e-3
        ok &= abs(cap.measured.slope) <= 0.01 and abs(pwr.measured.slope) <= 0.01
        ok &= cap.consistent and pwr.consistent
        details.append(f"  slopes cap {cap.measured.slope:.2e} pwr "
                       f"{pwr.measured.slope:.2e} (<=0.01)")
    ray = rayleigh_calibration
    zero_in = ray.confirmation.ci95_lo <= 0.0 <= ray.confirmation.ci95_hi
    ok &= ray.converged and abs(ray.lambda_at_g_star.lambda_hat) <= 5e-3 and zero_in
    details.append(f"rayleigh: g*={ray.g_star:.4f} converged={ray.converged} "
                   f"fresh-seed 0-in-CI={zero_in}")
    _check(ok, "criterion-6 zero-growth-calibration", "; ".join(details))


def test_criterion_7_engine_oracle_equivalence():
    """100 random streams, 40 nodes: renormalized logs match the
    extended-precision unrenormalized recursion within 1e-9."""
    cfg = NetworkConfig(Rayleigh(1.0), ConstantGain(1.0), n_nodes=40,
                        master_seed=SEED)
    worst = 0.0
    for sid in range(100):
        traj = run_trajectory(cfg, stream_id=sid)
        log_i, log_n2 = mp_oracle_logs(cfg, sid)
        worst = max(worst,
                    float(np.max(np.abs(traj.log_i_sq - 2 * np.array(log_i)))),
                    float(np.max(np.abs(traj.log_n_sq - np.array(log_n2)))))
    _check(worst < 1e-9, "criterion-7 oracle-equivalence",
           f"max |renormalized - direct| = {worst:.2e} (<1e-9) over 100 seeds")


def test_criterion_8_in_probability_band(rayleigh_calibration):
    """At the calibrated gain the capacity log-series sits inside the
    sublinear slack envelope around its predicted rate, min{0, 2*lambda_hat}
    (zero at g*), for >=95% of replicas: verify's own band."""
    g_star = rayleigh_calibration.g_star
    cap, _ = verify_laws(_cfg(Rayleigh(1.0), g_star), 10_000, 200)
    chk = cap.band
    _check(chk.upper_fraction >= 0.95 and chk.lower_fraction >= 0.95,
           "criterion-8 in-probability-band",
           f"upper {chk.upper_fraction:.3f}, lower {chk.lower_fraction:.3f} "
           f"(>=0.95 each), envelope h={chk.h_value:.0f} around rate {chk.rate:.2g} "
           f"at n={chk.n}")


def test_criterion_9_manifest_reproducibility(tmp_path):
    """Re-running any command from its manifest reproduces data outputs byte
    for byte, for worker counts 1 and 8."""
    runs = {
        "simulate": (["simulate", "--model", "rayleigh:mu=1.0", "--gain", "0.6",
                      "--n", "200", "--trajectories", "3", "--seed", str(SEED)],
                     ["trajectory_000.csv", "trajectory_001.csv",
                      "trajectory_002.csv"]),
        "verify": (["verify", "--model", "rayleigh:mu=1.0", "--gain", "0.6",
                    "--n", "2000", "--replicas", "8", "--seed", str(SEED)],
                   ["verify_capacity.json", "verify_power.json", "slopes.csv"]),
        "lyapunov": (["lyapunov", "--model", "rayleigh:mu=1.0", "--gain", "0.9",
                      "--n", "2000", "--replicas", "8", "--seed", str(SEED)],
                     ["lyapunov.json"]),
    }
    mismatches = []
    for name, (args, outputs) in runs.items():
        first = tmp_path / f"{name}_1"
        second = tmp_path / f"{name}_8"
        assert main(args + ["--workers", "1", "--output-dir", str(first)]) in (0, 1)
        rerun = [name, "--config", str(first / "manifest.json"),
                 "--workers", "8", "--output-dir", str(second)]
        assert main(rerun) in (0, 1)
        for out in outputs:
            if (first / out).read_bytes() != (second / out).read_bytes():
                mismatches.append(f"{name}/{out}")
    _check(not mismatches, "criterion-9 manifest-reproducibility",
           f"byte mismatches: {mismatches or 'none'} across "
           f"{sum(len(o) for _, o in runs.values())} files, workers 1 vs 8")
