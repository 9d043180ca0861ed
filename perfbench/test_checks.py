"""Each output check accepts a correct output and rejects a corrupted one.

Run with: python3 -m pytest perfbench
"""
import json
import math

import numpy as np
import pytest

import checks
import tracing

GROWTH = {"lambda_hat": math.log(checks.VISWANATH) + 1e-4, "std_err": 2e-4,
          "n_steps": 1000, "n_replicas": 32}


def test_growth_accepts_estimate_within_band():
    assert checks.check_growth(0, json.dumps(GROWTH), 1000, 32) == []


@pytest.mark.parametrize("corrupt", [
    {"lambda_hat": GROWTH["lambda_hat"] + 3e-3},   # shifted by 15 std_err
    {"lambda_hat": float("nan")},
    {"std_err": 0.0},
    {"n_replicas": 4},
])
def test_growth_rejects_corrupted_report(corrupt):
    assert checks.check_growth(0, json.dumps({**GROWTH, **corrupt}), 1000, 32)


def test_band_is_student_t_with_normal_tail():
    assert checks.band(10**9) == pytest.approx(5.5, abs=1e-6)
    assert checks.band(8) > checks.band(32) > checks.band(64) > 5.5


def test_growth_rejects_bad_exit_and_garbage():
    assert checks.check_growth(3, json.dumps(GROWTH), 1000, 32)
    assert checks.check_growth(0, "Traceback (most recent call last):", 1000, 32)


CALIBRATION = {
    "converged": True, "g_star": 0.59, "evaluations": 6, "n_steps": 10000,
    "n_replicas": 16,
    "lambda_at_g_star": {"lambda_hat": 4e-4, "std_err": 5e-4},
    "confirmation": {"lambda_hat": -2e-3, "std_err": 5e-4},
}


def test_calibrate_accepts_converged_report():
    assert checks.check_calibrate(0, json.dumps(CALIBRATION), 1e-3) == []


@pytest.mark.parametrize("corrupt", [
    {"converged": False},
    {"lambda_at_g_star": {"lambda_hat": 2e-3, "std_err": 5e-3}},   # above tol
    {"lambda_at_g_star": {"lambda_hat": 1.5e-3, "std_err": 5e-4}},  # above 1.96 se
    {"confirmation": {"lambda_hat": 2e-2, "std_err": 5e-4}},   # 28 combined std_err
    {"confirmation": None},
    {"n_replicas": 1},
])
def test_calibrate_rejects_corrupted_report(corrupt):
    assert checks.check_calibrate(0, json.dumps({**CALIBRATION, **corrupt}), 1e-3)


def test_calibrate_rejects_numerical_exit():
    assert checks.check_calibrate(3, json.dumps(CALIBRATION), 1e-3)


VERIFY = ("law            predicted      measured     std_err       verdict\n"
          "capacity       -0.224208     -0.225115    1.30e-03    consistent\n"
          "power           0.000000      0.000000    8.25e-08    consistent\n")


def test_verify_accepts_two_consistent_verdicts():
    assert checks.check_verify(0, VERIFY) == []


def test_verify_rejects_inconsistent_verdict_or_exit():
    bad = VERIFY.replace("  consistent\npower", "inconsistent\npower")
    assert checks.check_verify(1, bad)
    assert checks.check_verify(1, VERIFY)
    assert checks.check_verify(0, VERIFY.splitlines()[0])


def _write_run(outdir, n=20, trajectories=2):
    rng = np.random.default_rng(0)
    names = []
    for sid in range(trajectories):
        li, ln = rng.normal(size=n), rng.normal(size=n)
        rows = [checks.CSV_HEADER]
        for k in range(n):
            snr = li[k] - ln[k]
            rows.append(f"{k + 1},{li[k]:.17g},{ln[k]:.17g},{snr:.17g},"
                        f"{np.logaddexp(0, snr):.17g},{np.logaddexp(li[k], ln[k]):.17g}")
        name = f"trajectory_{sid:03d}.csv"
        (outdir / name).write_text("\n".join(rows) + "\n")
        names.append(name)
    (outdir / "manifest.json").write_text(json.dumps({"output_files": names}))
    return names


def test_simulate_accepts_consistent_files(tmp_path):
    _write_run(tmp_path)
    assert checks.check_simulate(0, tmp_path, 20, 2) == []


def _replace_row(path, k, fields):
    lines = path.read_text().splitlines()
    parts = lines[k].split(",")
    parts[1:1 + len(fields)] = fields
    lines[k] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("corrupt", ["nan_row", "snr_mismatch", "missing_file",
                                     "short_file", "unlisted_file", "bad_header"])
def test_simulate_rejects_corrupted_output(tmp_path, corrupt):
    names = _write_run(tmp_path)
    path = tmp_path / names[1]
    if corrupt == "nan_row":
        _replace_row(path, 5, ["nan"])
    elif corrupt == "snr_mismatch":
        _replace_row(path, 5, ["0.5", "0.25", "0.3"])
    elif corrupt == "missing_file":
        path.unlink()
    elif corrupt == "short_file":
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    elif corrupt == "unlisted_file":
        (tmp_path / "manifest.json").write_text(json.dumps({"output_files": names[:1]}))
    elif corrupt == "bad_header":
        path.write_text(path.read_text().replace("log_snr", "snr", 1))
    assert checks.check_simulate(0, tmp_path, 20, 2)


def test_simulate_rejects_missing_manifest(tmp_path):
    _write_run(tmp_path)
    (tmp_path / "manifest.json").unlink()
    assert checks.check_simulate(0, tmp_path, 20, 2)


def test_self_times_subtract_union_of_children():
    spans = [["a", "outer", 0, 100, None],
             ["b", "child", 10, 40, "a"],
             ["c", "child", 30, 60, "a"],     # overlaps b: covered is 10..60
             ["d", "grandchild", 35, 45, "c"]]
    st = tracing.self_times(spans)
    assert st["outer"] == pytest.approx(50e-9)
    assert st["child"] == pytest.approx((30 + 20) * 1e-9)
    assert st["grandchild"] == pytest.approx(10e-9)
