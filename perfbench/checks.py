"""Output checks for the benchmark workloads.

Each check takes what one command left behind (exit code, stdout, output
directory) and returns a list of problems; an empty list means the output
is correct.  Statistical checks are sigma bands wide enough that a fresh
workload seed does not flake.  The checks read the outputs only: they do
not import fibrelay, so a defect in the package cannot hide itself.

A band is "5.5 sigma" in false-alarm rate: a standard error estimated from
R replicas makes the standardized error Student-t with R - 1 degrees of
freedom, whose tails are much heavier than the normal's for small R (with
8 replicas a 5.5 std_err band fails 0.09% of correct runs).  ``band(R)`` is
the t quantile with the same two-sided tail as 5.5 normal sigmas, 3.8e-8.
The false-alarm rate is per command, and the runs that gate one change
hold a few thousand commands: at 4.5 sigmas (6.8e-6 per command) a correct
program fails about one gate in fifty, at 5.5 sigmas about one in ten
thousand.  The t model holds: 3200 blocks of 32 growth replicas were
unbiased with t-distributed standardized errors.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtr, stdtrit

# exp(lambda) of the signed random Fibonacci recursion x[n] = x[n-1] +- x[n-2]
# (Viswanath, Math. Comp. 69, 2000)
VISWANATH = 1.13198824
LAMBDA_SIGNED = math.log(VISWANATH)
SIGMAS = 5.5

CSV_HEADER = "n,log_I_sq,log_N_sq,log_snr,capacity_nats,log_X_sq"


def band(replicas: int) -> float:
    """Multiple of a replica std_err with the false-alarm rate of 5.5 sigma."""
    return float(stdtrit(replicas - 1, 1.0 - ndtr(-SIGMAS)))


def _json_report(stdout: str):
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"stdout is not one JSON report: {exc}"]


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_growth(code: int, stdout: str, n: int, replicas: int) -> list:
    """lyapunov on signed:p=0.5: lambda_hat within band(R) std_err of log 1.13198824."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    rep, problems = _json_report(stdout)
    if rep is None:
        return problems
    lam, se = rep.get("lambda_hat"), rep.get("std_err")
    if not _finite(lam, se) or se <= 0.0:
        return [f"lambda_hat={lam!r} std_err={se!r} not finite and positive"]
    if rep.get("n_steps") != n or rep.get("n_replicas") != replicas:
        problems.append(f"report is for n={rep.get('n_steps')} "
                        f"replicas={rep.get('n_replicas')}, expected {n} and {replicas}")
    if abs(lam - LAMBDA_SIGNED) > band(replicas) * se:
        problems.append(f"lambda_hat={lam:.6g} is {abs(lam - LAMBDA_SIGNED) / se:.1f} "
                        f"std_err from log {VISWANATH}, band {band(replicas):.2f}")
    return problems


def check_calibrate(code: int, stdout: str, tol: float) -> list:
    """calibrate: converged, |lambda(g*)| <= tol, confirmation near zero.

    The program stops once |lambda_hat(g*)| <= min(tol, 1.96 std_err); the
    confirmation re-estimates lambda(g*) on fresh streams, so it must lie
    within that stopping target plus band(R) combined std_err of zero.
    """
    if code != 0:
        return [f"exit code {code}, expected 0"]
    rep, problems = _json_report(stdout)
    if rep is None:
        return problems
    if rep.get("converged") is not True:
        problems.append("calibration did not converge")
    at = rep.get("lambda_at_g_star") or {}
    conf = rep.get("confirmation") or {}
    lam, se = at.get("lambda_hat"), at.get("std_err")
    clam, cse = conf.get("lambda_hat"), conf.get("std_err")
    replicas = rep.get("n_replicas")
    if not (_finite(lam, se, clam, cse, rep.get("g_star"), rep.get("evaluations"),
                    rep.get("n_steps"), replicas) and replicas >= 2):
        return problems + ["report lacks a finite g_star, estimate, confirmation, "
                           "evaluations, n_steps or n_replicas >= 2"]
    target = min(tol, 1.96 * se)
    if abs(lam) > target:
        problems.append(f"|lambda(g*)| = {abs(lam):.3g} exceeds min(tol, 1.96 std_err) "
                        f"= {target:.3g}")
    limit = target + band(replicas) * math.hypot(se, cse)
    if abs(clam) > limit:
        problems.append(f"confirmation lambda_hat={clam:.3g} outside +-{limit:.3g}")
    return problems


def check_verify(code: int, stdout: str) -> list:
    """verify: exit 0 and both laws printed as consistent."""
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    verdicts = {}
    for line in stdout.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 5:
            verdicts[parts[0]] = parts[4]
    for law in ("capacity", "power"):
        if verdicts.get(law) != "consistent":
            problems.append(f"{law} verdict is {verdicts.get(law)!r}, expected 'consistent'")
    return problems


def check_trajectory_csv(path: Path, n: int) -> list:
    """One trajectory file: header, n rows, finite values, log_snr identity."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            return [f"{path.name}: header {header!r}"]
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return [f"{path.name}: unreadable row: {exc}"]
    if data.shape != (n, 6):
        return [f"{path.name}: shape {data.shape}, expected ({n}, 6)"]
    problems = []
    if not np.isfinite(data).all():
        problems.append(f"{path.name}: {int((~np.isfinite(data)).sum())} non-finite values")
    if not np.array_equal(data[:, 0], np.arange(1, n + 1)):
        problems.append(f"{path.name}: node column is not 1..{n}")
    # the file stores 17 significant digits, so the parsed values are the
    # program's doubles and the identity holds exactly
    if not np.array_equal(data[:, 3], data[:, 1] - data[:, 2]):
        problems.append(f"{path.name}: log_snr != log_I_sq - log_N_sq")
    return problems


def check_simulate(code: int, outdir: Path, n: int, trajectories: int) -> list:
    """simulate: every trajectory file correct and listed in manifest.json."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    expected = [f"trajectory_{sid:03d}.csv" for sid in range(trajectories)]
    try:
        listed = json.loads((outdir / "manifest.json").read_text())["output_files"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"manifest.json unusable: {exc!r}"]
    problems = []
    if sorted(listed) != expected:
        problems.append(f"manifest lists {listed}, expected {expected}")
    for name in expected:
        path = outdir / name
        if not path.is_file():
            problems.append(f"{name} missing")
        else:
            problems.extend(check_trajectory_csv(path, n))
    return problems
