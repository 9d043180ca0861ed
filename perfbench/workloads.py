"""The benchmark workloads: one fibrelay CLI command each.

Why each workload exists (which layers it stresses, which it bypasses) is
recorded in BENCHMARK.json and README.md.  Sizes keep one command at
about two seconds with the pure-Python kernels on a 2-core machine, so a
run of the benchmark holds several commands and reports their medians.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

CALIBRATE_TOL = 1e-2


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple            # fibrelay arguments, without --seed and --output-dir
    writes_files: bool     # pass --output-dir
    check: Callable        # (exit_code, stdout, output_dir) -> list of problems
    useful_steps: Callable  # (stdout) -> recursion node-steps that answer the question

    def argv(self, seed: int, output_dir: Path) -> list:
        argv = [*self.args, "--seed", str(seed)]
        if self.writes_files:
            argv += ["--output-dir", str(output_dir)]
        return argv


def _calibrate_steps(stdout: str) -> int:
    # every evaluation plus the confirmation run walks n_steps per replica
    rep = json.loads(stdout)
    return rep["n_steps"] * rep["n_replicas"] * (rep["evaluations"] + 1)


GROWTH_N, GROWTH_R = 25_000, 32
CAL_N, CAL_R = 5_000, 16
VERIFY_N, VERIFY_R = 15_000, 8
SIM_N, SIM_T = 40_000, 4

WORKLOADS = {w.name: w for w in (
    Workload(
        name="growth-signed",
        args=("lyapunov", "--model", "signed:p=0.5", "--validation",
              "--n", str(GROWTH_N), "--replicas", str(GROWTH_R), "--workers", "1"),
        writes_files=False,
        check=lambda code, out, _d: checks.check_growth(code, out, GROWTH_N, GROWTH_R),
        useful_steps=lambda _out: GROWTH_N * GROWTH_R,
    ),
    Workload(
        name="calibrate-crn",
        args=("calibrate", "--model", "rayleigh:mu=1.0", "--n", str(CAL_N),
              "--replicas", str(CAL_R), "--tol", str(CALIBRATE_TOL), "--workers", "1"),
        writes_files=False,
        check=lambda code, out, _d: checks.check_calibrate(code, out, CALIBRATE_TOL),
        useful_steps=_calibrate_steps,
    ),
    Workload(
        name="verify-rayleigh",
        args=("verify", "--model", "rayleigh:mu=1.0", "--gain", "0.5",
              "--n", str(VERIFY_N), "--replicas", str(VERIFY_R), "--workers", "1"),
        writes_files=False,
        check=lambda code, out, _d: checks.check_verify(code, out),
        # the redundant passes are not counted, so fusing them shows as a gain
        useful_steps=lambda _out: VERIFY_N * VERIFY_R,
    ),
    Workload(
        name="simulate-csv",
        args=("simulate", "--model", "rayleigh:mu=1.0", "--gain", "0.6",
              "--n", str(SIM_N), "--trajectories", str(SIM_T), "--workers", "2"),
        writes_files=True,
        check=lambda code, _out, d: checks.check_simulate(code, d, SIM_N, SIM_T),
        useful_steps=lambda _out: SIM_N * SIM_T,
    ),
)}
