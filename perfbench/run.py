"""fibrelay benchmark: end-to-end and per-layer metrics of the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload growth-signed --seed 20260809 \
        --seconds 32 --trace 0

``--workload all`` runs every workload in turn.  Each command runs in a
fresh process, one at a time (a closed loop), until the next command would
end past ``--seconds``.  Command k uses the fibrelay seed drawn k-th from
``random.Random(--seed)``, so the same seed gives the same inputs.  Every
output is checked (checks.py); a wrong output or an unexpected exit code
counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json over the
commands of the run (see ``end_to_end`` for the statistic of each).  ``--trace 1`` alternates untraced and traced commands
on the same inputs and reports the per-layer metrics (median over the
traced commands) and the tracing overhead (median over the pairs of traced
minus untraced wall time).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it give every metric by name with its unit, the
run context (backend, CPUs, versions, commit, seed) and, per command, the
1-minute load average and the time of a fixed pure-Python probe loop, so
slow spells of a shared machine are visible.  A full record is written to
perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
DEFAULT_SEED = 20260809
# A run must end within 180 s: commands are killed past this deadline, and
# no new command starts after half of it, whatever --seconds asks for.
RUN_DEADLINE_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad setup)."""


def probe_s() -> float:
    """Time of a fixed pure-Python loop: a gauge of how busy the machine is."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - t0


def spawn(argv, workdir: Path, timeout_s: float) -> dict:
    """Run one child process; wall time, exit code and wait4 resource usage.

    ``os.wait4`` gives the usage of this child and of the workers it waited
    for, and nothing else: unlike RUSAGE_CHILDREN of this process, its
    ``ru_maxrss`` is not a high-water mark over every earlier command.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    stdout, stderr = workdir / "stdout", workdir / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    t0 = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=actions, setpgroup=0)
    done = threading.Event()

    def kill():
        if not done.is_set():
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        _, status, ru = os.wait4(pid, 0)
        t1 = time.monotonic()
    except BaseException:  # interrupted: stop the command and its workers first
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        done.set()
        timer.cancel()
    return {"t_spawn": t0, "wall_s": t1 - t0,
            "exit": os.waitstatus_to_exitcode(status),
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "stdout": stdout.read_text(), "stderr": stderr.read_text()}


def run_command(workload, seed: int, traced: bool, workdir: Path, timeout_s: float) -> dict:
    """Run one workload command in a fresh process and check its output."""
    outdir = workdir / "output"
    stamp, trace = workdir / "stamp.json", workdir / "trace.json"
    load1, probe = os.getloadavg()[0], probe_s()
    argv = [str(CHILD), str(stamp), str(trace) if traced else "-", "--",
            *workload.argv(seed, outdir)]
    res = spawn(argv, workdir, timeout_s)
    problems = workload.check(res["exit"], res["stdout"], outdir)
    rec = {"seed": seed, "traced": traced, "exit": res["exit"], "problems": problems,
           "wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
           "peak_rss_mb": res["peak_rss_mb"], "load1": load1, "probe_s": probe}
    if problems:
        rec["stderr_tail"] = res["stderr"][-2000:]
    if stamp.is_file():
        info = json.loads(stamp.read_text())
        rec["setup_s"] = info["handler_start"] - res["t_spawn"]
        if not problems:
            rec["steps"] = workload.useful_steps(res["stdout"])
    if traced and trace.is_file():
        dump = json.loads(trace.read_text())
        rec["layers"] = tracing.layer_metrics(dump)
        rec["layer_self_s"] = tracing.layer_self_seconds(dump)
    return rec


def preflight(workdir: Path) -> dict:
    """Import the package once from the checkout (warms the bytecode cache).

    Fails unless fibrelay is imported from this checkout's src/, so the
    benchmark never measures some other installed copy.
    """
    res = spawn(["-c", "import fibrelay, fibrelay.cli, numpy, scipy, sys; print("
                 "fibrelay.__file__, hasattr(fibrelay._kernels.info_steps, 'py_func'), "
                 "numpy.__version__, scipy.__version__)"], workdir, 120.0)
    if res["exit"] != 0:
        raise BenchError(f"importing fibrelay failed:\n{res['stderr']}")
    path, jit, np_ver, sp_ver = res["stdout"].split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"fibrelay imported from {path}, not from {SRC}")
    return {"backend": "numba" if jit == "True" else "python", "numpy": np_ver,
            "scipy": sp_ver}


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> list:
    """Closed loop of commands until the next one would end past ``seconds``."""
    seeds = random.Random(seed)
    records = []
    t_start = time.monotonic()
    while True:
        k = len(records)
        traced = trace and k % 2 == 1
        if not traced:  # a traced command reuses the inputs of the one before
            command_seed = seeds.getrandbits(32)
        cmd_dir = workdir / f"cmd{k:03d}"
        cmd_dir.mkdir()
        remaining = RUN_DEADLINE_S - (time.monotonic() - t_start)
        records.append(run_command(workload, command_seed, traced, cmd_dir,
                                   max(remaining, 5.0)))
        shutil.rmtree(cmd_dir)
        elapsed = time.monotonic() - t_start
        typical = elapsed / len(records)
        whole_pairs = not trace or len(records) % 2 == 0
        if whole_pairs and (elapsed + typical > seconds or elapsed > RUN_DEADLINE_S * 0.5):
            return records


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(records, spec) -> dict:
    """End-to-end metrics over the untraced commands of one run.

    On a shared machine a command's time jumps between a fast and a slow
    level (up to 2x apart) in spells of seconds to a minute, so per-command
    times are bimodal and a median or a low quantile flips between the
    levels with the share of slow spells in the run.  wall_s and cpu_s are
    therefore means over the run's commands, which average that share over
    the whole run; setup_s is the median, and steps_per_s is the run's
    throughput: useful steps of every correct command over their summed
    compute time (wall_s - setup_s).
    """
    plain = [r for r in records if not r["traced"]]
    values = {m["name"]: _median(r.get(m["name"]) for r in plain)
              for m in spec["end_to_end"]}
    for name in ("wall_s", "cpu_s"):
        values[name] = statistics.fmean(r[name] for r in plain)
    done = [r for r in plain if "steps" in r]
    compute_s = sum(r["wall_s"] - r["setup_s"] for r in done)
    values["steps_per_s"] = sum(r["steps"] for r in done) / compute_s if compute_s else 0.0
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def per_layer(records, spec) -> dict:
    """Medians over the traced commands, plus the tracing overhead.

    The overhead is the median over pairs of (traced - untraced) wall time;
    the two commands of a pair run the same inputs back to back, so slow
    spells of the machine mostly cancel.
    """
    traced = [r for r in records if r["traced"] and "layers" in r]
    values = {m["name"]: _median(r["layers"].get(m["name"]) for r in traced)
              for m in spec["per_layer"] if m["name"] != "tracing_overhead_s"}
    values["tracing_overhead_s"] = _median(
        t["wall_s"] - u["wall_s"] for u, t in zip(records[0::2], records[1::2]))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def report(name, records, metrics, context) -> None:
    failed = [r for r in records if r["problems"]]
    print(f"== {name}: {len(records)} commands, {len(failed)} failed, "
          f"fail_rate {len(failed) / len(records):.3f}")
    for r in failed:
        print(f"   FAILED seed {r['seed']}: {'; '.join(r['problems'])}")
    for key, m in metrics.items():
        print(f"   {key:<42} {m['value']:>16.6g} {m['unit']}")
    selfs = [r["layer_self_s"] for r in records if "layer_self_s" in r]
    if selfs:
        layers = sorted({k for s in selfs for k in s})
        print("   self time per layer (median s): " + ", ".join(
            f"{k} {_median(s.get(k, 0.0) for s in selfs):.3f}" for k in layers))
    print("   per command: " + ", ".join(
        f"{r['wall_s']:.2f}s/load {r['load1']:.2f}/probe {r['probe_s'] * 1e3:.1f}ms"
        for r in records))
    print("   context: " + json.dumps(context, sort_keys=True))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a terminated benchmark still stops its command (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "fibrelay" / "cli.py").is_file():
        print(f"error: no fibrelay package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        context = preflight(workdir)
        context.update(nproc=os.cpu_count(), python=platform.python_version(),
                       commit=git_commit(), seed=args.seed)
        results = {}
        for name in (names if args.workload == "all" else [args.workload]):
            records = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                   bool(args.trace), workdir)
            metrics = (per_layer if args.trace else end_to_end)(records, spec)
            report(name, records, metrics, context)
            results[name] = (records, metrics)
            record_path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record_path.write_text(json.dumps(
                {"workload": name, "context": context, "metrics": metrics,
                 "commands": records}, indent=1))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r) for r, _ in results.values())
    failed = sum(1 for r, _ in results.values() for c in r if c["problems"])
    if len(results) == 1:
        metrics = next(iter(results.values()))[1]
    else:
        metrics = {f"{name}.{k}": v for name, (_, m) in results.items() for k, v in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
