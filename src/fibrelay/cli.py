"""Command-line interface.

Subcommands: lyapunov, simulate, calibrate, verify, sweep.  Besides
``--config`` and ``--output-dir``, the flags are the keys of
``config.KEYS``.  Exit codes: 0 success, 1 verify verdict failure, 2 usage
or configuration error (naming the bad key or path, or the keys that size
a run too large for memory), 3 numerical failure
(unbracketable calibration, non-convergence, or a recursion state that
left double range), 4 a worker process ended without returning its
results.
"""
from __future__ import annotations

import argparse
import atexit
import ctypes
import functools
import gc
import io
import sys
from pathlib import Path

from . import __version__
from ._parallel import map_ordered
from .calibrate import find_zero_lyapunov_gain
from .coeffs import ConstantGain
from .cocycle import _calls, _write_trajectories
from .config import KEYS, RunParams, parse_config
from .errors import ConfigError, NumericalError, UnbracketableError
from .laws import verify_laws
from .lyapunov import estimate_lambda, estimate_lambdas
from .manifest import MANIFEST_FILENAME, dumps_17g, manifest_json

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_WORKER = 4

# glibc's mallopt(3) parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibrelay",
        description="Random Fibonacci relay-chain simulator: growth rates, "
                    "scaling-law checks and zero-growth gain calibration.")
    parser.add_argument("--version", action="version", version=f"fibrelay {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in _HANDLERS.items():
        # no abbreviations: sweep would read --gain as --gain-grid
        p = sub.add_parser(command, help=handler.__doc__, allow_abbrev=False)
        p.add_argument("--config", help="config file (flat KV, JSON, or a run manifest)")
        p.add_argument("--output-dir", help="write artifacts plus manifest.json here")
        for key, entry in KEYS.items():
            if command in entry.commands:
                # every flag but --validation is a string for the key's parser
                extra = {"action": "store_const", "const": True} \
                    if key == "lyapunov.validation" else {}
                p.add_argument("--" + key.partition(".")[2].replace("_", "-"), **extra,
                               help=entry.help if entry.default is None
                               else f"{entry.help} (default {entry.default})")
    return parser


def _part(outdir: Path, name: str) -> Path:
    """Where the file ``name`` is written before it is published."""
    return outdir / f".{name}.part"


def _discard(outdir: Path, names, published=()) -> None:
    """Remove the parts of ``names`` and the files ``published``."""
    for name in names:
        _part(outdir, name).unlink(missing_ok=True)
    for name in published:
        (outdir / name).unlink(missing_ok=True)


def _emit(params: RunParams, output_dir, files: dict, stdout_text: str = "") -> None:
    """When requested, publish the data files and then the manifest; then
    print stdout text.

    ``files`` maps each data file name to its text, or to None when its
    part (``_part``) is already written.  Every file is written as its part
    first, then the parts are renamed into place, the manifest last; on
    any failure every part and every file already renamed is removed, so
    a failed run leaves none of its files in the output directory and
    prints nothing.
    """
    if output_dir is not None:
        outdir = Path(output_dir)
        manifest = manifest_json(__version__, params.command, params.echo(), params.seed,
                                 sorted(files))
        files = {**files, MANIFEST_FILENAME: manifest}
        published = []
        try:
            for name, text in files.items():
                if text is not None:
                    _part(outdir, name).write_bytes(text.encode("utf-8"))
            for name in files:
                _part(outdir, name).replace(outdir / name)
                published.append(name)
        except BaseException:
            _discard(outdir, files, published)
            raise
    sys.stdout.write(stdout_text)


def cmd_lyapunov(params: RunParams, output_dir) -> int:
    """estimate the signal growth rate"""
    est = estimate_lambda(
        params.model, params.gain, params.n, params.replicas, params.seed,
        burn_in=params.burn_in, i0=params.i0, validation=params.validation,
        workers=params.workers)
    report = dumps_17g(est.to_report(params.model.spec_string(),
                                     params.gain.spec_string(), params.seed))
    _emit(params, output_dir, {"lyapunov.json": report}, report)
    return EXIT_OK


def cmd_simulate(params: RunParams, output_dir) -> int:
    """write per-node trajectory CSVs"""
    if output_dir is None:
        raise ConfigError("simulate requires --output-dir")
    config = params.network_config()
    outdir = Path(output_dir)
    names = [f"trajectory_{sid:03d}.csv" for sid in range(params.trajectories)]

    def write(call):
        # the parts of one engine call's trajectories; the parent publishes them
        sids = call[1]
        _write_trajectories(config, sids, [_part(outdir, names[s]) for s in sids])

    try:
        map_ordered(write, _calls(config.n_nodes, len(names), params.workers),
                    params.workers)
    except BaseException:
        _discard(outdir, names)
        raise
    _emit(params, output_dir, dict.fromkeys(names),
          f"wrote {len(names)} trajectory file(s) to {output_dir}\n")
    return EXIT_OK


def cmd_calibrate(params: RunParams, output_dir) -> int:
    """find the zero-growth gain"""
    result = find_zero_lyapunov_gain(params.model, params.tol, params.n, params.replicas,
                                     params.seed, burn_in=params.burn_in, workers=params.workers)
    report = dumps_17g(result.to_report(params.model.spec_string(), params.tol,
                                        params.replicas, params.seed))
    _emit(params, output_dir, {"calibration.json": report}, report)
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def cmd_verify(params: RunParams, output_dir) -> int:
    """check the capacity and power scaling laws"""
    cap, pwr = verify_laws(params.network_config(), params.n, params.replicas,
                           burn_in=params.burn_in, workers=params.workers)

    table = io.StringIO()
    table.write(f"{'law':<10}{'predicted':>14}{'measured':>14}{'std_err':>12}"
                f"{'verdict':>14}\n")
    for rep in (cap, pwr):
        table.write(f"{rep.law:<10}{rep.predicted_exponent:>14.6f}"
                    f"{rep.measured.slope:>14.6f}{rep.measured.std_err:>12.2e}"
                    f"{rep.verdict:>14}\n")

    files = {}
    if output_dir is not None:  # the files are built only to be written
        from ._csv import csv_text
        model_spec = params.model.spec_string()
        gain_spec = params.gain.spec_string()
        files = {
            "verify_capacity.json": dumps_17g(cap.to_report(model_spec, gain_spec,
                                                            params.seed)),
            "verify_power.json": dumps_17g(pwr.to_report(model_spec, gain_spec,
                                                         params.seed)),
            "slopes.csv": csv_text("replica,capacity_slope,power_slope",
                                   (cap.replica_slopes, pwr.replica_slopes), first=0),
        }
    _emit(params, output_dir, files, table.getvalue())
    return EXIT_OK if (cap.consistent and pwr.consistent) else EXIT_VERDICT


def cmd_sweep(params: RunParams, output_dir) -> int:
    """tabulate the growth rate over a gain grid"""
    grid = params.gain_grid
    ests = estimate_lambdas(params.model, [ConstantGain(g) for g in grid], params.n,
                            params.replicas, params.seed, burn_in=params.burn_in,
                            i0=params.i0, workers=params.workers)
    from ._csv import csv_text
    text = csv_text("g,lambda_hat,std_err",
                    (grid, [e.lambda_hat for e in ests], [e.std_err for e in ests]))
    _emit(params, output_dir, {"sweep.csv": text}, text)
    return EXIT_OK


_HANDLERS = {
    "lyapunov": cmd_lyapunov,
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def run_command(command: str, params: RunParams, output_dir=None) -> int:
    """Run one command; ``output_dir`` is created before any work, so a bad
    path fails at once (a run that fails later leaves it empty)."""
    if output_dir is not None:
        Path(output_dir).mkdir(parents=True, exist_ok=True)
    return _HANDLERS[command](params, output_dir)


@functools.cache
def _setup_process() -> None:
    """On the first ``main`` call, not on import, register ``gc.freeze``
    at exit and keep freed memory in the heap.

    Frozen, numpy's import-time heap and every other tracked object are
    skipped by the interpreter's final collections; exit handlers
    registered before that call still run after it.  Blocks up to 32 MiB
    come from the heap, which is trimmed only past 1 GiB free, so the next
    CSV block or engine call reuses the last one's pages instead of
    faulting in fresh ones.  Either parameter alone switches off glibc's
    dynamic mmap threshold and faults more than the defaults, so the trim
    threshold is set only once the mmap threshold is taken; a libc without
    ``mallopt``, or one that refuses it, is left alone.  Forked workers
    inherit the setting.
    """
    atexit.register(gc.freeze)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _too_large(params: RunParams) -> ConfigError:
    """The error of a run whose arrays do not fit in memory, naming the
    keys that size it."""
    echo = params.echo()
    keys = [key for key in ("run.n", "run.replicas", "simulate.trajectories") if key in echo]
    sizes = ", ".join(f"{key} = {echo[key]}" for key in keys)
    return ConfigError(f"out of memory at {sizes}; lower {' or '.join(keys)}")


def main(argv=None) -> int:
    _setup_process()
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (None, 0) else EXIT_CONFIG
    try:
        # each flag's destination is its key's suffix
        overrides = {key: args.get(key.partition(".")[2]) for key in KEYS}
        params = parse_config(args["command"], args["config"], overrides)
        try:
            return run_command(args["command"], params, args["output_dir"])
        except MemoryError:
            raise _too_large(params) from None
    except (UnbracketableError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ChildProcessError as exc:  # a dead worker; nothing in the command was wrong
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except (ValueError, OSError) as exc:  # ConfigError, domain errors and bad paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
