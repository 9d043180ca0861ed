"""Run one fibrelay CLI command and record when its handler started.

Usage: python3 child.py STAMP_FILE TRACE_FILE|- -- <fibrelay arguments>

This stands in for ``python -m fibrelay``: it imports ``fibrelay.cli``,
times the import, and wraps ``cli.run_command`` so the monotonic clock
reading at the start of the command handler (after interpreter start,
imports and ``parse_config``) is written to STAMP_FILE.  The parent reads
the same system-wide monotonic clock at spawn, so the difference is the
set-up time.  With a TRACE_FILE, the tracing wrappers are installed around
the package's public functions first and the spans are written there at
exit.
"""
import json
import sys
import time


def main(argv) -> int:
    stamp_path, trace_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py STAMP_FILE TRACE_FILE|- -- <fibrelay args>")
    t_import = time.monotonic_ns()
    import fibrelay.cli as cli
    stamp = {"import_ns": time.monotonic_ns() - t_import}

    recorder = None
    if trace_path != "-":
        import tracing
        recorder = tracing.install()

    run_command = cli.run_command

    def timed_run_command(*args, **kwargs):
        stamp["handler_start"] = time.monotonic()
        return run_command(*args, **kwargs)

    cli.run_command = timed_run_command
    code = cli.main(cli_args)
    with open(stamp_path, "w") as fh:
        json.dump(stamp, fh)
    if recorder is not None:
        recorder.dump(trace_path, import_ns=stamp["import_ns"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
