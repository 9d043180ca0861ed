"""Replica fan-out helper.

Replicas are embarrassingly parallel; results are always reduced in
ascending stream-id order, so outputs are identical for any worker count.

With W > 1 workers, payload i runs in stripe i % W.  The calling process
runs stripe 0 and a forked child runs each other stripe; the child pickles
its results, up to and including its first failure, back through a pipe
and leaves with ``os._exit``.

Each stripe starts on its own CPU: with ``cpus`` the sorted affinity
mask, stripe w moves itself to ``cpus[w % len(cpus)]`` and at once takes
the whole mask back, which leaves it there but free to move.  A cpuset
that does not balance load (``cpuset.sched_load_balance`` 0) may never
move a forked child off its parent's CPU, where two stripes run at about
twice their CPU time; a stripe that stayed pinned could not move to a CPU
left idle when stripes outnumber CPUs or other commands run.
"""
from __future__ import annotations

import contextlib
import os
import pickle


def _stripe(fn, payloads) -> tuple:
    """The results of fn over payloads before the first failure, and that
    failure (None when there is none)."""
    results = []
    for payload in payloads:
        try:
            results.append(fn(payload))
        except BaseException as exc:  # re-raised by map_ordered
            return results, exc
    return results, None


def _place(cpus: list, w: int) -> None:
    """Move this process to stripe w's CPU ``cpus[w % len(cpus)]`` and give
    it back the whole mask ``cpus``.  A mask of one CPU moves nothing, and
    a move the system refuses is ignored: placement never changes a
    result."""
    if len(cpus) > 1:
        with contextlib.suppress(OSError):
            try:
                os.sched_setaffinity(0, {cpus[w % len(cpus)]})
            finally:
                os.sched_setaffinity(0, cpus)


def _child(fn, payloads, read: int, write: int, cpus: list, w: int) -> None:
    """Run stripe w in a forked child, send its outcome, and exit."""
    status = 1
    try:
        _place(cpus, w)
        os.close(read)
        outcome = pickle.dumps(_stripe(fn, payloads))
        with open(write, "wb") as pipe:
            pipe.write(outcome)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read: int) -> tuple:
    """The outcome a child sent through ``read``, once it has exited."""
    with open(read, "rb") as pipe:
        outcome = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status or not outcome:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        return [], ChildProcessError(
            f"worker process {pid} ended without returning its results "
            f"(wait status {status}: {how})")
    return pickle.loads(outcome)


def map_ordered(fn, payloads, workers: int = 1):
    """Map fn over payloads, preserving payload order in the result list.

    With more than one worker and payload, fn runs in forked children as
    well as here.  The first failure in payload order is raised once every
    child has been reaped; a child that ends without returning its results
    is a ChildProcessError.
    """
    payloads = list(payloads)
    workers = min(workers, len(payloads))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(p) for p in payloads]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    children = []
    outcomes = []
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(fn, payloads[w::workers], read, write, cpus, w)
            os.close(write)
            children.append((pid, read))
        _place(cpus, 0)
        outcomes.append(_stripe(fn, payloads[::workers]))
    finally:
        outcomes += [_reap(pid, read) for pid, read in children]
    failures = [(w + len(results) * workers, exc)
                for w, (results, exc) in enumerate(outcomes) if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    out = [None] * len(payloads)
    for w, (results, _) in enumerate(outcomes):
        out[w::workers] = results
    return out
