"""Replica fan-out helper.

Replicas are embarrassingly parallel; results are always reduced in
ascending stream-id order, so outputs are identical for any worker count.
"""
from __future__ import annotations


def map_ordered(fn, payloads, workers: int = 1):
    """Map fn over payloads, preserving payload order in the result list."""
    payloads = list(payloads)
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    # the process pool is imported only when a run fans out
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads)),
                             mp_context=ctx) as pool:
        return list(pool.map(fn, payloads))
