"""Replica batches: a replica's value does not depend on the batch it ran in.

The engine runs a contiguous range of replicas per call, within a budget of
replica-steps (``cocycle._BATCH_STEPS``).  These tests pin the per-replica
values (compared as float hex, so bit for bit) of the signal, signed and
noise checkpoint modes and of the verify records across batch sizes 1, 3
and all replicas, across worker counts, under a budget smaller than the
run, and when one replica of a batch restarts.
"""
import math

import numpy as np
import pytest

from fibrelay import (
    ConstantGain,
    LogNormal,
    NetworkConfig,
    Rayleigh,
    RngStream,
    SignedBernoulli,
    estimate_lambda,
    estimate_noise_exponent,
    verify_laws,
)
from fibrelay import cocycle, lyapunov
from fibrelay.cocycle import SIGNED, _block_length, logs_at

from conftest import SEED

N = 1200
R = 6


def _signal(workers):
    return estimate_lambda(LogNormal(0.0, 0.8), ConstantGain(0.9), N, R, SEED,
                           workers=workers).replica_values


def _signed(workers):
    return estimate_lambda(SignedBernoulli(0.5), ConstantGain(1.0), N, R, SEED,
                           validation=True, workers=workers).replica_values


def _noise(workers):
    cfg = NetworkConfig(Rayleigh(1.0), ConstantGain(0.8), n0=0.6, master_seed=SEED)
    return estimate_noise_exponent(cfg, N, R, renorm_period=3,
                                   workers=workers).replica_values


def _verify(workers):
    cfg = NetworkConfig(Rayleigh(1.0), ConstantGain(0.6), n0=0.7, i0=1.3,
                        master_seed=SEED)
    cap, pwr = verify_laws(cfg, N, R, workers=workers)
    return (cap.lambda_estimate.replica_values + cap.replica_slopes + pwr.replica_slopes
            + (cap.measured.intercept, pwr.measured.intercept))


MODES = {"signal": _signal, "signed": _signed, "noise": _noise, "verify": _verify}


def _hex(values):
    return [float(v).hex() for v in values]


def _padded_steps(n_nodes):
    """Lanes one replica of an n_nodes chain takes in one engine call."""
    k = n_nodes - 1
    L = _block_length(k)
    return L * -(-k // L)


@pytest.fixture
def batch_sizes(monkeypatch):
    """Record the replica count of every engine pass."""
    sizes = []
    chunks = cocycle._chunks

    def spy(model, gains, rngs, n_nodes):
        sizes.append(len(rngs))
        return chunks(model, gains, rngs, n_nodes)

    monkeypatch.setattr(cocycle, "_chunks", spy)
    return sizes


@pytest.mark.parametrize("mode", MODES)
def test_values_do_not_depend_on_batch_size(mode, monkeypatch, batch_sizes):
    run = MODES[mode]
    results = {}
    for per_call in (1, 3, R):
        monkeypatch.setattr(cocycle, "_BATCH_STEPS", per_call * _padded_steps(N))
        batch_sizes.clear()
        results[per_call] = _hex(run(1))
        assert batch_sizes == [per_call] * (R // per_call)
    assert results[1] == results[3] == results[R]


@pytest.mark.parametrize("mode", MODES)
def test_values_do_not_depend_on_worker_count(mode):
    run = MODES[mode]
    ref = _hex(run(1))
    for workers in (2, 8):
        assert _hex(run(workers)) == ref


def test_batches_cover_replicas_within_budget():
    for n_nodes, n_replicas, workers in [(1200, 6, 1), (1200, 7, 2), (5000, 32, 1),
                                         (25000, 32, 2), (40000, 3, 8), (2, 5, 1)]:
        ranges = cocycle._batches(n_nodes, n_replicas, workers)
        assert [i for r in ranges for i in r] == list(range(n_replicas))
        assert len(ranges) >= min(workers, n_replicas)
        for r in ranges:
            assert len(r) == 1 or len(r) * _padded_steps(max(n_nodes, 2)) <= cocycle._BATCH_STEPS


def test_run_over_budget_splits_into_calls(monkeypatch, batch_sizes):
    """32 replicas of 5000 steps exceed the budget: two engine calls, and
    no sweep is wider than the budget."""
    n, n_replicas = 5000, 32
    assert n * n_replicas > cocycle._BATCH_STEPS
    swept = []
    sweep = cocycle._Walk._sweep

    def spy(self, S, K2, K1, *args, **kwargs):
        swept.append(K2.size)
        return sweep(self, S, K2, K1, *args, **kwargs)

    monkeypatch.setattr(cocycle._Walk, "_sweep", spy)
    est = estimate_lambda(Rayleigh(1.0), ConstantGain(0.7), n, n_replicas, SEED)
    assert batch_sizes == [16, 16]
    assert swept and max(swept) <= cocycle._BATCH_STEPS
    monkeypatch.setattr(cocycle, "_BATCH_STEPS", _padded_steps(n))
    one_by_one = estimate_lambda(Rayleigh(1.0), ConstantGain(0.7), n, n_replicas, SEED)
    assert _hex(est.replica_values) == _hex(one_by_one.replica_values)


def test_forced_zero_restarts_only_that_replica(monkeypatch, caplog):
    """A -inf read on one replica of a batch reruns that replica alone on
    its offset stream; its neighbours keep their values bit for bit."""
    clean = estimate_lambda(SignedBernoulli(0.5), ConstantGain(1.0), N, R, SEED,
                            validation=True).replica_values
    calls = []
    real = lyapunov.logs_at

    def forced(kind, model, gains, streams, checkpoints, **kwargs):
        calls.append([s.stream_id for s in streams])
        logs = real(kind, model, gains, streams, checkpoints, **kwargs)
        if len(calls) == 1:
            logs[N][2] = -math.inf
        return logs

    monkeypatch.setattr(lyapunov, "logs_at", forced)
    with caplog.at_level("WARNING", logger="fibrelay"):
        values = estimate_lambda(SignedBernoulli(0.5), ConstantGain(1.0), N, R, SEED,
                                 validation=True).replica_values
    restarted = 2 + lyapunov._RESTART_STRIDE
    assert calls == [list(range(R)), [restarted]]
    assert sum("restarting" in rec.message for rec in caplog.records) == 1
    assert _hex(values[:2] + values[3:]) == _hex(clean[:2] + clean[3:])
    alone = real(SIGNED, SignedBernoulli(0.5), ConstantGain(1.0),
                 [RngStream(SEED, restarted)], (lyapunov.DEFAULT_BURN_IN, N))
    expected = (alone[N] - alone[lyapunov.DEFAULT_BURN_IN]) / (N - lyapunov.DEFAULT_BURN_IN)
    assert _hex(values[2:3]) == _hex(expected)


def test_logs_at_batch_equals_single_streams():
    streams = [RngStream(SEED, sid) for sid in (4, 0, 9)]
    nodes = (1, 2, 57, 800, 1201)
    batch = logs_at(SIGNED, SignedBernoulli(0.3), ConstantGain(1.0), streams, nodes,
                    renorm_period=4)
    for q, stream in enumerate(streams):
        alone = logs_at(SIGNED, SignedBernoulli(0.3), ConstantGain(1.0), [stream], nodes,
                        renorm_period=4)
        assert _hex(batch[c][q] for c in nodes) == _hex(alone[c][0] for c in nodes)
    assert all(np.shape(batch[c]) == (3,) for c in nodes)
