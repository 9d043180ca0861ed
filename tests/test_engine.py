"""Blocked cocycle engine against the sequential reference kernels.

The numpy engine and the sequential ``_kernels`` loops round differently
(block products and a different renormalization cadence), so their logs
are compared at |engine - reference| <= 1e-12 * max(1, |reference|):
relative error 1e-12, absolute 1e-12 for logs of magnitude below 1.  The
reference is ``conftest.sequential_logs``: one kernel call over the whole
chain of one replica.  Batches of R > 1 replicas are checked replica by
replica against it.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fibrelay import (
    ConstantGain,
    Deterministic,
    LogNormal,
    NetworkConfig,
    NumericalError,
    Rayleigh,
    RngStream,
    SignedBernoulli,
    Uniform,
    run_trajectory,
)
from fibrelay import cocycle
from fibrelay.cocycle import NOISE, SIGNAL, SIGNED, _block_length, _trajectories, logs_at

from conftest import SEED, sequential_logs

TOL = 1e-12
POSITIVE_MODELS = [Deterministic(0.2), Deterministic(1.0), Deterministic(2.0),
                   Rayleigh(1.0), LogNormal(0.0, 1.0), Uniform(0.5, 1.5)]
SIGNED_MODELS = [SignedBernoulli(0.5), SignedBernoulli(0.3)]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _chunked(chunk_steps, fn):
    """fn() on the engine with chunks of ``chunk_steps`` (None: the real
    chunk)."""
    with pytest.MonkeyPatch.context() as mp:
        if chunk_steps is not None:
            mp.setattr(cocycle, "_CHUNK_STEPS", chunk_steps)
        return fn()


def _assert_close(got, ref):
    """Finite logs within TOL; -inf (an exact zero of the signed
    recursion) at the same nodes."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[~finite], ref[~finite])
    assert np.all(ref[~finite] == -np.inf)
    err = np.abs(got[finite] - ref[finite]) / np.maximum(1.0, np.abs(ref[finite]))
    assert err.max(initial=0.0) <= TOL, f"worst relative error {err.max():.3e}"


@st.composite
def chains(draw, models):
    """Model, gain, node count, renorm period and checkpoints for one chain.

    Node counts include exact multiples of the block length (2*m*m steps,
    blocks of 2*m) and one step either side; checkpoints include nodes 1
    and 2, the last node and nodes at and next to block edges.
    """
    model = draw(st.sampled_from(models))
    g = draw(st.sampled_from([0.5, 1.0, 1.3]))
    if draw(st.booleans()):
        steps = 2 * draw(st.integers(1, 30)) ** 2 + draw(st.sampled_from([-1, 0, 1]))
    else:
        steps = draw(st.integers(1, 2500))
    n = max(steps, 1) + 1
    L = _block_length(n - 1)
    period = draw(st.integers(1, 3 * L))
    edges = [1 + j * L + e for j in range(1, (n - 1) // L + 1) for e in (-1, 0, 1)]
    picked = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    extra = draw(st.lists(st.integers(1, n), max_size=3))
    checkpoints = sorted({c for c in [1, 2, n, *picked, *extra] if 1 <= c <= n})
    return model, g, n, period, checkpoints


def _check_logs_at(kind, chain, chunk_steps=None, sids=(0,)):
    """The blocked engine on the batch ``sids`` against the sequential
    reference on each replica alone."""
    model, g, n, period, checkpoints = chain
    got = _chunked(chunk_steps, lambda: logs_at(
        kind, model, [ConstantGain(g)], [RngStream(SEED, s) for s in sids], checkpoints,
        i0=1.7, n0=0.6, renorm_period=period))
    assert sorted(got) == checkpoints
    for q, sid in enumerate(sids):
        ref = sequential_logs(kind, model, g, sid, n, i0=1.7, n0=0.6, period=period)
        _assert_close([got[c][q] for c in checkpoints], [ref[c - 1] for c in checkpoints])


def _check_records(traj, chain, sid):
    """A trajectory's signal and noise logs against the sequential
    reference of its replica."""
    model, g, n, period, _ = chain
    log_i, log_n2 = (sequential_logs(kind, model, g, sid, n, i0=1.7, n0=0.6, period=period)
                     for kind in (SIGNAL, NOISE))
    _assert_close(traj.log_i_sq, 2.0 * log_i)
    _assert_close(traj.log_n_sq, log_n2)


class TestCheckpointMode:
    @SETTINGS
    @given(chains(POSITIVE_MODELS))
    @example((Rayleigh(1.0), 1.0, 51, 1, [1, 2, 10, 11, 12, 51]))
    @example((Rayleigh(1.0), 1.0, 50, 10, [1, 2, 41, 50]))
    @example((Rayleigh(1.0), 1.0, 52, 30, [1, 2, 49, 52]))
    def test_signal(self, chain):
        _check_logs_at(SIGNAL, chain)

    @SETTINGS
    @given(chains(SIGNED_MODELS))
    @example((SignedBernoulli(0.5), 1.0, 51, 1, [1, 2, 11, 21, 51]))
    def test_signed(self, chain):
        _check_logs_at(SIGNED, chain)

    @SETTINGS
    @given(chains(POSITIVE_MODELS))
    @example((Deterministic(1.0), 1.0, 51, 1, [1, 2, 3, 11, 51]))
    def test_noise(self, chain):
        _check_logs_at(NOISE, chain)

    @SETTINGS
    @given(st.sampled_from([SIGNAL, SIGNED, NOISE]), st.integers(1, 97),
           chains(POSITIVE_MODELS))
    def test_chains_crossing_chunks(self, kind, chunk_steps, chain):
        if kind == SIGNED:
            chain = (SignedBernoulli(0.5), *chain[1:])
        _check_logs_at(kind, chain, chunk_steps)

    def test_chain_crossing_the_real_chunk(self):
        chunk = cocycle._CHUNK_STEPS
        n = chunk + 300
        chain = (Rayleigh(1.0), 1.0, n, 1, [1, 100, chunk, chunk + 1, chunk + 2, n])
        _check_logs_at(SIGNAL, chain)


class TestRecordMode:
    @SETTINGS
    @given(chains(POSITIVE_MODELS), st.sampled_from([None, 1, 7, 64]))
    @example((Rayleigh(1.0), 1.0, 51, 1, [51]), None)
    @example((LogNormal(0.0, 1.0), 1.3, 3000, 200, [3000]), 64)
    def test_signal_and_noise_records(self, chain, chunk_steps):
        model, g, n, period, _ = chain
        cfg = NetworkConfig(model, ConstantGain(g), n0=0.6, i0=1.7, n_nodes=n,
                            master_seed=SEED)
        traj = _chunked(chunk_steps, lambda: run_trajectory(cfg, 2, period))
        _check_records(traj, chain, 2)


class TestReplicaBatches:
    @SETTINGS
    @given(st.sampled_from([SIGNAL, SIGNED, NOISE]), st.integers(2, 5),
           st.sampled_from([None, 1, 7, 64]), chains(POSITIVE_MODELS))
    @example(SIGNED, 3, None, (Rayleigh(1.0), 1.0, 51, 1, [1, 2, 11, 21, 51]))
    def test_checkpoints(self, kind, n_replicas, chunk_steps, chain):
        if kind == SIGNED:
            chain = (SignedBernoulli(0.5), *chain[1:])
        _check_logs_at(kind, chain, chunk_steps, sids=range(3, 3 + n_replicas))

    @SETTINGS
    @given(st.integers(2, 4), chains(POSITIVE_MODELS), st.sampled_from([None, 1, 7, 64]))
    def test_records(self, n_replicas, chain, chunk_steps):
        model, g, n, period, _ = chain
        cfg = NetworkConfig(model, ConstantGain(g), n0=0.6, i0=1.7, n_nodes=n,
                            master_seed=SEED)
        sids = range(2, 2 + n_replicas)
        got = _chunked(chunk_steps, lambda: list(_trajectories(cfg, sids, period)))
        for traj, sid in zip(got, sids):
            _check_records(traj, chain, sid)


class TestNonFiniteState:
    # the id names the engine path the test covers
    @pytest.mark.parametrize("engine", ["blocked"])
    def test_overflow_raises(self, engine):
        """A coefficient of 1e300 overflows within three steps unless every
        step renormalizes."""
        model = Deterministic(1e300)
        with pytest.raises(NumericalError, match="renorm_period"):
            logs_at(SIGNAL, model, [ConstantGain(1.0)], [RngStream(SEED)], (2000,),
                    renorm_period=3)
        assert math.isfinite(logs_at(SIGNAL, model, [ConstantGain(1.0)], [RngStream(SEED)],
                                     (2000,))[2000][0])

    @pytest.mark.parametrize("engine", ["blocked"])
    def test_squared_coefficient_overflow_raises(self, engine):
        cfg = NetworkConfig(Deterministic(1e200), ConstantGain(1.0), n_nodes=50)
        with pytest.raises(NumericalError, match="noise"):
            run_trajectory(cfg)
