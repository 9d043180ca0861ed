"""Replica batches and gain lanes: a replica's value does not depend on
the batch it ran in or on the gains run next to it.

The engine runs a contiguous range of replicas per call, under one or more
gain policies (one column per replica and gain), within a budget of
column-steps (``cocycle._BATCH_STEPS``).  These tests pin the per-replica
values (compared as float hex, so bit for bit) of the signal, signed and
noise checkpoint modes and of the verify and capacity-ensemble records
across batch sizes 1, 3 and all replicas, across worker counts and under
a budget smaller than the run; and the per-gain values of multi-gain runs
against single-gain runs, the lane budget of wide sweeps, and the draws a
calibration makes.
"""
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from fibrelay import (
    ConfigError,
    ConstantGain,
    Deterministic,
    LogNormal,
    NetworkConfig,
    NumericalError,
    PerNodeGain,
    Rayleigh,
    RngStream,
    SignedBernoulli,
    estimate_lambda,
    estimate_lambdas,
    estimate_noise_exponent,
    find_zero_lyapunov_gain,
    simulate_capacity_ensemble,
    verify_laws,
)
from fibrelay import calibrate, cocycle
from fibrelay.cli import main
from fibrelay.cocycle import NOISE, SIGNAL, SIGNED, _block_length, logs_at
from fibrelay.coeffs import hop_magnitude_chunks

from conftest import SEED, SOURCE_HOP_ERROR, mp_oracle_logs

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
    return estimate_noise_exponent(cfg, N, R, workers=workers).replica_values


def _verify(workers):
    cfg = NetworkConfig(Rayleigh(1.0), ConstantGain(0.6), n0=0.7, i0=1.3,
                        master_seed=SEED)
    cap, pwr = verify_laws(cfg, N, R, workers=workers)
    return (cap.lambda_estimate.replica_values + cap.replica_slopes + pwr.replica_slopes
            + (cap.measured.intercept, pwr.measured.intercept))


def _ensemble(workers):
    cfg = NetworkConfig(Rayleigh(1.0), ConstantGain(0.6), n0=0.7, i0=1.3,
                        master_seed=SEED)
    return simulate_capacity_ensemble(cfg, N, R, workers=workers).ravel()


MODES = {"signal": _signal, "signed": _signed, "noise": _noise, "verify": _verify,
         "ensemble": _ensemble}


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


@pytest.fixture
def swept(monkeypatch):
    """Record the lane-steps of every sweep of the engine."""
    widths = []
    sweep = cocycle._Walk._sweep

    def spy(self, S, K2, K1, *args, **kwargs):
        widths.append(K2.size)
        return sweep(self, S, K2, K1, *args, **kwargs)

    monkeypatch.setattr(cocycle._Walk, "_sweep", spy)
    return widths


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
    for workers in (2, 3, 8):
        assert _hex(run(workers)) == ref


def test_batches_cover_replicas_within_budget():
    """The call plan runs every (gain, replica) pair exactly once, no call
    over the budget unless it holds one replica under one gain, and each
    gain group in at least one call per worker while replicas last."""
    for n_nodes, n_replicas, workers, n_gains in [
            (1200, 6, 1, 1), (1200, 7, 2, 1), (5000, 32, 1, 1), (25000, 32, 2, 1),
            (40000, 3, 8, 1), (2, 5, 1, 1), (5000, 16, 1, 3), (25000, 32, 2, 3),
            (40000, 2, 1, 12), (40000, 7, 2, 12), (200000, 2, 1, 3), (200000, 5, 2, 12),
            (600000, 3, 2, 3), (600000, 2, 1, 12)]:
        calls = cocycle._calls(n_nodes, n_replicas, workers, n_gains)
        pairs = [(g, q) for gains, sids in calls for g in gains for q in sids]
        assert sorted(pairs) == [(g, q) for g in range(n_gains) for q in range(n_replicas)]
        # a chunk caps the steps of one call
        steps = _padded_steps(min(n_nodes, cocycle._CHUNK_STEPS + 1))
        for gains, sids in calls:
            columns = len(gains) * len(sids)
            assert columns == 1 or columns * steps <= cocycle._BATCH_STEPS
        groups = Counter(gains for gains, _ in calls)
        assert min(groups.values()) >= min(workers, n_replicas)


def test_chunk_lanes_are_magnitudes_times_gains(monkeypatch):
    """Each column of a chunk holds its replica's magnitudes, as
    ``hop_magnitude_chunks`` draws them, times its policy's gains of the
    chunk's nodes, and unit pads after its last step, for each model and
    for three policies (the calibration shape) that mix per-node and
    constant gains; chunks of 7 steps cross a 20-node chain."""
    monkeypatch.setattr(cocycle, "_CHUNK_STEPS", 7)
    n, sids = 20, (3, 8)
    policies = [PerNodeGain(tuple(0.5 + 0.1 * j for j in range(n))), ConstantGain(0.8),
                PerNodeGain(tuple(1.7 - 0.05 * j for j in range(n)))]
    for model in (Rayleigh(1.0), SignedBernoulli(0.5), LogNormal(0.0, 0.8),
                  Deterministic(0.7)):
        drawn = [list(hop_magnitude_chunks(model, RngStream(SEED, s).generator(), n, 7))
                 for s in sids]
        chunks = cocycle._chunks(model, policies,
                                 [RngStream(SEED, s).generator() for s in sids], n)
        starts = []
        for c, (start, k, lanes) in enumerate(chunks):
            starts.append(start)
            L, B = lanes.shape[1], lanes.shape[2] // (len(policies) * len(sids))
            for i, policy in enumerate(policies):
                for q in range(len(sids)):
                    assert drawn[q][c][0] == start
                    want = drawn[q][c][1] * policy.node_gains(start, k)[:, None]
                    column = i * len(sids) + q
                    # lane j of the column holds its steps j*L .. j*L+L-1
                    steps = lanes[:, :, column * B:(column + 1) * B].transpose(0, 2, 1)
                    steps = steps.reshape(2, B * L)
                    assert np.array_equal(steps[:, :k], want.T)
                    assert (steps[:, k:] == 1.0).all()
        assert starts == [2, 9, 16]


def test_chunks_keep_no_reference_to_yielded_lanes():
    """A consumer that drops a chunk's lanes frees them: ``_records`` drops
    them before its caller writes the chunk's CSV rows, so they do not add
    to simulate's peak memory."""
    chunks = cocycle._chunks(Rayleigh(1.0), [ConstantGain(0.8), ConstantGain(1.2)],
                             [RngStream(SEED, s).generator() for s in range(3)], 50)
    _, _, lanes = next(chunks)
    lanes = weakref.ref(lanes)
    assert lanes() is None


def test_run_over_budget_splits_into_calls(monkeypatch, batch_sizes, swept):
    """32 replicas of a chain of 1/24 of the budget exceed it and 16 fit:
    two engine calls, and no sweep is wider than the budget."""
    n, n_replicas = cocycle._BATCH_STEPS // 24, 32
    assert 16 * _padded_steps(n) <= cocycle._BATCH_STEPS < n_replicas * _padded_steps(n)
    est = estimate_lambda(Rayleigh(1.0), ConstantGain(0.7), n, n_replicas, SEED)
    assert batch_sizes == [16, 16]
    assert swept and max(swept) <= cocycle._BATCH_STEPS
    monkeypatch.setattr(cocycle, "_BATCH_STEPS", _padded_steps(n))
    one_by_one = estimate_lambda(Rayleigh(1.0), ConstantGain(0.7), n, n_replicas, SEED)
    assert _hex(est.replica_values) == _hex(one_by_one.replica_values)


def test_logs_at_batch_equals_single_streams():
    streams = [RngStream(SEED, sid) for sid in (4, 0, 9)]
    nodes = (1, 2, 57, 800, 1201)
    batch = logs_at(SIGNED, SignedBernoulli(0.3), [ConstantGain(1.0)], streams, nodes)
    for q, stream in enumerate(streams):
        alone = logs_at(SIGNED, SignedBernoulli(0.3), [ConstantGain(1.0)], [stream], nodes)
        assert _hex(batch[c][q] for c in nodes) == _hex(alone[c][0] for c in nodes)
    assert all(np.shape(batch[c]) == (3,) for c in nodes)


# five policies of each kind; the per-node gains differ from node to node
# and from policy to policy
GAIN_POLICIES = {
    "constant": [ConstantGain(g) for g in (0.9, 0.45, 1.3, 0.7, 2.0)],
    "pernode": [PerNodeGain(tuple(0.5 + 0.1 * ((j * (i + 3)) % 11) for j in range(N)))
                for i in range(5)],
}


@pytest.fixture
def passes(monkeypatch):
    """Count the engine passes over each (master seed, stream id)."""
    drawn = Counter()
    generator = RngStream.generator

    def spy(stream):
        drawn[stream.master_seed, stream.stream_id] += 1
        return generator(stream)

    monkeypatch.setattr(RngStream, "generator", spy)
    return drawn


@pytest.mark.parametrize("n_gains", (1, 2, 5))
@pytest.mark.parametrize("kind", GAIN_POLICIES)
def test_gain_lanes_equal_single_gain_runs(kind, n_gains, monkeypatch, batch_sizes):
    """Each gain's replica values from one multi-gain run are those of its
    own run, for batch sizes 1, 3 and all replicas and 1, 2 or 3 workers."""
    model = LogNormal(0.0, 0.8)
    gains = GAIN_POLICIES[kind][:n_gains]
    alone = [_hex(estimate_lambda(model, g, N, R, SEED).replica_values) for g in gains]
    for per_call in (1, 3, R):
        monkeypatch.setattr(cocycle, "_BATCH_STEPS", per_call * n_gains * _padded_steps(N))
        for workers in (1, 2, 3):
            batch_sizes.clear()
            ests = estimate_lambdas(model, gains, N, R, SEED, workers=workers)
            assert [_hex(e.replica_values) for e in ests] == alone
            if workers == 1:
                assert batch_sizes == [per_call] * (R // per_call)


def test_no_gain_policy_rejected():
    with pytest.raises(ConfigError, match="at least one gain policy"):
        estimate_lambdas(Rayleigh(1.0), [], N, R, SEED)


def test_gain_lanes_match_oracle():
    """Each column of a multi-gain pass, per-node gains included, follows
    the 60-digit direct recursion of its own policy on its own stream."""
    n, sids = 60, (0, 5)
    policies = [PerNodeGain(tuple(0.5 + 0.1 * ((j * (i + 3)) % 11) for j in range(n)))
                for i in range(2)] + [ConstantGain(0.8)]
    nodes = range(1, n + 1)
    logs = logs_at(SIGNAL, Rayleigh(1.0), policies, [RngStream(SEED, s) for s in sids],
                   nodes)
    for i, policy in enumerate(policies):
        cfg = NetworkConfig(Rayleigh(1.0), policy, n_nodes=n, master_seed=SEED)
        for q, sid in enumerate(sids):
            log_i, _ = mp_oracle_logs(cfg, sid)
            assert [logs[c][i * len(sids) + q] for c in nodes] == pytest.approx(log_i,
                                                                            abs=1e-9)


def test_lane_pads_stay_unit():
    """The padding after a column's last step holds unit coefficients, not
    its gain: 999 steps leave 36 padded steps in the last lane, where the
    gain 1.5e308, after steps of coefficients near 1, would overflow within
    a step."""
    logs = logs_at(SIGNAL, Deterministic(1 / 1.5e308), [ConstantGain(1.5e308)],
                   [RngStream(SEED)], (1000,))
    assert math.isfinite(logs[1000][0])


@pytest.mark.parametrize("groups", (2, 12))
def test_wide_sweep_stays_within_budget(groups, swept, passes, capsys):
    """A sweep of 12 gains never sweeps wider than the budget or one
    replica under one gain; the gains run in as few passes as fit: two of
    six gains on a chain of 1/8 of the budget, one per gain on a chain of
    3/4 of it."""
    n = cocycle._BATCH_STEPS // 8 if groups == 2 else 3 * cocycle._BATCH_STEPS // 4
    grid = [0.3 + 0.05 * i for i in range(12)]
    assert main(["sweep", "--model", "rayleigh:mu=1", "--n", str(n), "--replicas", "2",
                 "--gain-grid", ",".join(map(str, grid))]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 13
    assert swept and max(swept) <= max(cocycle._BATCH_STEPS, _padded_steps(n))
    assert len({gains for gains, _ in cocycle._calls(n, 2, 1, 12)}) == groups
    assert set(passes.values()) == {groups}


def test_calibration_draws_each_stream_three_times(passes):
    """The calibrate-crn shape (rayleigh, n 5000, 16 replicas, tol 0.01)
    reads six gains; they come from three passes over the main-seed
    streams, not six, plus the confirmation's one pass over fresh ones."""
    res = find_zero_lyapunov_gain(Rayleigh(1.0), 1e-2, 5000, 16, SEED)
    assert res.converged and res.evaluations == 6
    assert passes == Counter({**{(SEED, sid): 3 for sid in range(16)},
                              **{(SEED + 1, sid): 1 for sid in range(16)}})


_OVERFLOW = ("error: non-finite signal cocycle state between nodes 1 and {}: values "
             "left double range between renormalizations; change the coefficient scale "
             "(model or gain)")
_HOP = ("error: a hop coefficient (magnitude * gain) into node {} is not finite: the "
        "model's scale or the gain left double range; change the coefficient scale "
        "(model or gain)")


@pytest.mark.parametrize("model,start,message", [
    # magnitudes above 1.8 times the gain 1e308 are infinite when drawn
    ("rayleigh:mu=1.0", 1e308, _HOP.format(2)),
    ("rayleigh:mu=1.0", 5e-324, SOURCE_HOP_ERROR),
    ("deterministic:c=1", 5e-324, _OVERFLOW.format(100)),
    ("deterministic:c=1", 1e308,
     "error: no growth-rate sign change within 60 doublings from g=1e+308"),
    # 1e300 times the look-ahead gain 2e8 is infinite: the search never
    # reads 2e8, so its look-ahead lane must not end the run
    ("deterministic:c=1e300", 1e8,
     "error: no growth-rate sign change within 60 doublings from g=100000000.0"),
], ids=("huge-rayleigh", "tiny-rayleigh", "tiny-deterministic", "huge-deterministic",
        "look-ahead-overflow"))
def test_extreme_g_init_keeps_exit_and_message(model, start, message, capsys, monkeypatch):
    """A bracket start at the edge of double range, set in place of the
    model's own, exits 3 with one line naming the cause."""
    bracket = calibrate._bracket
    monkeypatch.setattr(calibrate, "_bracket", lambda rate, _start: bracket(rate, start))
    assert main(["calibrate", "--model", model, "--n", "2000", "--replicas", "4"]) == 3
    assert capsys.readouterr().err.strip().splitlines() == [message]


def _hop_policies(gain: float) -> tuple:
    """Two gain policies over 1000 nodes, the second with ``gain`` at
    nodes 777 and 900."""
    gains = [1.0] * 1000
    gains[776] = gains[899] = gain
    return ConstantGain(1.0), PerNodeGain(tuple(gains))


@pytest.mark.parametrize("chunk_steps", [50, 1 << 19])
def test_infinite_hop_names_its_first_node(chunk_steps, monkeypatch):
    """The coefficient 1e300 times the gain 1e10 of nodes 777 and 900 is
    infinite, in the second of two gain policies: the error names node 777,
    in one chunk or in the sixteenth chunk of 50 steps."""
    monkeypatch.setattr(cocycle, "_CHUNK_STEPS", chunk_steps)
    with pytest.raises(NumericalError, match=r"^a hop coefficient \(magnitude \* gain\) "
                       r"into node 777 is not finite"):
        logs_at(SIGNAL, Deterministic(1e300), _hop_policies(1e10),
                [RngStream(SEED, sid) for sid in range(3)], [1000])


@pytest.mark.parametrize("gain", [1e160, 1e10], ids=("infinite", "square-overflows"))
@pytest.mark.parametrize("chunk_steps", [50, 1 << 19])
def test_noise_hop_names_its_first_node(chunk_steps, gain, monkeypatch):
    """The noise walk squares its lanes: the coefficient 1e150 times the
    gain of nodes 777 and 900 is infinite (gain 1e160) or finite with an
    infinite square (gain 1e10), and the error names node 777 and both
    causes."""
    monkeypatch.setattr(cocycle, "_CHUNK_STEPS", chunk_steps)
    with pytest.raises(NumericalError, match=r"^a hop coefficient \(magnitude \* gain\) "
                       r"into node 777 or its square \(.*\) is not finite"):
        logs_at(NOISE, Deterministic(1e150), _hop_policies(gain),
                [RngStream(SEED, sid) for sid in range(3)], [1000])


def test_noise_exponent_names_the_bad_hop():
    """The noise exponent alone runs no signal walk: a Rayleigh scale of
    1e308 gives coefficients that are infinite or square to infinity, and
    the error names the first such node, 7, rather than renormalization."""
    cfg = NetworkConfig(Rayleigh(1e308), ConstantGain(1.0), master_seed=6)
    with pytest.raises(NumericalError, match=r"^a hop coefficient \(magnitude \* gain\) "
                       r"into node 7 or its square"):
        estimate_noise_exponent(cfg, 1000, 2)
