"""Renormalized cocycle engine for the signal and noise recursions.

The signal magnitude at node n follows the two-term random recursion

    value[n] = coef(n-1,n) * value[n-1] + coef(n-2,n) * value[n-2]

driven by strictly positive hop coefficients; the accumulated noise power
follows the companion 3x3 system acting on (0, 0, 1) with squared
coefficients and a noise-floor injection ``n0`` per step.  Raw values grow
or decay like exp(rate * n) and would leave double range within a few
hundred nodes, so states are kept renormalized: components scaled so the
largest is 1, with the log of the scale accumulated separately.  Recovered
log-magnitudes are exact in exact arithmetic and float-accurate in
practice.

Every long run goes through one engine (``logs_at`` for checkpoint reads,
``run_trajectory`` for every-node records).  The per-step update is a
product of small matrices, so it is associative: each chunk of steps is
cut into B blocks of length L ~ sqrt(2k), one numpy lane per block, and the
d basis vectors are pushed through L vectorized steps to give every block's
transfer matrix (Blelloch 1990 for the blocked scan, Benettin et al. 1980
for the renormalized products).  The block matrices are then folded into
the state in order; every-node records replay the L steps once more on the
B block-start states.

The engine state has a column axis: one call runs R replicas under G gain
policies, G * R columns in gain-major order.  Each replica draws its own
Philox stream once, in its own order and chunking, and every gain
multiplies the same magnitudes (common random numbers); the B blocks of
every column sit side by side in one sweep of B * G * R lanes and the
folds are done for all columns at once.  A replica's chunk is drawn and
transformed in place in one buffer that every replica and chunk reuses,
then copied into its G columns while it is in cache: the copy from stream
order into lanes is the product magnitude * gain itself.  A column's value
is the same, bit for bit, in any batch and next to any other gains, so it
does not depend on the batch size, the gains run with it or the worker
count; ``_BATCH_STEPS`` caps the column-steps of one call.

Every-node records come out one chunk at a time (``_records``), and
``_columns`` derives the five trajectory columns from each chunk.  Two
consumers read them: ``_node_logs``, the one reader of whole arrays
(``run_trajectory`` derives every column from them, ``verify`` and the
capacity ensemble only the columns they read), and ``_write_trajectories``
(``simulate``), which appends each chunk's CSV rows to the files as they
come, deriving the columns one CSV block at a time, so a written range of
trajectories holds one chunk of records in memory whatever its length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .coeffs import (
    CoefficientModel,
    GainPolicy,
    RngStream,
    first_hop_magnitude,
    hop_magnitude_chunks,
)
from .errors import ConfigError, NumericalError

CSV_HEADER = "n,log_I_sq,log_N_sq,log_snr,capacity_nats,log_X_sq"

# steps of one replica drawn and pushed at a time; bounds the memory of
# long chains
_CHUNK_STEPS = 1 << 19
# column-steps of lanes per engine call, a column being one replica under
# one gain: a call takes as many replicas as fit with all its gains (at
# least one), for at most 8 MB of coefficients.  A call pays a fixed Python
# cost per step and per block of its sweep and fold, whatever its width:
# at 2^19, 32 replicas x 25000 steps run in two calls rather than four
_BATCH_STEPS = 1 << 19

# cocycle kinds: positive 2x2 signal recursion, signed 2x2 validation
# recursion, 3x3 noise-power system (fed squared coefficients)
SIGNAL = "signal"
SIGNED = "signed"
NOISE = "noise"


@dataclass(frozen=True)
class NetworkConfig:
    """Full description of one simulated relay chain."""

    model: CoefficientModel
    gains: GainPolicy
    n0: float = 1.0
    i0: float = 1.0
    n_nodes: int = 2
    master_seed: int = 0

    def __post_init__(self):
        if self.model.validation_only:
            raise ConfigError("model: validation-only models cannot drive a network")
        if not (self.n0 > 0.0) or not math.isfinite(self.n0):
            raise ConfigError(f"n0 must be positive, got {self.n0}")
        if not (self.i0 > 0.0) or not math.isfinite(self.i0):
            raise ConfigError(f"i0 must be positive, got {self.i0}")
        if int(self.n_nodes) != self.n_nodes or self.n_nodes < 2:
            raise ConfigError(f"n_nodes must be an integer >= 2, got {self.n_nodes}")
        self.gains.require_length(self.n_nodes)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def _block_length(k: int) -> int:
    """Steps per lane for a chunk of k >= 1 steps: about sqrt(2k)."""
    return math.ceil(math.sqrt(2 * k))


def _column_steps(n_nodes: int) -> int:
    """Lane-steps one column of an n_nodes chain takes in one engine call."""
    k = min(max(n_nodes - 1, 1), _CHUNK_STEPS)
    L = _block_length(k)
    return L * -(-k // L)


def _even_ranges(n: int, pieces: int) -> list:
    """0..n-1 cut into ``pieces`` contiguous ranges of near-equal length."""
    bounds = [n * i // pieces for i in range(pieces + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _calls(n_nodes: int, n_replicas: int, workers: int = 1, n_gains: int = 1) -> list:
    """The engine calls that run replicas 0..n_replicas-1 under gains
    0..n_gains-1, one (gain range, stream-id range) each.

    The gains go in as few, and as even, contiguous groups as keep one
    replica's gains within ``_BATCH_STEPS`` column-steps of lanes (one gain
    always fits); each group is one pass that redraws the streams.  Each
    group's replicas go in contiguous ranges, at least one per worker while
    replicas last, none over the budget (one replica always fits).  Values
    do not depend on the plan.
    """
    columns = max(1, _BATCH_STEPS // _column_steps(n_nodes))
    calls = []
    for gains in _even_ranges(n_gains, -(-n_gains // columns)):
        pieces = -(-n_replicas // max(1, columns // len(gains)))
        pieces = min(n_replicas, workers * -(-pieces // workers))
        calls += [(gains, sids) for sids in _even_ranges(n_replicas, pieces)]
    return calls


def _logs(x) -> np.ndarray:
    """``math.log`` of each element (-inf at 0, nan below); ``np.log``
    differs from it in the last bit on some inputs."""
    return np.array([math.log(v) if v > 0.0 else -math.inf if v == 0.0 else math.nan
                     for v in x.tolist()])


def _first_hops(model: CoefficientModel, gains, rngs) -> np.ndarray:
    """Source-hop coefficients of the columns, gain-major (gain i, replica q
    at i * R + q); one uniform per stream whatever the number of gains."""
    magnitudes = np.array([first_hop_magnitude(model, rng) for rng in rngs])
    with np.errstate(over="ignore"):  # reported as non-finite state
        return np.concatenate([magnitudes * policy.node_gains(1, 1)[0] for policy in gains])


def _chunks(model: CoefficientModel, gains, rngs, n_nodes: int):
    """Yield (start node, k, lanes) per chunk of k <= ``_CHUNK_STEPS`` steps
    into nodes 2..n_nodes, for G gain policies x R replicas.

    ``lanes[0]`` holds the two-back and ``lanes[1]`` the one-back
    coefficients as L x (C * B) arrays, C = G * R columns gain-major as in
    ``_first_hops``: column c's steps j*L .. j*L+L-1 fill lane c*B + j.
    Unit coefficients pad each column's last lane, whose partial product
    is read at step k like any checkpoint.

    Each replica draws its chunk through ``hop_magnitude_chunks`` into one
    buffer, reused by every replica and chunk (the first chunk is the
    longest); the first replica's draws drive the loop.  The buffer's
    entries up to 2 * B * L are overwritten with the unit pads, and one
    multiply fills the replica's columns with its magnitudes times every
    policy's gains of nodes start..: the gain product is the one
    transposing copy from stream order into lanes.
    """
    row = np.empty(2 * _column_steps(n_nodes))
    first, *others = [hop_magnitude_chunks(model, rng, n_nodes, _CHUNK_STEPS, out=row)
                      for rng in rngs]
    for start, magnitudes in first:
        k = len(magnitudes)
        L = _block_length(k)
        B = -(-k // L)
        lanes = [np.empty((2, L, len(gains) * len(rngs) * B))]
        pads = np.ones(B * L - k)
        # each policy's gain of the node of every lane step, G x 1 x L x B
        factors = np.stack([np.concatenate([policy.node_gains(start, k), pads])
                            .reshape(B, L).T for policy in gains])[:, None]
        # replica x gain x side x step x lane within the column
        columns = lanes[0].reshape(2, L, len(gains), len(rngs), B).transpose(3, 2, 0, 1, 4)
        for q in range(len(rngs)):
            if q:
                next(others[q - 1])
            row[2 * k:2 * B * L] = 1.0
            steps = row[:2 * B * L].reshape(B, L, 2).transpose(2, 1, 0)
            with np.errstate(over="ignore"):  # reported as non-finite state
                np.multiply(steps, factors, out=columns[q])
        # keep nothing of the chunk but the draw buffer: the consumer's
        # reference to the lanes is their only one
        del columns, factors
        yield start, k, lanes.pop()


class _Walk:
    """One cocycle's renormalized state along C columns' step streams.

    ``vec`` is d x C: per column (value[n-1], value[n]) for the signal and
    signed kinds and (noise[n-1], noise[n], const) for the noise kind,
    scaled so the largest magnitude is 1; ``log_scale`` holds the C logs of
    those scales.  ``advance`` consumes one chunk of hop coefficients (the
    noise kind squares them).
    """

    def __init__(self, kind: str, vec, n0: float = 0.0):
        self.kind = kind
        self.signed = kind == SIGNED
        self.n0 = n0
        self.node = 1
        vec = np.array(np.broadcast_arrays(*map(np.atleast_1d, vec)), dtype=float)
        m = np.abs(vec).max(axis=0)
        with np.errstate(invalid="ignore"):  # an infinite start is read as non-finite
            self.vec = vec / m
        self.log_scale = _logs(m)

    def _error(self, k: int) -> NumericalError:
        """The error of a state that is not finite after k steps of the
        current chunk; k = 0 is the node-1 start, before any step."""
        if k == 0:
            return NumericalError(
                f"{self.kind} cocycle state at node 1 is not finite and nonzero: the "
                "source-hop coefficient (magnitude * gain) or i0 left double range; "
                "change the coefficient scale (model or gain) or i0")
        return NumericalError(
            f"non-finite {self.kind} cocycle state between nodes {self.node} and "
            f"{self.node + k}: values left double range between renormalizations; "
            "change the coefficient scale (model or gain)")

    def _read(self, v, s, k: int) -> np.ndarray:
        """log |v[1]| + s per replica; the signed kind reads the log of the
        state's max-norm, log max(|v[0]|, |v[1]|) + s, which is s itself for
        a normalized state and never -inf."""
        value = s + _logs(np.abs(v).max(axis=0) if self.signed else np.abs(v[1]))
        if not np.isfinite(value).all():
            raise self._error(k)
        return value

    def log_value(self) -> np.ndarray:
        return self._read(self.vec, self.log_scale, 0)

    def advance(self, k: int, lanes, reads=(), out=None) -> list:
        """Apply one chunk of k steps laid out as ``_chunks`` yields them;
        return the R logs after each count of steps in ``reads`` (ascending,
        1..k); fill ``out`` (R x k) with the log after every step when
        given.  The noise kind squares the lanes in place, so it is the last
        walk to read them."""
        # overflow shows as non-finite state, checked below; keep numpy quiet
        with np.errstate(all="ignore"):
            if self.kind == NOISE:
                lanes *= lanes
            K2, K1 = lanes
            try:
                logs = self._advance_blocked(K2, K1, k, reads, out)
            except NumericalError as exc:
                raise self._hop_error(lanes) or exc from None
        self.node += k
        return logs

    def _hop_error(self, lanes):
        """The error naming the first node of the chunk with a hop
        coefficient that is not finite (for the noise kind, whose lanes are
        squared, one that is infinite or whose square overflows), or None
        when all are finite."""
        L, C = lanes.shape[1], self.vec.shape[1]
        # column x lane x step within the lane, in step order per column
        bad = ~np.isfinite(lanes).all(axis=0).reshape(L, C, -1).transpose(1, 2, 0)
        steps = np.flatnonzero(bad.reshape(C, -1).any(axis=0))
        if steps.size:
            what = ("or its square (the noise recursion's coefficient) "
                    if self.kind == NOISE else "")
            return NumericalError(
                f"a hop coefficient (magnitude * gain) into node {self.node + 1 + steps[0]} "
                f"{what}is not finite: the model's scale or the gain left double range; "
                "change the coefficient scale (model or gain)")
        return None

    def _sweep(self, S, K2, K1, visit=None):
        """Push lane states through the steps K2[t], K1[t], t = 0..L-1.

        ``S`` is components x (basis vectors x) lanes and is updated in
        place; the update shifts components, so ``slots`` relabels rows of S
        instead of copying them.  Lanes divide by their largest entry after
        every step.  Returns the divisors (L x lanes) and the final slots.
        """
        L, lanes = K2.shape
        divisors = np.empty((L, lanes))
        rows = list(S)
        entries = S.reshape(-1, lanes)
        magnitudes = np.abs(entries) if self.signed else entries
        term = np.empty_like(rows[0])
        slots = list(range(len(rows)))
        noise, signed, n0 = self.kind == NOISE, self.signed, self.n0
        for t in range(L):
            p, c = slots[0], slots[1]
            rows[p] *= K2[t]
            rows[p] += np.multiply(K1[t], rows[c], out=term)
            if noise:
                np.multiply(rows[2], n0, out=term)
                rows[p] += term
                rows[c] += term
            slots[0], slots[1] = c, p
            m = divisors[t]
            if signed:
                np.abs(entries, out=magnitudes)
            np.maximum.reduce(magnitudes, axis=0, out=m)
            S /= m
            if visit is not None:
                visit(t, slots)
        return divisors, slots

    def _apply(self, M, lm, v, s, k):
        """Renormalized M @ v per replica with log-scales lm and s: M is
        d x d x R, v is d x R.  The same operations, in the same order, as
        on one replica in Python floats."""
        w = M[:, 0] * v[0]
        for i in range(1, len(v)):
            w += M[:, i] * v[i]
        m = np.maximum.reduce(np.abs(w), axis=0)
        try:
            log_m = list(map(math.log, m.tolist()))
        except ValueError:  # an all-zero state
            raise self._error(k) from None
        if not math.isfinite(sum(log_m)):
            raise self._error(k)
        return w / m, s + lm + log_m

    def _advance_blocked(self, K2, K1, k, reads, out):
        d, R = self.vec.shape
        L, B = K2.shape[0], K2.shape[1] // R

        # basis pass: block transfer matrices of every replica, plus the
        # partial products (matrices, lane within the replica, step) the
        # reads need
        wanted = {}
        for r in (*reads, k):
            wanted.setdefault((r - 1) % L, []).append(r)
        snaps = {}
        S = np.zeros((d, d, R * B))
        for i in range(d):
            S[i, i] = 1.0

        def snapshot(t, slots):
            for r in wanted.get(t, ()):
                lane = (r - 1) // L
                snaps[r] = (S[slots, :, lane::B], lane, t)

        log_div, slots = self._sweep(S, K2, K1, snapshot)
        np.log(log_div, out=log_div)
        block_ls = log_div.sum(axis=0)
        if not (np.isfinite(S).all() and np.isfinite(block_ls).all()):
            raise self._error(k)
        blocks = S[slots].reshape(d, d, R, B)
        block_ls = block_ls.reshape(R, B)
        for r, (M, lane, t) in snaps.items():
            # contiguous rows keep the summation order of a 1-D sum
            snaps[r] = (M, np.ascontiguousarray(log_div[:t + 1, lane::B].T).sum(axis=1))

        # fold the block products into the states in order, all replicas
        # at once
        logs, starts = [], []
        pending = list(reads)
        v, s = self.vec, self.log_scale
        for j in range(B):
            starts.append((v, s))
            while pending and pending[0] <= (j + 1) * L:
                r = pending.pop(0)
                logs.append(self._read(*self._apply(*snaps[r], v, s, r), r))
            if j < B - 1:
                v, s = self._apply(blocks[..., j], block_ls[:, j], v, s, k)
        self.vec, self.log_scale = self._apply(*snaps[k], v, s, k)

        if out is not None:
            # replay the steps on the block-start states, recording every
            # step into rec (replicas x blocks x steps, the last block padded)
            del log_div
            V = np.stack([v for v, _ in starts], axis=-1).reshape(d, R * B)
            rec = np.empty((R, B, L))

            def record(t, slots):
                rec[:, :, t] = V[slots[1]].reshape(R, B)

            log_div, _ = self._sweep(V, K2, K1, record)
            np.log(log_div, out=log_div)
            cum = np.cumsum(log_div, axis=0, out=log_div).reshape(L, R, B)
            start_ls = np.stack([s for _, s in starts], axis=-1)
            np.log(np.abs(rec, out=rec), out=rec)
            rec += cum.transpose(1, 2, 0)
            rec += start_ls[:, :, None]
            out[:] = rec.reshape(R, B * L)[:, :k]
            if not np.isfinite(out).all():
                raise self._error(k)
        return logs


def _start(kind: str, first, i0: float, n0: float):
    """The walk of one cocycle from node 1 over the columns whose
    source-hop coefficients are ``first``, and the node-1 log of each
    column.  ``SIGNAL`` starts from (i0, first * i0), ``SIGNED`` from
    (1, first); ``NOISE`` reads verbatim log n0 at node 1, where the first
    3x3 application deposits exactly n0 (``np.log``, as the records read
    every later node)."""
    if kind == NOISE:
        walk = _Walk(kind, (0.0, 0.0, np.ones(len(first))), n0)
        return walk, np.full(len(first), np.log(n0))
    if kind == SIGNAL and not (i0 > 0.0):
        raise ConfigError(f"i0 must be positive, got {i0}")
    with np.errstate(over="ignore"):  # an infinite start reads as non-finite
        walk = _Walk(kind, (1.0, first) if kind == SIGNED else (i0, first * i0))
    return walk, walk.log_value()


def logs_at(kind: str, model: CoefficientModel, gains, streams, checkpoints, *,
            i0: float = 1.0, n0: float = 1.0) -> dict:
    """Log magnitudes of one cocycle at the requested nodes (all >= 1).

    Runs one replica per stream in ``streams`` (a sequence of RngStream)
    under each policy in ``gains`` (a sequence of GainPolicy) and maps each
    node to the array of the G * R logs, gain-major: gain i's replica q is
    entry i * R + q.  Each replica draws its stream once, in the order of
    ``run_trajectory``, for all the gains.  ``SIGNAL`` reads
    log value[node] started from (i0, eta01 * i0); ``SIGNED`` reads the log
    of the state's max-norm, log max(|value[node-1]|, |value[node]|),
    started from (1, coeff01), which has the same growth rate and is never
    -inf; ``NOISE`` reads the log noise power.  Raises NumericalError when a
    state leaves double range.
    """
    rngs = [stream.generator() for stream in streams]
    walk, node_1 = _start(kind, _first_hops(model, gains, rngs), i0, n0)
    want = sorted(set(checkpoints))
    out = {1: node_1} if want[0] == 1 else {}
    for start, k, lanes in _chunks(model, gains, rngs, want[-1]):
        here = [c for c in want if start <= c < start + k]
        out.update(zip(here, walk.advance(k, lanes, [c - start + 1 for c in here])))
    return out


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Trajectory:
    """Per-node log-domain records for nodes 1..n_nodes (index = node - 1)."""

    log_i_sq: np.ndarray
    log_n_sq: np.ndarray
    log_snr: np.ndarray
    capacity_nats: np.ndarray
    log_x_sq: np.ndarray
    config: NetworkConfig
    stream_id: int = 0

    def to_csv(self) -> str:
        """One row per node: the node number, then each column's
        ``"%.17g" % x``, 17 significant digits that round-trip every
        double."""
        from ._csv import csv_text  # loaded with the first file written
        return csv_text(CSV_HEADER, (self.log_i_sq, self.log_n_sq, self.log_snr,
                                     self.capacity_nats, self.log_x_sq), first=1)


def _records(config: NetworkConfig, stream_ids):
    """Yield (first node, log signal, log noise power) of one engine pass
    over the replicas ``stream_ids``, as replicas x nodes arrays: one
    engine chunk of nodes at a time, node 1 leading the first."""
    rngs = [RngStream(config.master_seed, sid).generator() for sid in stream_ids]
    first = _first_hops(config.model, (config.gains,), rngs)
    signal, log_i_1 = _start(SIGNAL, first, config.i0, config.n0)
    noise, log_n2_1 = _start(NOISE, first, config.i0, config.n0)
    for start, k, lanes in _chunks(config.model, (config.gains,), rngs, config.n_nodes):
        lead = int(start == 2)
        log_i = np.empty((len(rngs), lead + k))
        log_n2 = np.empty((len(rngs), lead + k))
        if lead:
            log_i[:, 0], log_n2[:, 0] = log_i_1, log_n2_1
        signal.advance(k, lanes, out=log_i[:, lead:])
        noise.advance(k, lanes, out=log_n2[:, lead:])
        del lanes  # not held while the chunk's records are used
        yield start - lead, log_i, log_n2
        del log_i, log_n2  # not held while the next chunk is drawn and run


def _columns(log_i, log_n2) -> tuple:
    """The five trajectory columns, in ``CSV_HEADER`` order, from the log
    signal and the log noise power."""
    log_i_sq = 2.0 * log_i
    log_snr = metrics.snr_log(log_i_sq, log_n2)
    return (log_i_sq, log_n2, log_snr, metrics.capacity_nats(log_snr),
            metrics.transmit_power_log(log_i_sq, log_n2))


def _node_logs(config: NetworkConfig, stream_ids) -> tuple:
    """(log signal, log noise power) of each stream id at nodes
    1..n_nodes, as replicas x nodes arrays, all replicas run in one engine
    pass."""
    for start, *logs in _records(config, stream_ids):
        if start == 1:  # made after the first chunk, in the memory the engine freed
            log_i = np.empty((len(stream_ids), config.n_nodes))
            log_n2 = np.empty_like(log_i)
        nodes = slice(start - 1, start - 1 + logs[0].shape[1])
        log_i[:, nodes], log_n2[:, nodes] = logs
    return log_i, log_n2


def _write_trajectories(config: NetworkConfig, stream_ids, paths) -> None:
    """Write ``run_trajectory(config, sid).to_csv()`` of each stream id to
    its file in ``paths``, all replicas run in one engine pass and each
    chunk's rows appended as soon as it is run, so memory is bounded by the
    chunk whatever the chain length."""
    from . import _csv  # loaded with the first file written
    for start, log_i, log_n2 in _records(config, stream_ids):
        for path, *logs in zip(paths, log_i, log_n2):
            # one file open at a time: a pass may run thousands of replicas
            with open(path, "ab" if start > 1 else "wb") as file:
                if start == 1:
                    file.write(CSV_HEADER.encode("ascii") + b"\n")
                # the columns of one CSV block at a time
                for cut in range(0, len(logs[0]), _csv._BLOCK_ROWS):
                    rows = slice(cut, cut + _csv._BLOCK_ROWS)
                    _csv.write_rows(file, _columns(*(v[rows] for v in logs)), start + cut)
        del log_i, log_n2, logs  # as in _records


def run_trajectory(config: NetworkConfig, stream_id: int = 0) -> Trajectory:
    """Simulate one relay chain end to end.

    Draws one coefficient per hop in the fixed order (two-back hop before
    one-back hop for each node), feeds the identical samples to both
    cocycles (plain to the signal recursion, squared to the noise
    recursion), and fills every per-node column.  Deterministic given
    (config, stream_id); the engine's batch of one replica.
    """
    [log_i], [log_n2] = _node_logs(config, (stream_id,))
    return Trajectory(*_columns(log_i, log_n2), config=config, stream_id=stream_id)
