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
B block-start states.  When numba is installed the sequential kernels of
``_kernels`` are faster and run instead.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, metrics
from .coeffs import (
    CoefficientModel,
    GainPolicy,
    RngStream,
    first_hop_coefficient,
    hop_coefficient_chunks,
)
from .errors import ConfigError, NumericalError

CSV_HEADER = "n,log_I_sq,log_N_sq,log_snr,capacity_nats,log_X_sq"
# 17 significant digits round-trip every double
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"

# steps drawn and pushed per engine call; bounds the memory of long chains
_CHUNK_STEPS = 1 << 19

# cocycle kinds: positive 2x2 signal recursion, signed 2x2 validation
# recursion, 3x3 noise-power system (fed squared coefficients)
SIGNAL = "signal"
SIGNED = "signed"
NOISE = "noise"

# compiled sequential kernels beat the blocked numpy engine
_JIT = hasattr(_kernels.info_steps, "py_func")
_KERNELS = {SIGNAL: "info_steps", SIGNED: "signed_steps", NOISE: "noise_steps"}


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


class _Walk:
    """One cocycle's renormalized state along one replica's step stream.

    ``vec`` is (value[n-1], value[n]) for the signal and signed kinds and
    (noise[n-1], noise[n], const) for the noise kind, scaled so the largest
    magnitude is 1; ``log_scale`` is the log of that scale.  ``advance``
    consumes one chunk of hop coefficients (the noise kind squares them).
    """

    def __init__(self, kind: str, vec, period: int, n0: float = 0.0):
        if int(period) != period or period < 1:
            raise ConfigError(f"renorm_period must be an integer >= 1, got {period}")
        self.kind = kind
        self.signed = kind == SIGNED
        self.n0 = n0
        self.period = int(period)
        self.node = 1
        self.phase = 0  # steps since the last renormalization, sequential path
        m = max(map(abs, vec))
        self.vec = [v / m for v in vec]
        self.log_scale = math.log(m)

    def _error(self, k: int) -> NumericalError:
        return NumericalError(
            f"non-finite {self.kind} cocycle state between nodes {self.node} and "
            f"{self.node + k}: values left double range between renormalizations; "
            f"lower renorm_period (now {self.period}) or the coefficient scale")

    def _read(self, v, s, k: int) -> float:
        """log |v[1]| + s; -inf marks an exact zero of the signed recursion."""
        b = abs(v[1])
        if self.signed and b == 0.0:
            return -math.inf
        value = s + math.log(b) if b > 0.0 else math.nan
        if not math.isfinite(value):
            raise self._error(k)
        return value

    def log_value(self) -> float:
        return self._read(self.vec, self.log_scale, 0)

    def advance(self, c2, c1, reads=(), out=None) -> list:
        """Apply len(c2) steps; return logs after each count of steps in
        ``reads`` (ascending, 1..k); fill ``out`` with the log after every
        step when given."""
        # overflow shows as non-finite state, checked below; keep numpy quiet
        with np.errstate(all="ignore"):
            if self.kind == NOISE:
                c2, c1 = c2 * c2, c1 * c1
            if _JIT:
                logs = self._advance_sequential(c2, c1, reads, out)
            else:
                logs = self._advance_blocked(c2, c1, reads, out)
        self.node += len(c2)
        return logs

    # -- compiled (or reference) path: the sequential kernels -------------

    def _steps(self, c2, c1, vec, ls, phase, *out):
        """Run the sequential kernel over c2, c1 from (vec, ls, phase)."""
        pre = (self.n0,) if self.kind == NOISE else ()
        *vec, ls, phase = getattr(_kernels, _KERNELS[self.kind] + ("_record" if out else ""))(
            c2, c1, *pre, *vec, ls, self.period, phase, *out)
        if not all(map(math.isfinite, (*vec, ls))):
            raise self._error(len(c2))
        return vec, ls, phase

    def _advance_sequential(self, c2, c1, reads, out):
        state = (self.vec, self.log_scale, self.phase)
        if out is not None:
            state = self._steps(c2, c1, *state, out)
            if not np.isfinite(out).all():
                raise self._error(len(c2))
            logs = [float(out[r - 1]) for r in reads]
        else:
            logs, pos = [], 0
            for r in reads:
                state = self._steps(c2[pos:r], c1[pos:r], *state)
                logs.append(self._read(state[0], state[1], r))
                pos = r
            if pos < len(c2):
                state = self._steps(c2[pos:], c1[pos:], *state)
        self.vec, self.log_scale, self.phase = state
        return logs

    # -- numpy path: blocked transfer matrices ---------------------------

    def _sweep(self, S, K2, K1, visit=None, renorm_last=False):
        """Push lane states through the steps K2[t], K1[t], t = 0..L-1.

        ``S`` is components x (basis vectors x) lanes and is updated in
        place; the update shifts components, so ``slots`` relabels rows of S
        instead of copying them.  Lanes divide by their largest entry every
        ``period`` steps (and after the last step if ``renorm_last``).
        Returns the divisors (L x lanes, 1 where none) and the final slots.
        """
        L, lanes = K2.shape
        divisors = np.ones((L, lanes))
        rows = list(S)
        entries = S.reshape(-1, lanes)
        magnitudes = np.abs(entries) if self.signed else entries
        term = np.empty_like(rows[0])
        slots = list(range(len(rows)))
        noise, signed, n0, period = self.kind == NOISE, self.signed, self.n0, self.period
        for t in range(L):
            p, c = slots[0], slots[1]
            rows[p] *= K2[t]
            rows[p] += np.multiply(K1[t], rows[c], out=term)
            if noise:
                np.multiply(rows[2], n0, out=term)
                rows[p] += term
                rows[c] += term
            slots[0], slots[1] = c, p
            if (t + 1) % period == 0 or (renorm_last and t == L - 1):
                m = divisors[t]
                if signed:
                    np.abs(entries, out=magnitudes)
                magnitudes.max(axis=0, out=m)
                S /= m
            if visit is not None:
                visit(t, slots)
        return divisors, slots

    def _apply(self, M, lm, v, s, k):
        """Renormalized M @ v with log-scales lm and s, in Python floats."""
        if len(v) == 2:
            a, b = v
            w = [r0 * a + r1 * b for r0, r1 in M]
        else:
            a, b, c = v
            w = [r0 * a + r1 * b + r2 * c for r0, r1, r2 in M]
        m = max(map(abs, w))
        if not 0.0 < m < math.inf:
            raise self._error(k)
        return [x / m for x in w], s + lm + math.log(m)

    def _advance_blocked(self, c2, c1, reads, out):
        k = len(c2)
        d = len(self.vec)
        L = _block_length(k)
        B = -(-k // L)
        full = (B - 1) * L
        # lane j holds steps j*L .. j*L+L-1 (K[t, j]); unit coefficients pad
        # the last lane, whose partial product is read at step k like any
        # checkpoint
        K2, K1 = np.ones((2, L, B))
        for lanes, c in ((K2, c2), (K1, c1)):
            lanes[:, :-1] = c[:full].reshape(B - 1, L).T
            lanes[:k - full, -1] = c[full:]

        # basis pass: block transfer matrices, plus the partial products
        # (matrix, lane, step) the reads need
        wanted = {}
        for r in (*reads, k):
            wanted.setdefault((r - 1) % L, []).append(r)
        snaps = {}
        S = np.zeros((d, d, B))
        for i in range(d):
            S[i, i] = 1.0

        def snapshot(t, slots):
            for r in wanted.get(t, ()):
                lane = (r - 1) // L
                snaps[r] = (S[slots, :, lane].tolist(), lane, t)

        log_div, slots = self._sweep(S, K2, K1, snapshot, renorm_last=True)
        np.log(log_div, out=log_div)
        block_ls = log_div.sum(axis=0)
        if not (np.isfinite(S).all() and np.isfinite(block_ls).all()):
            raise self._error(k)
        blocks = S[slots].transpose(2, 0, 1).tolist()
        block_ls = block_ls.tolist()
        for r, (M, lane, t) in snaps.items():
            snaps[r] = (M, float(log_div[:t + 1, lane].sum()))

        # fold the block products into the state in order
        logs, starts = [], []
        pending = list(reads)
        v, s = self.vec, self.log_scale
        for j in range(B):
            starts.append((v, s))
            while pending and pending[0] <= (j + 1) * L:
                r = pending.pop(0)
                logs.append(self._read(*self._apply(*snaps[r], v, s, r), r))
            if j < B - 1:
                v, s = self._apply(blocks[j], block_ls[j], v, s, k)
        self.vec, self.log_scale = self._apply(*snaps[k], v, s, k)

        if out is not None:
            # replay the steps on the block-start states, reading every step
            V = np.array([v for v, _ in starts]).T.copy()
            vals = np.empty((L, B))

            def record(t, slots):
                vals[t] = V[slots[1]]

            log_div, _ = self._sweep(V, K2, K1, record)
            np.log(log_div, out=log_div)
            vals = np.log(np.abs(vals, out=vals), out=vals)
            vals += np.cumsum(log_div, axis=0, out=log_div)
            vals += [s for _, s in starts]
            out[:full].reshape(B - 1, L)[:] = vals[:, :-1].T
            out[full:] = vals[:k - full, -1]
            if not np.isfinite(out).all():
                raise self._error(k)
        return logs


def _signal_walk(i0: float, eta01: float, period: int) -> _Walk:
    """Signal walk from the raw vector (i0, eta01 * i0)."""
    if not (i0 > 0.0):
        raise ConfigError(f"i0 must be positive, got {i0}")
    if not (eta01 > 0.0):
        raise ConfigError(f"eta01 must be positive, got {eta01}")
    return _Walk(SIGNAL, (i0, eta01 * i0), period)


def logs_at(kind: str, model: CoefficientModel, gains: GainPolicy, stream: RngStream,
            checkpoints, *, i0: float = 1.0, n0: float = 1.0,
            renorm_period: int = 1) -> dict:
    """Log magnitudes of one cocycle at the requested nodes (all >= 1).

    Draws the stream in the order of ``run_trajectory``.  ``SIGNAL`` reads
    log value[node] started from (i0, eta01 * i0); ``SIGNED`` reads
    log |value[node]| started from (1, coeff01), -inf at an exact zero;
    ``NOISE`` reads the log noise power.  Raises NumericalError when the
    state leaves double range.
    """
    rng = stream.generator()
    first = first_hop_coefficient(model, gains, rng)
    if kind == NOISE:
        walk = _Walk(kind, (0.0, 0.0, 1.0), renorm_period, n0)
    elif kind == SIGNED:
        walk = _Walk(kind, (1.0, first), renorm_period)
    else:
        walk = _signal_walk(i0, first, renorm_period)
    want = sorted(set(checkpoints))
    out = {}
    if want[0] == 1:
        # verbatim: the first 3x3 application deposits exactly n0 at node 1
        out[1] = math.log(n0) if kind == NOISE else walk.log_value()
    for start, c2, c1 in hop_coefficient_chunks(model, gains, rng, want[-1], _CHUNK_STEPS):
        here = [c for c in want if start <= c < start + len(c2)]
        out.update(zip(here, walk.advance(c2, c1, [c - start + 1 for c in here])))
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

    def write_csv(self, file) -> None:
        """Emit rows with full double precision (17 significant digits)."""
        if hasattr(file, "write"):
            self._write(file)
        else:
            with open(file, "w", newline="") as fh:
                self._write(fh)

    def _write(self, fh) -> None:
        fh.write(CSV_HEADER + "\n")
        cols = (self.log_i_sq, self.log_n_sq, self.log_snr,
                self.capacity_nats, self.log_x_sq)
        rows = zip(range(1, len(self.log_i_sq) + 1), *(c.tolist() for c in cols))
        fh.writelines(_CSV_ROW % row for row in rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()


def run_trajectory(config: NetworkConfig, stream_id: int = 0,
                   renorm_period: int = 1) -> Trajectory:
    """Simulate one relay chain end to end.

    Draws one coefficient per hop in the fixed order (two-back hop before
    one-back hop for each node), feeds the identical samples to both
    cocycles (plain to the signal recursion, squared to the noise
    recursion), and fills every per-node column.  Deterministic given
    (config, stream_id).
    """
    n = config.n_nodes
    rng = RngStream(config.master_seed, stream_id).generator()

    log_i = np.empty(n)
    log_n2 = np.empty(n)

    signal = _signal_walk(config.i0, first_hop_coefficient(config.model, config.gains, rng),
                          renorm_period)
    noise = _Walk(NOISE, (0.0, 0.0, 1.0), renorm_period, config.n0)
    log_i[0] = signal.log_value()
    # verbatim: the first 3x3 application deposits exactly n0 in the
    # node-1 slot
    log_n2[0] = np.log(config.n0)

    for start, e2, e1 in hop_coefficient_chunks(config.model, config.gains, rng, n,
                                                _CHUNK_STEPS):
        rows = slice(start - 1, start - 1 + len(e2))
        signal.advance(e2, e1, out=log_i[rows])
        noise.advance(e2, e1, out=log_n2[rows])

    log_i_sq = 2.0 * log_i
    log_snr = metrics.snr_log(log_i_sq, log_n2)
    return Trajectory(
        log_i_sq=log_i_sq,
        log_n_sq=log_n2,
        log_snr=log_snr,
        capacity_nats=metrics.capacity_nats(log_snr),
        log_x_sq=metrics.transmit_power_log(log_i_sq, log_n2),
        config=config,
        stream_id=stream_id,
    )
