import os
from pathlib import Path

import mpmath
import numpy as np

from fibrelay import ConstantGain, _kernels
from fibrelay.cocycle import _CHUNK_STEPS, NOISE, SIGNED, _start
from fibrelay.coeffs import RngStream, first_hop_magnitude, hop_magnitude_chunks

# one fixed seed for every deterministic-given-seed statistical test
SEED = 20260809

_SRC = str(Path(__file__).resolve().parents[1] / "src")


# the one stderr line of a run whose source-hop coefficient leaves double range
SOURCE_HOP_ERROR = ("error: signal cocycle state at node 1 is not finite and nonzero: the "
                    "source-hop coefficient (magnitude * gain) or i0 left double range; "
                    "change the coefficient scale (model or gain) or i0")


def child_env() -> dict:
    """The environment of a child Python that imports fibrelay from this
    checkout's ``src``, as the tests do, ahead of any other PYTHONPATH, and
    turns a RuntimeWarning into an error, as ``filterwarnings`` in
    pyproject.toml does for the tests."""
    paths = [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
                PYTHONWARNINGS="error::RuntimeWarning")


def _hop_coefficients(model, gains, rng, n_nodes):
    """Source-hop coefficient and the (two-back, one-back) coefficients of
    nodes 2..n_nodes of one replica, drawn in the engine's order."""
    first = first_hop_magnitude(model, rng) * gains.node_gains(1, 1)[0]
    coefs = [magnitudes * gains.node_gains(start, len(magnitudes))[:, None]
             for start, magnitudes in hop_magnitude_chunks(model, rng, n_nodes,
                                                           _CHUNK_STEPS)]
    return first, np.concatenate(coefs)


def sequential_logs(kind, model, gain, stream_id, n, *, i0, n0):
    """Logs of nodes 1..n of one cocycle on stream (SEED, stream_id) under
    the constant gain ``gain``: the sequential ``_kernels`` run over the
    whole chain in one call, renormalizing after every step, from the walk
    ``cocycle._start`` begins with.
    For ``SIGNED`` node m reads max(V[m-1], V[m]), the log of the state's
    max-norm, where V holds the per-node value logs and V[0] = 0.  The
    blocked engine is tested against it."""
    rng = RngStream(SEED, stream_id).generator()
    first, coefs = _hop_coefficients(model, ConstantGain(gain), rng, n)
    walk, node_1 = _start(kind, np.array([first]), i0, n0)
    state = (*walk.vec[:, 0].tolist(), float(walk.log_scale[0]))
    c2, c1 = coefs.T
    out = np.empty(n - 1)
    # an exact zero of the signed value logs as -inf
    with np.errstate(divide="ignore"):
        if kind == NOISE:
            _kernels.noise_steps(c2 * c2, c1 * c1, n0, *state, out)
        else:
            _kernels.info_steps(c2, c1, *state, out)
        if kind == SIGNED:
            values = np.concatenate([[0.0, np.log(abs(first))], out])
            return np.maximum(values[:-1], values[1:])
    return np.concatenate([node_1, out])


def mp_oracle_logs(config, stream_id, dps=60):
    """Unrenormalized direct recursion in high-precision arithmetic.

    Replays the exact coefficient stream of ``run_trajectory`` and returns
    (log signal, log noise power) per node as floats.  Independent of the
    renormalized engine: no rescaling, exact rational state.
    """
    mpmath.mp.dps = dps
    rng = RngStream(config.master_seed, stream_id).generator()
    eta01, coefs = _hop_coefficients(config.model, config.gains, rng, config.n_nodes)
    i_prev, i_cur = mpmath.mpf(config.i0), mpmath.mpf(eta01) * config.i0
    w = [mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)]
    log_i = [float(mpmath.log(i_cur))]
    log_n2 = [float(mpmath.log(config.n0))]
    for e2, e1 in coefs.tolist():
        i_prev, i_cur = i_cur, mpmath.mpf(e2) * i_prev + mpmath.mpf(e1) * i_cur
        q2, q1 = mpmath.mpf(e2) ** 2, mpmath.mpf(e1) ** 2
        w = [w[1] + config.n0 * w[2],
             q2 * w[0] + q1 * w[1] + config.n0 * w[2],
             w[2]]
        log_i.append(float(mpmath.log(i_cur)))
        log_n2.append(float(mpmath.log(w[1])))
    return log_i, log_n2
