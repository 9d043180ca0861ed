import mpmath
import pytest

from fibrelay import _kernels
from fibrelay.cocycle import _CHUNK_STEPS
from fibrelay.coeffs import RngStream, first_hop_magnitude, hop_magnitude_chunks

# one fixed seed for every deterministic-given-seed statistical test
SEED = 20260809


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Compile the recursion kernels once so timed tests measure steady state."""
    _kernels.warmup()


def mp_oracle_logs(config, stream_id, dps=60):
    """Unrenormalized direct recursion in high-precision arithmetic.

    Replays the exact coefficient stream of ``run_trajectory`` and returns
    (log signal, log noise power) per node as floats.  Independent of the
    renormalized engine: no rescaling, exact rational state.
    """
    mpmath.mp.dps = dps
    rng = RngStream(config.master_seed, stream_id).generator()
    eta01 = first_hop_magnitude(config.model, rng) * config.gains.node_gains(1, 1)[0]
    i_prev, i_cur = mpmath.mpf(config.i0), mpmath.mpf(eta01) * config.i0
    w = [mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)]
    log_i = [float(mpmath.log(i_cur))]
    log_n2 = [float(mpmath.log(config.n0))]
    for start, magnitudes in hop_magnitude_chunks(config.model, rng, config.n_nodes,
                                                  _CHUNK_STEPS):
        coefs = magnitudes * config.gains.node_gains(start, len(magnitudes))[:, None]
        for e2, e1 in coefs.tolist():
            i_prev, i_cur = i_cur, mpmath.mpf(e2) * i_prev + mpmath.mpf(e1) * i_cur
            q2, q1 = mpmath.mpf(e2) ** 2, mpmath.mpf(e1) ** 2
            w = [w[1] + config.n0 * w[2],
                 q2 * w[0] + q1 * w[1] + config.n0 * w[2],
                 w[2]]
            log_i.append(float(mpmath.log(i_cur)))
            log_n2.append(float(mpmath.log(w[1])))
    return log_i, log_n2
