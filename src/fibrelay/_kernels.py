"""Sequential recursion kernels: the compiled path and the test reference.

Two kernels walk one cocycle step by step: ``info_steps`` for the 2x2
signal and signed validation recursions, ``noise_steps`` for the 3x3
noise-power system.  State is renormalized: components plus an accumulated
log-scale, renormalized by the largest component magnitude every
``period`` steps (``phase`` counts steps since the last renormalization so
chunk boundaries do not disturb the cadence).  When ``out_log`` is
non-empty, each kernel also writes the log of the read component's
magnitude after every step; pass an empty array for checkpoint-only runs.

When numba is installed (the optional ``jit`` extra) these loops are
compiled and the engine in ``cocycle`` runs them instead of its blocked
numpy path.  Without numba they stay plain Python: too slow for long runs,
but the sequential reference the engine tests compare against, with
identical IEEE double results to the compiled build.
"""
from __future__ import annotations

import numpy as np

try:
    from numba import njit
except ImportError:  # numba is optional: the blocked numpy engine runs instead
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f


@njit(cache=True)
def info_steps(c2, c1, a, b, log_scale, period, phase, out_log):
    # state (a, b) ~ renormalized (value[n-1], value[n]); components may be
    # negative in the signed recursion, so renormalize by max(|a|, |b|)
    record = out_log.shape[0] > 0
    for k in range(c2.shape[0]):
        a, b = b, c2[k] * a + c1[k] * b
        phase += 1
        if phase >= period:
            aa = a if a >= 0.0 else -a
            ab = b if b >= 0.0 else -b
            m = aa if aa >= ab else ab
            a /= m
            b /= m
            log_scale += np.log(m)
            phase = 0
        if record:
            out_log[k] = log_scale + np.log(b if b >= 0.0 else -b)
    return a, b, log_scale, phase


@njit(cache=True)
def noise_steps(q2, q1, n0, w0, w1, w2, log_scale, period, phase, out_log):
    # verbatim affine-in-disguise update: (w0,w1,w2) <- (w1 + n0*w2,
    # q2*w0 + q1*w1 + n0*w2, w2); q's are squared hop coefficients
    record = out_log.shape[0] > 0
    for k in range(q2.shape[0]):
        t0 = w1 + n0 * w2
        t1 = q2[k] * w0 + q1[k] * w1 + n0 * w2
        w0 = t0
        w1 = t1
        phase += 1
        if phase >= period:
            m = w0
            if w1 > m:
                m = w1
            if w2 > m:
                m = w2
            w0 /= m
            w1 /= m
            w2 /= m
            log_scale += np.log(m)
            phase = 0
        if record:
            out_log[k] = log_scale + np.log(w1)
    return w0, w1, w2, log_scale, phase


def warmup():
    """Trigger JIT compilation of both kernels with tiny inputs."""
    e = np.ones(2)
    info_steps(e, e, 1.0, 1.0, 0.0, 1, 0, np.empty(0))
    info_steps(e, e, 1.0, 1.0, 0.0, 1, 0, np.empty(2))
    noise_steps(e, e, 1.0, 0.0, 0.0, 1.0, 0.0, 1, 0, np.empty(0))
    noise_steps(e, e, 1.0, 0.0, 0.0, 1.0, 0.0, 1, 0, np.empty(2))
