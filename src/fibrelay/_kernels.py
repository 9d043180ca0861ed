"""Sequential recursion kernels: the compiled path and the test reference.

Each kernel walks one cocycle step by step.  State is renormalized:
components plus an accumulated log-scale, renormalized by the largest
component every ``period`` steps (``phase`` counts steps since the last
renormalization so chunk boundaries do not disturb the cadence).

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
def info_steps(e2, e1, a, b, log_scale, period, phase):
    # state (a, b) ~ renormalized (value[n-1], value[n])
    for k in range(e2.shape[0]):
        a, b = b, e2[k] * a + e1[k] * b
        phase += 1
        if phase >= period:
            m = a if a >= b else b
            a /= m
            b /= m
            log_scale += np.log(m)
            phase = 0
    return a, b, log_scale, phase


@njit(cache=True)
def info_steps_record(e2, e1, a, b, log_scale, period, phase, out_log):
    for k in range(e2.shape[0]):
        a, b = b, e2[k] * a + e1[k] * b
        phase += 1
        if phase >= period:
            m = a if a >= b else b
            a /= m
            b /= m
            log_scale += np.log(m)
            phase = 0
        out_log[k] = log_scale + np.log(b)
    return a, b, log_scale, phase


@njit(cache=True)
def signed_steps(c2, c1, a, b, log_scale, period, phase):
    # signed variant: components may be negative, renormalize by max(|.|)
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
    return a, b, log_scale, phase


@njit(cache=True)
def noise_steps(q2, q1, n0, w0, w1, w2, log_scale, period, phase):
    # verbatim affine-in-disguise update: (w0,w1,w2) <- (w1 + n0*w2,
    # q2*w0 + q1*w1 + n0*w2, w2); q's are squared hop coefficients
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
    return w0, w1, w2, log_scale, phase


@njit(cache=True)
def noise_steps_record(q2, q1, n0, w0, w1, w2, log_scale, period, phase, out_log):
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
        out_log[k] = log_scale + np.log(w1)
    return w0, w1, w2, log_scale, phase


def warmup():
    """Trigger JIT compilation of all kernels with tiny inputs."""
    e = np.ones(2)
    info_steps(e, e, 1.0, 1.0, 0.0, 1, 0)
    info_steps_record(e, e, 1.0, 1.0, 0.0, 1, 0, np.empty(2))
    signed_steps(e, -e, 1.0, 1.0, 0.0, 1, 0)
    noise_steps(e, e, 1.0, 0.0, 0.0, 1.0, 0.0, 1, 0)
    noise_steps_record(e, e, 1.0, 0.0, 0.0, 1.0, 0.0, 1, 0, np.empty(2))
