"""Sequential recursion kernels: the engine's test reference.

``info_steps`` walks the 2x2 signal and signed validation recursions and
``noise_steps`` the 3x3 noise-power system, one step at a time in plain
Python.  State is renormalized by the largest component magnitude after
every step, its log accumulated in ``log_scale``.  When ``out_log`` is
non-empty the kernel writes the log of the read component's magnitude
after every step into it.

The package does not call them: ``tests/conftest.py::sequential_logs``
does, and the benchmark's preflight reads ``fibrelay._kernels.info_steps``.
"""
from __future__ import annotations

import numpy as np


def info_steps(c2, c1, a, b, log_scale, out_log):
    # state (a, b) ~ renormalized (value[n-1], value[n]); components may be
    # negative in the signed recursion, so renormalize by max(|a|, |b|)
    record = out_log.shape[0] > 0
    for k in range(c2.shape[0]):
        a, b = b, c2[k] * a + c1[k] * b
        aa = a if a >= 0.0 else -a
        ab = b if b >= 0.0 else -b
        m = aa if aa >= ab else ab
        a /= m
        b /= m
        log_scale += np.log(m)
        if record:
            out_log[k] = log_scale + np.log(b if b >= 0.0 else -b)
    return a, b, log_scale


def noise_steps(q2, q1, n0, w0, w1, w2, log_scale, out_log):
    # verbatim affine-in-disguise update: (w0,w1,w2) <- (w1 + n0*w2,
    # q2*w0 + q1*w1 + n0*w2, w2); q's are squared hop coefficients
    record = out_log.shape[0] > 0
    for k in range(q2.shape[0]):
        t0 = w1 + n0 * w2
        t1 = q2[k] * w0 + q1[k] * w1 + n0 * w2
        w0 = t0
        w1 = t1
        m = w0
        if w1 > m:
            m = w1
        if w2 > m:
            m = w2
        w0 /= m
        w1 /= m
        w2 /= m
        log_scale += np.log(m)
        if record:
            out_log[k] = log_scale + np.log(w1)
    return w0, w1, w2, log_scale
