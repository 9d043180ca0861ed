"""Coefficient models, gain policies and reproducible random streams.

Every stochastic quantity in the package is a deterministic function of a
``(master_seed, stream_id)`` pair.  Streams are counter-keyed Philox
generators: the 128-bit Philox key is ``master_seed + (stream_id << 64)``,
so distinct stream ids give statistically independent streams and the same
pair reproduces the same draws on every platform.

Sampling contract: every coefficient draw consumes exactly one uniform
double from its stream (rejection-free inverse-CDF samplers only), and a
batch of ``k`` draws consumes the same ``k`` uniforms as ``k`` single
draws.  This keeps common-random-number comparisons aligned across gain
values and across model variants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError, ValidationOnlyModelError

# Half-ulp shift applied before inverting a CDF with a singular endpoint,
# so u=0 (possible: Generator.random() is [0,1)) cannot produce a zero or
# infinite coefficient.  The shift rounds the largest uniform, 1 - 2^-53,
# up to 1, so the shifted uniform is clamped back to it: a no-op on every
# other uniform.
_U_SHIFT = 2.0 ** -54
_U_MAX = 1.0 - 2.0 ** -53

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Handle for one reproducible random stream.

    ``stream_id`` doubles as the replica index; concurrent workers each own
    one stream and never share generator state.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.stream_id < 0 or self.stream_id > _MASK64:
            raise ConfigError(f"stream_id out of range: {self.stream_id}")

    def generator(self) -> Generator:
        key = (self.master_seed & _MASK64) + (self.stream_id << 64)
        return Generator(Philox(key=key))


# ---------------------------------------------------------------------------
# coefficient models
# ---------------------------------------------------------------------------


class CoefficientModel:
    """Distribution of the channel magnitude factor of a hop coefficient.

    A hop coefficient is ``magnitude * gain`` where the magnitude is drawn
    from one of the concrete subclasses below.  All production variants are
    strictly positive with probability 1 and have a finite log-moment.
    Each subclass is a dataclass whose fields are the parameters of its
    spec string ``kind:name=value,...``, ``kind`` being a class attribute.
    """

    validation_only = False

    def transform_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms from a stream to magnitude draws, one per uniform.

        ``u`` may be overwritten: the models below transform it in place
        and return it.  A model may also return a new array."""
        raise NotImplementedError

    def expected_log_magnitude(self) -> float:
        raise NotImplementedError

    def spec_string(self) -> str:
        """``kind:name=value,...`` over the fields in order, each value as
        ``%.17g``, which round-trips every double."""
        return f"{self.kind}:" + ",".join(f"{f.name}={getattr(self, f.name):.17g}"
                                          for f in fields(self))


@dataclass(frozen=True)
class Deterministic(CoefficientModel):
    """Constant magnitude ``c``; draws still consume one uniform each."""

    kind = "deterministic"
    c: float

    def __post_init__(self):
        if not (self.c > 0.0) or not math.isfinite(self.c):
            raise ConfigError(f"deterministic c must be positive, got {self.c}")

    def transform_uniforms(self, u):
        u.fill(self.c)
        return u

    def expected_log_magnitude(self):
        return math.log(self.c)


@dataclass(frozen=True)
class Rayleigh(CoefficientModel):
    """Rayleigh magnitude parameterized by its second moment ``mu``.

    The internal scale is sqrt(mu/2), so E[magnitude^2] = mu.
    """

    kind = "rayleigh"
    mu: float = 1.0

    def __post_init__(self):
        if not (self.mu > 0.0) or not math.isfinite(self.mu):
            raise ConfigError(f"rayleigh mu must be positive, got {self.mu}")

    def transform_uniforms(self, u):
        # sqrt(-mu * log1p(-min(u + shift, u_max))), one ufunc at a time in place
        np.add(u, _U_SHIFT, out=u)
        np.minimum(u, _U_MAX, out=u)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.multiply(u, -self.mu, out=u)
        return np.sqrt(u, out=u)

    def expected_log_magnitude(self):
        return 0.5 * (math.log(self.mu) - np.euler_gamma)


@dataclass(frozen=True)
class LogNormal(CoefficientModel):
    """Magnitude with log-magnitude ~ Normal(m, s)."""

    kind = "lognormal"
    m: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        if not (self.s > 0.0) or not math.isfinite(self.s) or not math.isfinite(self.m):
            raise ConfigError(f"lognormal requires finite m and s > 0, got m={self.m}, s={self.s}")

    def transform_uniforms(self, u):
        # imported here: scipy is most of the package's import time and
        # memory, and only this model needs it
        from scipy.special import ndtri
        # exp(m + s * ndtri(min(u + shift, u_max))), one ufunc at a time in place
        np.add(u, _U_SHIFT, out=u)
        np.minimum(u, _U_MAX, out=u)
        ndtri(u, out=u)
        np.multiply(u, self.s, out=u)
        np.add(u, self.m, out=u)
        return np.exp(u, out=u)

    def expected_log_magnitude(self):
        return self.m


@dataclass(frozen=True)
class Uniform(CoefficientModel):
    """Magnitude uniform on [a, b), 0 < a < b."""

    kind = "uniform"
    a: float = 0.5
    b: float = 1.5

    def __post_init__(self):
        if not (0.0 < self.a < self.b) or not math.isfinite(self.b):
            raise ConfigError(f"uniform requires 0 < a < b, got a={self.a}, b={self.b}")

    def transform_uniforms(self, u):
        np.multiply(u, self.b - self.a, out=u)
        return np.add(u, self.a, out=u)

    def expected_log_magnitude(self):
        a, b = self.a, self.b
        return (b * math.log(b) - a * math.log(a)) / (b - a) - 1.0


@dataclass(frozen=True)
class SignedBernoulli(CoefficientModel):
    """Validation-only model: coefficients are +1 with probability p, else -1.

    Exists solely to validate the growth-rate estimator against the known
    signed-recursion growth constant; every other operation rejects it.
    """

    kind = "signed"
    p: float = 0.5
    validation_only = True

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ConfigError(f"signed p must be a probability, got {self.p}")

    def transform_uniforms(self, u):
        # 1 where u < p, else -1: (u < p) * 2 - 1 in place
        np.less(u, self.p, out=u)
        np.multiply(u, 2.0, out=u)
        return np.subtract(u, 1.0, out=u)

    def expected_log_magnitude(self):
        raise ValidationOnlyModelError("validation-only model has no log-moment")


def _reject_validation_only(model: CoefficientModel, op: str) -> None:
    if model.validation_only:
        raise ValidationOnlyModelError(f"validation-only model not accepted by {op}")


# ---------------------------------------------------------------------------
# gain policies
# ---------------------------------------------------------------------------


class GainPolicy:
    """Amplification factor applied at each retransmitting node."""

    def node_gains(self, start: int, count: int) -> np.ndarray:
        raise NotImplementedError

    def require_length(self, n_nodes: int) -> None:
        """Raise if the policy cannot cover nodes 1..n_nodes."""

    def spec_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantGain(GainPolicy):
    g: float = 1.0

    def __post_init__(self):
        if not (self.g > 0.0) or not math.isfinite(self.g):
            raise ConfigError(f"gain must be positive, got {self.g}")

    def node_gains(self, start, count):
        return np.full(count, self.g)

    def spec_string(self):
        return f"constant:g={self.g:.17g}"


@dataclass(frozen=True)
class PerNodeGain(GainPolicy):
    gains: tuple

    def __post_init__(self):
        gains = tuple(float(g) for g in self.gains)
        if not gains:
            raise ConfigError("gains list must not be empty")
        if any(not (g > 0.0) or not math.isfinite(g) for g in gains):
            raise ConfigError("gains must all be positive")
        object.__setattr__(self, "gains", gains)

    def node_gains(self, start, count):
        return np.asarray(self.gains[start - 1:start - 1 + count])

    def require_length(self, n_nodes):
        if len(self.gains) < n_nodes:
            raise ConfigError(
                f"gains list covers {len(self.gains)} nodes, network needs {n_nodes}"
            )

    def spec_string(self):
        return "pernode:g=" + ",".join(f"{g:.17g}" for g in self.gains)


# ---------------------------------------------------------------------------
# sampling operations
# ---------------------------------------------------------------------------


def expected_log_eta(model: CoefficientModel, gain: float) -> float:
    """Closed-form E[log coefficient] = E[log magnitude] + log(gain)."""
    _reject_validation_only(model, "expected_log_eta")
    if not (gain > 0.0):
        raise ConfigError(f"gain must be positive, got {gain}")
    value = model.expected_log_magnitude() + math.log(gain)
    assert math.isfinite(value)
    return value


def first_hop_magnitude(model: CoefficientModel, rng: Generator) -> float:
    """Magnitude of the source-to-node-1 hop; consumes one uniform.  Its
    coefficient under a gain policy is ``magnitude * gains.node_gains(1, 1)[0]``."""
    with np.errstate(over="ignore"):  # the engine reports the non-finite state
        return model.transform_uniforms(rng.random(1))[0]


def hop_magnitude_chunks(model: CoefficientModel, rng: Generator, n_nodes: int,
                         chunk_steps: int, out: np.ndarray | None = None):
    """Yield ``(start node, magnitudes)`` for the hops into nodes 2..n_nodes,
    ``magnitudes`` being count x (two-back, one-back) for the next count
    <= ``chunk_steps`` nodes.

    This generator is the normative draw-order contract: after the source
    hop (``first_hop_magnitude``), each node's two-back hop is drawn before
    its one-back hop, one uniform each, so consuming it is
    stream-equivalent to 2*(n_nodes-1) successive single draws, whatever
    ``chunk_steps``.  A hop's coefficient under a gain policy is its
    magnitude times the receiving node's gain.  The engine draws every
    replica through it, once for all the gain policies of a pass.

    With ``out``, a contiguous float array of at least
    2 * min(chunk_steps, n_nodes - 1) entries, each chunk is drawn and
    transformed in its first 2 * count entries, and ``magnitudes`` is a
    view of them that the next chunk overwrites.
    """
    start = 2
    while start <= n_nodes:
        count = min(chunk_steps, n_nodes - start + 1)
        u = rng.random(2 * count) if out is None else rng.random(out=out[:2 * count])
        with np.errstate(over="ignore"):  # the engine reports the non-finite state
            magnitudes = model.transform_uniforms(u)
        if magnitudes is not u:  # a model that returns a new array
            u[...] = magnitudes
        yield start, u.reshape(count, 2)
        start += count


# ---------------------------------------------------------------------------
# model / gain specification grammar
# ---------------------------------------------------------------------------

_MODEL_KINDS = {cls.kind: cls
                for cls in (Deterministic, Rayleigh, LogNormal, Uniform, SignedBernoulli)}


def _parse_kv(body: str, spec: str) -> dict:
    out = {}
    if not body:
        return out
    for item in body.split(","):
        if "=" not in item:
            raise ConfigError(f"malformed model spec {spec!r}: expected key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise ConfigError(f"malformed model spec {spec!r}: {val!r} is not a number") from None
    return out


def parse_model(spec: str) -> CoefficientModel:
    """Parse a model spec string like ``rayleigh:mu=1.0``."""
    kind, _, body = spec.strip().partition(":")
    kind = kind.strip().lower()
    if kind not in _MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r} in spec {spec!r}")
    cls = _MODEL_KINDS[kind]
    names = [f.name for f in fields(cls)]
    kwargs = _parse_kv(body.strip(), spec)
    unknown = set(kwargs) - set(names)
    if unknown:
        raise ConfigError(f"unknown parameter {sorted(unknown)[0]!r} for model {kind!r}")
    try:
        return cls(**kwargs)
    except TypeError:
        missing = [n for n in names if n not in kwargs]
        raise ConfigError(f"model {kind!r} missing parameter {missing[0]!r}") from None


def parse_gains(spec: str) -> GainPolicy:
    """Parse ``constant:g=0.5``, ``pernode:g=1,2,3`` or a bare number."""
    text = spec.strip()
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    if kind == "constant":
        kv = _parse_kv(body, spec)
        if set(kv) != {"g"}:
            raise ConfigError(f"constant gain spec needs exactly g=..., got {spec!r}")
        return ConstantGain(kv["g"])
    if kind == "pernode":
        key, _, vals = body.partition("=")
        if key.strip() != "g":
            raise ConfigError(f"pernode gain spec needs g=..., got {spec!r}")
        try:
            return PerNodeGain(tuple(float(v) for v in vals.split(",")))
        except ValueError:
            raise ConfigError(f"malformed pernode gains {spec!r}") from None
    try:
        return ConstantGain(float(text))
    except ValueError:
        raise ConfigError(f"unknown gain spec {spec!r}") from None
