"""Coefficient models, gain policies, and the random-stream contract."""
import math

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from fibrelay import (
    ConfigError,
    ConstantGain,
    Deterministic,
    LogNormal,
    NetworkConfig,
    PerNodeGain,
    Rayleigh,
    RngStream,
    SignedBernoulli,
    Uniform,
    ValidationOnlyModelError,
    estimate_lambda,
    expected_log_eta,
    parse_gains,
    parse_model,
)
from fibrelay.coeffs import _U_MAX, _U_SHIFT, first_hop_magnitude, hop_magnitude_chunks

from conftest import SEED

PRODUCTION_MODELS = [
    Deterministic(0.7),
    Rayleigh(1.0),
    Rayleigh(2.5),
    LogNormal(0.3, 0.9),
    Uniform(0.5, 1.5),
]


def draw(model, gain, stream_id, size):
    """Hop coefficients as the engine draws them: one uniform each, times the gain."""
    return model.transform_uniforms(RngStream(SEED, stream_id).generator().random(size)) * gain


class TestSampleEta:
    def test_deterministic_identity(self):
        assert draw(Deterministic(1.0), 1.0, 0, 1)[0] == 1.0

    def test_deterministic_scales_by_gain(self):
        out = draw(Deterministic(0.2), 0.5, 0, 1)[0]
        assert out == pytest.approx(0.1, rel=1e-15)

    def test_rayleigh_second_moment(self):
        """Squared draws average to the mu parameter (5 standard errors)."""
        mu = 1.0
        draws = draw(Rayleigh(mu), 1.0, 0, 1_000_000)
        sq = draws * draws
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - mu) < 5 * se

    def test_rayleigh_second_moment_with_gain(self):
        mu, g = 2.5, 0.7
        draws = draw(Rayleigh(mu), g, 1, 1_000_000)
        sq = (draws / g) ** 2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - mu) < 5 * se

    @pytest.mark.parametrize("model", PRODUCTION_MODELS, ids=lambda m: m.spec_string())
    def test_positivity(self, model):
        draws = draw(model, 1.0, 2, 1_000_000)
        assert np.all(draws > 0.0)

    def test_signed_rejected(self):
        """The signed model drives no network and no default estimate."""
        with pytest.raises(ConfigError):
            NetworkConfig(SignedBernoulli(0.5), ConstantGain(1.0), n_nodes=3)
        with pytest.raises(ValidationOnlyModelError):
            estimate_lambda(SignedBernoulli(0.5), ConstantGain(1.0), 1000, 1, SEED)

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ConfigError, match="gain"):
            ConstantGain(0.0)
        with pytest.raises(ConfigError, match="gain"):
            ConstantGain(-2.0)


class TestExpectedLogEta:
    def test_deterministic_unit(self):
        assert expected_log_eta(Deterministic(1.0), 1.0) == 0.0

    def test_deterministic_gain_cancels(self):
        assert expected_log_eta(Deterministic(2.0), 0.5) == 0.0

    def test_rayleigh_unit_value(self):
        # -euler_gamma / 2 for mu = 1
        assert expected_log_eta(Rayleigh(1.0), 1.0) == pytest.approx(
            -0.28860783245076643, abs=1e-12)

    def test_signed_rejected(self):
        with pytest.raises(ValidationOnlyModelError):
            expected_log_eta(SignedBernoulli(0.5), 1.0)

    @pytest.mark.parametrize("model,gain", [
        (Deterministic(0.7), 1.3),
        (Rayleigh(1.0), 1.0),
        (LogNormal(0.3, 0.9), 2.0),
        (Uniform(0.5, 1.5), 1.0),
    ], ids=lambda v: str(v))
    def test_closed_form_matches_monte_carlo(self, model, gain):
        """Closed forms agree with a 1e7-sample estimate within 4 SE."""
        n_samples = 10_000_000
        rng = RngStream(SEED, 3).generator()
        total = total_sq = 0.0
        done = 0
        while done < n_samples:
            k = min(1 << 20, n_samples - done)
            logs = np.log(model.transform_uniforms(rng.random(k)) * gain)
            total += float(logs.sum())
            total_sq += float((logs * logs).sum())
            done += k
        mc = total / n_samples
        se = math.sqrt(max(total_sq / n_samples - mc * mc, 0.0) / n_samples)
        closed = expected_log_eta(model, gain)
        tol = 4 * se if se > 0 else 1e-12
        assert abs(closed - mc) < tol


# the out-of-place formula of each model, as written before the models
# transformed their input in place
FORMULAS = {
    Deterministic: lambda m, u: np.full(u.shape, float(m.c)),
    Rayleigh: lambda m, u: np.sqrt(-m.mu * np.log1p(-np.minimum(u + _U_SHIFT, _U_MAX))),
    LogNormal: lambda m, u: np.exp(m.m + m.s * ndtri(np.minimum(u + _U_SHIFT, _U_MAX))),
    Uniform: lambda m, u: m.a + (m.b - m.a) * u,
    SignedBernoulli: lambda m, u: np.where(u < m.p, 1.0, -1.0),
}

# edges: u = 0 (the shifted end of the rayleigh and lognormal inverses),
# the largest uniform ``Generator.random`` draws, and each signed p below
EDGES = [0.0, 2.0 ** -60, 0.3, 0.5, 1.0 - 2.0 ** -53]


class TestInPlaceTransforms:
    @pytest.mark.parametrize("model", PRODUCTION_MODELS + [
        SignedBernoulli(0.5), SignedBernoulli(0.3), SignedBernoulli(0.0), SignedBernoulli(1.0)],
        ids=lambda m: m.spec_string())
    def test_bits_equal_out_of_place_formula(self, model):
        """The in-place transform returns its input, holding the formula's
        values bit for bit."""
        u = np.concatenate([EDGES, RngStream(SEED, 4).generator().random(100_000)])
        want = FORMULAS[type(model)](model, u.copy())
        got = model.transform_uniforms(u)
        assert got is u
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("p", (0.0, 0.3, 0.5, 1.0))
    def test_signed_edges(self, p):
        """u exactly p gives -1; p = 0 gives -1 and p = 1 gives +1 on every
        uniform."""
        u = np.array(EDGES)
        signs = SignedBernoulli(p).transform_uniforms(u.copy())
        assert signs.tolist() == [1.0 if x < p else -1.0 for x in u]
        if p in EDGES:
            assert signs[EDGES.index(p)] == -1.0
        assert set(signs) == ({-1.0} if p == 0.0 else {1.0} if p == 1.0 else {-1.0, 1.0})

    @pytest.mark.parametrize("model", (Rayleigh(1.0), LogNormal(0.3, 0.9)),
                             ids=lambda m: m.spec_string())
    def test_zero_uniform_gives_positive_magnitude(self, model):
        value = model.transform_uniforms(np.zeros(1))[0]
        assert 0.0 < value < math.inf

    @pytest.mark.parametrize("model", (Rayleigh(1.0), LogNormal(0.3, 0.9)),
                             ids=lambda m: m.spec_string())
    def test_largest_uniform_gives_finite_magnitude(self, model):
        """u + shift rounds the largest uniform up to 1; the clamp keeps
        its magnitude finite, with no floating-point warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = model.transform_uniforms(np.array([1.0 - 2.0 ** -53]))[0]
        assert 0.0 < value < math.inf

    @pytest.mark.parametrize("model", (Rayleigh(2.5), LogNormal(0.3, 0.9)),
                             ids=lambda m: m.spec_string())
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(u=st.floats(0.0, 1.0 - 2.0 ** -53))
    def test_every_uniform_gives_positive_finite_magnitude(self, model, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = model.transform_uniforms(np.array([u]))[0]
        assert 0.0 < value < math.inf

    def test_model_returning_new_array_fills_out(self):
        """``hop_magnitude_chunks`` with ``out`` leaves the magnitudes in
        ``out`` also for a model that returns a new array."""

        class Fresh(Uniform):
            def transform_uniforms(self, u):
                return self.a + (self.b - self.a) * u

        out = np.empty(10)
        want = list(hop_magnitude_chunks(Uniform(0.5, 1.5), RngStream(SEED, 2).generator(),
                                         9, 4))
        got = hop_magnitude_chunks(Fresh(0.5, 1.5), RngStream(SEED, 2).generator(), 9, 4,
                                   out=out)
        for (start, a), (got_start, b) in zip(want, got):
            assert got_start == start and np.shares_memory(b, out)
            assert np.array_equal(a, b)


class TestRngStream:
    def test_bit_identical_reproduction(self):
        a = RngStream(SEED, 5).generator().random(1000)
        b = RngStream(SEED, 5).generator().random(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_uncorrelated(self):
        x = RngStream(SEED, 0).generator().random(100_000)
        y = RngStream(SEED, 1).generator().random(100_000)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.01

    def test_negative_stream_id_rejected(self):
        with pytest.raises(ConfigError):
            RngStream(SEED, -1)

    @pytest.mark.parametrize("model", PRODUCTION_MODELS, ids=lambda m: m.spec_string())
    def test_batch_equals_scalar_draws(self, model):
        """k batched draws consume the stream exactly like k single draws."""
        gain = ConstantGain(1.3).node_gains(1, 1)[0]
        batch = draw(model, gain, 7, 16)
        gen = RngStream(SEED, 7).generator()
        singles = np.array([model.transform_uniforms(gen.random(1))[0] * gain
                            for _ in range(16)])
        assert np.array_equal(batch, singles)

    def test_hop_chunks_match_single_draws(self):
        """The engine's draw order: two-back hop then one-back hop per node,
        with the receiving node's gain, is stream-equivalent to single draws."""
        model = Rayleigh(1.0)
        gains = PerNodeGain(tuple(0.5 + 0.1 * j for j in range(1, 10)))
        n = 9
        chunks = []
        rng = RngStream(SEED, 9).generator()
        eta01 = first_hop_magnitude(model, rng) * gains.node_gains(1, 1)[0]
        for start, magnitudes in hop_magnitude_chunks(model, rng, n, chunk_steps=3):
            coefs = magnitudes * gains.node_gains(start, len(magnitudes))[:, None]
            chunks += [(start + k, e2, e1) for k, (e2, e1) in enumerate(coefs)]

        gen = RngStream(SEED, 9).generator()

        def single(node):
            return model.transform_uniforms(gen.random(1))[0] * gains.node_gains(node, 1)[0]

        assert eta01 == single(1)
        assert [i for i, _, _ in chunks] == list(range(2, n + 1))
        for i, e2, e1 in chunks:
            assert e2 == single(i)
            assert e1 == single(i)


class TestSpecGrammar:
    @pytest.mark.parametrize("spec,expected", [
        ("rayleigh:mu=1.0", Rayleigh(1.0)),
        ("deterministic:c=0.2", Deterministic(0.2)),
        ("lognormal:m=0,s=1", LogNormal(0.0, 1.0)),
        ("uniform:a=0.5,b=1.5", Uniform(0.5, 1.5)),
        ("signed:p=0.5", SignedBernoulli(0.5)),
    ])
    def test_parse_model(self, spec, expected):
        assert parse_model(spec) == expected

    @pytest.mark.parametrize("model", PRODUCTION_MODELS + [SignedBernoulli(0.25)],
                             ids=lambda m: m.spec_string())
    def test_spec_string_round_trip(self, model):
        assert parse_model(model.spec_string()) == model

    @pytest.mark.parametrize("model,text", [
        (Deterministic(0.2), "deterministic:c=0.20000000000000001"),
        (Rayleigh(1.0), "rayleigh:mu=1"),
        (LogNormal(0.0, 1.0), "lognormal:m=0,s=1"),
        (Uniform(0.5, 1.5), "uniform:a=0.5,b=1.5"),
        (SignedBernoulli(0.5), "signed:p=0.5"),
    ])
    def test_spec_string_text(self, model, text):
        """The exact text manifests echo and ``lyapunov.json`` carries as
        ``model_spec``: parameters in field order, each as ``%.17g``."""
        assert model.spec_string() == text

    @pytest.mark.parametrize("bad", [
        "nope:a=1",
        "rayleigh:mu=abc",
        "rayleigh:sigma=1",
        "uniform:a=2,b=1",
        "deterministic:c=-1",
        "deterministic",
        "rayleigh:mu=1,mu=2",
        "lognormal:m=0,s=1,s=3",
    ])
    def test_malformed_model_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_model(bad)

    def test_omitted_parameters_take_defaults(self):
        assert parse_model("rayleigh") == Rayleigh(1.0)
        assert parse_model("lognormal:m=0.2") == LogNormal(0.2, 1.0)

    def test_parse_gains(self):
        assert parse_gains("constant:g=0.5") == ConstantGain(0.5)
        assert parse_gains("pernode:g=1,2,3") == PerNodeGain((1.0, 2.0, 3.0))
        assert parse_gains("0.7") == ConstantGain(0.7)
        assert parse_gains(" 1, 2,3 ") == PerNodeGain((1.0, 2.0, 3.0))
        with pytest.raises(ConfigError, match="unknown gain spec 'linear:1,2'"):
            parse_gains("linear:1,2")
        with pytest.raises(ConfigError):
            parse_gains("pernode:h=1,2")
        with pytest.raises(ConfigError):
            parse_gains("constant:g=-1")
        with pytest.raises(ConfigError, match="gain spec .*'g' repeated"):
            parse_gains("constant:g=1,g=2")
        with pytest.raises(ConfigError, match="gain spec .*'abc' is not a number"):
            parse_gains("constant:g=abc")
        # a bad gain keeps its cause; a bad number quotes the spec
        for spec in ("pernode:g=1,-2", "1,inf"):
            with pytest.raises(ConfigError, match="must all be positive and finite"):
                parse_gains(spec)
        with pytest.raises(ConfigError, match="must be positive and finite, got -1.0"):
            parse_gains("-1")
        for spec in ("pernode:g=1,abc", "1,abc"):
            with pytest.raises(ConfigError, match=f"malformed pernode gains '{spec}'"):
                parse_gains(spec)


class TestGainPolicies:
    def test_per_node_length_requirement(self):
        with pytest.raises(ConfigError, match="gains"):
            PerNodeGain((1.0, 2.0)).require_length(3)

    def test_per_node_positive(self):
        with pytest.raises(ConfigError):
            PerNodeGain((1.0, 0.0))

    def test_node_gain_lookup(self):
        policy = PerNodeGain((1.0, 2.0, 3.0))
        assert np.array_equal(policy.node_gains(2, 1), [2.0])
        assert np.array_equal(policy.node_gains(2, 2), [2.0, 3.0])
        assert np.array_equal(ConstantGain(0.5).node_gains(4, 3), [0.5] * 3)
