"""Cocycle engine: start states, exact steps, trajectories, CSV and the oracle."""
import math

import numpy as np
import pytest

from fibrelay import (
    CSV_HEADER,
    ConfigError,
    ConstantGain,
    Deterministic,
    NetworkConfig,
    NumericalError,
    PerNodeGain,
    Rayleigh,
    RngStream,
    SignedBernoulli,
    Trajectory,
    estimate_lambda,
    lambda_deterministic_closed_form,
    run_trajectory,
)
from fibrelay import _kernels
from fibrelay.cocycle import NOISE, SIGNAL, _block_length, _start, _Walk, logs_at

from conftest import SEED, mp_oracle_logs


def _det_logs(kind, c, nodes, i0=1.0):
    """Engine logs at ``nodes`` of a chain whose every coefficient is c."""
    logs = logs_at(kind, Deterministic(c), [ConstantGain(1.0)], [RngStream(SEED, 0)], nodes,
                   i0=i0)
    return {node: float(values[0]) for node, values in logs.items()}


def _state(walk):
    """(vec, log_scale) of a one-replica walk."""
    return walk.vec[:, 0].tolist(), float(walk.log_scale[0])


def _signal_start(i0, first):
    """The signal walk of one column whose source-hop coefficient is first."""
    return _start(SIGNAL, np.array([first]), i0, 1.0)[0]


def _advance(walk, c2, c1):
    """Push one replica's steps c2, c1 through the walk, in the lanes of one
    column as ``_chunks`` lays them out: step j*L + t in lane j, unit pads
    after step k."""
    k = len(c2)
    L = _block_length(k)
    steps = np.ones((2, -(-k // L) * L))
    steps[:, :k] = c2, c1
    walk.advance(k, np.ascontiguousarray(steps.reshape(2, -1, L).transpose(0, 2, 1)))


class TestInitInfo:
    """The signal walk starts from the raw vector (i0, eta01 * i0)."""

    def test_identity_start(self):
        walk = _signal_start(1.0, 1.0)
        assert _state(walk) == ([1.0, 1.0], 0.0)
        assert _det_logs(SIGNAL, 1.0, [1]) == {1: 0.0}

    def test_renormalizes_by_max(self):
        walk = _signal_start(1.0, 2.0)
        assert _state(walk)[0] == [0.5, 1.0]
        assert _state(walk)[1] == pytest.approx(math.log(2.0), abs=1e-15)
        # start (1, 2): the node-1 value is 2
        assert _det_logs(SIGNAL, 2.0, [1])[1] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_decaying_start(self):
        walk = _signal_start(2.0, 0.5)
        assert _state(walk)[0] == [1.0, 0.5]
        assert _state(walk)[1] == pytest.approx(math.log(2.0), abs=1e-15)
        # start (2, 1), then 0.5 * 2 + 0.5 * 1 = 1.5 at node 2
        logs = _det_logs(SIGNAL, 0.5, [1, 2], i0=2.0)
        assert logs[1] == pytest.approx(0.0, abs=1e-15)
        assert logs[2] == pytest.approx(math.log(1.5), abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            estimate_lambda(Deterministic(1.0), ConstantGain(1.0), 2000, 1, SEED, i0=0.0)
        with pytest.raises(ConfigError):
            _det_logs(SIGNAL, 1.0, [5], i0=-1.0)


class TestStepInfo:
    def test_deterministic_fibonacci(self):
        """Unit coefficients reproduce 1, 1, 2, 3, 5."""
        logs = _det_logs(SIGNAL, 1.0, [1, 2, 3, 4])
        values = [math.exp(logs[n]) for n in (1, 2, 3, 4)]
        assert values == pytest.approx([1.0, 2.0, 3.0, 5.0], rel=1e-12)
        traj = run_trajectory(_det_config(1.0, 1.0, 4))
        assert np.exp(traj.log_i_sq / 2) == pytest.approx([1.0, 2.0, 3.0, 5.0], rel=1e-12)

    def test_direct_substitution(self):
        # start (1, 0.2); node 2: 0.2 * 1 + 0.2 * 0.2 = 0.24
        assert _det_logs(SIGNAL, 0.2, [2])[2] == pytest.approx(math.log(0.24), abs=1e-12)

    def test_state_stays_renormalized(self):
        walk = _signal_start(1.0, 3.7)
        for _ in range(50):
            _advance(walk, np.array([0.9]), np.array([1.4]))
            assert max(_state(walk)[0]) == 1.0 and min(_state(walk)[0]) > 0.0
        _advance(walk, np.full(50, 0.9), np.full(50, 1.4))
        assert max(_state(walk)[0]) == 1.0 and min(_state(walk)[0]) > 0.0


class TestStepNoise:
    def test_first_application(self):
        """Node 1 holds n0 and the first 3x3 step gives the raw triple
        (1, 1, 1) whatever the coefficients: noise 1 at node 2."""
        for c in (2.0, 3.0):
            assert _det_logs(NOISE, c, [1, 2]) == {1: 0.0, 2: 0.0}

    def test_node_1_log_is_one_rule(self):
        """Checkpoints and records read node 1 as the same log of n0, on an
        n0 where math.log and np.log can differ in the last bit."""
        n0 = 2.2361837455460423
        config = NetworkConfig(Rayleigh(1.0), ConstantGain(0.8), n0=n0, n_nodes=50,
                               master_seed=SEED)
        logs = logs_at(NOISE, config.model, [config.gains], [RngStream(SEED, 0)], (1, 50),
                       n0=n0)
        assert run_trajectory(config).log_n_sq[0] == logs[1][0] == np.log(n0)

    def test_second_application_unit(self):
        # raw triples (1, 1, 1) -> (2, 3, 1) -> (4, 6, 1) for unit coefficients
        want = [0.0, math.log(3.0), math.log(6.0)]
        logs = _det_logs(NOISE, 1.0, [2, 3, 4])
        assert [logs[n] for n in (2, 3, 4)] == pytest.approx(want, abs=1e-12)
        traj = run_trajectory(_det_config(1.0, 1.0, 4))
        assert traj.log_n_sq[1:] == pytest.approx(want, abs=1e-12)

    def test_zero_noise_floor_stays_degenerate(self):
        """With n0 = 0 (which NetworkConfig rejects) the noise state never
        leaves (0, 0, 1) and has no log to read."""
        walk = _Walk(NOISE, (0.0, 0.0, 1.0), n0=0.0)
        for _ in range(5):
            _advance(walk, np.array([1.3]), np.array([0.7]))
            assert _state(walk)[0] == [0.0, 0.0, 1.0]
        with pytest.raises(NumericalError):
            walk.log_value()

    @pytest.mark.parametrize("lo,hi,n", [(0.05, 0.35, 2000), (0.1, 3.1, 600)],
                             ids=("bounded", "growing"))
    def test_constant_slot_drift_bounded(self, lo, hi, n):
        """log_scale + log(w[2]) stays 0 up to 1e-10 * n while the scale is
        within double range (past ~e^700 the constant slot underflows, but by
        then the floor injections are ~e^-700 relative and below resolution)."""
        rng = RngStream(SEED, 11).generator()
        q = rng.random(2 * n) * (hi - lo) + lo
        w0, w1, w2, ls = _kernels.noise_steps(q[:n], q[n:], 1.0, 0.0, 0.0, 1.0, 0.0,
                                              np.empty(0))
        assert w2 > 0.0
        assert abs(ls + math.log(w2)) <= 1e-10 * n


class TestRenormalize:
    """Walk states are scaled so the largest magnitude is 1."""

    def test_scales_by_max(self):
        walk = _Walk(SIGNAL, (2.0, 4.0))
        assert _state(walk)[0] == [0.5, 1.0]
        assert _state(walk)[1] == pytest.approx(math.log(4.0), abs=1e-15)
        # start (2, 4): the node-1 value is 4
        assert _det_logs(SIGNAL, 2.0, [1], i0=2.0)[1] == pytest.approx(
            math.log(4.0), abs=1e-15)

    def test_identity_case(self):
        walk = _Walk(SIGNAL, (1.0, 1.0))
        assert _state(walk) == ([1.0, 1.0], 0.0)

    def test_constant_slot_is_max(self):
        walk = _Walk(NOISE, (0.0, 0.0, 1.0), n0=1.0)
        assert _state(walk) == ([0.0, 0.0, 1.0], 0.0)

    def test_all_zero_raises(self):
        """A state that underflows to all zeros between renormalizations
        cannot be renormalized: with coefficients of 5e-324, the smallest
        positive double, the products of a step round to 0."""
        with pytest.raises(NumericalError, match="change the coefficient scale"):
            _det_logs(SIGNAL, 5e-324, [50])
        with pytest.raises(NumericalError):
            run_trajectory(_det_config(5e-324, 1.0, 50))


def _det_config(c, g, n_nodes, n0=1.0, seed=SEED):
    return NetworkConfig(Deterministic(c), ConstantGain(g), n0=n0, i0=1.0,
                         n_nodes=n_nodes, master_seed=seed)


class TestRunTrajectory:
    def test_unit_network_three_nodes(self):
        """Unit coefficients: value 3, noise power 3, capacity log 4 at node 3."""
        traj = run_trajectory(_det_config(1.0, 1.0, 3))
        assert traj.log_i_sq[2] == pytest.approx(2 * math.log(3.0), abs=1e-12)
        assert traj.log_n_sq[2] == pytest.approx(math.log(3.0), abs=1e-12)
        assert traj.capacity_nats[2] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_same_seed_bit_identical(self):
        cfg = NetworkConfig(Rayleigh(1.0), ConstantGain(0.8), n_nodes=500,
                            master_seed=SEED)
        a = run_trajectory(cfg, stream_id=3)
        b = run_trajectory(cfg, stream_id=3)
        for col in ("log_i_sq", "log_n_sq", "log_snr", "capacity_nats", "log_x_sq"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_column_consistency(self):
        traj = run_trajectory(NetworkConfig(Rayleigh(1.0), ConstantGain(1.1),
                                            n_nodes=300, master_seed=SEED))
        assert np.array_equal(traj.log_snr, traj.log_i_sq - traj.log_n_sq)
        assert np.all(traj.capacity_nats >= 0.0)
        assert len({len(traj.log_i_sq), len(traj.log_n_sq), len(traj.log_snr),
                    len(traj.capacity_nats), len(traj.log_x_sq)}) == 1

    def test_noise_power_at_least_floor(self):
        n0 = 0.37
        traj = run_trajectory(NetworkConfig(Rayleigh(1.0), ConstantGain(0.3),
                                            n0=n0, n_nodes=2000, master_seed=SEED))
        assert np.all(traj.log_n_sq >= math.log(n0) - 1e-12)

    def test_signal_positive_throughout(self):
        traj = run_trajectory(NetworkConfig(Rayleigh(1.0), ConstantGain(0.5),
                                            n_nodes=2000, master_seed=SEED))
        assert np.all(np.isfinite(traj.log_i_sq))

    def test_integer_coefficient_matches_float(self):
        ints = run_trajectory(_det_config(1, 0.7, 300))
        floats = run_trajectory(_det_config(1.0, 0.7, 300))
        for col in ("log_i_sq", "log_n_sq", "log_snr", "capacity_nats", "log_x_sq"):
            assert np.array_equal(getattr(ints, col), getattr(floats, col))

    def test_per_node_gains_respected(self):
        gains = PerNodeGain((1.0, 0.2, 0.2))
        traj = run_trajectory(NetworkConfig(Deterministic(1.0), gains, n_nodes=3,
                                            master_seed=SEED))
        # node 2 sums two unit inputs scaled by g_2: value 0.4
        assert traj.log_i_sq[1] == pytest.approx(2 * math.log(0.4), abs=1e-12)


class TestNoOverflow:
    def test_fast_growth_stays_finite(self):
        """Growth rate near 2 per node for 1e7 nodes stays in double range."""
        c = 6.2
        lam = lambda_deterministic_closed_form(c, 1.0)
        assert 1.9 < lam < 2.0
        est = estimate_lambda(Deterministic(c), ConstantGain(1.0), 10_000_000, 1, SEED)
        assert math.isfinite(est.lambda_hat)
        assert est.lambda_hat == pytest.approx(lam, abs=1e-9)


class TestHighPrecisionOracle:
    def test_matches_unrenormalized_recursion(self):
        """Renormalized logs equal a 60-digit direct recursion within 1e-9."""
        cfg = NetworkConfig(Rayleigh(1.0), ConstantGain(1.0), n_nodes=40,
                            master_seed=SEED)
        for sid in range(10):
            traj = run_trajectory(cfg, stream_id=sid)
            log_i, log_n2 = mp_oracle_logs(cfg, sid)
            for k in range(cfg.n_nodes):
                assert abs(traj.log_i_sq[k] - 2 * log_i[k]) < 1e-9
                assert abs(traj.log_n_sq[k] - log_n2[k]) < 1e-9


class TestTrajectoryCsv:
    def test_header_and_digits(self):
        traj = run_trajectory(_det_config(1.0, 0.9, 5))
        text = traj.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        # 17 significant digits round-trip every double exactly
        fields = lines[3].split(",")
        assert int(fields[0]) == 3
        parsed = [float(f) for f in fields[1:]]
        stored = [traj.log_i_sq[2], traj.log_n_sq[2], traj.log_snr[2],
                  traj.capacity_nats[2], traj.log_x_sq[2]]
        assert parsed == stored

    def test_recompute_from_csv_bit_exact(self):
        from fibrelay import capacity_nats, snr_log, transmit_power_log
        traj = run_trajectory(NetworkConfig(Rayleigh(1.0), ConstantGain(0.7),
                                            n_nodes=50, master_seed=SEED))
        rows = traj.to_csv().strip().split("\n")[1:]
        data = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
        log_i_sq, log_n_sq = data[:, 0], data[:, 1]
        assert np.array_equal(snr_log(log_i_sq, log_n_sq), data[:, 2])
        assert np.array_equal(capacity_nats(data[:, 2]), data[:, 3])
        assert np.array_equal(transmit_power_log(log_i_sq, log_n_sq), data[:, 4])

    def test_row_text_exact(self):
        """Every field is its %.17g text, edge doubles included."""
        big, tiny, third = 1.7976931348623157e308, 5e-324, 1.0 / 3.0
        traj = Trajectory(
            log_i_sq=np.array([-0.0, third]), log_n_sq=np.array([tiny, -0.0]),
            log_snr=np.array([big, tiny]), capacity_nats=np.array([third, big]),
            log_x_sq=np.array([-2.5, 0.0]), config=_det_config(1.0, 1.0, 2))
        assert traj.to_csv() == (
            CSV_HEADER + "\n"
            "1,-0,4.9406564584124654e-324,1.7976931348623157e+308,"
            "0.33333333333333331,-2.5\n"
            "2,0.33333333333333331,-0,4.9406564584124654e-324,"
            "1.7976931348623157e+308,0\n")


class TestNetworkConfigValidation:
    def test_rejects_short_network(self):
        with pytest.raises(ConfigError):
            _det_config(1.0, 1.0, 1)

    def test_rejects_bad_floors(self):
        with pytest.raises(ConfigError):
            NetworkConfig(Deterministic(1.0), ConstantGain(1.0), n0=0.0, n_nodes=3)
        with pytest.raises(ConfigError):
            NetworkConfig(Deterministic(1.0), ConstantGain(1.0), i0=-1.0, n_nodes=3)

    def test_rejects_validation_model(self):
        with pytest.raises(ConfigError):
            NetworkConfig(SignedBernoulli(0.5), ConstantGain(1.0), n_nodes=3)

    def test_rejects_short_gain_list(self):
        with pytest.raises(ConfigError):
            NetworkConfig(Deterministic(1.0), PerNodeGain((1.0, 1.0)), n_nodes=5)
