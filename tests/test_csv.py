"""The CSV writer: every field is exactly CPython's ``"%.17g" % x``."""
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrelay import CSV_HEADER, ConstantGain, Deterministic, NetworkConfig, Trajectory
from fibrelay import _csv
from fibrelay._csv import csv_text

BLOCK = _csv._BLOCK_ROWS
MAX = sys.float_info.max
POWERS = [10.0 ** k for k in range(-30, 31)]
EDGES = [
    0.0, MAX, 5e-324, 2.2250738585072014e-308, float("inf"), float("nan"),
    *POWERS,
    *(np.nextafter(p, np.inf) for p in POWERS),
    *(np.nextafter(p, 0.0) for p in POWERS),
    # log10 reads exactly -6, yet the double is below 1e-6
    1e-6,
    # the switch points of %g between fixed and scientific notation
    1e-5, 9.9999999999999991e-06, 1e-4, 9.9999999999999982e-05, 1e16, 1e17,
    9999999999999998.0, 99999999999999984.0, 0.00010000000000000002,
    # exact 17th-digit ties: round half to even
    1234567890123456.25, 1234567890123456.75, 0.5, 2.5,
    # two- and three-digit exponents
    1e99, 1e-99, 1e100, 1e-100, 9.9999999999999997e99, 1e308, 1e-308,
    1.2345678901234567e-300, 1.2345678901234567e300, 1e-280, 1e280,
    # few significant digits, where multiplying by 10**-k misreads a digit
    3e6, 3e-6, 3000000.0000000005, 1.0 / 3.0, 2.0 / 3.0, 123456789.0,
]
EDGES = np.array(EDGES + [-v for v in EDGES])


def percent(values) -> list:
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def fields(text: str) -> list:
    """The fields of every line after the header."""
    return [f for line in text.split("\n")[1:-1] for f in line.split(",")]


def assert_matches(values, n_columns: int = 1) -> None:
    values = np.asarray(values, dtype=float)
    columns = values.reshape(n_columns, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = csv_text("h", columns)
    assert text.endswith("\n")
    assert fields(text) == percent(columns.T.ravel())


class TestFieldText:
    def test_edge_table(self):
        assert_matches(EDGES)

    def test_edge_table_forced_fallback(self, monkeypatch):
        """With the tie margin wider than any fraction, every field takes
        the fallback path; the text is the same."""
        monkeypatch.setattr(_csv, "_TIE_MARGIN", 1.0)
        assert_matches(EDGES)

    def test_fast_path_leaves_ordinary_values(self, monkeypatch):
        """Only zeros, non-finite values, extremes and near-ties fall back.
        An exact tie needs |x| * 10**s to end in .5, which takes a double
        with few fraction bits, near 1e15; below 1e12 random values never
        fall back."""
        slow = []
        monkeypatch.setattr(_csv, "_percent", lambda x: slow.append(x) or b"%.17g" % x)
        rng = np.random.default_rng(7)
        values = rng.standard_normal(5000) * 10.0 ** rng.integers(-20, 12, 5000)
        assert_matches(values)
        assert slow == []
        assert_matches([0.0, -0.0, np.inf, np.nan, 5e-324, MAX, 1234567890123456.25])
        assert len(slow) == 7

    def test_million_random_bit_patterns(self):
        """Arbitrary 64-bit patterns: every exponent, sign and payload,
        subnormals and NaNs included."""
        rng = np.random.default_rng(20260809)
        for _ in range(8):
            bits = rng.integers(-2 ** 63, 2 ** 63, size=1 << 17, dtype=np.int64)
            assert_matches(bits.view(np.float64), n_columns=4)

    def test_every_decimal_exponent(self):
        """Values of random digits at every decimal exponent of doubles."""
        rng = np.random.default_rng(11)
        exponents = np.repeat(np.arange(-323, 309), 40)
        mantissas = rng.uniform(1.0, 10.0, exponents.size)
        with np.errstate(over="ignore"):
            values = mantissas * 10.0 ** exponents.astype(float)
        assert_matches(values[np.isfinite(values)])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=40))
    def test_bit_patterns(self, bits):
        assert_matches(np.array(bits, dtype=np.int64).view(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_floats(self, values):
        assert_matches(values)


class TestRows:
    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_row_counts(self, n):
        """Blocks join without a lost or doubled row; the row number runs
        on across blocks."""
        rng = np.random.default_rng(n)
        columns = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-8, 8, (5, n))
        want = "".join("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (i, *row)
                       for i, row in enumerate(columns.T.tolist(), 1))
        assert csv_text(CSV_HEADER, columns, first=1) == CSV_HEADER + "\n" + want

    def test_row_numbers_across_widths(self):
        """Row numbers are whole integers, however many digits they have
        (3000000 is not read as 2999999)."""
        first = 2999990
        text = csv_text("n,x", [np.zeros(20)], first=first)
        assert [int(line.split(",")[0]) for line in text.split("\n")[1:-1]] \
            == list(range(first, first + 20))
        assert csv_text("n,x", [[0.5] * 11], first=0).split("\n")[1:3] == ["0,0.5", "1,0.5"]
        assert csv_text("n,x", [[0.5]], first=9) == "n,x\n9,0.5\n"

    def test_no_rows(self):
        assert csv_text("g,lambda_hat,std_err", [[], [], []]) == "g,lambda_hat,std_err\n"

    def test_trajectory_to_csv_is_percent_rows(self):
        """``Trajectory.to_csv`` is the node number and the five columns'
        %.17g text, the parent format of every trajectory file."""
        rng = np.random.default_rng(3)
        n = BLOCK + 5
        cols = rng.standard_normal((5, n)) * 100.0
        cols[:, 0] = 0.0  # node 1 reads log 1 = 0 with the default i0 and n0
        config = NetworkConfig(Deterministic(1.0), ConstantGain(1.0))
        traj = Trajectory(*cols, config=config)
        want = "".join("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (i, *row)
                       for i, row in enumerate(cols.T.tolist(), 1))
        assert traj.to_csv() == CSV_HEADER + "\n" + want


class TestBlockReuse:
    """``write_rows`` formats every block of a call in one buffer: nothing
    of a block may show in the next."""

    def _rows(self, columns, first):
        columns = np.asarray(columns, dtype=float)
        number = "" if first is None else "%d,"
        return "".join((number + ",".join(["%.17g"] * len(columns)) + "\n")
                       % ((() if first is None else (first + i,)) + tuple(row))
                       for i, row in enumerate(columns.T.tolist()))

    @pytest.mark.parametrize("slow", [0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, 5e-324])
    def test_fallback_field_then_fast_field(self, slow):
        """A fallback field in block 1 and a fast field at the same row and
        column of block 2, and the other way round."""
        rng = np.random.default_rng(5)
        columns = rng.standard_normal((3, 2 * BLOCK)) * 1e3
        columns[1, 17] = slow
        columns[2, BLOCK + 42] = slow
        for first in (None, 1):
            want = self._rows(columns, first)
            assert csv_text("h", columns, first) == "h\n" + want

    @pytest.mark.parametrize("first", [9990, BLOCK - 5, 10000 - BLOCK, 99999990])
    def test_row_number_width_grows_in_one_call(self, first):
        """Row numbers gain a digit inside one call: away from a block edge
        (from 9990 and 8187), at one (10000 starts the second block) and
        into a third group of four digits (from 99999990)."""
        columns = np.linspace(-1.0, 1.0, 2 * BLOCK + 3)[None, :] * 123.456
        assert csv_text("h", columns, first) == "h\n" + self._rows(columns, first)

    @pytest.mark.parametrize("first", [None, 0, 1])
    @pytest.mark.parametrize("n", [BLOCK + 1, 2 * BLOCK + 777])
    def test_last_block_shorter_than_the_first(self, first, n):
        """The last block's rows are all written and nothing of the rows
        past them in the buffer is."""
        rng = np.random.default_rng(n)
        columns = rng.standard_normal((4, n)) * 10.0 ** rng.integers(-30, 30, (4, n))
        columns[:, -1] = [0.5, -0.0, np.nan, 1e-300]
        assert csv_text("h", columns, first) == "h\n" + self._rows(columns, first)
