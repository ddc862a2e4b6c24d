import numpy as np
import pytest

from qbdesign.csvcells import csv_rows

TINY = 2.2250738585072014e-308  # the least normal float64


def oracle(cells):
    return "".join(",".join("%.6g" % v for v in row) + "\n" for row in cells.tolist())


def as_matrix(values, cols=7):
    """Values as rows of `cols` cells, the last row filled with 0.5."""
    v = np.asarray(values, dtype=np.float64).ravel()
    return np.concatenate([v, np.full(-len(v) % cols, 0.5)]).reshape(-1, cols)


def assert_as_oracle(values, cols=7):
    cells = as_matrix(values, cols)
    text = csv_rows(cells)
    if text != oracle(cells):
        printed = [c for ln in text.splitlines() for c in ln.split(",")]
        bad = [(v, c) for v, c in zip(cells.ravel().tolist(), printed) if c != "%.6g" % v]
        pytest.fail(f"{len(bad)} of {cells.size} cells differ from %.6g, e.g. {bad[:5]}")


def philox(key):
    return np.random.Generator(np.random.Philox(key=key))


def decimals(rng, n, exponents):
    """Floats nearest to 6-digit decimals d.ddddd e X, 0-5 trailing zeros."""
    m = rng.integers(100000, 1000000, n)
    tz = 10 ** rng.integers(0, 6, n)
    x = rng.choice(exponents, n)
    return [float(f"{d}e{k - 5}") for d, k in zip((m // tz * tz).tolist(), x.tolist())]


class TestOracle:
    """Every cell prints as "%.6g" % v does, over values of every kind."""

    def test_fixed_exponents(self):
        rng = philox(1)
        for x in range(-4, 6):
            assert_as_oracle(decimals(rng, 2000, [x]))

    def test_exponent_notation(self):
        rng = philox(2)
        # 2-digit exponents inside and outside the fast range, 3-digit ones
        assert_as_oracle(decimals(rng, 4000, np.r_[-99:-4, 6:100]))
        assert_as_oracle(decimals(rng, 4000, np.r_[-307:-99, 100:308]))
        assert_as_oracle(10.0 ** rng.uniform(-307, 308, 4000))

    def test_uniform_and_log_uniform(self):
        rng = philox(3)
        assert_as_oracle(rng.random(8000))
        assert_as_oracle(10.0 ** rng.uniform(-30, 30, 8000))
        assert_as_oracle(rng.uniform(0, 1e6, 8000))

    def test_negatives_and_zeros(self):
        rng = philox(4)
        v = np.concatenate([decimals(rng, 3000, np.r_[-20:30]), 10.0 ** rng.uniform(-30, 30, 3000)])
        assert_as_oracle(-v)
        assert_as_oracle([0.0, -0.0, 1.0, -1.0, -0.0, 0.0, -1e-5, -1e5, -1e6, -0.5])

    def test_subnormal_and_extreme(self):
        rng = philox(5)
        big = np.finfo(np.float64).max
        assert_as_oracle(np.concatenate([
            [5e-324, 1e-323, 1e-310, TINY, np.nextafter(TINY, 0), np.nextafter(TINY, 1)],
            [1e-308, 1e308, big, np.nextafter(big, 0), np.nextafter(1e308, 0), 1e300],
            rng.random(2000) * TINY,
            big * rng.random(2000),
        ]))

    def test_neighbours_of_powers_of_ten(self):
        p = np.array([float(f"1e{k}") for k in range(-40, 41)])
        q = 1e-4 * (1 + np.array([-2.0**-52, 2.0**-52, -2.0**-53, 2.0**-51]))
        assert_as_oracle(np.concatenate([
            np.nextafter(p, 0), p, np.nextafter(p, np.inf),
            np.nextafter(np.nextafter(p, 0), 0), np.nextafter(np.nextafter(p, np.inf), np.inf),
            q, np.nextafter([1e-4, 1e-4, 1e5, 1e6], [0, 1, 0, 0]),
        ]))

    def test_rounding_ties(self):
        rng = philox(6)
        m = rng.integers(100000, 1000000, 2000).astype(np.float64)
        # exact binary ties at the 6th digit, then decimal near-ties
        exact = np.concatenate([m + 0.5, (m + 0.5) * 10, (m + 0.5) * 100, (m + 0.5) / 2**20])
        near = [
            float(f"{d}5e{k}")
            for d, k in zip(m.astype(np.int64).tolist(), rng.integers(-25, 25, 2000).tolist())
        ]
        assert_as_oracle(np.concatenate([
            [123456.5, 1234565.0, 999999.5, 9999995.0, 0.9999995, 9.999995e-05, 99999.95, 0.5],
            np.nextafter([999999.5, 9.999995e-05], 0), np.nextafter([999999.5, 9.999995e-05], 1e7),
            exact, near,
        ]))

    def test_not_finite(self):
        assert_as_oracle([np.inf, -np.inf, np.nan, -np.nan, 1.0, np.inf, 0.25])

    @pytest.mark.parametrize("cols", [1, 2, 14])
    def test_columns(self, cols):
        assert_as_oracle(philox(7).random(30 * cols), cols)


class TestFallback:
    def test_undecided_cells_only(self, fallbacks):
        undecided = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310, 1e-18, 1e29,
                     123456.5, 1234565.0, 999999.5, 9.999995e-05]
        assert_as_oracle(undecided)
        assert len(fallbacks) == len(undecided)

    def test_sweep_like_cells_are_vectorised(self, fallbacks):
        rng = philox(8)
        qb = rng.uniform(1e-6, 10, (512, 6))
        pis = np.round(rng.uniform(0.001, 1, (512, 2)), 3)
        assert_as_oracle(np.hstack([pis, qb, qb.min(axis=1, keepdims=True) / qb]), 14)
        assert fallbacks == []

