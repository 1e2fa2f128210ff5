"""Special functions against independent oracles; RNG stream contracts."""

import math
from math import erf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import erf_series, erfc_continued_fraction, normal_cdf_quadrature
from utal.numerics import (
    Rng,
    mc_expected_l1,
    std_normal_cdf,
)


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_odd_symmetry(self):
        for x in np.linspace(-4.0, 4.0, 41):
            assert erf(x) + erf(-x) == pytest.approx(0.0, abs=1e-15)

    def test_known_value(self):
        assert erf(1.0) == pytest.approx(0.8427008, abs=1.5e-7)

    def test_against_series_oracle(self):
        for x in np.linspace(-3.4, 3.4, 69):
            assert abs(erf(float(x)) - erf_series(float(x))) < 1.5e-7
            # in fact the C library's erf is machine accurate
            assert abs(erf(float(x)) - erf_series(float(x))) < 1e-12

    def test_against_continued_fraction_oracle_large_x(self):
        for x in [2.5, 3.0, 3.5, 4.0, 5.0, 6.0]:
            assert abs(erf(x) - (1.0 - erfc_continued_fraction(x))) < 1.5e-7
            assert abs(erf(-x) + (1.0 - erfc_continued_fraction(x))) < 1.5e-7

    def test_bounds_and_saturation(self):
        for x in np.linspace(-5.5, 5.5, 111):
            assert -1.0 < erf(x) < 1.0  # strictly inside until float64 saturates
        for x in np.linspace(-50, 50, 101):
            assert -1.0 <= erf(x) <= 1.0
        for x in [3.0, 4.0, 10.0, 50.0]:
            assert abs(erf(x)) > 0.9999

    @given(st.floats(-6, 6), st.floats(-6, 6))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert erf(lo) <= erf(hi)


class TestStdNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        for x in np.linspace(-5, 5, 51):
            assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)

    def test_known_value_against_quadrature(self):
        assert std_normal_cdf(1.96) == pytest.approx(0.9750021, abs=1e-7)
        for x in [-2.0, -0.5, 0.3, 1.0, 1.96, 2.5]:
            assert std_normal_cdf(x) == pytest.approx(normal_cdf_quadrature(x), abs=1e-9)

    def test_erf_identity(self):
        for x in np.linspace(-6, 6, 121):
            lhs = std_normal_cdf(x)
            rhs = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
            assert abs(lhs - rhs) <= 1e-12

    def test_monotone_and_bounded(self):
        xs = np.linspace(-10, 10, 201)
        vals = [std_normal_cdf(x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestRng:
    def test_same_seed_identical_streams(self):
        a = Rng(123)
        b = Rng(123)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_same_seed_identical_normals(self):
        r1, r2 = Rng(5), Rng(5)
        assert [r1.normal() for _ in range(100)] == [r2.normal() for _ in range(100)]

    def test_split_streams_do_not_depend_on_consumption(self):
        parent = Rng(9)
        early = parent.split("child", 3)
        parent.uniforms(1000)
        late = parent.split("child", 3)
        assert early.next_u64() == late.next_u64()

    def test_split_labels_distinguish(self):
        r = Rng(9)
        seeds = {r.split(*labels).seed for labels in [("a",), ("b",), ("a", 0), ("a", 1), (0, "a")]}
        assert len(seeds) == 5

    def test_uniform_range_and_bulk_consistency(self):
        r1, r2 = Rng(77), Rng(77)
        bulk = r1.uniforms(50)
        scalar = np.array([r2.uniform() for _ in range(50)])
        np.testing.assert_array_equal(bulk, scalar)
        assert np.all((bulk >= 0.0) & (bulk < 1.0))

    def test_polar_normal_moments(self):
        r = Rng(2024)
        n = 1_000_000
        draws = np.fromiter((r.normal() for _ in range(n)), dtype=np.float64, count=n)
        assert abs(draws.mean()) < 0.004
        assert abs(draws.var() - 1.0) < 0.005

    def test_bulk_normal_moments(self):
        draws = Rng(31).normals(1_000_000)
        assert abs(draws.mean()) < 0.004
        assert abs(draws.var() - 1.0) < 0.005

    def test_permutation_is_permutation(self):
        perm = Rng(4).permutation(257)
        assert sorted(perm.tolist()) == list(range(257))

    def test_randint_bounds(self):
        r = Rng(8)
        draws = [r.randint(7) for _ in range(2000)]
        assert set(draws) == set(range(7))


class TestMcExpectedL1:
    def test_degenerate_sigma(self):
        mean, _ = mc_expected_l1(0.0, 1e-9, 10_000, Rng(1))
        assert mean == pytest.approx(0.0, abs=1e-6)

    def test_sigma_much_smaller_than_d(self):
        mean, _ = mc_expected_l1(5.0, 0.01, 100_000, Rng(2))
        assert mean == pytest.approx(5.0, abs=1e-3)

    def test_half_normal_mean(self):
        mean, stderr = mc_expected_l1(0.0, 1.0, 1_000_000, Rng(3))
        assert abs(mean - math.sqrt(2.0 / math.pi)) < 3.0 * stderr

    def test_stderr_scaling(self):
        _, se_n = mc_expected_l1(0.5, 1.0, 250_000, Rng(4))
        _, se_4n = mc_expected_l1(0.5, 1.0, 1_000_000, Rng(5))
        ratio = se_n / se_4n
        assert 2.0 * 0.8 < ratio < 2.0 * 1.2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc_expected_l1(0.0, 0.0, 10, Rng(1))
        with pytest.raises(ValueError):
            mc_expected_l1(0.0, 1.0, 0, Rng(1))
