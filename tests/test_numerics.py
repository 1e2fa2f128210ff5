"""Special functions against independent oracles; RNG stream contracts."""

import math
from math import erf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    erf_series,
    erfc_continued_fraction,
    normal_cdf_quadrature,
    polar_normal_oracle,
    randint_shuffle_oracle,
    std_normal_cdf,
)
from utal.numerics import Rng, mc_expected_l1


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
        np.testing.assert_array_equal(Rng(5).normal(100), Rng(5).normal(100))

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
        draws = Rng(2024).normal(1_000_000)  # the one-at-a-time stream, see below
        assert abs(draws.mean()) < 0.004
        assert abs(draws.var() - 1.0) < 0.005

    def test_bulk_normal_moments(self):
        draws = Rng(31).normals(1_000_000)
        assert abs(draws.mean()) < 0.004
        assert abs(draws.var() - 1.0) < 0.005

    def test_permutation_is_permutation(self):
        perm = Rng(4).permutation(257)
        assert sorted(perm.tolist()) == list(range(257))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 15_371])
    def test_permutation_equals_randint_shuffle(self, n):
        """Block draws give the one-randint-per-position shuffle and leave
        the counter where it leaves it."""
        r, ref = Rng(6).split("shuffle", n), Rng(6).split("shuffle", n)
        r.uniform(), ref.uniform()  # a stream already in use
        perm = r.permutation(n)
        want = randint_shuffle_oracle(ref, n)
        assert perm.dtype == want.dtype
        np.testing.assert_array_equal(perm, want)
        assert r._counter == ref._counter
        assert r.next_u64() == ref.next_u64()

    def test_permutation_rejected_draw_falls_back_to_randint(self):
        """A draw randint rejects (forced at one counter value, in block and
        scalar draws alike) is skipped exactly as randint skips it."""
        max_u64 = (1 << 64) - 1
        forced = 3  # the shuffle's second draw, bound 99: 2^64 - 1 is rejected

        class _OneRejection(Rng):
            def next_u64(self):
                x = super().next_u64()
                return max_u64 if self._counter == forced else x

            def _next_u64_block(self, n):
                first = self._counter + 1
                bits = super()._next_u64_block(n)
                if first <= forced < first + n:
                    bits[forced - first] = max_u64
                return bits

        r, ref = _OneRejection(13), _OneRejection(13)
        r.uniform(), ref.uniform()
        perm = r.permutation(100)
        np.testing.assert_array_equal(perm, randint_shuffle_oracle(ref, 100))
        assert r._counter == ref._counter == 1 + 99 + 1  # one draw rejected

    @pytest.mark.parametrize("size", [0, 1, 2, 7, 8, 15_371])
    @pytest.mark.parametrize("in_use", [False, True])
    def test_normal_block_equals_polar_loop(self, size, in_use):
        """normal(size) gives the one-at-a-time polar draws, on a fresh stream
        and on one already in use, as verify's eps streams are."""
        r, ref = Rng(15).split(size), Rng(15).split(size)
        if in_use:
            assert r.uniform() == ref.uniform()
        got = r.normal(size)
        draws = polar_normal_oracle(ref)
        want = np.array([next(draws) for _ in range(size)])
        assert got.shape == (size,) and got.dtype == np.float64
        np.testing.assert_array_equal(got, want)

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
