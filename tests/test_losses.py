"""Training objectives: examples, gradients vs finite differences, properties."""

import csv
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from _oracles import finite_difference, relative_error
from utal.cli import CURVES_D_GRID, CURVES_SIGMA_GRID, _write_csv, cmd_curves
from utal.losses import (
    MiningResult,
    _expected_l1_foil,
    binary_loss,
    expected_l1,
    expected_l1_training,
    kl_l1_loss,
    l1_loss,
    loss_surfaces,
    multiclass_loss,
    sampled_l1_loss,
    select_hard_negatives,
)
from utal.numerics import Rng, mc_expected_l1


class TestHardNegativeMining:
    def test_paper_ratio(self):
        scores = np.concatenate([np.full(2, 0.9), np.linspace(0.1, 0.8, 10)])
        labels = np.array([1] * 2 + [0] * 10)
        res = select_hard_negatives(scores, labels, 1.0 / 3.0)
        assert res.positive_indices.tolist() == [0, 1]
        assert res.negative_indices.size == 6

    def test_no_positives_gives_empty_mining(self):
        res = select_hard_negatives(np.array([0.4, 0.6]), np.array([0, 0]), 1.0 / 3.0)
        assert res.positive_indices.size == 0
        assert res.negative_indices.size == 0

    def test_hardest_negatives_kept(self):
        # quota of 2: the two highest-scoring negatives (0.9 and 0.5) survive
        scores = np.array([0.7, 0.9, 0.1, 0.5])
        labels = np.array([1, 0, 0, 0])
        res = select_hard_negatives(scores, labels, 0.5)
        assert sorted(res.negative_indices.tolist()) == [1, 3]

    def test_tie_breaks_toward_lower_index(self):
        scores = np.array([0.9, 0.5, 0.5, 0.5])
        labels = np.array([1, 0, 0, 0])
        res = select_hard_negatives(scores, labels, 1.0)
        assert res.negative_indices.tolist() == [1]

    def test_quota_cutting_a_tied_group_keeps_its_smallest_indices(self):
        """Quota 70 over 50 negatives at 0.9, 50 at 0.5 and 60 at 0.2, interleaved:
        all of the 0.9 group and the 20 lowest indices of the 0.5 group."""
        negative = np.repeat([0.5, 0.9, 0.2], [50, 50, 60])[Rng(12).permutation(160)]
        scores = np.concatenate([np.full(35, 0.7), negative])
        labels = np.repeat([1, 0], [35, 160])
        res = select_hard_negatives(scores, labels, 0.5)  # 35 positives / 0.5 = 70
        expected = [*np.flatnonzero(scores == 0.9), *np.flatnonzero(scores == 0.5)[:20]]
        assert res.negative_indices.tolist() == sorted(expected)

    def test_quota_is_exact_over_random_batches(self):
        rng = Rng(606)
        for trial in range(100):
            r = rng.split(trial)
            n = 8 + r.randint(120)
            labels = (r.uniforms(n) < 0.25).astype(int)
            scores = r.uniforms(n)
            res = select_hard_negatives(scores, labels, 1.0 / 3.0)
            n_pos = int(labels.sum())
            n_neg_avail = int((labels == 0).sum())
            assert res.negative_indices.size == min(3 * n_pos, n_neg_avail)
            assert not set(res.positive_indices) & set(res.negative_indices)


class TestBinaryLoss:
    def test_single_positive_at_half(self):
        mining = MiningResult(np.array([0]), np.array([], dtype=int))
        loss, _ = binary_loss(np.array([0.5]), mining)
        assert loss == pytest.approx(math.log(2.0), abs=1e-4)

    def test_perfect_predictions(self):
        scores = np.array([1.0 - 1e-9, 1e-9])
        mining = MiningResult(np.array([0]), np.array([1]))
        loss, _ = binary_loss(scores, mining)
        assert loss == pytest.approx(0.0, abs=1e-5)

    def test_empty_mining_contributes_zero(self):
        mining = MiningResult(np.array([], dtype=int), np.array([], dtype=int))
        loss, grad = binary_loss(np.array([0.3, 0.7]), mining)
        assert loss == 0.0 and not grad.any()

    def test_gradient_matches_finite_differences(self):
        rng = Rng(13)
        for trial in range(30):
            r = rng.split(trial)
            n = 12
            scores = 0.05 + 0.9 * r.uniforms(n)
            labels = (r.uniforms(n) < 0.4).astype(int)
            mining = select_hard_negatives(scores, labels, 1.0 / 3.0)
            _, grad = binary_loss(scores, mining)
            for j in range(n):
                def f(v):
                    s = scores.copy()
                    s[j] = v
                    return binary_loss(s, mining)[0]
                assert relative_error(grad[j], finite_difference(f, scores[j])) <= 1e-4

    def test_gradient_only_on_mined_indices(self):
        scores = np.array([0.8, 0.6, 0.4, 0.2])
        labels = np.array([1, 0, 0, 0])
        mining = select_hard_negatives(scores, labels, 1.0)  # keeps 1 negative
        _, grad = binary_loss(scores, mining)
        assert grad[0] != 0.0 and grad[1] != 0.0
        assert grad[2] == 0.0 and grad[3] == 0.0


class TestMulticlassLoss:
    def test_uniform_logits(self):
        logits = np.zeros((3, 20))
        loss, _ = multiclass_loss(logits, np.array([4, 0, 19]), np.arange(3))
        assert loss == pytest.approx(math.log(20.0), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 50.0
        loss, _ = multiclass_loss(logits, np.array([2]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_empty_positive_set(self):
        loss, grad = multiclass_loss(np.ones((4, 3)), np.zeros(4, dtype=int), np.array([], dtype=int))
        assert loss == 0.0 and not grad.any()

    def test_gradient_matches_finite_differences(self):
        rng = Rng(14)
        for trial in range(20):
            r = rng.split(trial)
            logits = 2.0 * r.uniforms(4 * 5).reshape(4, 5) - 1.0
            labels = np.array([int(r.randint(5)) for _ in range(4)])
            pos = np.array([0, 2])
            _, grad = multiclass_loss(logits, labels, pos)
            for i in range(4):
                for c in range(5):
                    def f(v):
                        z = logits.copy()
                        z[i, c] = v
                        return multiclass_loss(z, labels, pos)[0]
                    assert relative_error(grad[i, c], finite_difference(f, logits[i, c])) <= 1e-4


class TestL1Loss:
    def test_exact_predictions(self):
        t = np.array([0.2, -0.1])
        loss, _ = l1_loss(t, t)
        assert np.all(loss == 0.0)

    def test_hand_sum(self):
        loss, _ = l1_loss(np.array([0.0, 0.0]), np.array([0.3, -0.2]))
        assert loss.sum() == pytest.approx(0.5, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = Rng(15)
        for trial in range(20):
            r = rng.split(trial)
            n = 6
            y_s = r.uniforms(n) - 0.5
            y_e = r.uniforms(n) - 0.5
            t_s = y_s + np.where(r.uniforms(n) < 0.5, 0.3, -0.4)
            t_e = y_e + np.where(r.uniforms(n) < 0.5, -0.25, 0.35)
            mu, t = np.stack((y_s, y_e), axis=1), np.stack((t_s, t_e), axis=1)
            _, d_mu = l1_loss(mu, t)
            for idx in np.ndindex(mu.shape):
                fd = finite_difference(lambda v: l1_loss(v, t[idx])[0], mu[idx])
                assert relative_error(d_mu[idx], fd) <= 1e-4


class TestKlL1Loss:
    def test_linear_branch_zero_point(self):
        # |d| = 0.5 with unit variance: (0.5 - 0.5)/1 + 0 = 0 on the linear branch
        loss, _, _ = kl_l1_loss(0.0, 0.0, 0.5, condition_mode="paper")
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_branch_value(self):
        # d = 2, sigma = 1: 2 + log(2 pi)/2
        loss, _, _ = kl_l1_loss(0.0, 0.0, 2.0, condition_mode="paper")
        assert loss == pytest.approx(2.0 + 0.5 * math.log(2.0 * math.pi), abs=1e-12)

    def test_branch_conventions_swap(self):
        pred = 0.0, 0.0
        inner_he = kl_l1_loss(*pred, 0.5, "he")[0]
        inner_paper = kl_l1_loss(*pred, 0.5, "paper")[0]
        outer_he = kl_l1_loss(*pred, 2.0, "he")[0]
        outer_paper = kl_l1_loss(*pred, 2.0, "paper")[0]
        quad = lambda d: 0.5 * d * d + 0.5 * math.log(2.0 * math.pi)
        lin = lambda d: abs(d) - 0.5
        assert inner_he == pytest.approx(quad(0.5), abs=1e-12)
        assert inner_paper == pytest.approx(lin(0.5), abs=1e-12)
        assert outer_he == pytest.approx(lin(2.0), abs=1e-12)
        assert outer_paper == pytest.approx(quad(2.0), abs=1e-12)

    def test_mu_gradient_continuous_at_branch_point(self):
        for mode in ("he", "paper"):
            just_in = kl_l1_loss(0.0, 0.3, 1.0 - 1e-9, mode)[1]
            just_out = kl_l1_loss(0.0, 0.3, 1.0 + 1e-9, mode)[1]
            assert just_in == pytest.approx(just_out, rel=1e-6)

    def test_quadratic_branch_sigma_argmin_is_abs_d(self):
        for d in (1.5, 2.0, 3.0):
            res = minimize_scalar(
                lambda s: kl_l1_loss(0.0, 2.0 * math.log(s), d, "paper")[0],
                bounds=(0.05, 10.0),
                method="bounded",
            )
            assert res.x == pytest.approx(d, rel=0.01)

    def test_gradients_match_finite_differences(self):
        rng = Rng(16)
        for trial in range(50):
            r = rng.split(trial)
            mu = 2.0 * r.uniform() - 1.0
            alpha = 2.0 * r.uniform() - 1.0
            t = 4.0 * r.uniform() - 2.0
            if abs(t - mu) < 1e-2 or abs(abs(t - mu) - 1.0) < 1e-2:
                continue
            for mode in ("he", "paper"):
                _, d_mu, d_alpha = kl_l1_loss(mu, alpha, t, mode)
                fd_mu = finite_difference(
                    lambda v: kl_l1_loss(v, alpha, t, mode)[0], mu
                )
                fd_alpha = finite_difference(
                    lambda v: kl_l1_loss(mu, v, t, mode)[0], alpha
                )
                assert relative_error(d_mu, fd_mu) <= 1e-4
                assert relative_error(d_alpha, fd_alpha) <= 1e-4


class TestSampledL1Loss:
    def test_forced_epsilon_zero_reduces_to_abs_d(self):
        loss, d_mu, d_alpha = sampled_l1_loss(0.4, 0.7, -0.3, 0.0)
        assert loss == pytest.approx(0.7, abs=1e-12)
        assert d_alpha == 0.0

    def test_tiny_sigma_reduces_to_abs_d(self):
        for eps in Rng(88).normal(50):
            loss, _, _ = sampled_l1_loss(0.0, -10.0, 1.5, eps)
            assert loss == pytest.approx(1.5, abs=0.05)

    def test_mean_over_draws_matches_analytic_expectation(self):
        n = 1_000_000
        mu, alpha = np.zeros(n), np.full(n, 2.0 * math.log(0.5))  # sigma=0.5
        loss = sampled_l1_loss(mu, alpha, np.ones(n), Rng(99).normal(n))[0]  # an eps per offset
        mean = loss.mean()
        stderr = loss.std(ddof=1) / math.sqrt(n)
        expected = expected_l1(1.0, 0.5)[0]
        assert abs(mean - expected) < 3.0 * stderr

    def test_gradients_match_finite_differences_at_fixed_eps(self):
        rng = Rng(17)
        for trial in range(50):
            r = rng.split(trial)
            mu = 2.0 * r.uniform() - 1.0
            alpha = 2.0 * r.uniform() - 1.0
            t = 4.0 * r.uniform() - 2.0
            (eps,) = r.normal(1)
            if abs((t - mu) - math.exp(0.5 * alpha) * eps) < 1e-2:
                continue
            _, d_mu, d_alpha = sampled_l1_loss(mu, alpha, t, eps)
            fd_mu = finite_difference(lambda v: sampled_l1_loss(v, alpha, t, eps)[0], mu)
            fd_alpha = finite_difference(lambda v: sampled_l1_loss(mu, v, t, eps)[0], alpha)
            assert relative_error(d_mu, fd_mu) <= 1e-4
            assert relative_error(d_alpha, fd_alpha) <= 1e-4


class TestExpectedL1:
    def test_half_normal_value(self):
        value, _, _ = expected_l1(0.0, 1.0)
        assert value == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)

    def test_sigma_much_smaller_than_d(self):
        value, _, _ = expected_l1(2.0, 0.5)
        mean, stderr = mc_expected_l1(2.0, 0.5, 200_000, Rng(41))
        assert abs(value - mean) < 4.0 * stderr
        assert value == pytest.approx(2.0, abs=1e-3)

    def test_partials_match_finite_differences(self):
        rng = Rng(18)
        for trial in range(60):
            r = rng.split(trial)
            d = 6.0 * r.uniform() - 3.0
            sigma = 0.1 + 2.4 * r.uniform()
            _, d_d, d_sigma = expected_l1(d, sigma)
            fd_d = finite_difference(lambda v: expected_l1(v, sigma)[0], d)
            fd_s = finite_difference(lambda v: expected_l1(d, v)[0], sigma)
            if max(abs(d_d), abs(fd_d)) > 1e-6:  # skip underflowed tails
                assert relative_error(d_d, fd_d) <= 1e-5
            if max(abs(d_sigma), abs(fd_s)) > 1e-6:
                assert relative_error(d_sigma, fd_s) <= 1e-5

    def test_dominates_abs_d_and_increasing_in_sigma(self):
        for d in (-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0):
            prev = -math.inf
            for sigma in (0.1, 0.5, 1.0, 2.0):
                value, _, d_sigma = expected_l1(d, sigma)
                assert value >= abs(d)
                assert value > prev
                assert d_sigma > 0.0
                prev = value

    def test_even_in_d(self):
        for d in (0.3, 1.2, 2.7):
            for sigma in (0.2, 1.0, 3.0):
                assert expected_l1(d, sigma)[0] == pytest.approx(
                    expected_l1(-d, sigma)[0], abs=1e-14
                )

    def test_sigma_to_zero_limit(self):
        for d in (-2.0, -0.5, 0.5, 2.0):
            assert 0.0 <= expected_l1(d, 1e-6)[0] - abs(d) <= 1e-5

    def test_matches_monte_carlo_on_grid(self):
        rng = Rng(2023)
        for d in (-1.0, 0.0, 0.7):
            for sigma in (0.3, 1.0):
                mean, stderr = mc_expected_l1(d, sigma, 200_000, rng.split(repr(d), repr(sigma)))
                assert abs(expected_l1(d, sigma)[0] - mean) <= max(1e-3, 4.0 * stderr)

    def test_foil_is_detectably_wrong(self):
        mean, stderr = mc_expected_l1(1.0, 1.0, 200_000, Rng(5150))
        assert abs(_expected_l1_foil(1.0, 1.0) - mean) > 10.0 * max(1e-3, 4.0 * stderr)
        assert abs(_expected_l1_foil(0.0, 1.0) - math.sqrt(2.0 / math.pi)) > 0.3

    def test_training_form_chain_rule(self):
        t = 1.1
        _, d_mu, d_alpha = expected_l1_training(0.25, -0.6, t)
        fd_mu = finite_difference(
            lambda v: expected_l1_training(v, -0.6, t)[0], 0.25
        )
        fd_alpha = finite_difference(
            lambda v: expected_l1_training(0.25, v, t)[0], -0.6
        )
        assert relative_error(d_mu, fd_mu) <= 1e-5
        assert relative_error(d_alpha, fd_alpha) <= 1e-5


class TestElementwise:
    """An array of offsets gives exactly what one call per offset gives."""

    MU = np.array([[0.25, -0.5, 1.0], [0.0, 2.0, -1.25]])
    ALPHA = np.array([[-10.0, 0.3, 10.0], [-1.0, 0.0, 2.5]])
    T = np.array([[1.25, 0.5, 1.0], [-3.0, 2.5, 0.0]])  # |d| == 1 and d == 0 included

    def _per_element(self, fn, *more):
        outs = [
            fn(*map(float, args))
            for args in zip(self.MU.ravel(), self.ALPHA.ravel(), self.T.ravel(), *more)
        ]
        return [np.reshape(col, self.MU.shape) for col in zip(*outs)]

    @pytest.mark.parametrize("mode", ["he", "paper"])
    def test_kl_l1(self, mode):
        got = kl_l1_loss(self.MU, self.ALPHA, self.T, mode)
        for g, want in zip(got, self._per_element(lambda m, a, t: kl_l1_loss(m, a, t, mode))):
            np.testing.assert_array_equal(g, want)

    def test_expected_l1_training(self):
        got = expected_l1_training(self.MU, self.ALPHA, self.T)
        for g, want in zip(got, self._per_element(expected_l1_training)):
            np.testing.assert_array_equal(g, want)

    def test_sampled_l1_draws_one_eps_per_offset_in_c_order(self):
        """eps as training draws it: one normal(n) call, reshaped in C order."""
        eps = Rng(11).normal(self.MU.size)
        got = sampled_l1_loss(self.MU, self.ALPHA, self.T, eps.reshape(self.MU.shape))
        for g, w in zip(got, self._per_element(sampled_l1_loss, eps)):
            np.testing.assert_array_equal(g, w)

    def test_scalar_inputs_give_scalars(self):
        pred = 0.1, -0.4
        outs = (
            *kl_l1_loss(*pred, 0.7),
            *sampled_l1_loss(*pred, 0.7, 0.3),
            *expected_l1_training(*pred, 0.7),
            *expected_l1(0.6, 0.5),
        )
        assert all(np.ndim(v) == 0 and isinstance(v, float) for v in outs)


class TestLossSurfaceExport:
    def test_row_count_and_header(self, tmp_path):
        d_grid = [-1.0, 0.0, 1.0]
        s_grid = [0.1, 1.0]
        rows = loss_surfaces(d_grid, s_grid)
        assert len(rows) == 3 * len(d_grid) * len(s_grid)
        assert all(len(row) == 4 for row in rows)
        assert {row[0] for row in rows} == {"kl_l1_he", "kl_l1_paper", "expected_l1"}
        assert cmd_curves(tmp_path).read_text().splitlines()[0] == "loss_name,d,sigma,value"

    @pytest.mark.parametrize(
        "d_grid, s_grid",
        [
            ([-1.5, -1.0, 0.0, 0.3, 1.0, 2.5], [0.05, 0.5, 1.0, 2.0]),
            (CURVES_D_GRID, CURVES_SIGMA_GRID),
        ],
        ids=["small", "curves"],
    )
    def test_values_are_plain_floats_of_the_scalar_losses(self, tmp_path, d_grid, s_grid):
        path = tmp_path / "surfaces.csv"
        _write_csv(path, ["loss_name", "d", "sigma", "value"], loss_surfaces(d_grid, s_grid))
        scalar = {
            "kl_l1_he": lambda d, s: kl_l1_loss(0.0, 2.0 * math.log(s), d, "he")[0],
            "kl_l1_paper": lambda d, s: kl_l1_loss(0.0, 2.0 * math.log(s), d, "paper")[0],
            "expected_l1": lambda d, s: expected_l1(d, s)[0],
        }
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                d, s = float(row["d"]), float(row["sigma"])
                assert float(row["value"]) == scalar[row["loss_name"]](d, s), row
