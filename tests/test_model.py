"""Network assembly, end-to-end gradients, training behavior, checkpoints."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    float64_copy,
    offset_stats_oracle,
    parameter_count,
    regression_terms_oracle,
    relative_error,
)
from utal.data import (
    DataConfig,
    Dataset,
    ProposalConfig,
    TrainingSet,
    UnitFeatureSequence,
    VideoItem,
    build_training_set,
    generate_synthetic_dataset,
)
from utal.errors import ConfigError
from utal.losses import (
    ALPHA_CLAMP,
    binary_loss,
    expected_l1_training,
    kl_l1_loss,
    l1_loss,
    multiclass_loss,
    sampled_l1_loss,
    select_hard_negatives,
)
from utal.model import (
    ALPHA_BIAS_INIT,
    FC1_INIT_GAIN,
    LOSS_MODES,
    BatchForward,
    TrainConfig,
    _regression_terms,
    collect_offset_stats,
    decode_arrays,
    encode_arrays,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)
from utal.numerics import Rng


class TestInitModel:
    def test_parameter_count_uncertainty_mode(self):
        cfg = TrainConfig(loss_mode="kl_l1", k=4, hidden=1000)
        model = init_model(cfg, d_feat=64, num_classes=5, seed=1)
        # 256*1000 + 1000 | 1000*1 + 1 | 1000*25 + 25
        assert parameter_count(model) == 283_026

    def test_same_seed_identical_parameters(self):
        cfg = TrainConfig()
        a = init_model(cfg, 16, 3, seed=9)
        b = init_model(cfg, 16, 3, seed=9)
        for la, lb in zip(a.dense_layers, b.dense_layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)

    @pytest.mark.parametrize("mode", ["l1", "kl_l1"])
    def test_float32_layers_equal_the_float64_draw_cast_once(self, mode):
        """init_model draws float32 weights directly; they equal, bit for bit, the
        float64 path: draw, apply the fc1 gain and the alpha bias, then cast."""
        cfg, d_feat, num_classes = TrainConfig(loss_mode=mode, hidden=200), 16, 5
        model = init_model(cfg, d_feat, num_classes, seed=9)
        rng = Rng(9).split("model-init")
        cols = 3 if mode == "l1" else 5  # a head row: logit, mu_s, (alpha_s,) mu_e, (alpha_e)
        shapes = {"fc1": (cfg.hidden, cfg.k * d_feat), "actioness": (1, cfg.hidden),
                  "head": (num_classes * cols, cfg.hidden)}
        want = {}
        for name, (rows, width) in shapes.items():
            bound = np.sqrt(6.0 / (rows + width))
            w = (rng.split(name).uniforms(rows * width) * 2.0 - 1.0) * bound
            want[name] = [w.reshape(rows, width), np.zeros(rows)]
        want["fc1"][0] *= FC1_INIT_GAIN
        if mode != "l1":
            want["head"][1].reshape(num_classes, cols)[:, [2, 4]] = ALPHA_BIAS_INIT
        for layer in model.dense_layers:
            for got, ref in zip((layer.weights, layer.biases), want[layer.name]):
                assert got.dtype == np.float32
                assert got.tobytes() == ref.astype(np.float32).tobytes()

    def test_modes_differ_only_in_head_width(self):
        base = init_model(TrainConfig(loss_mode="l1", hidden=32), 8, 4, seed=3)
        unc = init_model(TrainConfig(loss_mode="kl_l1", hidden=32), 8, 4, seed=3)
        assert base.fc_head.out_dim == 4 * 3
        assert unc.fc_head.out_dim == 4 * 5
        np.testing.assert_array_equal(base.fc1.weights, unc.fc1.weights)
        np.testing.assert_array_equal(base.fc_act.weights, unc.fc_act.weights)


class TestForward:
    def test_zero_weights_give_neutral_outputs(self):
        model = init_model(TrainConfig(loss_mode="kl_l1", hidden=16), 8, 4, seed=1)
        for layer in model.dense_layers:
            layer.weights[...] = 0.0
            layer.biases[...] = 0.0
        out = model.forward_batch(np.ones((2, 8 * 4)))
        np.testing.assert_array_equal(out.y_a, [0.5, 0.5])
        np.testing.assert_array_equal(out.logits, np.zeros((2, 4)))
        np.testing.assert_array_equal(out.mu, np.zeros((2, 4, 2)))
        np.testing.assert_array_equal(out.alpha, np.zeros((2, 4, 2)))

    def test_deterministic(self):
        model = init_model(TrainConfig(hidden=16), 8, 3, seed=5)
        x = Rng(1).uniforms(3 * 8 * 4).reshape(3, -1)
        a = model.forward_batch(x)
        b = model.forward_batch(x)
        for name in ("y_a", "logits", "mu", "alpha"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_alpha_rows_clamped(self):
        model = init_model(TrainConfig(loss_mode="kl_l1", hidden=8), 4, 2, seed=1)
        model.fc_head.biases[...] = 99.0  # push raw alphas far out of range
        out = model.forward_batch(np.ones((1, 16)))
        assert np.all(out.alpha == 10.0)
        assert not np.any(out.alpha_pass)

    def test_clamped_alpha_sends_no_gradient_to_the_head(self):
        """A clamped alpha is the constant ALPHA_CLAMP, so the head's alpha rows
        get no gradient from the entries where |raw alpha| exceeds it."""
        model = init_model(TrainConfig(loss_mode="kl_l1", hidden=8), 4, 2, seed=1)
        rows = model.fc_head.biases.reshape(2, 5)  # per class: logit, mu_s, alpha_s, mu_e, alpha_e
        rows[0, 2], rows[1, 4] = 99.0, -99.0  # class 0 alpha_s over the clamp, class 1 alpha_e under
        fwd = model.forward_batch(Rng(2).uniforms(3 * 16).reshape(3, 16))
        assert np.abs(fwd.alpha).max() == ALPHA_CLAMP and fwd.alpha_pass.sum() == 6
        d_alpha = np.ones((3, 2, 2))
        model.backward_batch(fwd, np.zeros(3), np.zeros((3, 2)), np.zeros((3, 2, 2)), d_alpha)
        grad_b, grad_w = model.fc_head.grad_b.reshape(2, 5), model.fc_head.grad_w.reshape(2, 5, 8)
        assert grad_b[0, 2] == grad_b[1, 4] == 0.0 and not grad_w[[0, 1], [2, 4]].any()
        assert grad_b[0, 4] == grad_b[1, 2] == 3.0  # the unclamped alpha rows: one per sample


def _total_loss_for_model(model, cfg, x_batch, t_a, t_c, t_off, eps_values):
    """Total training loss recomputed functionally (for finite differences);
    `t_off` holds each row's (start, end) targets."""
    fwd = model.forward_batch(x_batch)
    mining = select_hard_negatives(fwd.y_a, t_a, cfg.mining_ratio)
    loss_bin, _ = binary_loss(fwd.y_a, mining)
    loss_cls, _ = multiclass_loss(fwd.logits, t_c, mining.positive_indices)
    pos = mining.positive_indices
    loss_reg = 0.0
    if pos.size:
        # l1 averages over positives, the Gaussian losses over both boundaries too
        scale = 1.0 / pos.size if cfg.loss_mode == "l1" else 1.0 / (2.0 * pos.size)
        k = 0
        for i in pos:
            c = int(t_c[i])
            for b in (0, 1):
                target = float(t_off[i, b])
                pred = [float(fwd.mu[i, c, b])]  # then alpha, in the Gaussian modes
                if fwd.alpha is not None:
                    pred.append(float(fwd.alpha[i, c, b]))
                if cfg.loss_mode == "l1":
                    val = l1_loss(*pred, target)[0]
                elif cfg.loss_mode == "kl_l1":
                    val = kl_l1_loss(*pred, target)[0]
                elif cfg.loss_mode == "expected_l1":
                    val = expected_l1_training(*pred, target)[0]
                else:
                    val = sampled_l1_loss(*pred, target, eps_values[k])[0]
                k += 1
                loss_reg += val * scale
    return loss_bin + loss_cls + loss_reg


class TestEndToEndGradient:
    @pytest.mark.parametrize("mode", ["l1", "kl_l1", "sampled_l1", "expected_l1"])
    def test_first_layer_weight_gradient(self, mode):
        cfg = TrainConfig(loss_mode=mode, hidden=12, k=2, mining_ratio=1.0)
        model = float64_copy(init_model(cfg, 6, 3, seed=4))
        rng = Rng(77)
        batch = 6
        x = rng.uniforms(batch * 12).reshape(batch, 12) + 0.05
        t_a = np.array([1, 0, 1, 0, 0, 1])
        t_c = np.array([0, -1, 2, -1, -1, 1])
        t_off = np.where(t_a[:, None] == 1, [0.31, -0.22], 0.0)
        # the eps draws, in the order the training path takes them from the same stream
        eps_values = rng.split("epsilon").normal(2 * int(t_a.sum())).tolist()

        # analytic gradient via the training path on a frozen mining result
        fwd = model.forward_batch(x)
        mining = select_hard_negatives(fwd.y_a, t_a, cfg.mining_ratio)
        pos = mining.positive_indices
        _, d_scores = binary_loss(fwd.y_a, mining)
        d_za = d_scores * fwd.y_a * (1.0 - fwd.y_a)
        _, d_logits = multiclass_loss(fwd.logits, t_c, pos)

        eps_rng = rng.split("epsilon")  # the stream eps_values came from, unread
        _, d_mu, d_alpha = _regression_terms(cfg, fwd, pos, t_c, t_off, eps_rng)
        model.backward_batch(fwd, d_za, d_logits, d_mu, d_alpha)
        grad = model.fc1.grad_w.copy()

        probe = Rng(88)
        h = 1e-6
        for _ in range(40):
            i = probe.randint(model.fc1.out_dim)
            j = probe.randint(model.fc1.weights.shape[1])
            orig = model.fc1.weights[i, j]
            model.fc1.weights[i, j] = orig + h
            up = _total_loss_for_model(model, cfg, x, t_a, t_c, t_off, eps_values)
            model.fc1.weights[i, j] = orig - h
            down = _total_loss_for_model(model, cfg, x, t_a, t_c, t_off, eps_values)
            model.fc1.weights[i, j] = orig
            fd = (up - down) / (2.0 * h)
            if abs(fd) < 1e-10 and abs(grad[i, j]) < 1e-10:
                continue
            assert relative_error(grad[i, j], fd) <= 1e-3


def _upstream_grads(model, cfg, fwd, t_a, t_c, t_off):
    """The training step's gradients on the network outputs (d_za, d_logits,
    d_mu, d_alpha) for one batch."""
    mining = select_hard_negatives(fwd.y_a, t_a, cfg.mining_ratio)
    pos = mining.positive_indices
    _, d_scores = binary_loss(fwd.y_a, mining)
    _, d_logits = multiclass_loss(fwd.logits, t_c, pos)
    _, d_mu, d_alpha = _regression_terms(cfg, fwd, pos, t_c, t_off, Rng(3))
    return d_scores * fwd.y_a * (1.0 - fwd.y_a), d_logits, d_mu, d_alpha


class TestFloat32Network:
    """The float32 network against its float64 copy, on one batch of a trained model."""

    # float32 rounds at 6e-8 relative; through the 64-dim input and the 1000
    # hidden units, outputs and weight gradients differ from float64 by at most
    # 5e-7 of their largest magnitude (measured, all four modes): 1e-5 is float32
    # rounding with room to spare, while any wrong term shows at order 1
    REL = 1e-5

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_outputs_and_gradients_match_float64_copy(self, mode):
        dataset = _toy_dataset()
        pcfg = ProposalConfig(scales=(8, 16, 32))
        cfg = TrainConfig(loss_mode=mode, epochs=2, batch_size=16, seed=4)
        tset = build_training_set(dataset, pcfg, cfg.k)
        model = init_model(cfg, dataset.d_feat, dataset.num_classes, 4)
        model, _ = train(model, dataset, cfg, pcfg, tset)
        ref = float64_copy(model)
        fwd, fwd_ref = model.forward_batch(tset.x), ref.forward_batch(tset.x)
        for name in ("y_a", "logits", "mu", "alpha"):
            got, want = getattr(fwd, name), getattr(fwd_ref, name)
            if want is None:
                assert got is None
                continue
            assert got.dtype == want.dtype == np.float64
            assert np.abs(got - want).max() <= self.REL * np.abs(want).max()
        upstream = _upstream_grads(ref, cfg, fwd_ref, tset.t_c >= 0, tset.t_c, tset.t_off)
        for net, out in ((model, fwd), (ref, fwd_ref)):
            net.backward_batch(out, *upstream)
        for layer, ref_layer in ((model.fc1, ref.fc1), (model.fc_head, ref.fc_head)):
            assert layer.grad_w.dtype == np.float32 and ref_layer.grad_w.dtype == np.float64
            err = np.abs(layer.grad_w - ref_layer.grad_w).max()
            assert err <= self.REL * np.abs(ref_layer.grad_w).max()

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_layers_float32_and_outputs_float64(self, mode):
        model = init_model(TrainConfig(loss_mode=mode, hidden=16), 8, 3, seed=5)
        for layer in model.dense_layers:
            for block in (layer.weights, layer.biases, layer.grad_w, layer.vel_w):
                assert block.dtype == np.float32
        out = model.forward_batch(Rng(1).uniforms(3 * 8 * 4).reshape(3, -1))
        for value in (out.y_a, out.logits, out.mu):
            assert value.dtype == np.float64
        assert (out.alpha is None) == (mode == "l1")
        assert out.alpha is None or out.alpha.dtype == np.float64

    @pytest.mark.parametrize("mode", ["l1", "kl_l1"])
    def test_input_cast_once_and_layers_stay_float32(self, mode):
        """forward_batch casts a float64 batch to the layers' float32 once, so it
        gives the bits of that batch cast beforehand; backward then leaves every
        dense layer's gradients and cached input float32."""
        model = init_model(TrainConfig(loss_mode=mode, hidden=16), 8, 3, seed=5)
        x = Rng(1).uniforms(6 * 8 * 4).reshape(6, -1)
        fwd = model.forward_batch(x)
        fwd32 = model.forward_batch(x.astype(np.float32))
        for name in ("y_a", "logits", "mu", "alpha"):
            got, want = getattr(fwd, name), getattr(fwd32, name)
            assert (got is None and want is None) or got.tobytes() == want.tobytes()
        t_c = np.array([0, -1, 2, -1, -1, 1])
        cfg = TrainConfig(loss_mode=mode, mining_ratio=1.0)
        t_off = np.tile([0.3, -0.2], (6, 1))
        model.backward_batch(fwd, *_upstream_grads(model, cfg, fwd, t_c >= 0, t_c, t_off))
        for layer in model.dense_layers:
            for block in (layer.grad_w, layer.grad_b, layer._x):
                assert block.dtype == np.float32


_dyadic = st.integers(-24, 24).map(lambda n: n / 8.0)  # t - mu stays exact
_offset = st.one_of(st.sampled_from([-1.0, 1.0, 0.0]), _dyadic, st.floats(-3.0, 3.0))
_alpha = st.one_of(
    st.sampled_from([-ALPHA_CLAMP, ALPHA_CLAMP]), st.floats(-ALPHA_CLAMP, ALPHA_CLAMP)
)


@st.composite
def _regression_batch(draw):
    """(mu, alpha, t_c, t_off) of a batch; t_c -1 marks a negative."""
    rows, classes = draw(st.integers(0, 12)), draw(st.integers(2, 4))
    cells = rows * classes * 2
    mu = np.reshape(draw(st.lists(_dyadic, min_size=cells, max_size=cells)), (rows, classes, 2))
    alpha = np.reshape(draw(st.lists(_alpha, min_size=cells, max_size=cells)), (rows, classes, 2))
    t_c = np.array(draw(st.lists(st.integers(-1, classes - 1), min_size=rows, max_size=rows)), int)
    offsets = np.reshape(draw(st.lists(_offset, min_size=2 * rows, max_size=2 * rows)), (rows, 2))
    pos = np.flatnonzero(t_c >= 0)
    targets = np.zeros((rows, 2))
    targets[pos] = mu[pos, t_c[pos]] + offsets[pos]
    return mu, alpha, t_c, targets


class TestRegressionTerms:
    @staticmethod
    def _both(batch, mode, seed):
        """_regression_terms and the per-positive oracle on one batch."""
        mu, alpha, t_c, t_off = batch
        cfg = TrainConfig(loss_mode=mode, k=1, hidden=2)
        fwd = BatchForward(
            np.zeros(mu.shape[0]), mu[:, :, 0], mu, alpha if mode != "l1" else None, None
        )
        pos = np.flatnonzero(t_c >= 0)
        got = _regression_terms(cfg, fwd, pos, t_c, t_off, Rng(seed))
        ref = regression_terms_oracle(cfg, fwd, pos, t_c, t_off, Rng(seed))
        return got, ref

    @given(
        batch=_regression_batch(),
        mode=st.sampled_from(LOSS_MODES),
        seed=st.integers(0, 2**16),
    )
    @example(  # |d| == 1 on both sides, alpha at both clamps, one class twice
        batch=(
            np.array([[[0.25, -0.5], [0.0, 0.0]], [[0.0, 0.0], [1.0, 2.0]], [[0.5, 0.0], [0.0, 0.0]]]),
            np.array([[[-10.0, 10.0], [0.0, 0.0]], [[0.0, 0.0], [10.0, -10.0]], [[0.3, 0.0], [0.0, 0.0]]]),
            np.array([0, 1, 0]),
            np.array([[1.25, -1.5], [0.0, 3.0], [0.5, 0.0]]),
        ),
        mode="kl_l1", seed=0,
    )
    @example(  # no positives
        batch=(np.ones((2, 2, 2)), np.zeros((2, 2, 2)), np.array([-1, -1]), np.zeros((2, 2))),
        mode="sampled_l1", seed=3,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_positive_oracle(self, batch, mode, seed):
        (loss, d_mu, d_alpha), (ref_loss, ref_mu, ref_alpha) = self._both(batch, mode, seed)
        assert loss == pytest.approx(ref_loss, rel=1e-15, abs=0.0)
        mu, _, t_c, _ = batch
        pos = np.flatnonzero(t_c >= 0)
        gt = np.zeros(mu.shape, bool)
        gt[pos, t_c[pos]] = True
        assert (d_alpha is None) == (ref_alpha is None)
        for grad, ref in ((d_mu, ref_mu), (d_alpha, ref_alpha)):
            if grad is not None:
                assert not grad[~gt].any()
                np.testing.assert_array_max_ulp(grad[gt], ref[gt], maxulp=4)

    def test_gaussian_loss_is_a_running_total(self):
        """The loss adds values * scale left to right in C order (positive, then start
        and end), not in np.sum's pairwise grouping, which rounds differently here."""
        n, classes = 24, 3
        r = Rng(5)
        mu = 4.0 * r.uniforms(n * classes * 2).reshape(n, classes, 2) - 2.0
        alpha = 6.0 * r.uniforms(n * classes * 2).reshape(n, classes, 2) - 3.0
        t_c = np.array([r.randint(classes) for _ in range(n)])
        t_off = 4.0 * np.stack((r.uniforms(n), r.uniforms(n)), axis=1) - 2.0
        cfg = TrainConfig(loss_mode="kl_l1")
        fwd = BatchForward(np.zeros(n), mu[:, :, 0], mu, alpha, None)
        pos = np.arange(n)
        loss, _, _ = _regression_terms(cfg, fwd, pos, t_c, t_off, Rng(0))
        values = kl_l1_loss(mu[pos, t_c], alpha[pos, t_c], t_off)[0]
        terms = values * (1.0 / (2.0 * n))
        total = 0.0
        for term in terms.ravel().tolist():
            total += term
        assert float(np.sum(terms)) != total  # the two orders round apart on this batch
        assert loss == total

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_zero_residual_gives_no_mu_gradient(self, mode):
        """r == 0: with t == mu (and sigma*eps == 0 for the sampled loss) mu gets no gradient."""
        mu = np.full((2, 2, 2), 0.375)
        cfg = TrainConfig(loss_mode=mode, k=1, hidden=2)
        # sampled: sigma = exp(-750) underflows to 0, so sigma*eps == 0 for any eps drawn
        log_var = -1500.0 if mode == "sampled_l1" else -1.0
        alpha = np.full((2, 2, 2), log_var) if mode != "l1" else None
        fwd = BatchForward(np.zeros(2), mu[:, :, 0], mu, alpha, None)
        t_c, t_off = np.array([1, 1]), np.full((2, 2), 0.375)
        pos = np.arange(2)
        got = _regression_terms(cfg, fwd, pos, t_c, t_off, Rng(0))
        ref = regression_terms_oracle(cfg, fwd, pos, t_c, t_off, Rng(0))
        assert not got[1].any() and not ref[1].any()
        assert got[0] == ref[0]


def _toy_dataset(num_videos=4, seed=31):
    """Tiny in-memory dataset (~50 labeled proposals) for fast training tests."""
    cfg = DataConfig(
        num_videos=num_videos, t_range=(32, 48), num_classes=2, d_feat=16,
        instances_per_video=1, noise_level=0.1, boundary_jitter=0.0,
    )
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        dataset, _ = generate_synthetic_dataset(cfg, seed, td)
    return dataset


class TestTraining:
    def test_zero_lr_leaves_parameters(self):
        dataset = _toy_dataset()
        cfg = TrainConfig(loss_mode="l1", epochs=2, lr=0.0, hidden=32, batch_size=16)
        model = init_model(cfg, dataset.d_feat, dataset.num_classes, 1)
        before = [layer.weights.copy() for layer in model.dense_layers]
        model, _ = train(model, dataset, cfg, ProposalConfig(scales=(8, 16, 32)))
        for prev, layer in zip(before, model.dense_layers):
            np.testing.assert_array_equal(prev, layer.weights)

    def test_zero_epochs_returns_empty_curve(self):
        dataset = _toy_dataset()
        cfg = TrainConfig(loss_mode="l1", epochs=0, hidden=32)
        model = init_model(cfg, dataset.d_feat, dataset.num_classes, 1)
        model, curve = train(model, dataset, cfg, ProposalConfig(scales=(8, 16, 32)))
        assert curve == []

    def test_loss_halves_on_toy_set(self):
        dataset = _toy_dataset()
        pcfg = ProposalConfig(scales=(8, 16, 32))
        cfg = TrainConfig(loss_mode="l1", epochs=30, hidden=64, batch_size=16, seed=5)
        model = init_model(cfg, dataset.d_feat, dataset.num_classes, 5)
        model, curve = train(model, dataset, cfg, pcfg)
        total = lambda row: row.loss_bin + row.loss_cls + row.loss_reg
        assert total(curve[29]) < 0.5 * total(curve[0])

    def test_bit_determinism(self):
        dataset = _toy_dataset()
        pcfg = ProposalConfig(scales=(8, 16, 32))
        cfg = TrainConfig(loss_mode="sampled_l1", epochs=3, hidden=32, batch_size=16, seed=9)
        runs = []
        for _ in range(2):
            model = init_model(cfg, dataset.d_feat, dataset.num_classes, 9)
            model, curve = train(model, dataset, cfg, pcfg)
            runs.append((model.fc1.weights.copy(), [r.loss_reg for r in curve]))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_same_seed_checkpoints_byte_identical(self, tmp_path):
        dataset = _toy_dataset()
        pcfg = ProposalConfig(scales=(8, 16, 32))
        files = []
        for run, seed in enumerate((9, 9, 10)):
            cfg = TrainConfig(loss_mode="sampled_l1", epochs=3, hidden=32, batch_size=16, seed=seed)
            model = init_model(cfg, dataset.d_feat, dataset.num_classes, seed)
            model, _ = train(model, dataset, cfg, pcfg)
            files.append(save_checkpoint(model, tmp_path / f"{run}.utal", cfg).read_bytes())
        assert files[0] == files[1]
        assert files[0] != files[2]  # the bytes do depend on the seed

    def test_no_positives_raises_with_thresholds(self):
        video = VideoItem(
            UnitFeatureSequence("v", np.zeros((32, 8))), np.zeros((0, 3))
        )
        dataset = Dataset([video], ["a", "b"], 8, 2)
        cfg = TrainConfig(loss_mode="l1", epochs=1, hidden=8, k=2)
        model = init_model(cfg, 8, 2, 1)
        with pytest.raises(ConfigError, match="pos_thr"):
            train(model, dataset, cfg, ProposalConfig(scales=(8,)))

    def test_baseline_head_has_no_alpha_block(self):
        dataset = _toy_dataset()
        cfg = TrainConfig(loss_mode="l1", epochs=1, hidden=16, batch_size=16)
        model = init_model(cfg, dataset.d_feat, dataset.num_classes, 3)
        assert model.fc_head.out_dim == dataset.num_classes * 3  # logit, mu_s, mu_e
        model, _ = train(model, dataset, cfg, ProposalConfig(scales=(8, 16, 32)))
        fwd = model.forward_batch(np.ones((2, dataset.d_feat * cfg.k)))
        assert fwd.alpha is None

    def test_sigma_stats_present_only_in_uncertainty_mode(self):
        dataset = _toy_dataset()
        pcfg = ProposalConfig(scales=(8, 16, 32))
        for mode, has_sigma in (("l1", False), ("kl_l1", True)):
            cfg = TrainConfig(loss_mode=mode, epochs=1, hidden=16, batch_size=16)
            model = init_model(cfg, dataset.d_feat, dataset.num_classes, 3)
            model, curve = train(model, dataset, cfg, pcfg)
            assert (curve[0].mean_sigma_pos is not None) == has_sigma
            tset = build_training_set(dataset, pcfg, cfg.k)
            d, sigma = collect_offset_stats(model, tset)
            assert d.shape == (int((tset.t_c >= 0).sum()), 2) and d.size
            assert (sigma is not None) == has_sigma


class TestOffsetStats:
    @pytest.mark.parametrize("mode", ["l1", "kl_l1"])
    def test_columns_equal_per_positive_oracle(self, mode):
        """1,300 windows, about 650 positive: the default 512-row chunks split them."""
        n, d_feat, k, classes = 1300, 4, 2, 3
        r = Rng(61)
        t_c = np.array([r.randint(classes + 1) - 1 for _ in range(n)])
        t_off = np.stack((r.uniforms(n), r.uniforms(n)), axis=1) - 0.5
        t_off[t_c < 0] = 0.0
        x = (r.uniforms(n * k * d_feat).reshape(n, -1) - 0.5).astype(np.float32)
        tset = TrainingSet(x, t_c, t_off)
        assert (t_c >= 0).sum() > 512
        cfg = TrainConfig(loss_mode=mode, k=k, hidden=16)
        model = init_model(cfg, d_feat, classes, seed=2)
        model.fc_head.weights *= 40.0  # spread mu and alpha well away from their init
        d, sigma = collect_offset_stats(model, tset)
        d_ref, sigma_ref = offset_stats_oracle(model, tset)
        assert d.shape == ((t_c >= 0).sum(), 2)
        np.testing.assert_array_equal(d, d_ref)
        if mode == "l1":
            assert sigma is None and sigma_ref is None
        else:
            np.testing.assert_array_equal(sigma, sigma_ref)


class TestCheckpointFormat:
    def test_roundtrip_values_and_bytes(self):
        rng = Rng(55)
        arrays = {
            "fc1.weights": rng.uniforms(12).reshape(3, 4),
            "fc1.biases": rng.uniforms(3),
        }
        data = encode_arrays(arrays)
        assert data[:5] == b"UTAL1"
        loaded = decode_arrays(data, "a.utal")
        for name in arrays:
            assert loaded[name].dtype == np.float32
            np.testing.assert_array_equal(loaded[name], arrays[name].astype(np.float32))
        assert encode_arrays(loaded) == data  # float32 values survive a second roundtrip exactly

    def test_layout_is_pinned_byte_for_byte(self):
        """Magic, entry count, name length and name, ndim, dims, little-endian float32 payload."""
        data = encode_arrays({"a.weights": np.array([[1.0, 2.0]], np.float32)})
        assert data == (
            b"UTAL1" + b"\x01\x00\x00\x00" + b"\x09\x00" + b"a.weights" + b"\x02"
            + b"\x01\x00\x00\x00" + b"\x02\x00\x00\x00" + b"\x00\x00\x80\x3f" + b"\x00\x00\x00\x40"
        )

    def test_bad_magic_rejected(self):
        with pytest.raises(ConfigError, match="^bad.utal: bad checkpoint magic b'NOPE!'"):
            decode_arrays(b"NOPE!" + b"\x00" * 16, "bad.utal")


class TestCheckpoint:
    def test_save_load_forward_bit_exact(self, tmp_path):
        cfg = TrainConfig(loss_mode="kl_l1", hidden=24)
        model = init_model(cfg, 8, 3, seed=6)
        path = save_checkpoint(model, tmp_path / "model.utal", cfg)
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        x = Rng(2).uniforms(3 * 8 * cfg.k).reshape(3, -1)
        out_a = loaded.forward_batch(x)
        reloaded, _ = load_checkpoint(save_checkpoint(loaded, tmp_path / "again.utal", cfg))
        out_b = reloaded.forward_batch(x)
        for name in ("y_a", "logits", "mu", "alpha"):
            np.testing.assert_array_equal(getattr(out_a, name), getattr(out_b, name))

    def test_loaded_layers_float32_and_forward_bit_exact_to_saved(self, tmp_path):
        dataset = _toy_dataset()
        cfg = TrainConfig(loss_mode="kl_l1", epochs=1, hidden=24, batch_size=16)
        model = init_model(cfg, dataset.d_feat, dataset.num_classes, seed=6)
        model, _ = train(model, dataset, cfg, ProposalConfig(scales=(8, 16, 32)))
        loaded, _ = load_checkpoint(save_checkpoint(model, tmp_path / "model.utal", cfg))
        for layer in loaded.dense_layers:
            assert layer.weights.dtype == layer.biases.dtype == np.float32
        x = Rng(2).uniforms(5 * dataset.d_feat * cfg.k).reshape(5, -1)
        out, out_loaded = model.forward_batch(x), loaded.forward_batch(x)
        for name in ("y_a", "logits", "mu", "alpha"):
            np.testing.assert_array_equal(getattr(out, name), getattr(out_loaded, name))

    def test_second_save_is_byte_identical(self, tmp_path):
        cfg = TrainConfig(loss_mode="l1", hidden=12)
        model = init_model(cfg, 8, 2, seed=1)
        p1 = save_checkpoint(model, tmp_path / "a.utal", cfg)
        loaded, _ = load_checkpoint(p1)
        p2 = save_checkpoint(loaded, tmp_path / "b.utal", cfg)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("stage", ["weights", "sidecar"])
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch, stage):
        import utal.model as model_mod

        cfg = TrainConfig(hidden=12)
        path = save_checkpoint(init_model(cfg, 8, 2, seed=1), tmp_path / "m.utal", cfg)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def half_written(out, data):
            with open(out, "wb") as fh:
                fh.write(data[:4])
            raise OSError("disk full")

        def unserializable(*args, **kwargs):
            raise OSError("disk full")

        if stage == "weights":
            monkeypatch.setattr(model_mod.Path, "write_bytes", half_written)
        else:
            monkeypatch.setattr(model_mod.json, "dumps", unserializable)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(init_model(cfg, 8, 2, seed=2), path, cfg)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.fc1.weights, init_model(cfg, 8, 2, seed=1).fc1.weights)

    def test_sidecar_records_weights_sha256(self, tmp_path):
        cfg = TrainConfig(hidden=12)
        path = save_checkpoint(init_model(cfg, 8, 2, seed=1), tmp_path / "m.utal", cfg)
        sidecar = json.loads((tmp_path / "m.utal.json").read_text())
        assert sidecar["weights_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_sidecar_without_sha256_is_refused(self, tmp_path):
        """Without the digest a damaged weight file would load unnoticed."""
        cfg = TrainConfig(hidden=12)
        path = save_checkpoint(init_model(cfg, 8, 2, seed=1), tmp_path / "m.utal", cfg)
        sidecar_path = tmp_path / "m.utal.json"
        sidecar = json.loads(sidecar_path.read_text())
        del sidecar["weights_sha256"]
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"checkpoint sidecar {sidecar_path} lacks key 'weights_sha256'"

    def test_older_sidecar_with_init_arguments_loads(self, tmp_path):
        """Sidecars once recorded d_feat, num_classes and seed; the shapes give the first
        two and train_config.seed the run seed, so those keys are ignored."""
        cfg = TrainConfig(hidden=12)
        path = save_checkpoint(init_model(cfg, 8, 2, seed=1), tmp_path / "m.utal", cfg)
        sidecar_path = tmp_path / "m.utal.json"
        sidecar = json.loads(sidecar_path.read_text())
        assert set(sidecar) == {"train_config", "weights_sha256"}
        sidecar.update(d_feat=8, num_classes=2, seed=1)
        sidecar_path.write_text(json.dumps(sidecar))
        loaded, _ = load_checkpoint(path)
        assert (loaded.d_feat, loaded.num_classes, loaded.fc1.out_dim) == (8, 2, 12)

    @pytest.mark.parametrize(
        "damage, layer",
        [
            ("fc1-width-not-a-multiple-of-k", "fc1"),
            ("fc1-three-dimensional", "fc1"),
            ("fc1-bias-short", "fc1"),
            ("actioness-two-rows", "actioness"),
            ("head-one-class", "head"),
            ("head-rows-not-a-multiple-of-five", "head"),
        ],
    )
    def test_misshapen_array_names_both_files_and_the_layer(self, tmp_path, damage, layer):
        cfg = TrainConfig(loss_mode="kl_l1", hidden=12, k=2)
        path = save_checkpoint(init_model(cfg, 8, 3, seed=1), tmp_path / "m.utal", cfg)
        arrays = decode_arrays(path.read_bytes(), path)
        w, b = arrays[f"{layer}.weights"], arrays[f"{layer}.biases"]
        if damage == "fc1-width-not-a-multiple-of-k":
            w = w[:, :-1]
        elif damage == "fc1-three-dimensional":
            w = w.reshape(12, 2, 8)
        elif damage == "fc1-bias-short":
            b = b[:-1]
        elif damage == "actioness-two-rows":
            w, b = np.vstack((w, w)), np.tile(b, 2)
        elif damage == "head-one-class":
            w, b = w[:5], b[:5]
        else:
            w, b = w[:-1], b[:-1]
        arrays[f"{layer}.weights"], arrays[f"{layer}.biases"] = w, b
        path.write_bytes(encode_arrays(arrays))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(
            f"checkpoint {path} does not fit {tmp_path / 'm.utal.json'} in {layer}: "
        )

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_load_builds_on_the_saved_arrays_without_drawing(self, tmp_path, monkeypatch, mode):
        """No layer is initialised and no random number drawn: the arrays read are the layers."""
        import utal.model as model_mod

        cfg = TrainConfig(loss_mode=mode, hidden=12, k=2)
        path = save_checkpoint(init_model(cfg, 8, 3, seed=1), tmp_path / "m.utal", cfg)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random weights")

        monkeypatch.setattr(model_mod, "init_dense", no_draw)
        monkeypatch.setattr(Rng, "__init__", no_draw)
        loaded, _ = load_checkpoint(path)
        monkeypatch.undo()
        saved = decode_arrays(path.read_bytes(), path)
        assert len(saved) == 2 * len(loaded.dense_layers)
        for layer in loaded.dense_layers:
            for part in ("weights", "biases"):
                array = getattr(layer, part)
                assert array.dtype == np.float32
                assert array.tobytes() == saved[f"{layer.name}.{part}"].tobytes()
        assert (loaded.d_feat, loaded.num_classes, loaded.k) == (8, 3, 2)
        assert loaded.uncertainty == (mode != "l1")

    def test_weights_of_another_save_rejected(self, tmp_path):
        """Same shapes, so only the recorded SHA-256 tells the pairing is wrong."""
        cfg = TrainConfig(hidden=12)
        path = save_checkpoint(init_model(cfg, 8, 2, seed=1), tmp_path / "m.utal", cfg)
        other = save_checkpoint(init_model(cfg, 8, 2, seed=2), tmp_path / "o.utal", cfg)
        path.write_bytes(other.read_bytes())
        with pytest.raises(ConfigError, match="SHA-256") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and str(tmp_path / "m.utal.json") in str(err.value)

    def test_missing_sidecar_rejected(self, tmp_path):
        cfg = TrainConfig(hidden=12)
        model = init_model(cfg, 8, 2, seed=1)
        path = save_checkpoint(model, tmp_path / "m.utal", cfg)
        (tmp_path / "m.utal.json").unlink()
        with pytest.raises(ConfigError, match="sidecar"):
            load_checkpoint(path)
