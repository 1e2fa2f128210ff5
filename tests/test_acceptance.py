"""Acceptance criteria, one test per criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The benchmark fixture trains twelve models (four loss modes x three seeds) on
the default synthetic set and is shared by criteria 3 and 5. Criterion 5 also
scores each model on 200 held-out videos of its seed.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from _oracles import (
    OracleModel,
    aligned_oracle_dataset,
    ap_columns,
    ap_enumeration_oracle,
    float64_copy,
    greedy_nms_oracle,
    relative_error,
)
from utal.cli import main
from utal.data import DataConfig, ProposalConfig, build_training_set, generate_synthetic_dataset
from utal.detect import DetectConfig, Detection, average_precision, evaluate, nms
from utal.losses import (
    _expected_l1_foil,
    binary_loss,
    expected_l1,
    kl_l1_loss,
    l1_loss,
    multiclass_loss,
    sampled_l1_loss,
    select_hard_negatives,
)
from utal.model import TrainConfig, collect_offset_stats, init_model, train
from utal.net import DenseLayer, L2NormalizeLayer, ReluLayer
from utal.numerics import Rng, mc_expected_l1

pytestmark = pytest.mark.slow

SEEDS = (7, 8, 9)
EPOCHS = {"l1": 25, "kl_l1": 25, "sampled_l1": 50, "expected_l1": 50}  # within the 50-epoch budget


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


@dataclass
class BenchRun:
    map_05: float
    held_out_map_05: float  # on videos 200-399 of the seed, which it never trained on
    train_seconds: float
    offset_stats: tuple  # collect_offset_stats's (d, sigma) columns; empty unless kl_l1


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    """Train all twelve default-benchmark runs once; evaluate each in-sample and held-out.

    A video depends only on the seed and its index, so a 400-video set starts
    with the default set's 200 videos: those are trained on, the rest held out.
    """
    runs = {}
    pcfg = ProposalConfig()
    for seed in SEEDS:
        default, _ = generate_synthetic_dataset(
            DataConfig(), seed, tmp_path_factory.mktemp(f"bench-seed{seed}")
        )
        wide, _ = generate_synthetic_dataset(
            DataConfig(num_videos=400), seed, tmp_path_factory.mktemp(f"bench400-seed{seed}")
        )
        for ours, theirs in zip(wide.videos[:200], default.videos, strict=True):
            assert ours.sequence.video_id == theirs.sequence.video_id
            assert ours.sequence.features.tobytes() == theirs.sequence.features.tobytes()
            assert ours.annotations.tobytes() == theirs.annotations.tobytes()
        dataset = replace(wide, videos=wide.videos[:200])
        held_out = replace(wide, videos=wide.videos[200:])
        training_set = build_training_set(dataset, pcfg, 4)
        for mode, epochs in EPOCHS.items():
            t0 = time.perf_counter()
            cfg = TrainConfig(loss_mode=mode, epochs=epochs, seed=seed)
            model = init_model(cfg, dataset.d_feat, dataset.num_classes, seed)
            model, _ = train(model, dataset, cfg, pcfg, training_set)
            _, report = evaluate(model, dataset, DetectConfig(), pcfg)
            elapsed = time.perf_counter() - t0
            stats = (
                collect_offset_stats(model, training_set) if mode == "kl_l1" else ()
            )
            held_out_map = evaluate(model, held_out, DetectConfig(), pcfg)[1].map_by_tiou[0.5]
            runs[(mode, seed)] = BenchRun(report.map_by_tiou[0.5], held_out_map, elapsed, stats)
    return runs


class TestCriterion1ExpectationIdentity:
    def test_monte_carlo_pins_down_the_closed_form(self):
        with criterion(1, "expectation identity"):
            t0 = time.perf_counter()
            rng = Rng(424242)
            n = 1_000_000
            worst_foil_ratio = 0.0
            for d in (-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0):
                for sigma in (0.1, 0.5, 1.0, 2.0):
                    mean, stderr = mc_expected_l1(
                        d, sigma, n, rng.split("grid", repr(d), repr(sigma))
                    )
                    tol = max(1e-3, 4.0 * stderr)
                    value = expected_l1(d, sigma)[0]
                    assert abs(value - mean) <= tol, (d, sigma, value, mean, stderr)
                    foil_dev = abs(_expected_l1_foil(d, sigma) - mean)
                    worst_foil_ratio = max(worst_foil_ratio, foil_dev / tol)
            # the printed (uncorrected) form must fail somewhere by > 10x tolerance
            assert worst_foil_ratio > 10.0, worst_foil_ratio
            assert time.perf_counter() - t0 < 10.0


def _fd(fn, x: float, h: float = 1e-6) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def _check(analytic, numeric, tol):
    if max(abs(analytic), abs(numeric)) < 1e-6:
        return
    assert relative_error(analytic, numeric) <= tol, (analytic, numeric)


class TestCriterion2GradientSuite:
    def test_every_loss_and_layer_matches_finite_differences(self):
        with criterion(2, "gradient suite"):
            t0 = time.perf_counter()
            rng = Rng(31337)

            # kl loss, both branch conventions, 100+ points
            for i in range(120):
                r = rng.split("kl", i)
                mu = 2.0 * r.uniform() - 1.0
                alpha = 2.0 * r.uniform() - 1.0
                t = 4.0 * r.uniform() - 2.0
                if abs(t - mu) < 1e-2 or abs(abs(t - mu) - 1.0) < 1e-2:
                    continue
                for mode in ("he", "paper"):
                    _, d_mu, d_alpha = kl_l1_loss(mu, alpha, t, mode)
                    _check(d_mu, _fd(lambda v: kl_l1_loss(v, alpha, t, mode)[0], mu), 1e-4)
                    _check(d_alpha, _fd(lambda v: kl_l1_loss(mu, v, t, mode)[0], alpha), 1e-4)

            # sampled loss at a drawn, then fixed, epsilon
            for i in range(120):
                r = rng.split("sampled", i)
                mu = 2.0 * r.uniform() - 1.0
                alpha = 2.0 * r.uniform() - 1.0
                t = 4.0 * r.uniform() - 2.0
                (eps,) = r.normal(1)
                if abs((t - mu) - math.exp(0.5 * alpha) * eps) < 1e-2:
                    continue
                _, d_mu, d_alpha = sampled_l1_loss(mu, alpha, t, eps)
                _check(d_mu, _fd(lambda v: sampled_l1_loss(v, alpha, t, eps)[0], mu), 1e-4)
                _check(d_alpha, _fd(lambda v: sampled_l1_loss(mu, v, t, eps)[0], alpha), 1e-4)

            # expected-l1 partials
            for i in range(120):
                r = rng.split("expected", i)
                d = 6.0 * r.uniform() - 3.0
                sigma = 0.15 + 2.0 * r.uniform()
                _, d_d, d_sigma = expected_l1(d, sigma)
                _check(d_d, _fd(lambda v: expected_l1(v, sigma)[0], d), 1e-4)
                _check(d_sigma, _fd(lambda v: expected_l1(d, v)[0], sigma), 1e-4)

            # batch losses: binary (mining frozen), multiclass, plain l1
            for i in range(25):
                r = rng.split("batch", i)
                n = 16
                scores = 0.05 + 0.9 * r.uniforms(n)
                labels = (r.uniforms(n) < 0.4).astype(int)
                mining = select_hard_negatives(scores, labels, 1.0 / 3.0)
                _, d_scores = binary_loss(scores, mining)
                for j in range(0, n, 3):
                    def f_bin(v, j=j):
                        s = scores.copy()
                        s[j] = v
                        return binary_loss(s, mining)[0]
                    _check(d_scores[j], _fd(f_bin, scores[j]), 1e-4)

                logits = 2.0 * r.uniforms(n * 4).reshape(n, 4) - 1.0
                classes = np.array([int(r.randint(4)) for _ in range(n)])
                pos = np.flatnonzero(labels == 1)
                _, d_logits = multiclass_loss(logits, classes, pos)
                for row in pos[:2]:
                    for c in range(4):
                        def f_cls(v, row=row, c=c):
                            z = logits.copy()
                            z[row, c] = v
                            return multiclass_loss(z, classes, pos)[0]
                        _check(d_logits[row, c], _fd(f_cls, logits[row, c]), 1e-4)

                y_s = r.uniforms(n) - 0.5
                y_e = r.uniforms(n) - 0.5
                t_s = y_s + np.where(r.uniforms(n) < 0.5, 0.35, -0.3)
                t_e = y_e + np.where(r.uniforms(n) < 0.5, -0.4, 0.25)
                for y, t in ((y_s, t_s), (y_e, t_e)):  # elementwise: (start, end) alike
                    _, d_y = l1_loss(y, t)
                    for row in pos[:3]:
                        _check(d_y[row], _fd(lambda v: l1_loss(v, t[row])[0], y[row]), 1e-4)

            # layers: dense (weights, biases, input), relu, l2-normalize
            checks = 0
            i = 0
            while checks < 100:
                r = rng.split("layers", i)
                i += 1
                w = r.uniforms(12).reshape(3, 4) - 0.5
                b = r.uniforms(3) - 0.5
                x = r.uniforms(4) - 0.5
                dy = r.uniforms(3) - 0.5
                layer = DenseLayer(w, b)  # layers take one-row batches
                layer.forward(x[None])
                dx = layer.backward(dy[None])[0]
                for idx in ((0, 1), (2, 3)):
                    def f_w(v, idx=idx):
                        w2 = w.copy()
                        w2[idx] = v
                        return float(DenseLayer(w2, b).forward(x[None])[0] @ dy)
                    _check(layer.grad_w[idx], _fd(f_w, w[idx]), 1e-4)
                    checks += 1
                def f_x(v):
                    x2 = x.copy()
                    x2[0] = v
                    return float(DenseLayer(w, b).forward(x2[None])[0] @ dy)
                _check(dx[0], _fd(f_x, x[0]), 1e-4)

                xr = r.uniforms(5) - 0.5
                dyr = r.uniforms(5) - 0.5
                if np.all(np.abs(xr) > 1e-2):
                    relu = ReluLayer()
                    relu.forward(xr.copy())  # it writes over its input; xr stays the FD point
                    dxr = relu.backward(dyr)
                    def f_r(v):
                        x2 = xr.copy()
                        x2[1] = v
                        return float(ReluLayer().forward(x2) @ dyr)
                    _check(dxr[1], _fd(f_r, xr[1]), 1e-4)
                    checks += 1

                xn = r.uniforms(5) + 0.2
                norm = L2NormalizeLayer()
                norm.forward(xn[None])
                dxn = norm.backward(dyr[None])[0]
                def f_n(v):
                    x2 = xn.copy()
                    x2[2] = v
                    return float(L2NormalizeLayer().forward(x2[None])[0] @ dyr)
                _check(dxn[2], _fd(f_n, xn[2]), 1e-4)
                checks += 1

            # end-to-end: total loss w.r.t. first-layer weights at 1e-3
            self._end_to_end(rng)
            assert time.perf_counter() - t0 < 10.0

    @staticmethod
    def _end_to_end(rng):
        from test_model import _total_loss_for_model  # reuse the functional loss

        for mode in ("l1", "kl_l1", "sampled_l1", "expected_l1"):
            cfg = TrainConfig(loss_mode=mode, hidden=10, k=2, mining_ratio=1.0)
            model = float64_copy(init_model(cfg, 5, 3, seed=17))
            r = rng.split("e2e", mode)
            batch = 5
            x = r.uniforms(batch * 10).reshape(batch, 10) + 0.05
            t_a = np.array([1, 0, 1, 1, 0])
            t_c = np.array([0, -1, 2, 1, -1])
            t_off = np.where(t_a[:, None] == 1, [0.27, -0.19], 0.0)  # (start, end) per row
            eps_values = r.normal(2 * int(t_a.sum())).tolist()

            from utal.losses import (
                binary_loss as _bl,
                multiclass_loss as _ml,
                select_hard_negatives as _shn,
            )

            fwd = model.forward_batch(x)
            mining = _shn(fwd.y_a, t_a, cfg.mining_ratio)
            pos = mining.positive_indices
            _, d_scores = _bl(fwd.y_a, mining)
            d_za = d_scores * fwd.y_a * (1.0 - fwd.y_a)
            _, d_logits = _ml(fwd.logits, t_c, pos)
            d_mu = np.zeros_like(fwd.mu)
            d_alpha = np.zeros_like(fwd.alpha) if model.uncertainty else None
            from utal.losses import expected_l1_training

            # l1 averages over positives, the Gaussian losses over both boundaries too
            scale = 1.0 / pos.size if mode == "l1" else 1.0 / (2.0 * pos.size)
            k = 0
            for i in pos:
                c = int(t_c[i])
                for bnd in (0, 1):
                    target = float(t_off[i, bnd])
                    if mode == "l1":
                        d_mu[i, c, bnd] += l1_loss(float(fwd.mu[i, c, bnd]), target)[1] * scale
                        continue
                    pred = float(fwd.mu[i, c, bnd]), float(fwd.alpha[i, c, bnd])
                    if mode == "kl_l1":
                        _, g_mu, g_alpha = kl_l1_loss(*pred, target)
                    elif mode == "expected_l1":
                        _, g_mu, g_alpha = expected_l1_training(*pred, target)
                    else:
                        _, g_mu, g_alpha = sampled_l1_loss(*pred, target, eps_values[k])
                    k += 1
                    d_mu[i, c, bnd] += g_mu * scale
                    d_alpha[i, c, bnd] += g_alpha * scale
            model.backward_batch(fwd, d_za, d_logits, d_mu, d_alpha)
            grad = model.fc1.grad_w
            probe = Rng(5150).split(mode)
            h = 1e-6
            for _ in range(25):
                a = probe.randint(model.fc1.out_dim)
                bcol = probe.randint(model.fc1.weights.shape[1])
                orig = model.fc1.weights[a, bcol]
                model.fc1.weights[a, bcol] = orig + h
                up = _total_loss_for_model(model, cfg, x, t_a, t_c, t_off, eps_values)
                model.fc1.weights[a, bcol] = orig - h
                down = _total_loss_for_model(model, cfg, x, t_a, t_c, t_off, eps_values)
                model.fc1.weights[a, bcol] = orig
                fd = (up - down) / (2.0 * h)
                if max(abs(fd), abs(grad[a, bcol])) < 1e-9:
                    continue
                assert relative_error(grad[a, bcol], fd) <= 1e-3


class TestCriterion3KlVarianceBehavior:
    def test_quadratic_argmin_and_trained_sigma_ordering(self, bench_runs):
        with criterion(3, "KL variance behavior"):
            for d in (1.5, 2.0, 3.0):
                res = minimize_scalar(  # "paper" puts |d| > 1 on the quadratic branch
                    lambda s: kl_l1_loss(0.0, 2.0 * math.log(s), d, "paper")[0],
                    bounds=(0.05, 10.0),
                    method="bounded",
                )
                assert abs(res.x - d) / d <= 0.01, (d, res.x)

            d, sigma = bench_runs[("kl_l1", SEEDS[0])].offset_stats
            d_abs = np.abs(d).ravel()
            sigma = sigma.ravel()
            coverage = np.mean(d_abs <= sigma)  # a calibrated Gaussian's is 0.683
            print(f"  criterion3 kl_l1 seed {SEEDS[0]}: 1-sigma coverage {coverage:.3f}")
            assert 0.5 <= coverage <= 0.9, coverage
            large = d_abs > 1.0
            small = d_abs < 0.2
            assert large.sum() >= 5, f"only {large.sum()} positives with |d| > 1"
            assert small.sum() >= 100
            assert sigma[large].mean() > sigma[small].mean(), (
                sigma[large].mean(),
                sigma[small].mean(),
            )


class TestCriterion4ExpectedL1Monotonicity:
    def test_increasing_in_sigma_dominates_abs_d(self):
        with criterion(4, "expected-l1 monotonicity"):
            d_grid = (-3.0, -2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0, 3.0)
            s_grid = [0.05 * (i + 1) for i in range(60)]
            eps = np.finfo(float).eps
            for d in d_grid:
                prev, prev_s = -math.inf, None
                for s in s_grid:
                    value, _, d_sigma = expected_l1(d, s)
                    assert value >= abs(d)
                    resolvable = prev_s is not None and d_sigma * (s - prev_s) > 64 * eps * max(1.0, value)
                    if resolvable:
                        assert value > prev, (d, s)
                    else:
                        assert value >= prev
                    prev, prev_s = value, s
                assert 0.0 <= expected_l1(d, 1e-6)[0] - abs(d) <= 1e-5


class TestCriterion5SyntheticBenchmark:
    def test_all_modes_reach_085_and_uncertainty_not_inferior(self, bench_runs):
        with criterion(5, "synthetic benchmark mAP"):
            means, held_out_means = {}, {}
            for mode in EPOCHS:
                vals = [bench_runs[(mode, seed)].map_05 for seed in SEEDS]
                held_out = [bench_runs[(mode, seed)].held_out_map_05 for seed in SEEDS]
                for seed, run in ((s, bench_runs[(mode, s)]) for s in SEEDS):
                    assert run.train_seconds < 300.0, (mode, seed, run.train_seconds)
                means[mode] = float(np.mean(vals))
                held_out_means[mode] = float(np.mean(held_out))
                print(f"  criterion5 {mode}: per-seed {np.round(vals, 3).tolist()} mean {means[mode]:.3f}"
                      f" | held-out per-seed {np.round(held_out, 3).tolist()}"
                      f" mean {held_out_means[mode]:.3f}")
            for mode, mean in means.items():
                assert mean >= 0.85, (mode, mean)
            for mode in ("kl_l1", "sampled_l1", "expected_l1"):  # no held-out floor
                assert means[mode] >= means["l1"] - 0.02, means
                assert held_out_means[mode] >= held_out_means["l1"] - 0.02, held_out_means


class TestCriterion6EvaluatorCorrectness:
    def test_ap_nms_and_oracle_detector(self):
        with criterion(6, "evaluator correctness"):
            rng = Rng(60606)
            # AP vs brute-force enumeration, 50 instances of <= 10 detections
            for trial in range(50):
                r = rng.split("ap", trial)
                gts = []
                for g in range(1 + r.randint(5)):
                    s = r.uniform() * 40
                    gts.append(("v", s, s + 2.0 + r.uniform() * 15))
                dets = []
                for _ in range(1 + r.randint(10)):
                    s = r.uniform() * 50
                    dets.append(Detection("v", s, s + 1.0 + r.uniform() * 20, 0, r.uniform()))
                thr = 0.2 + 0.5 * r.uniform()
                assert average_precision(*ap_columns(dets, gts), (thr,))[0] == pytest.approx(
                    ap_enumeration_oracle(dets, gts, thr), abs=1e-10
                )
            # NMS vs greedy-by-definition oracle, 50 instances of <= 8 detections
            for trial in range(50):
                r = rng.split("nms", trial)
                dets = []
                for _ in range(1 + r.randint(8)):
                    s = r.uniform() * 50
                    dets.append(Detection("v", s, s + 1.0 + r.uniform() * 20, 0, r.uniform()))
                thr = 0.2 + 0.6 * r.uniform()
                assert nms(dets, thr) == greedy_nms_oracle(dets, thr)
            # perfect detector scores mAP 1.0 at all five thresholds
            dataset, (protos, dirs) = aligned_oracle_dataset()
            _, report = evaluate(OracleModel(protos, dirs, k=4), dataset, DetectConfig(), ProposalConfig())
            assert len(report.map_by_tiou) == 5
            for thr, value in report.map_by_tiou.items():
                assert value == pytest.approx(1.0, abs=1e-12), thr


class TestCriterion7MiningRatio:
    def test_quota_exact_over_100_batches(self):
        with criterion(7, "mining ratio"):
            rng = Rng(70707)
            lam = 1.0 / 3.0
            for trial in range(100):
                r = rng.split(trial)
                n = 8 + r.randint(150)
                labels = (r.uniforms(n) < 0.3).astype(int)
                scores = r.uniforms(n)
                result = select_hard_negatives(scores, labels, lam)
                n_pos = int(labels.sum())
                available = int((labels == 0).sum())
                assert result.negative_indices.size == min(3 * n_pos, available)


class TestCriterion8Determinism:
    def test_full_pipeline_twice_yields_identical_metrics_json(self, tmp_path):
        with criterion(8, "pipeline determinism"):
            cfg_text = (
                "data.num_videos = 16\n"
                "data.t_range = 48, 64\n"
                "data.num_classes = 3\n"
                "data.d_feat = 16\n"
                "data.instances_per_video = 1\n"
                "train.hidden = 64\n"
                "train.epochs = 3\n"
                "train.batch_size = 64\n"
                "proposals.scales = 8, 16, 32\n"
            )
            reports = []
            for run in ("one", "two"):
                root = tmp_path / run
                root.mkdir()
                cfg = root / "run.cfg"
                cfg.write_text(cfg_text)
                args = ["--config", str(cfg)]
                seed = ["--seed", "21"]
                assert main(["gen-data", *args, *seed, "--out", str(root / "data")]) == 0
                assert (
                    main(
                        [
                            "train", *args, *seed, "--loss", "kl_l1",
                            "--manifest", str(root / "data/manifest.json"),
                            "--out", str(root / "train"),
                        ]
                    )
                    == 0
                )
                assert (
                    main(
                        [
                            "eval", *args,
                            "--checkpoint", str(root / "train/checkpoint.utal"),
                            "--manifest", str(root / "data/manifest.json"),
                            "--out", str(root / "eval"),
                        ]
                    )
                    == 0
                )
                reports.append((root / "eval/report.json").read_bytes())
            assert reports[0] == reports[1]
            # manifests and checkpoints byte-match as well
            assert (tmp_path / "one/data/manifest.json").read_bytes() == (
                tmp_path / "two/data/manifest.json"
            ).read_bytes()
            assert (tmp_path / "one/train/checkpoint.utal").read_bytes() == (
                tmp_path / "two/train/checkpoint.utal"
            ).read_bytes()
            assert json.loads(reports[0])["map_by_tiou"]
