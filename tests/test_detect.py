"""Cascade refinement against its one-window oracle, NMS against its oracle,
AP against enumeration, mAP."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    OracleModel,
    aligned_oracle_dataset,
    ap_columns,
    ap_enumeration_oracle,
    average_precision_scalar_oracle,
    cascade_oracle,
    greedy_nms_oracle,
    tiou,
)
from utal.data import ProposalConfig, UnitFeatureSequence, sliding_windows
from utal.detect import (
    DetectConfig,
    _rank,
    Detection,
    apply_offsets,
    average_precision,
    evaluate,
    evaluate_detections,
    fuse_scores,
    ground_truths_by_class,
    nms,
    refine_cascade,
    video_detections,
)
from utal.model import LOSS_MODES, BatchForward, TrainConfig, init_model
from utal.numerics import Rng


def _offsets(starts, ends, y, t_max):
    """apply_offsets on windows [starts, ends] and their (start, end) offset pairs `y`."""
    s, e = apply_offsets(np.array(starts), np.array(ends), np.array(y), t_max)
    return s.tolist(), e.tolist()


class TestApplyOffsets:
    def test_zero_offsets_identity(self):
        assert _offsets([10.0, 0.5], [20.0, 3.0], [[0.0, 0.0], [0.0, 0.0]], 64.0) == (
            [10.0, 0.5],
            [20.0, 3.0],
        )

    def test_hand_arithmetic(self):
        assert _offsets([10.0, 0.0], [20.0, 8.0], [[0.2, 0.2], [0.5, -0.25]], 64.0) == (
            [12.0, 4.0],
            [22.0, 6.0],
        )

    def test_clamped_to_video(self):
        assert _offsets([0.0], [10.0], [[-0.5, 2.0]], 16.0) == ([0.0], [16.0])

    def test_crossed_boundaries_fall_back_to_unit_window(self):
        # midpoints 15, 0.2 and 63.9: centered, pushed right, pushed left
        pairs = [[1.5, -1.5], [0.1, -0.9], [2.0, -0.1]]
        s, e = _offsets([10.0, 0.0, 62.0], [20.0, 2.0, 64.0], pairs, 64.0)
        assert (s, e) == ([14.5, 0.0, 63.0], [15.5, 1.0, 64.0])


def _zero_model(d_feat=8, num_classes=3, k=2, mode="kl_l1"):
    model = init_model(TrainConfig(loss_mode=mode, hidden=16, k=k), d_feat, num_classes, 1)
    for layer in model.dense_layers:
        layer.weights[...] = 0.0
        layer.biases[...] = 0.0
    return model


class _RowByRow:
    """Forwards one row at a time, so that the size of a batch cannot change
    a bit of the outputs; optionally overwrites every start offset with
    0.5 - gap and every end offset with gap - 0.5, which moves a window's
    boundaries to within 2 * gap * length of each other (or across)."""

    def __init__(self, model, gap=None):
        self.model, self.gap = model, gap
        self.k, self.num_classes = model.k, model.num_classes

    def forward_batch(self, x):
        rows = [self.model.forward_batch(row[None, :]) for row in x]
        y_a, logits, mu = (
            np.concatenate([getattr(r, name) for r in rows]) for name in ("y_a", "logits", "mu")
        )
        if self.gap is not None:
            mu[:, :, 0] = 0.5 - self.gap
            mu[:, :, 1] = self.gap - 0.5
        return BatchForward(y_a, logits, mu, None, None)


def _video(t_units=32, d_feat=8, seed=4):
    feats = Rng(seed).uniforms(t_units * d_feat).reshape(t_units, d_feat)
    return UnitFeatureSequence("v", feats)


@st.composite
def _cascade_cases(draw):
    t_units = draw(st.integers(1, 40))
    d_feat = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    cfg = TrainConfig(loss_mode=draw(st.sampled_from(LOSS_MODES)), hidden=8, k=k)
    model = init_model(cfg, d_feat, draw(st.integers(2, 4)), seed)
    # a large head gain pushes offsets past the clamps and across each other
    gain = draw(st.sampled_from([0.0, 1.0, 30.0]))
    model.fc_head.weights *= gain
    model.fc_head.biases *= gain
    # gap 0 makes the boundaries meet (crossed, or an ulp apart); 1e-12 leaves
    # a refinement too short to keep
    gap = draw(st.sampled_from([None, None, 0.0, 1e-12]))
    coord = st.floats(0.0, float(t_units), allow_nan=False)
    pairs = draw(st.lists(st.tuples(coord, coord).filter(lambda p: p[0] != p[1]), min_size=1, max_size=8))
    windows = [tuple(sorted(p)) for p in pairs]
    video = _video(t_units, d_feat, seed)
    return _RowByRow(model, gap), video, windows, draw(st.integers(1, 4))


class TestRefineCascade:
    def test_zero_offset_model_is_fixed_point(self):
        model = _zero_model()
        for steps in (1, 2, 5):
            starts, ends, y_a, logits = refine_cascade(
                model, _video(), np.array([4.0, 0.0]), np.array([12.0, 32.0]), steps
            )
            assert starts.tolist() == [4.0, 0.0] and ends.tolist() == [12.0, 32.0]
            assert y_a.tolist() == [0.5, 0.5]
            np.testing.assert_array_equal(logits, np.zeros((2, 3)))

    def test_exact_offsets_reach_target_in_one_step(self):
        start, end = 8.0, 16.0
        target = (10.0, 18.0)

        class StubModel:
            k = 2
            num_classes = 2

            def forward_batch(self, x):
                batch = x.shape[0]
                mu = np.zeros((batch, 2, 2))
                mu[:, 0, 0] = (target[0] - start) / (end - start)
                mu[:, 0, 1] = (target[1] - end) / (end - start)
                logits = np.zeros((batch, 2))
                logits[:, 0] = 5.0
                return BatchForward(np.full(batch, 0.9), logits, mu, None, None)

        starts, ends, y_a, _ = refine_cascade(StubModel(), _video(), [start], [end], 1)
        assert starts[0] == pytest.approx(target[0], abs=1e-12)
        assert ends[0] == pytest.approx(target[1], abs=1e-12)
        assert y_a.tolist() == [0.9]

    def test_two_steps_equal_two_single_steps(self):
        model = init_model(TrainConfig(loss_mode="kl_l1", hidden=16, k=2), 8, 3, seed=8)
        video = _video()
        starts, ends = np.array([6.0, 0.0, 20.0]), np.array([18.0, 8.0, 32.0])
        once = refine_cascade(model, video, starts, ends, 1)
        chained = refine_cascade(model, video, once[0], once[1], 1)
        twice = refine_cascade(model, video, starts, ends, 2)
        for a, b in zip(twice, chained):
            np.testing.assert_array_equal(a, b)

    def test_refinement_exactly_1e_9_long_is_degenerate(self):
        class HalveEnd:  # moves each end halfway to its start
            k, num_classes = 2, 2

            def forward_batch(self, x):
                mu = np.zeros((x.shape[0], 2, 2))
                mu[:, :, 1] = -0.5
                return BatchForward(np.full(x.shape[0], 0.5), np.zeros((x.shape[0], 2)), mu,
                                    None, None)

        # [0, 2e-9] refines to [0, 1e-9] exactly and keeps its last state;
        # [0, 4e-9] refines to [0, 2e-9] and moves
        _, ends, _, _ = refine_cascade(HalveEnd(), _video(), [0.0, 0.0], [2e-9, 4e-9], 1)
        assert ends.tolist() == [2e-9, 2e-9]

    def test_degenerate_refinement_keeps_last_window(self):
        model = _RowByRow(_zero_model(), gap=1e-12)
        starts, ends, y_a, _ = refine_cascade(model, _video(), [4.0], [12.0], 3)
        assert (starts.tolist(), ends.tolist(), y_a.tolist()) == ([4.0], [12.0], [0.5])

    @given(_cascade_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_one_window_oracle(self, case):
        model, video, windows, steps = case
        starts, ends, y_a, logits = refine_cascade(
            model, video, [w[0] for w in windows], [w[1] for w in windows], steps
        )
        expected = cascade_oracle(model, video, windows, steps)
        assert starts.tolist() == [r[0] for r in expected]
        assert ends.tolist() == [r[1] for r in expected]
        assert y_a.tolist() == [r[2] for r in expected]
        np.testing.assert_array_equal(logits, np.stack([r[3] for r in expected]))


class TestFuseScores:
    def test_zero_actioness_zeroes_everything(self):
        fused = fuse_scores(np.zeros(2), np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 4.0]]))
        np.testing.assert_array_equal(fused, np.zeros((2, 3)))

    def test_uniform_logits(self):
        np.testing.assert_allclose(fuse_scores(np.ones(3), np.zeros((3, 5))), np.full((3, 5), 0.2), atol=1e-12)

    def test_sums_to_actioness(self):
        rng = Rng(6)
        y_a = rng.uniforms(20)
        logits = (rng.uniforms(20 * 4) * 6 - 3).reshape(20, 4)
        np.testing.assert_allclose(fuse_scores(y_a, logits).sum(axis=1), y_a, atol=1e-9)


def _rand_dets(rng, n, video="v", class_id=0):
    dets = []
    for _ in range(n):
        start = rng.uniform() * 50
        length = 1.0 + rng.uniform() * 20
        dets.append(Detection(video, start, start + length, class_id, rng.uniform()))
    return dets


@st.composite
def _nms_cases(draw):
    """Detections on a coarse grid, so intervals repeat and scores tie; some
    have zero length and some end before they start."""
    grid = st.integers(0, 40).map(lambda i: i / 2.0)
    dets = []
    for _ in range(draw(st.integers(0, 25))):
        start = draw(grid)
        end = start + draw(st.integers(-6, 24).map(lambda i: i / 2.0))
        score = draw(st.sampled_from([0.1, 0.5, 0.9]) | st.floats(0.0, 1.0))
        dets.append(Detection("v", start, end, 0, score))
    if dets and draw(st.booleans()):
        dets += dets[: draw(st.integers(1, len(dets)))]  # the same objects twice
    thr = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return dets, thr


_NAN = float("nan")


@st.composite
def _rank_cases(draw):
    """Scores with ties, NaN, infinities and both zeros, and one to three
    tie-breaking keys drawn from a small grid, so the keys tie too."""
    n = draw(st.integers(0, 12))
    special = st.sampled_from([0.0, -0.0, 0.5, -0.5, _NAN, float("inf"), -float("inf")])
    score = draw(st.lists(special | st.floats(allow_nan=True), min_size=n, max_size=n))
    key = st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, _NAN]), min_size=n, max_size=n)
    keys = draw(st.lists(key, min_size=1, max_size=3))
    return np.array(score), [np.array(k) for k in keys]


class TestRank:
    """`_rank` is the permutation of the stable lexsort on (-score, *keys)."""

    @given(_rank_cases())
    @settings(max_examples=500, deadline=None)
    def test_equals_lexsort(self, case):
        score, keys = case
        assert _rank(score, *keys).tolist() == np.lexsort((*keys[::-1], -score)).tolist()

    @pytest.mark.parametrize(
        "score, key, expected",
        [
            ([], [], []),
            ([0.3], [1.0], [0]),
            ([0.2, 0.9, 0.5], [0.0, 0.0, 0.0], [1, 2, 0]),  # distinct: the score alone
            ([0.5, 0.5, 0.9], [2.0, 1.0, 3.0], [2, 1, 0]),  # tie: by the key
            ([0.0, -0.0], [1.0, 0.0], [1, 0]),  # +0.0 and -0.0 tie
            ([_NAN, 0.5, _NAN], [1.0, 2.0, 0.0], [1, 2, 0]),  # NaN last, NaNs by the key
        ],
        ids=["empty", "one-row", "distinct", "tied", "signed-zeros", "nan"],
    )
    def test_hand_cases(self, score, key, expected):
        score, key = np.array(score, float), np.array(key, float)
        assert _rank(score, key).tolist() == expected
        assert np.lexsort((key, -score)).tolist() == expected


class TestNms:
    @given(_nms_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_objects_as_greedy_oracle(self, case):
        dets, thr = case
        kept = nms(dets, thr)
        assert [id(d) for d in kept] == [id(d) for d in greedy_nms_oracle(dets, thr)]

    def test_sliding_window_groups_match_greedy_oracle(self):
        """Groups of several hundred windows of one long video, as inference
        makes them, with the degenerate intervals and ties of _nms_cases."""
        base_s, base_e = sliding_windows(768, (8, 16, 32, 64), 0.75)
        rng = Rng(77)
        for trial in range(3):
            r = rng.split(trial)
            dets = []
            for s, e in zip(base_s.tolist(), base_e.tolist()):
                if r.uniform() < 0.3:
                    continue
                s, e = s + (r.randint(9) - 4) / 4.0, e + (r.randint(9) - 4) / 4.0
                kind = r.randint(20)
                if kind == 0:
                    e = s  # zero length
                elif kind == 1:
                    s, e = e, s  # ends before it starts
                score = [0.25, 0.5, 0.75][r.randint(3)] if kind < 10 else r.uniform()
                dets.append(Detection("v", s, e, 0, score))
            dets += [dets[r.randint(len(dets))] for _ in range(20)]  # the same objects twice
            assert len(dets) > 400
            for thr in (0.0, 0.3, 0.5, 0.7, 1.0, r.uniform()):
                kept = nms(dets, thr)
                assert [id(d) for d in kept] == [id(d) for d in greedy_nms_oracle(dets, thr)]

    def test_tiou_exactly_at_threshold_suppresses(self):
        """With the threshold set to a pair's own computed tIoU the lower
        scored one goes, however the bound on the later start rounds: random
        non-dyadic intervals at several magnitudes, either one scored higher,
        half of them sharing their end (where tIoU = inter / len_a and the
        bound is tight)."""
        rng = Rng(78)
        for trial in range(400):
            r = rng.split(trial)
            scale = (1.0, 1e3, 1e6)[trial % 3]
            s_a = scale * r.uniform()
            e_a = s_a + scale * (0.01 + r.uniform())
            s_b = s_a + (e_a - s_a) * r.uniform()
            e_b = e_a if trial % 4 < 2 else s_b + scale * (0.01 + r.uniform())
            a, b = Detection("v", s_a, e_a, 0, 0.9), Detection("v", s_b, e_b, 0, 0.8)
            if trial % 2:
                a.score, b.score = b.score, a.score
            thr = tiou((s_a, e_a), (s_b, e_b))
            assert thr > 0.0
            filler = _rand_dets(r, 6)  # other windows around the pair
            for t in (thr, np.nextafter(thr, 1.0)):
                dets = [a, b] + filler
                kept = nms(dets, t)
                assert [id(d) for d in kept] == [id(d) for d in greedy_nms_oracle(dets, t)]
            assert len(nms([a, b], thr)) == 1

    def test_reversed_and_zero_length_windows(self):
        """Degenerate intervals never suppress or get suppressed, whatever
        they straddle; thresholds at the exact tIoU of the ordinary pairs."""
        ordinary = [
            Detection("v", 0.1, 0.7, 0, 0.5),
            Detection("v", 0.4, 0.7, 0, 0.45),  # tIoU 0.3/0.6 with the first
            Detection("v", 0.3, 1.1, 0, 0.2),
        ]
        degenerate = [
            Detection("v", 0.7, 0.1, 0, 0.9),  # the first, reversed
            Detection("v", 0.4, 0.4, 0, 0.8),  # zero length inside the others
            Detection("v", 1.1, 0.3, 0, 0.6),
            Detection("v", 0.1, 0.1, 0, 0.1),
        ]
        dets = degenerate + ordinary
        thresholds = [tiou((a.start, a.end), (b.start, b.end)) for a in ordinary for b in ordinary]
        for thr in sorted(set(thresholds)) + [0.25, 0.5]:
            kept = nms(dets, thr)
            assert [id(d) for d in kept] == [id(d) for d in greedy_nms_oracle(dets, thr)]
            assert all(any(k is d for k in kept) for d in degenerate)

    def test_empty_list(self):
        assert nms([], 0.5) == []

    def test_overlapping_pair(self):
        a = Detection("v", 0.0, 10.0, 0, 0.9)
        b = Detection("v", 2.0, 12.0, 0, 0.8)  # tIoU = 8/14 ~ 0.57
        kept = nms([a, b], 0.5)
        assert kept == [a]

    def test_disjoint_all_kept(self):
        dets = [
            Detection("v", 0.0, 5.0, 0, 0.5),
            Detection("v", 10.0, 15.0, 0, 0.9),
            Detection("v", 20.0, 25.0, 0, 0.7),
        ]
        kept = nms(dets, 0.5)
        assert len(kept) == 3
        assert [d.score for d in kept] == sorted((d.score for d in dets), reverse=True)

    def test_matches_greedy_oracle_on_random_instances(self):
        rng = Rng(1234)
        for trial in range(60):
            r = rng.split(trial)
            dets = _rand_dets(r, 1 + r.randint(8))
            thr = 0.2 + 0.6 * r.uniform()
            assert nms(dets, thr) == greedy_nms_oracle(dets, thr)

    def test_output_is_subset_with_low_pairwise_overlap(self):
        rng = Rng(99)
        dets = _rand_dets(rng, 30)
        kept = nms(dets, 0.4)
        assert all(k in dets for k in kept)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert tiou((a.start, a.end), (b.start, b.end)) < 0.4


@st.composite
def _ap_cases(draw):
    """Detections and ground truths on a coarse grid over three videos, so
    tIoUs and scores tie, and videos with detections but no ground truth."""
    grid = st.integers(0, 40).map(lambda i: i / 2.0)
    video = st.sampled_from(["a", "b", "c"])

    def interval():
        start = draw(grid)
        return start, start + draw(st.integers(0, 16).map(lambda i: i / 2.0))

    gts = [(draw(video), *interval()) for _ in range(draw(st.integers(0, 8)))]
    score = st.sampled_from([0.2, 0.7]) | st.floats(0.0, 1.0)
    dets = [
        Detection(draw(video), *interval(), 0, draw(score)) for _ in range(draw(st.integers(0, 20)))
    ]
    thr = st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0)
    return dets, gts, tuple(draw(st.lists(thr, min_size=1, max_size=5)))


class TestAveragePrecision:
    @given(_ap_cases())
    @example(  # nothing overlaps: other video, disjoint, touching
        (
            [Detection("a", 0.0, 5.0, 0, 0.5), Detection("b", 6.0, 9.0, 0, 0.5)],
            [("a", 5.0, 9.0), ("c", 6.0, 9.0)],
            (0.3, 0.5),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_tiou_loop_exactly(self, case):
        dets, gts, thresholds = case
        expected = average_precision_scalar_oracle(dets, gts, thresholds)
        assert average_precision(*ap_columns(dets, gts), thresholds) == expected
        assert average_precision(*ap_columns(dets, gts), (thresholds[0],))[0] == expected[0]

    @pytest.mark.parametrize("first", [(10.0, 20.0), (0.0, 10.0)])
    def test_equal_tious_go_to_the_first_ground_truth(self, first):
        """(5, 15) has tIoU 1/3 with both ground truths and takes the first in
        list order; the second detection, equal to the first ground truth,
        then finds it taken only if the tie went the wrong way."""
        second = (0.0, 10.0) if first == (10.0, 20.0) else (10.0, 20.0)
        gts = [("v", *first), ("w", 0.0, 10.0), ("v", *second)]
        dets = [Detection("v", 5.0, 15.0, 0, 0.9), Detection("v", *second, 0, 0.8)]
        assert average_precision_scalar_oracle(dets, gts, 0.3) == pytest.approx(2.0 / 3.0)
        assert average_precision(*ap_columns(dets, gts), (0.3,))[0] == pytest.approx(2.0 / 3.0)

    def test_single_perfect_detection(self):
        dets = [Detection("v", 0.0, 10.0, 0, 0.9)]
        gts = [("v", 0.0, 10.0)]
        assert average_precision(*ap_columns(dets, gts), (0.5,))[0] == 1.0

    def test_no_matches(self):
        dets = [Detection("v", 30.0, 40.0, 0, 0.9)]
        gts = [("v", 0.0, 10.0)]
        assert average_precision(*ap_columns(dets, gts), (0.5,))[0] == 0.0

    def test_no_ground_truth_returns_none(self):
        assert average_precision(*ap_columns([], []), (0.5,))[0] is None

    def test_fp_tp_tp_hand_value(self):
        gts = [("v", 0.0, 10.0), ("v", 20.0, 30.0)]
        dets = [
            Detection("v", 50.0, 60.0, 0, 0.9),  # FP
            Detection("v", 0.0, 10.0, 0, 0.8),  # TP
            Detection("v", 20.0, 30.0, 0, 0.7),  # TP
        ]
        ap = average_precision(*ap_columns(dets, gts), (0.5,))[0]
        assert ap == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert ap == pytest.approx(ap_enumeration_oracle(dets, gts, 0.5), abs=1e-12)

    def test_matches_enumeration_oracle_on_random_instances(self):
        rng = Rng(4321)
        for trial in range(60):
            r = rng.split(trial)
            n_gt = 1 + r.randint(5)
            gts = []
            for g in range(n_gt):
                s = r.uniform() * 40
                gts.append(("v", s, s + 2.0 + r.uniform() * 15))
            dets = _rand_dets(r, 1 + r.randint(10))
            thr = 0.2 + 0.5 * r.uniform()
            ours = average_precision(*ap_columns(dets, gts), (thr,))[0]
            oracle = ap_enumeration_oracle(dets, gts, thr)
            assert ours == pytest.approx(oracle, abs=1e-10)

    def test_invariant_under_monotone_score_transform(self):
        rng = Rng(777)
        gts = [("v", 5.0, 15.0), ("v", 30.0, 42.0)]
        dets = _rand_dets(rng, 9)
        base = average_precision(*ap_columns(dets, gts), (0.4,))[0]
        squashed = [
            Detection(d.video_id, d.start, d.end, d.class_id, 0.1 + 0.5 * d.score**3)
            for d in dets
        ]
        squashed_ap = average_precision(*ap_columns(squashed, gts), (0.4,))[0]
        assert squashed_ap == pytest.approx(base, abs=1e-12)

    def test_raising_threshold_never_raises_ap(self):
        rng = Rng(888)
        for trial in range(20):
            r = rng.split(trial)
            gts = [("v", 10.0 * g, 10.0 * g + 8.0) for g in range(3)]
            dets = _rand_dets(r, 8)
            cols = ap_columns(dets, gts)
            aps = [average_precision(*cols, (thr,))[0] for thr in (0.3, 0.4, 0.5, 0.6, 0.7)]
            assert all(b <= a + 1e-12 for a, b in zip(aps, aps[1:]))


# string order v10 < v2 < v9 differs from numeric order and from first-seen order
_TIE_VIDEOS = ["v9", "v2", "v10"]


@st.composite
def _eval_cases(draw):
    """Two or three classes with ground truth, the last of which never gets a
    detection, sometimes one more class with an empty ground-truth list, and
    detections of a class without ground truth; videos, intervals and scores
    on small grids so that ranks tie across videos."""
    grid = st.integers(0, 40).map(lambda i: i / 2.0)
    video = st.sampled_from(_TIE_VIDEOS)

    def interval():
        start = draw(grid)
        return start, start + draw(st.integers(0, 16).map(lambda i: i / 2.0))

    n_classes = draw(st.integers(2, 3))
    gts_by_class = {
        c: [(draw(video), *interval()) for _ in range(draw(st.integers(1, 6)))]
        for c in range(n_classes)
    }
    if draw(st.booleans()):
        gts_by_class[n_classes] = []
    det_class = st.sampled_from([*range(n_classes - 1), n_classes + 1])
    score = st.sampled_from([0.2, 0.7]) | st.floats(0.0, 1.0)
    dets = [
        Detection(draw(video), *interval(), draw(det_class), draw(score))
        for _ in range(draw(st.integers(0, 30)))
    ]
    thr = st.sampled_from([0.1, 0.3, 0.5, 0.7])
    thresholds = tuple(draw(st.lists(thr, min_size=1, max_size=3, unique=True)))
    return dets, gts_by_class, thresholds


def _tied_across_videos():
    """Tied scores over v9 (false positive), v2 and v10 (true positives): the
    AP is 1 when v10 ranks first, 5/6 in numeric and 2/3 in first-seen order."""
    gts = [("v2", 0.0, 10.0), ("v10", 0.0, 10.0)]
    dets = [Detection(v, 0.0, 10.0, 0, 0.5) for v in _TIE_VIDEOS]
    return dets, gts


class TestEvaluateDetections:
    @given(_eval_cases())
    @example(([], {0: [("v2", 0.0, 4.0)], 1: [("v9", 1.0, 2.0)]}, (0.5,)))
    @settings(max_examples=200, deadline=None)
    def test_each_class_equals_scalar_oracle_exactly(self, case):
        dets, gts_by_class, thresholds = case
        report = evaluate_detections(dets, gts_by_class, thresholds)
        assert sorted(report.per_class_ap) == sorted(thresholds)
        for c, gts in gts_by_class.items():
            expected = average_precision_scalar_oracle(
                [d for d in dets if d.class_id == c], gts, thresholds
            )
            assert [report.per_class_ap[thr][c] for thr in thresholds] == expected
        for thr in thresholds:
            valid = [ap for ap in report.per_class_ap[thr].values() if ap is not None]
            assert report.map_by_tiou[thr] == float(np.mean(valid))
        assert report.num_detections == len(dets)
        assert report.num_ground_truths == sum(map(len, gts_by_class.values()))
        assert report.to_dict()["no_detections"] == (not dets)

    @given(_eval_cases(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_input_order_does_not_change_the_report(self, case, random):
        dets, gts_by_class, thresholds = case
        shuffled = random.sample(dets, len(dets))
        expected = evaluate_detections(dets, gts_by_class, thresholds).to_dict()
        assert evaluate_detections(shuffled, gts_by_class, thresholds).to_dict() == expected

    def test_ties_across_videos_rank_in_string_order(self):
        dets, gts = _tied_across_videos()
        assert average_precision_scalar_oracle(dets, gts, 0.5) == 1.0
        assert average_precision(*ap_columns(dets, gts), (0.5,))[0] == 1.0
        for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
            report = evaluate_detections([dets[i] for i in order], {0: gts}, (0.5,))
            assert report.per_class_ap[0.5] == {0: 1.0}


class TestGroundTruthsByClass:
    def test_keys_are_python_ints(self, small_dataset):
        """Class ids come from float64 annotation rows; report.json names each
        class by its key, so the key must print as "0", not "0.0"."""
        dataset, _ = small_dataset
        gts = ground_truths_by_class(dataset)
        assert sorted(gts) == list(range(dataset.num_classes))
        assert all(type(c) is int for c in gts)
        assert sum(map(len, gts.values())) == sum(len(v.annotations) for v in dataset.videos)


class TestVideoDetections:
    def test_score_floor_keeps_a_score_equal_to_it(self):
        """The floor is inclusive: set to a class's top fused score, exactly, it keeps
        that class's top detection and drops every lower one."""
        model = init_model(TrainConfig(hidden=16, k=2), 8, 3, seed=2)
        video, prop_cfg, det_cfg = _video(), ProposalConfig(scales=(8, 16)), DetectConfig()
        starts, ends = sliding_windows(video.num_units, prop_cfg.scales, prop_cfg.overlap)
        _, _, y_a, logits = refine_cascade(model, video, starts, ends, det_cfg.cascade_steps)
        fused = fuse_scores(y_a, logits)
        c = int(fused.max(axis=0).argmax())  # the class holding the top score of all
        det_cfg.score_floor = float(fused[:, c].max())
        dets = video_detections(model, video, det_cfg, prop_cfg)
        assert [(d.class_id, d.score) for d in dets] == [(c, det_cfg.score_floor)]


class TestEvaluate:
    def test_oracle_detector_achieves_perfect_map(self):
        dataset, (protos, dirs) = aligned_oracle_dataset()
        model = OracleModel(protos, dirs, k=4)
        report = evaluate(model, dataset, DetectConfig(), ProposalConfig())
        assert len(report.map_by_tiou) == 5
        for thr, value in report.map_by_tiou.items():
            assert value == pytest.approx(1.0, abs=1e-12), f"mAP@{thr}"
        assert not report.to_dict()["no_detections"]
        assert report.num_ground_truths == len(dataset.videos)

    def test_zero_weight_model_scores_near_zero(self, default_dataset):
        dataset, _ = default_dataset
        model = _zero_model(d_feat=dataset.d_feat, num_classes=dataset.num_classes, k=4)
        report = evaluate(model, dataset, DetectConfig(tiou_thresholds=(0.5,)), ProposalConfig())
        assert report.map_by_tiou[0.5] < 0.2

    def test_report_shape_and_flags(self):
        dataset, (protos, dirs) = aligned_oracle_dataset(num_videos=3)
        model = OracleModel(protos, dirs, k=4)
        cfg = DetectConfig(tiou_thresholds=(0.3, 0.4, 0.5, 0.6, 0.7), score_floor=2.0)
        report = evaluate(model, dataset, cfg, ProposalConfig())
        assert report.to_dict()["no_detections"]
        assert report.num_detections == 0
        assert all(v == 0.0 for v in report.map_by_tiou.values())
        assert len(report.map_by_tiou) == 5

    def test_evaluate_deterministic(self):
        dataset, (protos, dirs) = aligned_oracle_dataset(num_videos=4)
        model = OracleModel(protos, dirs, k=4)
        a = evaluate(model, dataset, DetectConfig(), ProposalConfig())
        b = evaluate(model, dataset, DetectConfig(), ProposalConfig())
        assert a.map_by_tiou == b.map_by_tiou
        assert a.per_class_ap == b.per_class_ap
