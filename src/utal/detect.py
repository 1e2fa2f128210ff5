"""Inference: cascaded boundary refinement, score fusion, NMS, mAP@tIoU.

The cascade re-feeds each refined window through the same network (shared
parameters); predicted variances are ignored at test time.  Detections are
scored as actioness times the class posterior, suppressed per video and
class with greedy NMS, and evaluated with all-point interpolated average
precision at several tIoU thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from utal.data import (
    Dataset,
    ProposalConfig,
    UnitFeatureSequence,
    pairwise_tiou,
    pool_k_parts,
    sliding_windows,
)
from utal.errors import ConfigError
from utal.model import Model
from utal.net import softmax

_MIN_LENGTH = 1.0  # fallback span, in units, for degenerate refinements


@dataclass
class DetectConfig:
    cascade_steps: int = 2
    nms_thr: float = 0.5
    tiou_thresholds: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7)
    score_floor: float = 0.01

    def validate(self) -> None:
        if self.cascade_steps < 1:
            raise ConfigError("cascade_steps must be at least 1")
        if not 0.0 <= self.nms_thr <= 1.0:
            raise ConfigError("nms_thr must lie in [0, 1]")
        if not self.tiou_thresholds or not all(0.0 <= t <= 1.0 for t in self.tiou_thresholds):
            raise ConfigError("tiou_thresholds must be one or more values in [0, 1]")
        if not self.score_floor >= 0:
            raise ConfigError("score_floor must be nonnegative")


@dataclass(slots=True)
class Detection:
    video_id: str
    start: float
    end: float
    class_id: int
    score: float


@dataclass
class EvalReport:
    """mAP per tIoU threshold plus the per-class AP matrix behind it."""

    map_by_tiou: dict[float, float]
    per_class_ap: dict[float, dict[int, float | None]]
    num_detections: int
    num_ground_truths: int

    def to_dict(self) -> dict:
        return {
            "map_by_tiou": {repr(t): self.map_by_tiou[t] for t in sorted(self.map_by_tiou)},
            "per_class_ap": {
                repr(t): {str(c): ap for c, ap in sorted(self.per_class_ap[t].items())}
                for t in sorted(self.per_class_ap)
            },
            "num_detections": self.num_detections,
            "num_ground_truths": self.num_ground_truths,
            "no_detections": self.num_detections == 0,
        }


def apply_offsets(
    starts: np.ndarray, ends: np.ndarray, y: np.ndarray, t_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of offset computation: shift boundaries by offset * length.

    Elementwise over windows [starts, ends] and their [N x 2] offsets.  Each
    result is clamped to [0, t_max]; where the boundaries cross, a window of
    minimum length centered at their midpoint (pushed back inside [0, t_max]) is used.
    """
    length = ends - starts
    s = np.minimum(np.maximum(starts + y[:, 0] * length, 0.0), t_max)
    e = np.minimum(np.maximum(ends + y[:, 1] * length, 0.0), t_max)
    span = min(_MIN_LENGTH, t_max)
    mid = 0.5 * (s + e)
    lo, hi = mid - 0.5 * span, mid + 0.5 * span
    under = lo < 0.0
    over = ~under & (hi > t_max)
    crossed = s >= e
    s = np.where(crossed, np.where(under, 0.0, np.where(over, t_max - span, lo)), s)
    e = np.where(crossed, np.where(under, span, np.where(over, t_max, hi)), e)
    return s, e


def refine_cascade(
    model: Model,
    video: UnitFeatureSequence,
    starts: np.ndarray,
    ends: np.ndarray,
    steps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the shared-parameter cascade on windows [starts, ends].

    Each step pools, forwards, and moves every live window by its argmax
    class offsets; a window whose refinement degenerates stops refining and
    keeps its last state.  Returns the final (starts, ends) and the
    actioness scores [N] and class logits [N x C] of each window's last
    forward pass.
    """
    t_max = float(video.num_units)
    starts = np.array(starts, dtype=np.float64)
    ends = np.array(ends, dtype=np.float64)
    y_a = np.zeros(starts.shape[0])
    logits = np.zeros((starts.shape[0], model.num_classes))
    live = np.arange(starts.shape[0])
    for _ in range(steps):
        if live.size == 0:
            break
        fwd = model.forward_batch(pool_k_parts(video, starts[live], ends[live], model.k))
        y_a[live] = fwd.y_a
        logits[live] = fwd.logits
        best = fwd.logits.argmax(axis=1)
        s, e = apply_offsets(starts[live], ends[live], fwd.mu[np.arange(live.size), best], t_max)
        moved = e - s > 1e-9
        live = live[moved]
        starts[live] = s[moved]
        ends[live] = e[moved]
    return starts, ends, y_a, logits


def fuse_scores(y_a: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Per-class detection scores [N x C]: actioness times the class posterior."""
    return y_a[:, None] * softmax(logits)


def _columns(dets: list[Detection], *fields: str) -> list[np.ndarray]:
    """One float64 column per named field, each read once over `dets`."""
    return [np.fromiter(map(attrgetter(f), dets), float, len(dets)) for f in fields]


def _rank(score: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Stable rank order: score descending, ties by each key ascending in turn."""
    order = np.argsort(-score, kind="stable")
    if np.all(score[order[:-1]] > score[order[1:]]):  # no tie, NaN or -0.0/+0.0 pair
        return order
    return np.lexsort((*keys[::-1], -score))


def nms(dets: list[Detection], tiou_thr: float) -> list[Detection]:
    """Greedy NMS over detections of one video and class.

    Ranked by score (ties by start, then end); a detection is kept iff its
    tIoU with every kept detection is below the threshold.  Only overlapping
    intervals have a positive tIoU, so it is computed only for the pairs of
    each window with the windows that start at or after its start, before
    its end and early enough to reach the threshold; walking the ranks, each
    kept detection marks its pairs dead.
    """
    starts, ends, scores = _columns(dets, "start", "end", "score")
    ranked = _rank(scores, starts, ends)
    if tiou_thr <= 0.0:  # every tIoU, 0 included, reaches the threshold
        return [dets[i] for i in ranked[:1]]
    starts, ends = starts[ranked], ends[ranked]
    by_start = np.argsort(starts, kind="stable")
    s, e = starts[by_start], ends[by_start]
    nxt = np.arange(1, len(dets) + 1)  # start-order position after each window
    # a hit has inter <= e - s_later and union >= e - s, so the later window
    # starts at or before e - thr*(e - s) (up to rounding, hence the slack)
    reach = e - tiou_thr * (e - s) + 1e-9 * (np.abs(e) + np.abs(s))
    last = np.minimum(np.searchsorted(s, reach, side="right"), np.searchsorted(s, e))
    count = np.maximum(last - nxt, 0)
    a = np.repeat(by_start, count)
    b = by_start[np.arange(count.sum()) + np.repeat(nxt - np.cumsum(count) + count, count)]
    hit = pairwise_tiou(starts[a], ends[a], starts[b], ends[b]) >= tiou_thr
    a, b = a[hit], b[hit]  # by earlier rank; a kept one kills its later ones in any order
    first, later = np.divmod(np.sort(np.minimum(a, b) * len(dets) + np.maximum(a, b)), len(dets))
    dead = bytearray(len(dets))
    for rank, other in zip(first.tolist(), later.tolist()):
        if not dead[rank]:
            dead[other] = 1
    return [dets[i] for i, gone in zip(ranked.tolist(), dead) if not gone]


def average_precision(
    dets: tuple[np.ndarray, ...],
    gts: tuple[np.ndarray, ...],
    thresholds: tuple[float, ...],
) -> list[float | None]:
    """All-point interpolated AP for one class, one per tIoU threshold.

    `dets` are the columns (video, start, end, score) of the class's
    detections, `gts` the columns (video, start, end) of its ground truths,
    with videos as integer codes in the order of their ids.  Detections are
    matched in rank order (score descending, then video, start, end) to the
    highest-tIoU unmatched ground truth of the same video at or above the
    threshold, the first in ground-truth order on a tie.  An AP is None when
    the class has no ground truths (excluded from mAP).  All thresholds share
    one ranking and one tIoU per same-video pair.
    """
    (video, start, end, score), (gt_video, gt_start, gt_end) = dets, gts
    n, n_gt = len(score), len(gt_video)
    aps: list[float | None] = [0.0 if n_gt else None] * len(thresholds)
    if n_gt and n:
        ranked = _rank(score, video, start, end)
        video, start, end = video[ranked], start[ranked], end[ranked]
        # each detection, by rank, with the ground truths of its video in order
        by_video = np.argsort(gt_video, kind="stable")
        bounds = np.searchsorted(gt_video[by_video], np.arange(video.max() + 2))
        lo, count = bounds[video], bounds[video + 1] - bounds[video]
        d = np.repeat(np.arange(n), count)
        g = by_video[np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)]
        t = pairwise_tiou(start[d], end[d], gt_start[g], gt_end[g])
        d, g, t = d[t > 0.0], g[t > 0.0], t[t > 0.0]  # no other pair can match
        for i, thr in enumerate(thresholds):
            rank, gi, ti = d[t >= thr], g[t >= thr], t[t >= thr]
            closes = np.append(rank[1:] != rank[:-1], True)  # a detection's last pair
            matched, tp = bytearray(n_gt), np.zeros(n)
            best_t, best_gi = 0.0, -1
            for r, gj, tj, last in zip(rank.tolist(), gi.tolist(), ti.tolist(), closes.tolist()):
                if tj > best_t and not matched[gj]:
                    best_t, best_gi = tj, gj
                if last:
                    if best_gi >= 0:
                        matched[best_gi], tp[r] = 1, 1.0
                    best_t, best_gi = 0.0, -1
            tp_cum = np.cumsum(tp)
            recall = tp_cum / n_gt
            precision = tp_cum / np.arange(1, n + 1)
            # precision envelope over recall, all-point interpolation
            mrec = np.concatenate([[0.0], recall, [recall[-1]]])
            mpre = np.maximum.accumulate(np.concatenate([[1.0], precision, [0.0]])[::-1])[::-1]
            aps[i] = float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))
    return aps


def video_detections(
    model: Model,
    video: UnitFeatureSequence,
    det_cfg: DetectConfig,
    prop_cfg: ProposalConfig,
) -> list[Detection]:
    """Full single-video inference: windows -> cascade -> fusion -> NMS."""
    starts, ends = sliding_windows(video.num_units, prop_cfg.scales, prop_cfg.overlap)
    starts, ends, y_a, logits = refine_cascade(model, video, starts, ends, det_cfg.cascade_steps)
    fused = fuse_scores(y_a, logits)
    out: list[Detection] = []
    for c in range(fused.shape[1]):
        rows = np.flatnonzero(fused[:, c] >= det_cfg.score_floor)
        if rows.size:
            columns = zip(starts[rows].tolist(), ends[rows].tolist(), fused[rows, c].tolist())
            dets = [Detection(video.video_id, s, e, c, score) for s, e, score in columns]
            out.extend(nms(dets, det_cfg.nms_thr))
    return out


def collect_detections(
    model: Model,
    dataset: Dataset,
    det_cfg: DetectConfig,
    prop_cfg: ProposalConfig,
) -> list[Detection]:
    """Inference over every video, in fixed video order."""
    out: list[Detection] = []
    for item in sorted(dataset.videos, key=lambda v: v.sequence.video_id):
        out.extend(video_detections(model, item.sequence, det_cfg, prop_cfg))
    return out


def ground_truths_by_class(dataset: Dataset) -> dict[int, list[tuple[str, float, float]]]:
    gts: dict[int, list[tuple[str, float, float]]] = {}
    for item in sorted(dataset.videos, key=lambda v: v.sequence.video_id):
        for class_id, start, end in item.annotations.tolist():
            gts.setdefault(int(class_id), []).append((item.sequence.video_id, start, end))
    return gts


def evaluate_detections(
    all_dets: list[Detection],
    gts_by_class: dict[int, list[tuple[str, float, float]]],
    tiou_thresholds: tuple[float, ...],
) -> EvalReport:
    """AP per class per threshold, mAP over classes with ground truth.

    Video ids become integer codes in the ids' order; one stable sort by
    class hands each class with ground truth the rows of its detections.
    """
    classes = sorted(gts_by_class)
    num_gt = sum(len(v) for v in gts_by_class.values())
    vids = list(map(attrgetter("video_id"), all_dets))
    ids = set(vids).union(v for gts in gts_by_class.values() for v, _, _ in gts)
    code = {v: i for i, v in enumerate(sorted(ids))}
    video = np.fromiter(map(code.__getitem__, vids), np.intp, len(vids))
    start, end, score, class_id = _columns(all_dets, "start", "end", "score", "class_id")
    by_class = np.argsort(class_id, kind="stable")
    lo, hi = (np.searchsorted(class_id[by_class], classes, side=s) for s in ("left", "right"))
    aps_by_class = {}
    for c, a, b in zip(classes, lo.tolist(), hi.tolist()):
        rows, gts = by_class[a:b], gts_by_class[c]
        gt_video = np.array([code[v] for v, _, _ in gts], np.intp)
        gt_cols = (gt_video, *np.array([g[1:] for g in gts], float).reshape(-1, 2).T)
        dets = (video[rows], start[rows], end[rows], score[rows])
        aps_by_class[c] = average_precision(dets, gt_cols, tuple(tiou_thresholds))
    map_by_tiou: dict[float, float] = {}
    per_class_ap: dict[float, dict[int, float | None]] = {}
    for i, thr in enumerate(tiou_thresholds):
        per_class_ap[thr] = aps = {c: aps_by_class[c][i] for c in classes}
        valid = [ap for ap in aps.values() if ap is not None]
        map_by_tiou[thr] = float(np.mean(valid)) if valid else 0.0
    return EvalReport(
        map_by_tiou=map_by_tiou,
        per_class_ap=per_class_ap,
        num_detections=len(all_dets),
        num_ground_truths=num_gt,
    )


def evaluate(
    model: Model,
    dataset: Dataset,
    det_cfg: DetectConfig,
    prop_cfg: ProposalConfig,
) -> EvalReport:
    """mAP at each configured tIoU threshold over the whole dataset."""
    all_dets = collect_detections(model, dataset, det_cfg, prop_cfg)
    return evaluate_detections(all_dets, ground_truths_by_class(dataset), det_cfg.tiou_thresholds)
