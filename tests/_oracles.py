"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way and shares no
code with the package internals it checks.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from utal.data import Dataset, UnitFeatureSequence, VideoItem, ramp_amplitude_for
from utal.model import BatchForward
from utal.net import DenseLayer


def erf_series(x: float) -> float:
    """Taylor series of erf summed to machine precision (valid for |x| <= 3.5)."""
    term = x
    total = 0.0
    n = 0
    while True:
        contrib = term / (2 * n + 1)
        total += contrib
        if abs(contrib) < 1e-18 and n > 2:
            break
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def erfc_continued_fraction(x: float) -> float:
    """erfc for x >= 2 via the continued fraction
    erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    evaluated with the modified Lentz algorithm."""
    tiny = 1e-300
    f = x
    c = f
    d = 0.0
    for n in range(1, 300):
        a_n = n / 2.0
        d = x + a_n * d
        d = tiny if d == 0.0 else d
        c = x + a_n / c
        c = tiny if c == 0.0 else c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x * x) / math.sqrt(math.pi) / f


def normal_cdf_quadrature(x: float, steps: int = 200_001) -> float:
    """Phi(x) by Simpson integration of the density from 0 to x."""
    if x == 0.0:
        return 0.5
    sign = 1.0 if x > 0 else -1.0
    b = abs(x)
    t = np.linspace(0.0, b, steps)
    density = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    h = t[1] - t[0]
    weights = np.ones(steps)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = h / 3.0 * float(weights @ density)
    return 0.5 + sign * integral


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the identity with erf: 0.5*(1 + erf(x/sqrt(2)))."""
    return 0.5 * (1.0 + math.erf(x * math.sqrt(0.5)))


def randint_shuffle_oracle(rng, n: int) -> np.ndarray:
    """Fisher-Yates shuffle of arange(n), one `rng.randint` per position."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.randint(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def polar_normal_oracle(rng):
    """The one-at-a-time Marsaglia polar stream from `rng.uniform()`: a
    generator that yields both values of each accepted pair, in order."""
    while True:
        u = 2.0 * rng.uniform() - 1.0
        v = 2.0 * rng.uniform() - 1.0
        s = u * u + v * v
        if 0.0 < s < 1.0:
            scale = math.sqrt(-2.0 * math.log(s) / s)
            yield u * scale
            yield v * scale


def float64_copy(model):
    """A copy of `model` whose dense layers compute in float64, from float64
    copies of its weights: the reference for the float32 network, and one
    whose loss finite differences at h = 1e-6 can resolve."""
    ref = copy.deepcopy(model)
    ref.fc1, ref.fc_act, ref.fc_head = (
        DenseLayer(layer.weights.astype(np.float64), layer.biases.astype(np.float64), layer.name)
        for layer in model.dense_layers
    )
    return ref


def parameter_count(model) -> int:
    return sum(layer.weights.size + layer.biases.size for layer in model.dense_layers)


def prototype_at(protos: np.ndarray, ramp_dirs: np.ndarray, class_id: int, rel_pos: float) -> np.ndarray:
    """The noise-free feature of a unit at relative position rel_pos in [0, 1)."""
    ramp = 2.0 * rel_pos - 1.0
    return protos[class_id] + ramp_amplitude_for(class_id) * ramp * ramp_dirs[class_id]


def finite_difference(fn, x: float, h: float = 1e-6) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def tiou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Temporal intersection-over-union of two intervals, one pair at a time."""
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0.0:
        return 0.0
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union > 0.0 else 0.0


def greedy_nms_oracle(dets, thr: float):
    """NMS by literal definition: walk the sorted list, compare to all kept."""
    ordered = sorted(dets, key=lambda d: (-d.score, d.video_id, d.start, d.end, d.class_id))
    kept = []
    for det in ordered:
        ok = True
        for other in kept:
            if tiou((det.start, det.end), (other.start, other.end)) >= thr:
                ok = False
                break
        if ok:
            kept.append(det)
    return kept


def label_proposals_oracle(starts, ends, annotations, pos_thr: float, neg_thr: float):
    """Window labelling one window and one annotation row (class_id, start, end)
    at a time, scalar tIoU.

    Returns plain lists (kept window indices, class, (start offset, end
    offset) pairs) with class -1 and offsets (0.0, 0.0) for negatives.
    """
    keep, t_c, t_off = [], [], []
    for i, (start, end) in enumerate(zip(starts, ends)):
        best_t, best_ann = 0.0, None
        for class_id, ann_start, ann_end in annotations:
            t = tiou((start, end), (ann_start, ann_end))
            if t > best_t:
                best_t, best_ann = t, (class_id, ann_start, ann_end)
        if best_ann is not None and best_t >= pos_thr:
            class_id, ann_start, ann_end = best_ann
            length = end - start
            keep.append(i)
            t_c.append(int(class_id))
            t_off.append([(ann_start - start) / length, (ann_end - end) / length])
        elif best_t < neg_thr:
            keep.append(i)
            t_c.append(-1)
            t_off.append([0.0, 0.0])
    return keep, t_c, t_off


def regression_terms_oracle(cfg, fwd: BatchForward, pos, t_c, t_off, eps_rng):
    """Regression loss and its (mu, alpha) gradients, one positive and one
    boundary at a time, each loss written out with math.exp and if/else;
    `t_off` holds each row's (start, end) targets.

    Only the ground-truth class row of a positive gets gradient.  The l1 mode
    averages |r| over positives; the Gaussian modes average over both
    boundaries too.  The sampled mode draws one eps per boundary in loop
    order, one at a time from `polar_normal_oracle(eps_rng)`.  Returns
    (loss, d_mu, d_alpha), d_alpha None in l1 mode.
    """
    draws = polar_normal_oracle(eps_rng)  # a generator: it draws nothing until asked
    d_mu = np.zeros(fwd.mu.shape)
    d_alpha = None if cfg.loss_mode == "l1" else np.zeros(fwd.alpha.shape)
    if len(pos) == 0:
        return 0.0, d_mu, d_alpha
    scale = 1.0 / len(pos) if cfg.loss_mode == "l1" else 1.0 / (2.0 * len(pos))
    total = 0.0
    for i in pos:
        c = int(t_c[i])
        for b in (0, 1):
            d = float(t_off[i][b]) - float(fwd.mu[i, c, b])
            sign_d = 1.0 if d > 0 else (-1.0 if d < 0 else 0.0)
            alpha = 0.0 if d_alpha is None else float(fwd.alpha[i, c, b])
            sigma = math.exp(0.5 * alpha)
            if cfg.loss_mode == "l1":
                loss, g_mu, g_alpha = abs(d), -sign_d, 0.0
            elif cfg.loss_mode == "kl_l1":
                inv_var = math.exp(-alpha)
                if abs(d) <= 1.0:
                    loss = d * d * inv_var / 2.0 + alpha / 2.0 + math.log(2.0 * math.pi) / 2.0
                    g_mu = -d * inv_var
                    g_alpha = 0.5 - d * d * inv_var / 2.0
                else:
                    loss = (abs(d) - 0.5) * inv_var + alpha / 2.0
                    g_mu = -sign_d * inv_var
                    g_alpha = 0.5 - (abs(d) - 0.5) * inv_var
            elif cfg.loss_mode == "sampled_l1":
                eps = next(draws)
                r = d - sigma * eps
                sign_r = 1.0 if r > 0 else (-1.0 if r < 0 else 0.0)
                loss, g_mu, g_alpha = abs(r), -sign_r, -0.5 * sigma * eps * sign_r
            else:  # expected_l1
                erf = math.erf(d / (sigma * math.sqrt(2.0)))
                density = math.sqrt(2.0 / math.pi) * math.exp(-d * d / (2.0 * sigma * sigma))
                loss = d * erf + sigma * density
                g_mu = -erf
                g_alpha = 0.5 * sigma * density  # dE/dsigma * dsigma/dalpha
            total += loss * scale
            d_mu[i, c, b] += g_mu * scale
            if d_alpha is not None:
                d_alpha[i, c, b] += g_alpha * scale
    return total, d_mu, d_alpha


def offset_stats_oracle(model, training_set, batch_size: int = 512):
    """Residuals d = t - mu and sigmas of every positive, one positive at a time.

    The network runs over the same chunks of positives as in
    `collect_offset_stats` (the float32 matmuls may round differently in
    other batch shapes); each positive's ground-truth class row is then read
    out alone, its sigmas with math.exp.  Returns ([P x 2] d, [P x 2] sigma
    or None), columns (start, end).
    """
    positives = [int(i) for i in np.flatnonzero(training_set.t_c >= 0)]
    d_rows, sigma_rows = [], []
    for lo in range(0, len(positives), batch_size):
        rows = positives[lo : lo + batch_size]
        fwd = model.forward_batch(training_set.x[rows])
        for i, row in enumerate(rows):
            c = int(training_set.t_c[row])
            d_start = float(training_set.t_off[row, 0]) - float(fwd.mu[i, c, 0])
            d_end = float(training_set.t_off[row, 1]) - float(fwd.mu[i, c, 1])
            d_rows.append((d_start, d_end))
            if model.uncertainty:
                a_s, a_e = float(fwd.alpha[i, c, 0]), float(fwd.alpha[i, c, 1])
                sigma_rows.append((math.exp(0.5 * a_s), math.exp(0.5 * a_e)))
    d = np.array(d_rows, dtype=float).reshape(-1, 2)
    return d, np.array(sigma_rows, dtype=float).reshape(-1, 2) if model.uncertainty else None


def pool_k_parts_oracle(video, start: float, end: float, k: int) -> np.ndarray:
    """k-part coverage-weighted pooling of one window, unit by unit.

    Each of the k equal sub-spans of [start, end] averages the units it
    overlaps, weighted by overlap length; units outside [0, T] do not exist.
    A sub-span that covers no unit takes the unit containing its midpoint.
    """
    feats = video.features
    t_units = feats.shape[0]
    parts = np.empty((k, feats.shape[1]))
    span = (end - start) / k
    for j in range(k):
        lo = start + j * span
        hi = lo + span
        u0 = max(int(math.floor(lo)), 0)
        u1 = min(int(math.ceil(hi)), t_units)
        if hi <= lo or u1 <= u0:
            u = min(max(int(math.floor((lo + hi) / 2.0)), 0), t_units - 1)
            parts[j] = feats[u]
            continue
        units = np.arange(u0, u1, dtype=np.float64)
        weights = np.minimum(hi, units + 1.0) - np.maximum(lo, units)
        weights = np.clip(weights, 0.0, None)
        total = weights.sum()
        if total <= 0.0:
            u = min(max(int(math.floor((lo + hi) / 2.0)), 0), t_units - 1)
            parts[j] = feats[u]
        else:
            parts[j] = weights @ feats[u0:u1] / total
    return parts.reshape(-1)


def cascade_oracle(model, video, windows, steps: int):
    """The refinement cascade one window at a time, in scalar arithmetic.

    Each window is pooled and forwarded alone, then moved by the offsets of
    its argmax class times its length and clamped to [0, T].  Crossed
    boundaries fall back to a unit window at their midpoint, pushed back
    inside [0, T].  A refinement not longer than 1e-9 stops the window,
    which keeps its last state.  Returns (start, end, y_a, logits) per
    window, from the window's last forward pass.
    """
    from utal.data import pool_k_parts

    t_max = float(video.num_units)
    out = []
    for start, end in windows:
        for _ in range(steps):
            x = pool_k_parts(video, np.array([start]), np.array([end]), model.k)
            fwd = model.forward_batch(x)
            y_a, logits = float(fwd.y_a[0]), fwd.logits[0].copy()
            c = int(np.argmax(logits))
            length = end - start
            s = min(max(start + float(fwd.mu[0, c, 0]) * length, 0.0), t_max)
            e = min(max(end + float(fwd.mu[0, c, 1]) * length, 0.0), t_max)
            if s >= e:
                span = min(1.0, t_max)
                mid = 0.5 * (s + e)
                s, e = mid - 0.5 * span, mid + 0.5 * span
                if s < 0.0:
                    s, e = 0.0, span
                elif e > t_max:
                    s, e = t_max - span, t_max
            if not e - s > 1e-9:
                break
            start, end = s, e
        out.append((start, end, y_a, logits))
    return out


def ap_enumeration_oracle(dets, gts, thr: float) -> float:
    """AP by exhaustive prefix enumeration of the sorted detection list.

    For every prefix length the matching is recomputed from scratch, giving
    an independent precision/recall curve; the area under the running-max
    precision envelope is accumulated rectangle by rectangle.
    """
    if not gts:
        raise ValueError("oracle needs ground truths")
    ordered = sorted(dets, key=lambda d: (-d.score, d.video_id, d.start, d.end, d.class_id))

    def prefix_tp(k: int) -> int:
        used = set()
        tp = 0
        for det in ordered[:k]:
            best, best_gi = 0.0, None
            for gi, (vid, gs, ge) in enumerate(gts):
                if gi in used or vid != det.video_id:
                    continue
                t = tiou((det.start, det.end), (gs, ge))
                if t >= thr and t > best:
                    best, best_gi = t, gi
            if best_gi is not None:
                used.add(best_gi)
                tp += 1
        return tp

    recalls = [0.0]
    precisions = [0.0]
    for k in range(1, len(ordered) + 1):
        tp = prefix_tp(k)
        recalls.append(tp / len(gts))
        precisions.append(tp / k)
    ap = 0.0
    for i in range(1, len(recalls)):
        if recalls[i] > recalls[i - 1]:
            envelope = max(precisions[i:])
            ap += (recalls[i] - recalls[i - 1]) * envelope
    return ap


def average_precision_scalar_oracle(dets, gts, tiou_thr):
    """`detect.average_precision` with one scalar `tiou` per detection and
    same-video ground truth, in the same matching order and tie rules."""
    thresholds = tiou_thr if isinstance(tiou_thr, tuple) else (tiou_thr,)
    aps = [0.0 if gts else None] * len(thresholds)
    if gts and dets:
        by_video = {}
        for gi, (vid, _, _) in enumerate(gts):
            by_video.setdefault(vid, []).append(gi)
        overlaps = []
        ordered = sorted(dets, key=lambda d: (-d.score, d.video_id, d.start, d.end, d.class_id))
        for di, d in enumerate(ordered):
            row = [(gi, tiou((d.start, d.end), gts[gi][1:])) for gi in by_video.get(d.video_id, ())]
            row = [(gi, t) for gi, t in row if t > 0.0]
            if row:
                overlaps.append((di, row))
        for i, thr in enumerate(thresholds):
            matched = [False] * len(gts)
            tp = np.zeros(len(dets))
            for di, row in overlaps:
                best_t, best_gi = 0.0, -1
                for gi, t in row:
                    if not matched[gi] and t >= thr and t > best_t:
                        best_t, best_gi = t, gi
                if best_gi >= 0:
                    matched[best_gi] = True
                    tp[di] = 1.0
            tp_cum = np.cumsum(tp)
            recall = tp_cum / len(gts)
            precision = tp_cum / np.arange(1, len(dets) + 1)
            mrec = np.concatenate([[0.0], recall, [recall[-1]]])
            mpre = np.maximum.accumulate(np.concatenate([[1.0], precision, [0.0]])[::-1])[::-1]
            aps[i] = float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))
    return aps if isinstance(tiou_thr, tuple) else aps[0]


def ap_columns(dets, gts):
    """`Detection` objects and (video_id, start, end) triples as the columns
    `detect.average_precision` takes, video ids coded in their string order."""
    ids = {d.video_id for d in dets} | {g[0] for g in gts}
    code = {v: i for i, v in enumerate(sorted(ids))}
    det_cols = (
        np.array([code[d.video_id] for d in dets], dtype=np.intp),
        *(np.array([getattr(d, f) for d in dets], dtype=float) for f in ("start", "end", "score")),
    )
    gt_cols = (
        np.array([code[g[0]] for g in gts], dtype=np.intp),
        *(np.array([g[i] for g in gts], dtype=float) for i in (1, 2)),
    )
    return det_cols, gt_cols


_ORACLE_RAMP = 0.6


class OracleModel:
    """Perfect detector for noiseless, window-aligned synthetic videos.

    An instance's units carry a base prototype plus a linear ramp, so a
    window exactly covering an instance pools to a unique per-class part
    pattern.  The oracle scores 1.0 on an exact pattern match, strictly less
    otherwise, and predicts zero offsets, making exactly-aligned windows
    fixed points of the cascade with top fused scores.
    """

    def __init__(self, prototypes: np.ndarray, ramp_dirs: np.ndarray, k: int):
        self.k = k
        self.num_classes = prototypes.shape[0]
        self.d_feat = prototypes.shape[1]
        self.uncertainty = False
        ramp_means = 2.0 * (np.arange(k) + 0.5) / k - 1.0  # exact-coverage part ramps
        self.patterns = (
            prototypes[:, None, :]
            + _ORACLE_RAMP * ramp_means[None, :, None] * ramp_dirs[:, None, :]
        )  # [C x k x d]

    def forward_batch(self, x: np.ndarray) -> BatchForward:
        batch = x.shape[0]
        parts = x.reshape(batch, self.k, self.d_feat)
        residual = np.linalg.norm(
            parts[:, None, :, :] - self.patterns[None, :, :, :], axis=(2, 3)
        )  # [B x C]
        match = np.where(residual < 1e-6, 1.0, np.maximum(0.0, 0.3 - 0.1 * residual))
        y_a = match.max(axis=1)
        logits = 10.0 * match
        mu = np.zeros((batch, self.num_classes, 2))
        return BatchForward(y_a, logits, mu, None, None)


def aligned_oracle_dataset(num_videos: int = 6, num_classes: int = 3, d_feat: int = 16):
    """Noise-free videos whose single instance coincides with a scale-16 window."""
    rng = np.random.default_rng(123)
    protos = rng.standard_normal((num_classes, d_feat))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    dirs = rng.standard_normal((num_classes, d_feat))
    for c in range(num_classes):
        dirs[c] -= (dirs[c] @ protos[c]) * protos[c]
        dirs[c] /= np.linalg.norm(dirs[c])
    videos = []
    for i in range(num_videos):
        t_units = 64
        feats = np.zeros((t_units, d_feat))
        start = 16 + 4 * (i % 3)  # multiples of the scale-16 stride at overlap 0.75
        end = start + 16
        class_id = i % num_classes
        rel = (np.arange(start, end) + 0.5 - start) / (end - start)
        feats[start:end] = protos[class_id] + _ORACLE_RAMP * (2.0 * rel - 1.0)[:, None] * dirs[class_id]
        videos.append(
            VideoItem(
                UnitFeatureSequence(f"vid{i:04d}", feats),
                np.array([[class_id, start, end]], dtype=float),
            )
        )
    dataset = Dataset(
        videos=videos,
        class_names=[f"class_{c:02d}" for c in range(num_classes)],
        d_feat=d_feat,
        num_classes=num_classes,
    )
    return dataset, (protos, dirs)
