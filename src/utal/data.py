"""Synthetic benchmark generation, dataset I/O, windows, labeling, pooling.

A synthetic "video" is a [T x d_feat] matrix of unit-level features: ambient
Gaussian noise everywhere, plus a class-specific prototype pattern on the
units covered by each planted action instance.  The pattern is a fixed base
vector plus a linear temporal ramp along a second, orthogonal class
direction, so a unit encodes both its class and where it sits inside the
instance; windows contained in a long instance are thereby distinguishable
from windows matching a short one, and boundary offsets are decodable from
pooled features.  Annotations may be "subjectively" mis-drawn (one boundary
pulled inward by a sizable fraction of the instance length) to emulate
inconsistent human boundary labels; the feature matrix always reflects the
true extent.  In memory, a video's annotations are one float64 [A x 3] array
of rows (class_id, start, end), the layout `label_proposals` reads.

File formats:
  manifest.json  JSON with format_version 2, d_feat, class_names (a class's
                 id is its index) and per-video records {video_id, T,
                 feature_file, annotations:[{class_id, start, end}]}
  *.f32          raw little-endian float32, row-major [T x d_feat], no header
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from utal.errors import ConfigError
from utal.numerics import Rng

# instance lengths are drawn from this range (in units), further capped by
# the per-instance slot so placements never collide
_LEN_RANGE = (8, 40)
_SLOT_MARGIN = 2

# temporal-ramp amplitude relative to the unit-norm base prototype; class 0
# is deliberately structureless (no ramp), so proposals contained in a long
# class-0 instance stay genuinely boundary-ambiguous
RAMP_AMPLITUDE = 0.75
FLAT_CLASS_ID = 0

# mis-drawn annotations pull one boundary inward by this fraction of the
# instance length; the annotation keeps tIoU >= 0.55 with the true extent
_JITTER_SHIFT = (0.35, 0.45)


def ramp_amplitude_for(class_id: int) -> float:
    return 0.0 if class_id == FLAT_CLASS_ID else RAMP_AMPLITUDE


@dataclass
class DataConfig:
    """Synthetic dataset shape and noise knobs."""

    num_videos: int = 200
    t_range: tuple[int, int] = (64, 128)
    num_classes: int = 5
    d_feat: int = 64
    instances_per_video: int = 2
    noise_level: float = 0.15
    boundary_jitter: float = 0.05  # fraction of instances with a mis-drawn boundary

    def validate(self) -> None:
        if self.num_videos < 1:
            raise ConfigError("num_videos must be at least 1")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be at least 2")
        if self.d_feat < 8:
            raise ConfigError("d_feat must be at least 8")
        if len(self.t_range) != 2:
            raise ConfigError(f"t_range must hold 2 values, lo and hi, not {len(self.t_range)}")
        lo, hi = self.t_range
        if lo < 16 or hi < lo:
            raise ConfigError("t_range must satisfy 16 <= lo <= hi")
        if self.instances_per_video < 1:
            raise ConfigError("instances_per_video must be at least 1")
        # a slot's bounds round inward (ceil, then floor), which can cost it one unit
        min_slot = _LEN_RANGE[0] + 2 * _SLOT_MARGIN + 1
        if lo // self.instances_per_video < min_slot:
            raise ConfigError(f"instances_per_video too large for t_range: t_range lo // "
                              f"instances_per_video must be at least {min_slot}")
        if not (self.noise_level >= 0 and math.isfinite(self.noise_level)):
            raise ConfigError("noise_level must be nonnegative and finite")
        if not 0.0 <= self.boundary_jitter <= 1.0:
            raise ConfigError("boundary_jitter must lie in [0, 1]")


@dataclass
class ProposalConfig:
    """Sliding-window and label-assignment settings.

    pos_thr 0.35 admits contained windows of up-to-2.8x-longer instances as
    positives (normalized offsets then reach ~1.8 in magnitude), which keeps
    a population of large-residual proposals alive for the variance analysis.
    """

    scales: tuple[int, ...] = (8, 16, 32, 64)
    overlap: float = 0.75
    pos_thr: float = 0.35
    neg_thr: float = 0.3

    def validate(self) -> None:
        if not self.scales or any(s < 1 for s in self.scales):
            raise ConfigError("scales must be a nonempty list of lengths >= 1")
        if not 0.0 <= self.overlap < 1.0:
            raise ConfigError("overlap must lie in [0, 1)")
        if not 0.0 <= self.neg_thr <= self.pos_thr <= 1.0:
            raise ConfigError("need 0 <= neg_thr <= pos_thr <= 1")


@dataclass
class UnitFeatureSequence:
    """Per-video matrix of unit-level feature vectors."""

    video_id: str
    features: np.ndarray  # [T x d_feat] float32, as in its .f32 file

    @property
    def num_units(self) -> int:
        return self.features.shape[0]


@dataclass
class TrainingSet:
    """The labeled windows of every video as columns, one row per window."""

    x: np.ndarray  # [N x k*d_feat] pooled features
    t_c: np.ndarray  # [N] class of the matched annotation, -1 for negatives
    t_off: np.ndarray  # [N x 2] (start, end) offsets, 0 for negatives

    def __len__(self) -> int:
        return self.t_c.shape[0]


@dataclass
class VideoItem:
    sequence: UnitFeatureSequence
    annotations: np.ndarray  # [A x 3] float64 rows (class_id, start, end), (0, 3) if none


@dataclass
class Dataset:
    videos: list[VideoItem]  # in video_id order, the order training, inference and AP walk
    class_names: list[str]
    d_feat: int
    num_classes: int

    @property
    def num_videos(self) -> int:
        return len(self.videos)


def class_prototypes(seed: int, num_classes: int, d_feat: int) -> np.ndarray:
    """Fixed unit-norm base prototype per class, a pure function of the seed."""
    rng = Rng(seed).split("prototypes")
    protos = rng.normals(num_classes * d_feat).reshape(num_classes, d_feat)
    return protos / np.linalg.norm(protos, axis=1, keepdims=True)


def class_ramp_directions(seed: int, protos: np.ndarray) -> np.ndarray:
    """Unit ramp direction per class, orthogonal to that class's row of `protos` [C x d_feat]."""
    rng = Rng(seed).split("ramp-directions")
    dirs = rng.normals(protos.size).reshape(protos.shape)
    for c in range(protos.shape[0]):
        dirs[c] -= (dirs[c] @ protos[c]) * protos[c]
        dirs[c] /= np.linalg.norm(dirs[c])
    return dirs


def _flat_class_length(vid_rng: Rng, max_len: int) -> int:
    """Length for the structureless class: mostly window-sized, some ~2.5x.

    Most instances sit near the smallest proposal scale (clean matches); a
    fifth are ~2.5x it, so windows contained in them are positives whose
    offsets cannot be inferred from the (flat) features.
    """
    bucket = vid_rng.randint(10)
    lo, hi = (8, 12) if bucket < 8 else (19, 21)
    hi = min(hi, max_len)
    lo = min(lo, hi)
    return lo + vid_rng.randint(hi - lo + 1)


def _plant_instances(vid_rng: Rng, t_units: int, cfg: DataConfig) -> list[tuple[int, int, int]]:
    """Non-overlapping (class_id, start, end) triples, one per equal slot."""
    out = []
    slot = t_units / cfg.instances_per_video
    for i in range(cfg.instances_per_video):
        slot_lo = int(math.ceil(i * slot)) + _SLOT_MARGIN
        slot_hi = int(math.floor((i + 1) * slot)) - _SLOT_MARGIN
        max_len = min(_LEN_RANGE[1], slot_hi - slot_lo)
        class_id = vid_rng.randint(cfg.num_classes)
        if class_id == FLAT_CLASS_ID:
            length = _flat_class_length(vid_rng, max_len)
        else:
            length = _LEN_RANGE[0] + vid_rng.randint(max_len - _LEN_RANGE[0] + 1)
        start = slot_lo + vid_rng.randint(slot_hi - slot_lo - length + 1)
        out.append((class_id, start, start + length))
    return out


def _jitter_annotation(
    vid_rng: Rng, start: float, end: float, jitter_fraction: float
) -> tuple[float, float]:
    """Maybe pull one annotation boundary inward by 35-45% of the length.

    The draw order (accept, side, magnitude) is fixed so streams stay
    reproducible whether or not the jitter applies.  The contracted
    annotation keeps tIoU >= 0.55 with the true extent, so truth-aligned
    detections still match it at the 0.5 evaluation threshold.
    """
    accept = vid_rng.uniform() < jitter_fraction
    side = vid_rng.randint(2)
    mag = (_JITTER_SHIFT[0] + (_JITTER_SHIFT[1] - _JITTER_SHIFT[0]) * vid_rng.uniform()) * (
        end - start
    )
    if accept and side == 0:
        start = start + mag
    elif accept:
        end = end - mag
    return float(start), float(end)


def generate_synthetic_dataset(
    cfg: DataConfig, seed: int, out_dir: str | Path
) -> tuple[Dataset, Path]:
    """Generate videos, write manifest + feature files, return them.

    Byte-deterministic for a given (cfg, seed): every random draw comes from
    sub-streams keyed by purpose and video index.
    """
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    root = Rng(seed)
    protos = class_prototypes(seed, cfg.num_classes, cfg.d_feat)
    ramp_dirs = class_ramp_directions(seed, protos)

    videos: list[VideoItem] = []
    for vi in range(cfg.num_videos):
        vid_rng = root.split("video", vi)
        t_units = cfg.t_range[0] + vid_rng.randint(cfg.t_range[1] - cfg.t_range[0] + 1)
        feats = cfg.noise_level * vid_rng.normals(t_units * cfg.d_feat).reshape(
            t_units, cfg.d_feat
        )
        rows = []
        for class_id, s, e in _plant_instances(vid_rng, t_units, cfg):
            rel = (np.arange(s, e) + 0.5 - s) / (e - s)
            ramp = 2.0 * rel - 1.0
            feats[s:e] += (
                protos[class_id]
                + ramp_amplitude_for(class_id) * ramp[:, None] * ramp_dirs[class_id]
            )
            rows.append((class_id, *_jitter_annotation(vid_rng, s, e, cfg.boundary_jitter)))
        video_id = f"vid{vi:04d}"
        feats = np.ascontiguousarray(feats, dtype="<f4")  # the file's format, kept in memory too
        (out / "features" / f"{video_id}.f32").write_bytes(feats.tobytes())
        videos.append(VideoItem(UnitFeatureSequence(video_id, feats), np.array(rows, float)))

    class_names = [f"class_{c:02d}" for c in range(cfg.num_classes)]
    manifest = {
        "format_version": 2,
        "seed": seed,
        "d_feat": cfg.d_feat,
        "class_names": class_names,
        "generator_config": asdict(cfg),
        "videos": [
            {
                "video_id": item.sequence.video_id,
                "T": item.sequence.num_units,
                "feature_file": f"features/{item.sequence.video_id}.f32",
                "annotations": [{"class_id": int(c), "start": s, "end": e}
                                for c, s, e in item.annotations.tolist()],
            }
            for item in videos
        ],
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    videos.sort(key=lambda item: item.sequence.video_id)  # vid10000 follows vid1000
    return Dataset(videos, class_names, cfg.d_feat, cfg.num_classes), manifest_path


def read_input(path: str | Path, what: str, size: int | None = None) -> bytes:
    """The bytes of a file a command was given.  A missing or non-regular file (a
    fifo or a device could be read without end) and, when `size` is given, a file
    of another size are refused before any read; each error names `what` and `path`."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{what} {path} is missing or not a regular file")
    if size is not None and (held := path.stat().st_size) != size:
        raise ConfigError(f"{what} {path} holds {held} bytes, expected {size}")
    return path.read_bytes()  # an OSError names the path


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Read a manifest and its feature files; validate every invariant."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(read_input(manifest_path, "manifest").decode("utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigError(f"cannot read manifest {manifest_path}: {exc}") from exc
    base = manifest_path.parent
    where = "top level"
    try:
        if _json_field(manifest, "format_version") != 2:
            raise ConfigError("format_version must be 2; regenerate the set with utal gen-data")
        d_feat = _json_field(manifest, "d_feat")
        if d_feat < 1:
            raise ConfigError(f"d_feat must be >= 1, got {d_feat}")
        class_names = _json_field(manifest, "class_names", ("list",))
        num_classes = len(class_names)  # a class's id is its index
        if num_classes < 2 or any(type(name) is not str for name in class_names):
            raise ConfigError("class_names must be a list of two or more strings")
        videos: list[VideoItem] = []
        for index, rec in enumerate(_json_field(manifest, "videos", ("list",))):
            where = f"video record {index}"
            videos.append(_load_video(rec, base, d_feat, num_classes))
    except ConfigError as exc:  # the checks above and in _load_video name no manifest
        raise ConfigError(f"manifest {manifest_path}: {where}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"manifest {manifest_path}: {where} lacks key {exc.args[0]!r}") from exc
    except (OverflowError, TypeError, ValueError) as exc:  # a JSON int no float holds overflows
        raise ConfigError(f"manifest {manifest_path}: {where}: {exc}") from exc
    order = sorted(range(len(videos)), key=lambda i: videos[i].sequence.video_id)  # stable
    for a, b in zip(order, order[1:]):  # evaluation codes detections by id: ids are unique
        if (video_id := videos[a].sequence.video_id) == videos[b].sequence.video_id:
            raise ConfigError(f"manifest {manifest_path}: video record {b} repeats video_id "
                              f"{video_id!r} of video record {a}")
    return Dataset([videos[i] for i in order], class_names, d_feat, num_classes)


def _json_field(record: dict, key: str, kinds: tuple = ("int",)):
    """record[key] if its JSON type is one of `kinds` ("int", "float", "str", "list"):
    a bool, string or float is no int."""
    if type(record[key]).__name__ not in kinds:
        raise ConfigError(f"{key} must be {' or '.join(kinds)}, got {record[key]!r}")
    return record[key]


def _load_video(rec: dict, base: Path, d_feat: int, num_classes: int) -> VideoItem:
    """One manifest video record plus its feature file, with every invariant checked."""
    video_id = _json_field(rec, "video_id", ("str",))
    t_units = _json_field(rec, "T")
    if t_units < 1:
        raise ConfigError(f"video {video_id}: T must be >= 1")
    path = base / _json_field(rec, "feature_file", ("str",))
    data = read_input(path, f"video {video_id}: feature file", 4 * t_units * d_feat)  # float32s
    feats = np.frombuffer(data, "<f4").reshape(t_units, d_feat).copy()  # writable, as generated
    if not np.all(np.isfinite(feats)):
        raise ConfigError(f"video {video_id}: non-finite values in feature file {path}")
    rows = []
    for a in _json_field(rec, "annotations", ("list",)):
        start, end = (float(_json_field(a, key, ("int", "float"))) for key in ("start", "end"))
        class_id = _json_field(a, "class_id")
        if not 0 <= start < end <= t_units:
            raise ConfigError(
                f"video {video_id}: annotation [{start}, {end}] outside [0, {t_units}]"
            )
        if not 0 <= class_id < num_classes:
            raise ConfigError(f"video {video_id}: class_id {class_id} out of range")
        rows.append((class_id, start, end))
    return VideoItem(UnitFeatureSequence(video_id, feats), np.array(rows, float).reshape(-1, 3))


def sliding_windows(t_units: float, scales, overlap: float) -> tuple[np.ndarray, np.ndarray]:
    """Multi-scale sliding windows covering [0, T], as (starts, ends) arrays.

    For each scale L: windows [s, s+L] at stride L*(1-overlap) while they
    fit; if the last window stops short of T, one extra window [T-L, T] is
    appended.  A scale longer than T contributes the single window [0, T].
    The windows of all scales are ordered by start, then by scale.
    """
    starts, ends = [], []
    for length in scales:
        if length > t_units:
            s, e = np.zeros(1), np.full(1, float(t_units))
        else:
            stride = length * (1.0 - overlap)
            count = int(math.floor((t_units - length) / stride + 1e-9)) + 1
            s = np.arange(count) * stride
            e = s + length
            if e[-1] < t_units - 1e-9:
                s = np.append(s, float(t_units) - length)
                e = np.append(e, float(t_units))
        starts.append(s)
        ends.append(e)
    starts, ends = np.concatenate(starts), np.concatenate(ends)
    order = np.argsort(starts, kind="stable")  # the scales were concatenated in order
    return starts[order], ends[order]


def compute_offsets(starts, ends, gt) -> np.ndarray:
    """Length-normalized displacements from windows to annotation boundaries `gt` [N x 2].

    Elementwise; the inverse of `detect.apply_offsets` inside [0, T].
    """
    return (gt - np.stack((starts, ends), 1)) / (ends - starts)[:, None]


def label_proposals(
    starts: np.ndarray, ends: np.ndarray, gt: np.ndarray, pos_thr: float, neg_thr: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign actioness labels and regression targets by max tIoU.

    One [N x A] tIoU matrix of windows [starts, ends] against `gt` [N x A x 3],
    each window's own video's annotations as rows (class_id, start, end).
    Positive iff max tIoU > 0 and >= pos_thr (matched to the argmax
    annotation, ties to the earlier one); negative iff max tIoU < neg_thr;
    windows in between are discarded.  Returns the kept windows' indices,
    class (-1 for negatives) and [N x 2] offsets (0 for negatives).
    """
    # column 0 stands for "no annotation": argmax takes the first maximum, so
    # it wins only where no annotation overlaps the window at all
    tious = np.zeros((starts.shape[0], gt.shape[1] + 1))
    tious[:, 1:] = pairwise_tiou(starts[:, None], ends[:, None], gt[..., 1], gt[..., 2])
    best = tious.argmax(axis=1)
    best_t = tious[np.arange(starts.shape[0]), best]
    positive = (best > 0) & (best_t >= pos_thr)
    keep = np.flatnonzero(positive | (best_t < neg_thr))
    pos, hit = positive[keep], keep[positive[keep]]
    matched = gt[hit, best[hit] - 1]  # [P x 3]
    t_c, t_off = np.full(keep.size, -1), np.zeros((keep.size, 2))
    t_c[pos] = matched[:, 0]
    t_off[pos] = compute_offsets(starts[hit], ends[hit], matched[:, 1:])
    return keep, t_c, t_off


def pairwise_tiou(s1, e1, s2, e2) -> np.ndarray:
    """Temporal intersection-over-union of intervals [s1, e1] and [s2, e2].

    Elementwise with broadcasting; 0 where they do not overlap.
    """
    inter = np.minimum(e1, e2) - np.maximum(s1, s2)
    union = (e1 - s1) + (e2 - s2) - inter
    ok = (inter > 0.0) & (union > 0.0)
    return np.where(ok, inter / np.where(ok, union, 1.0), 0.0)


def pool_k_parts(video: UnitFeatureSequence, starts, ends, k: int) -> np.ndarray:
    """Coverage-weighted average pooling of float64 window arrays [starts, ends], [N x k*d_feat].

    Each window's k equal sub-spans are clipped to [0, T] and average the
    units they overlap, weighted by overlap length.  With F the piecewise-
    linear cumulative sum of the unit features (an integral image), the mean
    over [lo, hi] is (F(hi) - F(lo)) / (hi - lo), in float64, rounded once
    into rows of the features' dtype.  A zero-length sub-span falls back to
    the unit at its midpoint.  Bit-equal sub-spans are pooled once.
    """
    feats = video.features  # float32 units widen exactly in float64 arithmetic
    t_units = feats.shape[0]
    span = (ends - starts) / k
    lo = (starts[:, None] + np.arange(k)[None, :] * span[:, None]).ravel()  # [N*k]
    hi = lo + np.repeat(span, k)
    lo_bits, hi_bits = lo.view(np.uint64), hi.view(np.uint64)  # -0.0 and +0.0 stay apart
    # equal pairs sort together; pairs that collide on the key are at worst pooled twice
    order = np.argsort(lo_bits * np.uint64(0x9E3779B97F4A7C15) + hi_bits)
    lo_bits, hi_bits = lo_bits[order], hi_bits[order]
    first = np.ones(lo.size, dtype=bool)
    first[1:] = (lo_bits[1:] != lo_bits[:-1]) | (hi_bits[1:] != hi_bits[:-1])
    inverse = np.empty(lo.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    lo, hi = lo[order[first]], hi[order[first]]
    lo_c = np.clip(lo, 0.0, t_units)
    hi_c = np.clip(hi, 0.0, t_units)
    cum = np.zeros((t_units + 1, feats.shape[1]))
    np.cumsum(feats, axis=0, dtype=np.float64, out=cum[1:])
    # F(t) = C[u] + (t - u) * x[u], u = floor(t) (T - 1 at t = T); the C terms
    # cancel exactly when both ends lie in one unit
    u_lo = np.minimum(np.floor(lo_c), t_units - 1).astype(np.intp)
    u_hi = np.minimum(np.floor(hi_c), t_units - 1).astype(np.intp)
    num = cum[u_hi] - cum[u_lo]  # one buffer, summed in place in the order of F(hi) - F(lo)
    num += (hi_c - u_hi)[:, None] * feats[u_hi]
    num -= (lo_c - u_lo)[:, None] * feats[u_lo]
    covered = hi_c > lo_c  # as hi_c - lo_c > 0: unequal floats never subtract to 0
    pooled = np.empty_like(num, feats.dtype)
    np.divide(num, np.where(covered, hi_c - lo_c, 1.0)[:, None], out=pooled)
    if not covered.all():
        mid = np.clip(np.floor((lo + hi) / 2.0), 0, t_units - 1).astype(np.intp)
        pooled[~covered] = feats[mid[~covered]]
    return pooled[inverse].reshape(starts.shape[0], k * feats.shape[1])


def build_training_set(dataset: Dataset, prop_cfg: ProposalConfig, k: int) -> TrainingSet:
    """Windows -> labels -> pooled features, rows by video in the dataset's (id) order, window
    start, scale: windows once per length, labels once per annotation count, pooling per video."""
    lengths = [item.sequence.num_units for item in dataset.videos]
    windows = {t: np.stack(sliding_windows(t, prop_cfg.scales, prop_cfg.overlap))
               for t in set(lengths)}  # (starts, ends) rows per length, for this build only
    starts, ends = np.concatenate([np.empty((2, 0)), *(windows[t] for t in lengths)], axis=1)
    counts = np.array([windows[t].shape[1] for t in lengths], dtype=np.intp)
    sizes = np.array([len(item.annotations) for item in dataset.videos], dtype=np.intp)
    t_c, t_off = np.full(starts.size, -2), np.empty((starts.size, 2))
    for a in set(sizes.tolist()):
        gt = np.stack([item.annotations for item in dataset.videos if len(item.annotations) == a])
        gt = np.repeat(gt, counts[sizes == a], axis=0)  # each window its own video's rows
        rows = np.flatnonzero(np.repeat(sizes == a, counts))  # the members' windows, in order
        keep, *labels = label_proposals(
            starts[rows], ends[rows], gt, prop_cfg.pos_thr, prop_cfg.neg_thr
        )
        t_c[rows[keep]], t_off[rows[keep]] = labels
    keep = np.flatnonzero(t_c > -2)  # class -2: no call kept the window
    t_c, t_off = t_c[keep], t_off[keep]
    x = np.empty((keep.size, k * dataset.d_feat), dtype=np.float32)  # the network's dtype
    lo = 0
    for item, hi in zip(dataset.videos, np.searchsorted(keep, np.cumsum(counts))):
        x[lo:hi] = pool_k_parts(item.sequence, starts[keep[lo:hi]], ends[keep[lo:hi]], k)
        lo = hi
    return TrainingSet(x, t_c, t_off)
