"""The two benchmark workloads, their output checks and the traced run.

Every workload reports the same end-to-end metrics (see END_TO_END); what
an "item", a "step" and the auxiliary call are depends on the workload:

  workload    items_per_s              step_ms_p50           aux_s
  train       labelled proposals/s     one SGD mini-batch    build_training_set
              through train()
  eval-long   videos/s through         one video_detections  evaluate_detections
              collect_detections       call                  (AP at 5 tIoUs)

The per-layer metrics of the traced run are per timed pass (one build and
one train() call, or one collect_detections and its AP calls), or per
set-up for the set-up's spans, so they do not depend on how many passes fit
in the run.

The functions of utal are always called through their module
(`data.build_training_set`, not a local binding), so the wrappers that the
clocks and the tracer install are the ones that run.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import contention
import tracer
from utal import cli  # noqa: F401  (loads every utal module, so every binding gets wrapped)
from utal import data, detect, losses, net, numerics
from utal import model as model_mod
from utal.errors import UtalError

WORKLOADS = ("train", "eval-long")
EPOCHS = 2  # per train() call, and for the checkpoint that eval-long's set-up trains
# setup_s is the median of at least this many full set-ups, more (up to
# MAX_SETUPS) while they add up to less than CHEAP_SETUP_S: train's take
# 0.16-0.35 s each, varying with the host's file-system load, so it gets 10-18
SETUP_REPEATS = 3
MAX_SETUPS = 25
CHEAP_SETUP_S = 3.0
# every long video is 768 units (the middle of 512-1024): with lengths drawn per
# seed the work of a 24-video pass moved by a third between seeds
LONG_DATA = dict(num_videos=24, t_range=(768, 768), instances_per_video=12)
# untimed warm-up: a whole pass where it is cheap, a quarter of one on eval-long
WARM_UP_VIDEOS = {"train": 200, "eval-long": 6}
# evaluate_detections takes ~0.3 s, too short for one sample a pass to be steady
AP_REPEATS = 5
NMS_ORACLE_VIDEOS = 2  # eval-long videos whose NMS calls are replayed
# mAP@0.5 after EPOCHS epochs lies between 0.62 and 0.73 on seeds 1-10 (0.72 at
# seed 7) on both workloads; a pipeline that still detects stays above this
MAP_050_FLOOR = 0.55
MIN_BEYOND = 10  # a percentile is reported only with this many samples beyond it

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "step_ms_p50": "ms",
    "aux_s": "s",
    "map_050": "ratio",
    "map_mean": "ratio",
    "peak_rss_mb": "MB",
}

# span -> workloads on which it must record calls in the traced timed phase;
# on every other workload it must record none
_ALL = WORKLOADS
_TRAIN = ("train",)
_EVAL = ("eval-long",)
EXPECTED_SPANS = {
    "data.generate_synthetic_dataset": _ALL,
    "data.load_dataset": _ALL,
    "data.build_training_set": _TRAIN,
    "data.sliding_windows": _ALL,
    "data.label_proposals": _TRAIN,
    "data.pool_k_parts": _ALL,
    "model.train": _TRAIN,
    "model.forward_batch": _ALL,
    "model.backward_batch": _TRAIN,
    "net.l2norm.forward": _ALL,
    "net.fc1.forward": _ALL,
    "net.relu.forward": _ALL,
    "net.actioness.forward": _ALL,
    "net.head.forward": _ALL,
    "net.head.backward": _TRAIN,
    "net.actioness.backward": _TRAIN,
    "net.relu.backward": _TRAIN,
    "net.fc1.backward": _TRAIN,
    "net.l2norm.backward": _TRAIN,
    "net.sgd_step": _TRAIN,
    "losses.select_hard_negatives": _TRAIN,
    "losses.binary_loss": _TRAIN,
    "losses.multiclass_loss": _TRAIN,
    "losses.sampled_l1_loss": _TRAIN,
    "detect.collect_detections": _EVAL,
    "detect.video_detections": _EVAL,
    "detect.nms": _EVAL,
    "detect.evaluate_detections": _EVAL,
    "detect.average_precision": _EVAL,
}
EXPECTED_COUNTS = {
    "numerics.Rng.normal.calls": _TRAIN,
    "detect.apply_offsets.calls": _EVAL,
}

_SETUP_SPANS = ("generate_synthetic_dataset", "load_dataset")  # run in set-up only
_DATA_SPANS = _SETUP_SPANS + (
    "build_training_set",
    "sliding_windows",
    "label_proposals",
    "pool_k_parts",
)
_LOSS_SPANS = ("select_hard_negatives", "binary_loss", "multiclass_loss", "sampled_l1_loss")
_DETECT_SPANS = ("collect_detections", "video_detections", "evaluate_detections", "average_precision")


def train_config(seed: int):
    return model_mod.TrainConfig(loss_mode="sampled_l1", batch_size=128, epochs=EPOCHS, seed=seed)


def epoch_losses(curve) -> list[tuple[float, float, float]]:
    return [(s.loss_bin, s.loss_cls, s.loss_reg) for s in curve]


def time_dense_layers(clock: tracer.CallClock, patches: tracer.Patches) -> None:
    """Time every dense layer's forward and backward on `clock`: the BLAS time."""
    for phase in ("forward", "backward"):
        patches.method(net.DenseLayer, phase, clock.wrap)


def train_checkpoint(manifest: str, seed: int, ckpt: str) -> None:
    """`utal train` for eval-long: load, build, train, save the checkpoint.

    Next to it goes CHECKPOINT.report.json with the epoch losses and the seconds
    spent in dense layers, which the parent's contention correction needs.
    """
    clock = tracer.CallClock()
    time_dense_layers(clock, tracer.Patches())
    dataset = data.load_dataset(manifest)
    cfg, prop_cfg = train_config(seed), data.ProposalConfig()
    training_set = data.build_training_set(dataset, prop_cfg, cfg.k)
    model = model_mod.init_model(cfg, dataset.d_feat, dataset.num_classes, seed)
    model, curve = model_mod.train(model, dataset, cfg, prop_cfg, training_set)
    model_mod.save_checkpoint(model, ckpt, cfg)
    report = {"losses": epoch_losses(curve), "blas_s": clock.busy(-np.inf, np.inf)}
    Path(ckpt + ".report.json").write_text(json.dumps(report))


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float | None:
    """The q-th percentile, or None when fewer than MIN_BEYOND samples lie beyond it."""
    if len(values) * (1.0 - q / 100.0) < MIN_BEYOND:
        return None
    return float(np.percentile(values, q))


def _load_oracles():
    path = Path(__file__).resolve().parent.parent / "tests" / "_oracles.py"
    spec = importlib.util.spec_from_file_location("utal_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairwise_tiou(dets) -> np.ndarray:
    """tIoU of every pair of detections, with data.tiou's conventions."""
    s = np.array([d.start for d in dets])
    e = np.array([d.end for d in dets])
    inter = np.minimum(e[:, None], e[None, :]) - np.maximum(s[:, None], s[None, :])
    union = (e - s)[:, None] + (e - s)[None, :] - inter
    ok = (inter > 0.0) & (union > 0.0)
    out = np.where(ok, inter / np.where(ok, union, 1.0), 0.0)
    np.fill_diagonal(out, 0.0)
    return out


@dataclass
class Tally:
    """Operations attempted and failed: epochs, videos and output checks."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def lost(self, count: int, what: str) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(what)


class PassTimes:
    """Raw and contention-corrected samples of the timed passes of one run.

    Each pass gives: items done in the main call and its wall time, the
    probe time inside it, the slowdown of the rest and per-step times; and
    the wall time of the auxiliary call with its own slowdown.  Corrected =
    raw / slowdown, with the probes' own time taken out first.
    """

    def __init__(self):
        self.passes = 0
        self.raw: dict[str, list] = {"items_per_s": [], "step_ms": [], "aux_s": []}
        self.fixed: dict[str, list] = {"items_per_s": [], "step_ms": [], "aux_s": []}
        self.slowdowns: list[float] = []

    def add(self, items, elapsed, busy, slowdown, steps_s) -> None:
        self.passes += 1
        self.slowdowns.append(slowdown)
        self.raw["items_per_s"].append(items / elapsed)
        self.fixed["items_per_s"].append(items * slowdown / (elapsed - busy))
        self.raw["step_ms"].extend(1e3 * steps_s)
        self.fixed["step_ms"].extend(1e3 * steps_s / slowdown)

    def add_aux(self, seconds, slowdown) -> None:
        """The auxiliary call, timed between two probes of its own."""
        self.raw["aux_s"].append(seconds)
        self.fixed["aux_s"].append(seconds / slowdown)

    def summary(self) -> dict:
        def stats(samples):
            return {
                "items_per_s": median(samples["items_per_s"]),
                "step_ms_p50": median(samples["step_ms"]),
                "step_ms_p95": percentile(samples["step_ms"], 95),
                "aux_s": median(samples["aux_s"]),
            }

        return {
            **stats(self.fixed),
            "raw": stats(self.raw),
            "slowdown": median(self.slowdowns),
            "passes": self.passes,
            "steps": len(self.fixed["step_ms"]),
        }


class Bench:
    """One workload run: set-up, timed phase, output checks."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tally = Tally()
        self.prop_cfg = data.ProposalConfig()
        self.det_cfg = detect.DetectConfig()
        self.train_cfg = train_config(seed)
        self.dense_clock = tracer.CallClock()
        self.probe = contention.SpeedProbe(self.dense_clock)
        self.setup_probe = contention.SpeedProbe(self.dense_clock, workdir / "probe-files")
        # one sample per video_detections call, and per sgd_step (one per batch)
        self.video_clock = tracer.CallClock(after=self.probe.maybe)
        self.step_clock = tracer.CallClock(after=self.probe.maybe)
        self.model = None
        self._setups = 0

    def install_clocks(self, patches: tracer.Patches) -> None:
        """Per-call timestamps for the step latencies and the BLAS time, and the
        speed probes between calls."""
        patches.function(detect, "video_detections", self.video_clock.wrap)
        patches.function(net, "sgd_step", self.step_clock.wrap)
        time_dense_layers(self.dense_clock, patches)

    # -- set-up ------------------------------------------------------------

    def _generate(self, cfg, name: str) -> Path:
        out = self.workdir / f"{name}-{self._setups}"
        return data.generate_synthetic_dataset(cfg, self.seed, out)[1]

    def setup(self, with_model: bool = True) -> float:
        """What the CLI runs before the timed call: gen-data, then the load;
        for eval-long also `utal train` (in a child process, as its own
        command would be) and the checkpoint load of `utal eval`.

        Returns the seconds the set-up spent in dense layers (the child's).
        """
        self._setups += 1
        manifest = self._generate(data.DataConfig(), "default")
        if self.workload == "eval-long":
            self.dataset = data.load_dataset(self._generate(data.DataConfig(**LONG_DATA), "long"))
            if with_model:
                return self._checkpoint(manifest)
        else:
            self.dataset = data.load_dataset(manifest)
        return 0.0

    def _checkpoint(self, manifest: Path) -> float:
        ckpt = manifest.parent / "checkpoint.utal"
        src = Path(data.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        cmd = [sys.executable, __file__, str(manifest), str(self.seed), str(ckpt)]
        subprocess.run(cmd, env=env, check=True, timeout=600)
        report = json.loads(Path(str(ckpt) + ".report.json").read_text())
        self._check_losses(report["losses"])
        self.model = model_mod.load_checkpoint(ckpt)[0]
        return report["blas_s"]

    def timed_setups(self) -> float:
        """Median contention-corrected set-up time over several set-ups.

        Set-up writes and reads a few hundred files; its system CPU time, half
        of train's, is corrected by the probe's file part, the dense layers'
        time in the child that trains the checkpoint by its BLAS part.
        """
        raw, times, weights = [], [], []
        probe = self.setup_probe
        while len(times) < SETUP_REPEATS or (sum(raw) < CHEAP_SETUP_S and len(times) < MAX_SETUPS):
            first = len(probe.at)
            probe.run()
            t0, cpu0 = time.perf_counter(), os.times()
            blas_s = self.setup()
            seconds, cpu1 = time.perf_counter() - t0, os.times()
            probe.run()
            system_s = cpu1.system - cpu0.system + cpu1.children_system - cpu0.children_system
            system_s = min(system_s, seconds - blas_s)
            raw.append(seconds)
            probes = range(first, len(probe.at))
            times.append(seconds / probe.slowdown(probes, seconds, blas_s, system_s))
            if self.model is not None:
                weights.append(self.model.fc1.weights)
        if weights:
            self.tally.check(
                all(np.array_equal(w, weights[0]) for w in weights),
                "checkpoint training differs between identical set-ups",
            )
        return median(times)

    # -- timed phase -------------------------------------------------------

    def warm_up(self) -> None:
        """One untimed pass before any timing.

        A fresh process runs its first pass 15-20% slower (the allocator is
        still growing its heap and raising its mmap threshold), which would
        otherwise land in the untraced figures only.
        """
        few = data.Dataset(
            videos=self.dataset.videos[:WARM_UP_VIDEOS[self.workload]],
            class_names=self.dataset.class_names,
            d_feat=self.dataset.d_feat,
            num_classes=self.dataset.num_classes,
        )
        if self.workload == "train":
            training_set = data.build_training_set(few, self.prop_cfg, self.train_cfg.k)
            model = model_mod.init_model(self.train_cfg, few.d_feat, few.num_classes, self.seed)
            model_mod.train(model, few, self.train_cfg, self.prop_cfg, training_set)
        else:
            dets = detect.collect_detections(self.model, few, self.det_cfg, self.prop_cfg)
            gts = detect.ground_truths_by_class(few)
            detect.evaluate_detections(dets, gts, self.det_cfg.tiou_thresholds)

    def measure(self) -> dict:
        """Repeat the workload's pass until --seconds have passed (at least once)."""
        t0 = time.perf_counter()
        out = self._measure_train() if self.workload == "train" else self._measure_eval()
        t1 = time.perf_counter()
        out["blas_share"] = self.dense_clock.busy(t0, t1) / (t1 - t0)
        return out

    def _measure_train(self) -> dict:
        times = PassTimes()
        deadline = time.perf_counter() + self.seconds
        while not times.passes or time.perf_counter() < deadline:
            training_set, build_s, build_slowdown = self.probe.between(
                data.build_training_set, self.dataset, self.prop_cfg, self.train_cfg.k
            )
            model = model_mod.init_model(
                self.train_cfg, self.dataset.d_feat, self.dataset.num_classes, self.seed
            )
            mark = len(self.step_clock.ends)
            t0 = time.perf_counter()
            try:
                model, curve = model_mod.train(
                    model, self.dataset, self.train_cfg, self.prop_cfg, training_set
                )
            except UtalError as exc:
                self.tally.lost(EPOCHS, f"train: {exc}")
                if time.perf_counter() >= deadline:
                    raise
                continue
            t1 = time.perf_counter()
            self._check_losses(epoch_losses(curve))
            busy, slowdown = self.probe.window(t0, t1)
            clock = self.step_clock
            gaps = np.asarray(clock.ends[mark + 1 :]) - np.asarray(clock.resumes[mark:-1])
            times.add(len(training_set) * EPOCHS, t1 - t0, busy, slowdown, gaps)
            times.add_aux(build_s, build_slowdown)
            self.model = model
            del training_set  # one training set alive at a time, as in `utal train`
        return times.summary()

    def _measure_eval(self) -> dict:
        times, maps = PassTimes(), []
        gts = detect.ground_truths_by_class(self.dataset)
        n_videos = self.dataset.num_videos
        deadline = time.perf_counter() + self.seconds
        while not times.passes or time.perf_counter() < deadline:
            mark = len(self.video_clock.ends)
            t0 = time.perf_counter()
            try:
                dets = detect.collect_detections(
                    self.model, self.dataset, self.det_cfg, self.prop_cfg
                )
            except UtalError as exc:
                self.tally.lost(n_videos, f"collect_detections: {exc}")
                if time.perf_counter() >= deadline:
                    raise
                continue
            t1 = time.perf_counter()
            for _ in range(AP_REPEATS):
                report, ap_s, ap_slowdown = self.probe.between(
                    detect.evaluate_detections, dets, gts, self.det_cfg.tiou_thresholds
                )
                times.add_aux(ap_s, ap_slowdown)
            self.tally.attempted += n_videos
            busy, slowdown = self.probe.window(t0, t1)
            clock = self.video_clock
            latencies = np.asarray(clock.ends[mark:]) - np.asarray(clock.starts[mark:])
            times.add(n_videos, t1 - t0, busy, slowdown, latencies)
            maps.append(report.map_by_tiou)
            self.dets, self.report = dets, report
        self.tally.check(
            all(m == maps[0] for m in maps), "mAP differs between passes over the same inputs"
        )
        return times.summary()

    # -- output checks -----------------------------------------------------

    def _check_losses(self, epoch_losses) -> None:
        for epoch, values in enumerate(epoch_losses):
            self.tally.check(
                bool(np.all(np.isfinite(values))), f"epoch {epoch}: non-finite loss {values}"
            )

    def quality(self) -> dict:
        """mAP of the model; on train, of the model the last train() call made."""
        if self.workload == "train":
            self.dets = detect.collect_detections(
                self.model, self.dataset, self.det_cfg, self.prop_cfg
            )
            self.report = detect.evaluate_detections(
                self.dets,
                detect.ground_truths_by_class(self.dataset),
                self.det_cfg.tiou_thresholds,
            )
        by_tiou = self.report.map_by_tiou
        map_050 = by_tiou[0.5]
        self.tally.check(
            map_050 >= MAP_050_FLOOR, f"map_050 {map_050:.4f} below the floor {MAP_050_FLOOR}"
        )
        return {"map_050": map_050, "map_mean": float(np.mean(list(by_tiou.values())))}

    def check_detections(self) -> None:
        """Bounds and suppression for every (video, class); NMS vs oracle on a sample."""
        lengths = {v.sequence.video_id: v.sequence.num_units for v in self.dataset.videos}
        groups: dict = {}
        for det in self.dets:
            groups.setdefault((det.video_id, det.class_id), []).append(det)
        thr = self.det_cfg.nms_thr
        for (video_id, class_id), dets in sorted(groups.items()):
            t_max = lengths[video_id]
            self.tally.check(
                all(0.0 <= d.start <= d.end <= t_max for d in dets),
                f"{video_id} class {class_id}: detection outside [0, {t_max}]",
            )
            self.tally.check(
                bool((_pairwise_tiou(dets) < thr).all()),
                f"{video_id} class {class_id}: kept detections overlap at tIoU >= {thr}",
            )
        self._check_nms_against_oracle()

    def _check_nms_against_oracle(self) -> None:
        """Replay sampled videos, recording each nms call, and compare with the oracle."""
        videos = sorted(self.dataset.videos, key=lambda v: v.sequence.video_id)
        sample = random.Random(self.seed).sample(videos, NMS_ORACLE_VIDEOS)
        calls = []

        def record(nms):
            def recorded(dets, tiou_thr):
                kept = nms(dets, tiou_thr)
                calls.append((list(dets), tiou_thr, kept))
                return kept

            return recorded

        patches = tracer.Patches()
        patches.function(detect, "nms", record)
        try:
            for item in sample:
                detect.video_detections(self.model, item.sequence, self.det_cfg, self.prop_cfg)
        finally:
            patches.restore()
        self.tally.check(bool(calls), "no nms call recorded on the oracle sample")
        oracle = _load_oracles().greedy_nms_oracle
        for dets, tiou_thr, kept in calls:
            expected = oracle(dets, tiou_thr)
            self.tally.check(
                [id(d) for d in kept] == [id(d) for d in expected],
                f"nms differs from greedy_nms_oracle on a group of {len(dets)} detections",
            )


# -- tracing -------------------------------------------------------------------


def _rows(x) -> int:
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def install_tracer(tr: tracer.Tracer, patches: tracer.Patches) -> None:
    """Spans on the public functions of every layer; counters where a span costs too much."""

    def forward_rows(counts, args, out):
        counts["model.forward_batch.rows"] += _rows(args[1])

    def dense_rows(counts, args, out):
        counts[f"net.{args[0].name}.forward.rows"] += _rows(args[1])

    def mined(counts, args, out):
        counts["losses.mining.rows"] += len(args[0])
        counts["losses.mining.mined"] += out.positive_indices.size + out.negative_indices.size

    def nms_sizes(counts, args, out):
        counts["detect.nms.in"] += len(args[0])
        counts["detect.nms.out"] += len(out)

    for name in _DATA_SPANS:
        patches.function(data, name, tr.spanned("data." + name))
    patches.function(model_mod, "train", tr.spanned("model.train"))
    patches.method(model_mod.Model, "forward_batch", tr.spanned("model.forward_batch", forward_rows))
    patches.method(model_mod.Model, "backward_batch", tr.spanned("model.backward_batch"))
    patches.method(
        net.DenseLayer, "forward", tr.spanned(lambda a: f"net.{a[0].name}.forward", dense_rows)
    )
    patches.method(net.DenseLayer, "backward", tr.spanned(lambda a: f"net.{a[0].name}.backward"))
    for cls, label in ((net.ReluLayer, "relu"), (net.L2NormalizeLayer, "l2norm")):
        for phase in ("forward", "backward"):
            patches.method(cls, phase, tr.spanned(f"net.{label}.{phase}"))
    patches.function(net, "sgd_step", tr.spanned("net.sgd_step"))
    patches.function(losses, "select_hard_negatives", tr.spanned("losses.select_hard_negatives", mined))
    for name in _LOSS_SPANS[1:]:
        patches.function(losses, name, tr.spanned("losses." + name))
    patches.method(numerics.Rng, "normal", tr.counted("numerics.Rng.normal"))
    for name in _DETECT_SPANS:
        patches.function(detect, name, tr.spanned("detect." + name))
    patches.function(detect, "nms", tr.spanned("detect.nms", nms_sizes))
    patches.function(detect, "apply_offsets", tr.counted("detect.apply_offsets"))
    patches.method(contention.SpeedProbe, "run", tr.spanned("bench.probe"))


def per_layer_metrics(tr: tracer.Tracer, bench: Bench, phase: int, untraced: dict, traced: dict) -> dict:
    """name -> (value, unit) for every per-layer metric of BENCHMARK.json.

    The spans from index `phase` on and the counts belong to the traced
    timed phase; they are divided by its number of passes, so that each
    figure is per pass and does not grow when more passes fit in the run.
    The data generation and load spans come from the one traced set-up
    before `phase`.
    """
    setup = tr.by_name(last=phase)
    spans = tr.by_name(first=phase)
    passes = traced["passes"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0] / passes

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1] / passes

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2] / passes

    def count(key):
        return tr.counts.get(key, 0.0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    cfg = bench.train_cfg
    fc1_rows = count("net.fc1.forward.rows")
    # computed, not counted: 2 flops per multiply-add of the [rows x k*d_feat] @ [k*d_feat x hidden] product
    fc1_flop = 2.0 * fc1_rows * (cfg.k * bench.dataset.d_feat) * cfg.hidden
    out = {
        "numerics.Rng.normal.calls": (count("numerics.Rng.normal.calls"), "count"),
        "net.fc1.forward.rows": (fc1_rows, "count"),
        "net.fc1.gflops": (ratio(fc1_flop, total("net.fc1.forward")) / 1e9, "GFLOP/s"),
    }
    for layer in ("l2norm", "fc1", "relu", "actioness", "head"):
        for phase in ("forward", "backward"):
            out[f"net.{layer}.{phase}.s"] = (total(f"net.{layer}.{phase}"), "s")
    out["net.sgd_step.s"] = (total("net.sgd_step"), "s")
    out["model.forward_batch.s"] = (total("model.forward_batch"), "s")
    out["model.forward_batch.calls"] = (calls("model.forward_batch"), "count")
    out["model.forward_batch.rows"] = (count("model.forward_batch.rows"), "count")
    out["model.backward_batch.s"] = (total("model.backward_batch"), "s")
    out["model.train.self_s"] = (own("model.train"), "s")
    for name in _LOSS_SPANS:
        out[f"losses.{name}.s"] = (total("losses." + name), "s")
    out["losses.sampled_l1_loss.calls"] = (calls("losses.sampled_l1_loss"), "count")
    out["losses.mining.mined_frac"] = (
        ratio(count("losses.mining.mined"), count("losses.mining.rows")),
        "ratio",
    )
    for name in _SETUP_SPANS:
        out[f"data.{name}.s"] = (setup.get("data." + name, (0, 0.0))[1], "s")
    for name in _DATA_SPANS[len(_SETUP_SPANS):]:
        out[f"data.{name}.s"] = (total("data." + name), "s")
    out["data.pool_k_parts.calls"] = (calls("data.pool_k_parts"), "count")
    out["data.build_training_set.self_s"] = (own("data.build_training_set"), "s")
    out["detect.video_detections.self_s"] = (own("detect.video_detections"), "s")
    out["detect.apply_offsets.calls"] = (count("detect.apply_offsets.calls"), "count")
    out["detect.nms.s"] = (total("detect.nms"), "s")
    out["detect.nms.calls"] = (calls("detect.nms"), "count")
    out["detect.nms.in"] = (count("detect.nms.in"), "count")
    out["detect.nms.kept_frac"] = (ratio(count("detect.nms.out"), count("detect.nms.in")), "ratio")
    out["detect.average_precision.s"] = (total("detect.average_precision"), "s")
    out["detect.evaluate_detections.self_s"] = (own("detect.evaluate_detections"), "s")
    for key in ("items_per_s", "step_ms_p50", "aux_s"):
        out[f"trace.overhead.{key}"] = (traced[key] - untraced[key], END_TO_END[key])
    return out


def check_span_coverage(tr: tracer.Tracer, bench: Bench) -> None:
    """Every expected span fires, and none fires on a workload that must not run it."""
    spans = tr.by_name()
    fired = {name: spans.get(name, (0,))[0] > 0 for name in EXPECTED_SPANS}
    fired.update({key: tr.counts[key] > 0 for key in EXPECTED_COUNTS})
    for name, where in {**EXPECTED_SPANS, **EXPECTED_COUNTS}.items():
        must = bench.workload in where
        bench.tally.check(
            fired[name] == must,
            f"{name}: {'no calls' if must else 'unexpected calls'} on {bench.workload}",
        )


def self_time_shares(tr: tracer.Tracer, phase: int) -> list[tuple[str, float]]:
    """Self time per span name as a share of the phase span, largest first."""
    whole = tr.ends[phase] - tr.starts[phase]
    rows = tr.by_name(first=phase + 1)
    shares = [(name, row[2] / whole) for name, row in rows.items() if not name.startswith("bench.")]
    return sorted(shares, key=lambda r: -r[1])


if __name__ == "__main__":
    # python3 bench/workloads.py MANIFEST SEED CHECKPOINT: eval-long's set-up `utal train`
    train_checkpoint(sys.argv[1], int(sys.argv[2]), sys.argv[3])
