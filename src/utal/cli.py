"""Command-line entry point: gen-data, train, eval, verify, curves.

Configuration precedence is defaults < config file < command-line flags; the
seed falls back to the UTAL_SEED environment variable when neither the flag
nor the file sets one.  Every command echoes the fully-merged run config
into its output directory so artifacts are self-describing.

Exit codes: 0 success, 1 usage/config error, 2 verification failure,
3 runtime numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from utal.data import (
    DataConfig,
    ProposalConfig,
    build_training_set,
    generate_synthetic_dataset,
    load_dataset,
)
from utal.detect import (
    DetectConfig,
    collect_detections,
    evaluate_detections,
    ground_truths_by_class,
)
from utal.errors import ConfigError, NumericError, VerificationError
from utal.losses import (
    _expected_l1_foil,
    binary_loss,
    expected_l1,
    export_loss_surfaces,
    kl_l1_loss,
    kl_l1_quadratic,
    l1_loss,
    multiclass_loss,
    sampled_l1_loss,
    select_hard_negatives,
)
from utal.model import (
    TrainConfig,
    collect_offset_stats,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)
from utal.net import DenseLayer, L2NormalizeLayer, ReluLayer
from utal.numerics import Rng, mc_expected_l1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3


# ----------------------------------------------------------------------
# configuration plumbing

@dataclass
class RunConfig:
    seed: int = 7
    data: DataConfig = field(default_factory=DataConfig)
    proposals: ProposalConfig = field(default_factory=ProposalConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    detect: DetectConfig = field(default_factory=DetectConfig)

    def validate(self) -> None:
        self.data.validate()
        self.proposals.validate()
        self.train.validate()
        self.detect.validate()


def _coerce(text: str, current, annotation: str):
    """Parse a config-file value into the type of the current/default value;
    a fixed-size tuple (annotated without `...`) takes as many values as it holds."""
    text = text.strip()
    if isinstance(current, int):
        return int(text)
    if isinstance(current, float):
        return float(text)
    if isinstance(current, tuple):
        parts = [p for p in (s.strip() for s in text.split(",")) if p]
        if "..." not in annotation and len(parts) != len(current):
            raise ValueError(f"expected {len(current)} comma-separated values, got {len(parts)}")
        elem = current[0] if current else 0
        return tuple(int(p) if isinstance(elem, int) else float(p) for p in parts)
    return text


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat `section.key = value` lines; '#' starts a comment."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        entries[key] = value
    return entries


_SECTIONS = ("data", "proposals", "train", "detect")


def apply_config_entries(
    cfg: RunConfig, entries: dict[str, str], source: str = "config file"
) -> RunConfig:
    """Set each `section.key` (or `seed`); a value that does not parse names `source`."""
    for key, value in entries.items():
        if key == "seed":
            section, field_name, annotation = cfg, "seed", "int"
        else:
            if "." not in key:
                raise ConfigError(f"unknown config key {key!r} (expected section.key)")
            section_name, field_name = key.split(".", 1)
            if section_name not in _SECTIONS:
                raise ConfigError(f"unknown config section {section_name!r}")
            section = getattr(cfg, section_name)
            types = {f.name: str(f.type) for f in fields(section)}
            if field_name not in types:
                raise ConfigError(f"unknown config key {key!r}")
            annotation = types[field_name]
        try:
            parsed = _coerce(value, getattr(section, field_name), annotation)
        except ValueError as exc:
            raise ConfigError(f"{source}: bad value for {key}: {value!r} ({exc})") from exc
        setattr(section, field_name, parsed)
    return cfg


def build_run_config(args: argparse.Namespace) -> RunConfig:
    config_file = getattr(args, "config", None)
    entries = parse_config_file(config_file) if config_file else {}
    cfg = apply_config_entries(RunConfig(), entries, config_file or "config file")
    env_seed = os.environ.get("UTAL_SEED")
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    elif env_seed is not None and "seed" not in entries:
        try:
            cfg.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"UTAL_SEED must be an integer, got {env_seed!r}") from exc
    cfg.train.seed = cfg.seed
    if getattr(args, "loss", None):
        cfg.train.loss_mode = args.loss
    if getattr(args, "condition_mode", None):
        cfg.train.condition_mode = args.condition_mode
    cfg.validate()
    return cfg


def _write_config_echo(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run_config.json").write_text(
        json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n"
    )


# ----------------------------------------------------------------------
# commands

def cmd_gen_data(cfg: RunConfig, out_dir: Path) -> Path:
    dataset, manifest_path = generate_synthetic_dataset(cfg.data, cfg.seed, out_dir)
    _write_config_echo(cfg, out_dir)
    counts = [0] * cfg.data.num_classes
    for item in dataset.videos:
        for ann in item.annotations:
            counts[ann.class_id] += 1
    print(f"wrote {manifest_path} ({dataset.num_videos} videos, d_feat={dataset.d_feat})")
    for c, name in enumerate(dataset.class_names):
        print(f"  {name}: {counts[c]} instances")
    return manifest_path


def cmd_train(
    cfg: RunConfig, manifest: Path, out_dir: Path, resume: Path | None = None
) -> Path:
    dataset = load_dataset(manifest)
    if resume is not None:
        model, _ = load_checkpoint(resume)
        if model.d_feat != dataset.d_feat or model.num_classes != dataset.num_classes:
            raise ConfigError(
                f"resume checkpoint {resume} expects d_feat={model.d_feat}, C={model.num_classes}; "
                f"dataset has d_feat={dataset.d_feat}, C={dataset.num_classes}"
            )
        fit = (cfg.train.k, cfg.train.hidden, cfg.train.loss_mode != "l1")
        if (model.k, model.hidden, model.uncertainty) != fit:
            raise ConfigError(
                f"resume checkpoint {resume} has k={model.k}, hidden={model.hidden}, "
                f"uncertainty={model.uncertainty}; train.k={cfg.train.k}, "
                f"train.hidden={cfg.train.hidden} with loss {cfg.train.loss_mode} do not fit it"
            )
    else:
        model = init_model(cfg.train, dataset.d_feat, dataset.num_classes, cfg.seed)
    training_set = build_training_set(dataset, cfg.proposals, cfg.train.k)
    model, curve = train(model, dataset, cfg.train, cfg.proposals, training_set)

    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = save_checkpoint(model, out_dir / "checkpoint.utal", cfg.train)
    with open(out_dir / "loss_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "loss_bin", "loss_cls", "loss_reg", "mean_sigma_pos", "mean_sigma_hardneg"]
        )
        for row in curve:
            sigmas = (row.mean_sigma_pos, row.mean_sigma_hardneg)
            writer.writerow(
                [row.epoch, repr(row.loss_bin), repr(row.loss_cls), repr(row.loss_reg)]
                + ["" if s is None else repr(s) for s in sigmas]
            )
    d, sigma = collect_offset_stats(model, training_set)
    if sigma is None:
        header, columns = ["d_start", "d_end"], d
    else:
        header = ["d_start", "sigma_start", "d_end", "sigma_end"]
        columns = np.stack((d[:, 0], sigma[:, 0], d[:, 1], sigma[:, 1]), axis=1)
    with open(out_dir / "offset_stats.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(columns.tolist())  # csv writes floats with repr
    _write_config_echo(cfg, out_dir)
    print(f"trained {cfg.train.epochs} epochs ({len(training_set)} labeled proposals)")
    print(f"wrote {ckpt_path}")
    return ckpt_path


def _format_map_row(report_dict: dict) -> str:
    by_tiou = report_dict["map_by_tiou"]
    pairs = sorted((float(t), v) for t, v in by_tiou.items())
    header = " ".join(f"{t:g}" for t, _ in pairs)
    row = " ".join(f"{100.0 * v:.1f}" for _, v in pairs)
    return f"mAP@tIoU {header} (%): {row}"


def cmd_eval(cfg: RunConfig, checkpoint: Path, manifest: Path, out_dir: Path) -> dict:
    model, _ = load_checkpoint(checkpoint)
    dataset = load_dataset(manifest)
    if model.d_feat != dataset.d_feat or model.num_classes != dataset.num_classes:
        raise ConfigError(
            f"checkpoint expects d_feat={model.d_feat}, C={model.num_classes}; "
            f"dataset has d_feat={dataset.d_feat}, C={dataset.num_classes}"
        )
    cfg.detect.validate()
    cfg.proposals.validate()
    dets = collect_detections(model, dataset, cfg.detect, cfg.proposals)
    report = evaluate_detections(
        dets, ground_truths_by_class(dataset), cfg.detect.tiou_thresholds
    )
    if report.no_detections:
        print("warning: no detections above the score floor", file=sys.stderr)
    report.config = asdict(cfg)
    report_dict = report.to_dict()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report_dict, indent=2, sort_keys=True) + "\n"
    )
    with open(out_dir / "detections.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "class_id", "start", "end", "score"])
        for d in dets:
            writer.writerow([d.video_id, d.class_id, repr(d.start), repr(d.end), repr(d.score)])
    _write_config_echo(cfg, out_dir)
    print(_format_map_row(report_dict))
    return report_dict


def cmd_curves(out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    d_grid = [round(-3.0 + 0.05 * i, 10) for i in range(121)]
    s_grid = [round(0.05 + 0.05 * i, 10) for i in range(60)]
    path = out_dir / "loss_surfaces.csv"
    rows = export_loss_surfaces(path, d_grid, s_grid)
    print(f"wrote {path} ({rows} rows: 3 losses x {len(d_grid)} d x {len(s_grid)} sigma)")
    return path


# ----------------------------------------------------------------------
# verification suites

_MC_GRID_D = (-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0)
_MC_GRID_SIGMA = (0.1, 0.5, 1.0, 2.0)


def verify_expectation(n: int = 1_000_000, seed: int = 20240) -> list[str]:
    """Monte Carlo vs closed-form expectation on the (d, sigma) grid.

    Also requires the deliberately wrong closed form (halved coefficient,
    doubled exponent decay) to fail by more than 10x tolerance somewhere,
    proving the check has teeth.
    """
    failures: list[str] = []
    foil_rejected = False
    rng = Rng(seed)
    for d in _MC_GRID_D:
        for sigma in _MC_GRID_SIGMA:
            mean, stderr = mc_expected_l1(d, sigma, n, rng.split("mc", repr(d), repr(sigma)))
            tol = max(1e-3, 4.0 * stderr)
            value = expected_l1(d, sigma)[0]
            if abs(value - mean) > tol:
                failures.append(
                    f"expectation d={d} sigma={sigma}: analytic {value:.6f} vs MC "
                    f"{mean:.6f} +- {stderr:.2e} (tol {tol:.2e})"
                )
            if abs(_expected_l1_foil(d, sigma) - mean) > 10.0 * tol:
                foil_rejected = True
    if not foil_rejected:
        failures.append("foil closed form was not rejected anywhere on the grid")
    return failures


def _rel_err(analytic: float, numeric: float) -> float:
    denom = max(abs(analytic), abs(numeric), 1e-8)
    return abs(analytic - numeric) / denom


def _fd(fn, x0: np.ndarray, index: tuple, h: float = 1e-6) -> tuple[float, float]:
    """Central difference, and the rounding error it can carry: eps * max|f(x +- h)| / h."""
    x = x0.copy()
    x[index] = x0[index] + h
    up = fn(x)
    x[index] = x0[index] - h
    down = fn(x)
    return (up - down) / (2.0 * h), np.finfo(float).eps * max(abs(up), abs(down)) / h


def _fd1(fn, x: float) -> tuple[float, float]:
    """`_fd` of a function of one float."""
    return _fd(lambda v: fn(v[0]), np.array([x]), (0,))


def verify_gradients(points: int = 100, seed: int = 977, tol: float = 1e-4) -> list[str]:
    """Spot-check every loss and layer backward against central differences."""
    failures: list[str] = []
    rng = Rng(seed)

    def check(name: str, analytic: float, fd: tuple[float, float], bound: float = tol) -> None:
        numeric, rounding = fd
        if abs(analytic - numeric) <= rounding:
            return  # the difference quotient cannot resolve a smaller gap
        if _rel_err(analytic, numeric) > bound:
            failures.append(
                f"{name}: analytic {analytic:.10g} vs finite-diff {numeric:.10g}"
            )

    for i in range(points):
        r = rng.split("kl", i)
        mu = 2.0 * r.uniform() - 1.0
        alpha = 2.0 * r.uniform() - 1.0
        t = 4.0 * r.uniform() - 2.0
        mode = "he" if r.uniform() < 0.5 else "paper"
        if abs(abs(t - mu) - 1.0) < 1e-2 or abs(t - mu) < 1e-2:
            continue  # non-smooth loci
        _, d_mu, d_alpha = kl_l1_loss(mu, alpha, t, mode)
        fd_mu = _fd1(lambda v: kl_l1_loss(v, alpha, t, mode)[0], mu)
        fd_alpha = _fd1(lambda v: kl_l1_loss(mu, v, t, mode)[0], alpha)
        check(f"kl_l1[{mode}] d_mu @{i}", d_mu, fd_mu)
        check(f"kl_l1[{mode}] d_alpha @{i}", d_alpha, fd_alpha)

    for i in range(points):
        r = rng.split("expected", i)
        d = 6.0 * r.uniform() - 3.0
        sigma = 0.1 + 2.0 * r.uniform()
        _, d_d, d_sigma = expected_l1(d, sigma)
        fd_d = _fd1(lambda v: expected_l1(v, sigma)[0], d)
        fd_sigma = _fd1(lambda v: expected_l1(d, v)[0], sigma)
        check(f"expected_l1 d_d @{i}", d_d, fd_d, 1e-5)
        check(f"expected_l1 d_sigma @{i}", d_sigma, fd_sigma, 1e-5)

    for i in range(points):
        r = rng.split("sampled", i)
        mu = 2.0 * r.uniform() - 1.0
        alpha = 2.0 * r.uniform() - 1.0
        t = 4.0 * r.uniform() - 2.0
        # each call draws from its own copy of r, so every call sees the same eps
        _, d_mu, d_alpha, eps = sampled_l1_loss(mu, alpha, t, copy.copy(r))
        resid = (t - mu) - math.exp(0.5 * alpha) * eps
        if abs(resid) < 1e-2:
            continue
        fd_mu = _fd1(lambda v: sampled_l1_loss(v, alpha, t, copy.copy(r))[0], mu)
        fd_alpha = _fd1(lambda v: sampled_l1_loss(mu, v, t, copy.copy(r))[0], alpha)
        check(f"sampled_l1 d_mu @{i}", d_mu, fd_mu)
        check(f"sampled_l1 d_alpha @{i}", d_alpha, fd_alpha)

    r = rng.split("batch-losses")
    batch = 24
    scores_rng = r.split("scores")
    for i in range(max(1, points // 10)):
        scores = 0.02 + 0.96 * scores_rng.uniforms(batch)
        labels = (scores_rng.uniforms(batch) < 0.3).astype(int)
        mining = select_hard_negatives(scores, labels, 1.0 / 3.0)
        _, d_scores = binary_loss(scores, labels, mining)
        for j in (0, batch // 2, batch - 1):
            fd = _fd(lambda v: binary_loss(v, labels, mining)[0], scores, (j,))
            check(f"binary_loss d_scores[{j}] @{i}", d_scores[j], fd)

        logits = 2.0 * scores_rng.uniforms(batch * 5).reshape(batch, 5) - 1.0
        classes = np.array([int(scores_rng.randint(5)) for _ in range(batch)])
        pos = np.flatnonzero(labels == 1)
        _, d_logits = multiclass_loss(logits, classes, pos)
        if pos.size:
            j = int(pos[0])
            for c in range(5):
                fd = _fd(lambda v: multiclass_loss(v, classes, pos)[0], logits, (j, c))
                check(f"multiclass d_logits[{j},{c}] @{i}", d_logits[j, c], fd)

        y_s = 2.0 * scores_rng.uniforms(batch) - 1.0
        y_e = 2.0 * scores_rng.uniforms(batch) - 1.0
        t_s = y_s + np.where(scores_rng.uniforms(batch) < 0.5, 0.4, -0.3)
        t_e = y_e + np.where(scores_rng.uniforms(batch) < 0.5, -0.5, 0.2)
        _, d_ys, d_ye = l1_loss(y_s, y_e, t_s, t_e, pos)
        if pos.size:
            j = int(pos[-1])
            fd = _fd(lambda v: l1_loss(v, y_e, t_s, t_e, pos)[0], y_s, (j,))
            check(f"l1 d_ys[{j}] @{i}", d_ys[j], fd)

    layer_rng = rng.split("layers")
    for i in range(max(1, points // 20)):
        dense = DenseLayer(
            layer_rng.uniforms(12).reshape(3, 4) - 0.5, layer_rng.uniforms(3) - 0.5
        )
        x = layer_rng.uniforms(4) - 0.5
        dy = layer_rng.uniforms(3) - 0.5
        dense.forward(x)
        dx = dense.backward(dy)

        def loss_at(weights: np.ndarray) -> float:
            probe = DenseLayer(weights, dense.biases)
            return float(probe.forward(x) @ dy)

        for idx in ((0, 0), (1, 2), (2, 3)):
            check(f"dense dW{idx} @{i}", dense.grad_w[idx], _fd(loss_at, dense.weights, idx))
        for j in range(4):
            fd = _fd(lambda v: float(DenseLayer(dense.weights, dense.biases).forward(v) @ dy), x, (j,))
            check(f"dense dx[{j}] @{i}", dx[j], fd)

        norm = L2NormalizeLayer()
        xn = layer_rng.uniforms(5) + 0.2
        dyn = layer_rng.uniforms(5) - 0.5
        norm.forward(xn)
        dxn = norm.backward(dyn)
        for j in range(5):
            fd = _fd(lambda v: float(L2NormalizeLayer().forward(v) @ dyn), xn, (j,))
            check(f"l2norm dx[{j}] @{i}", dxn[j], fd)

        relu = ReluLayer()
        xr = layer_rng.uniforms(6) - 0.5
        dyr = layer_rng.uniforms(6) - 0.5
        if np.any(np.abs(xr) < 1e-2):
            continue
        relu.forward(xr)
        dxr = relu.backward(dyr)
        for j in range(6):
            fd = _fd(lambda v: float(ReluLayer().forward(v) @ dyr), xr, (j,))
            check(f"relu dx[{j}] @{i}", dxr[j], fd)

    return failures


def verify_kl_minimizer(tolerance: float = 0.01) -> list[str]:
    """The quadratic branch, at fixed |d| > 1, is minimized at sigma = |d|."""
    failures = []
    for d in (1.5, 2.0, 3.0):
        lo, hi = math.log(0.05), math.log(10.0)
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if kl_l1_quadratic(d, math.exp(m1)) < kl_l1_quadratic(d, math.exp(m2)):
                hi = m2
            else:
                lo = m1
        sigma_star = math.exp(0.5 * (lo + hi))
        if abs(sigma_star - d) / d > tolerance:
            failures.append(f"kl quadratic argmin at d={d}: sigma*={sigma_star:.4f}")
    return failures


def verify_monotonicity() -> list[str]:
    """expected_l1 is strictly increasing in sigma, >= |d|, and -> |d| as sigma -> 0.

    Strictness is only required where the analytic increment is resolvable in
    float64; deep in the tails (|d| >> sigma) the Gaussian term underflows
    and consecutive grid values legitimately tie.
    """
    failures = []
    d_grid = [-3.0, -2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0, 3.0]
    s_grid = [0.05 * (i + 1) for i in range(60)]
    for d in d_grid:
        prev = -math.inf
        prev_s = None
        for s in s_grid:
            value, _, d_sigma = expected_l1(d, s)
            resolvable = (
                prev_s is not None
                and d_sigma * (s - prev_s) > 64.0 * np.finfo(float).eps * max(1.0, value)
            )
            if value < prev or (resolvable and value <= prev):
                failures.append(f"expected_l1 not increasing at d={d}, sigma={s}")
            if value < abs(d):
                failures.append(f"expected_l1 below |d| at d={d}, sigma={s}")
            prev, prev_s = value, s
        limit_gap = expected_l1(d, 1e-6)[0] - abs(d)
        if not 0.0 <= limit_gap <= 1e-5:
            failures.append(f"expected_l1 sigma->0 limit violated at d={d}: gap {limit_gap}")
    return failures


_VERIFY_SUITES = {
    "expectation": verify_expectation,
    "gradients": verify_gradients,
    "kl-minimizer": verify_kl_minimizer,
    "monotonicity": verify_monotonicity,
}


def cmd_verify(selector: str, out_dir: Path | None) -> None:
    names = list(_VERIFY_SUITES) if selector == "all" else [selector]
    all_failures: list[str] = []
    for name in names:
        failures = _VERIFY_SUITES[name]()
        status = "PASS" if not failures else "FAIL"
        print(f"[{status}] {name}")
        for line in failures:
            print(f"    {line}")
        all_failures.extend(failures)
    cmd_curves(out_dir if out_dir is not None else Path("utal-verify"))
    if all_failures:
        raise VerificationError(f"{len(all_failures)} verification failure(s)")


# ----------------------------------------------------------------------
# argument parsing / entry point

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors -> exit code 1
        raise ConfigError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--loss", choices=["l1", "kl_l1", "sampled_l1", "expected_l1"], default=None)
    parser.add_argument("--condition-mode", dest="condition_mode", choices=["he", "paper"], default=None)
    parser.add_argument("--out", type=str, default=None, help="output directory")


def make_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="utal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic benchmark")
    _add_common(p)

    p = sub.add_parser("train", help="train a model on a generated manifest")
    _add_common(p)
    p.add_argument("--manifest", type=str, required=True)
    p.add_argument("--resume", type=str, default=None, help="start from this checkpoint")

    p = sub.add_parser("eval", help="evaluate a checkpoint (mAP@tIoU)")
    _add_common(p)
    p.add_argument("--manifest", type=str, required=True)
    p.add_argument("--checkpoint", type=str, required=True)

    p = sub.add_parser("verify", help="run the numeric verification suites")
    _add_common(p)
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=["all", *_VERIFY_SUITES.keys()],
    )

    p = sub.add_parser("curves", help="export the regression loss surfaces as CSV")
    _add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        if args.command in ("gen-data", "train", "eval", "curves") and not args.out:
            raise ConfigError(f"{args.command} requires --out DIR")
        cfg = build_run_config(args)
        if args.command == "gen-data":
            cmd_gen_data(cfg, Path(args.out))
        elif args.command == "train":
            resume = Path(args.resume) if args.resume else None
            cmd_train(cfg, Path(args.manifest), Path(args.out), resume)
        elif args.command == "eval":
            cmd_eval(cfg, Path(args.checkpoint), Path(args.manifest), Path(args.out))
        elif args.command == "verify":
            cmd_verify(args.suite, Path(args.out) if args.out else None)
        elif args.command == "curves":
            cmd_curves(Path(args.out))
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
