"""Command-line entry point: gen-data, train, eval, verify, curves.

gen-data, train and eval take a run config (defaults < config file <
command-line flags; --seed is gen-data's and train's, --loss train's), check
every setting in it before any work, and record the sections each one reads
in its output directory; eval records the checkpoint's own train config.
A setting too large to allocate ends in "error: out of memory: Unable to
allocate ..." naming the array's shape.  verify and curves take --out only.

Exit codes: 0 success, 1 usage/config/I-O error, 2 verification failure,
3 runtime numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, astuple, dataclass, field, fields
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
from utal.losses import loss_surfaces
from utal.model import (
    LOSS_MODES,
    TrainConfig,
    collect_offset_stats,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)
from utal.verify import SUITES

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3
CURVES_D_GRID = [round(-3.0 + 0.05 * i, 10) for i in range(121)]  # the grid `utal curves` writes
CURVES_SIGMA_GRID = [round(0.05 + 0.05 * i, 10) for i in range(60)]


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
    """Set each `section.key` (or `seed`); every error names `source`."""
    for key, value in entries.items():
        if key == "seed":
            section, field_name, annotation = cfg, "seed", "int"
        elif key == "train.seed":  # build_run_config copies `seed` there
            raise ConfigError(f"{source}: train.seed is not a config key; set seed instead")
        else:
            if "." not in key:
                raise ConfigError(f"{source}: unknown config key {key!r} (expected section.key)")
            section_name, field_name = key.split(".", 1)
            if section_name not in _SECTIONS:
                raise ConfigError(f"{source}: unknown config section {section_name!r}")
            section = getattr(cfg, section_name)
            types = {f.name: str(f.type) for f in fields(section)}
            if field_name not in types:
                raise ConfigError(f"{source}: unknown config key {key!r}")
            annotation = types[field_name]
        try:
            parsed = _coerce(value, getattr(section, field_name), annotation)
        except ValueError as exc:
            raise ConfigError(f"{source}: bad value for {key}: {value!r} ({exc})") from exc
        setattr(section, field_name, parsed)
    return cfg


def build_run_config(args: argparse.Namespace) -> RunConfig:
    entries = parse_config_file(args.config) if args.config else {}
    cfg = apply_config_entries(RunConfig(), entries, args.config or "config file")
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    cfg.train.seed = cfg.seed
    if getattr(args, "loss", None):
        cfg.train.loss_mode = args.loss
    try:
        cfg.validate()
    except ConfigError as exc:  # defaults and flags are in range, so the config file set it
        raise ConfigError(f"{args.config}: {exc}") from exc
    return cfg


def _write_run_config(cfg: RunConfig, out_dir: Path, *sections: str) -> dict:
    """Write the run config's `sections`, those the command reads, to run_config.json."""
    record = {name: value for name, value in asdict(cfg).items() if name in sections}
    (out_dir / "run_config.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:  # csv writes floats with repr, None as ""
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ----------------------------------------------------------------------
# commands

def cmd_gen_data(cfg: RunConfig, out_dir: Path) -> Path:
    dataset, manifest_path = generate_synthetic_dataset(cfg.data, cfg.seed, out_dir)
    _write_run_config(cfg, out_dir, "seed", "data")
    class_ids = np.concatenate([item.annotations[:, 0] for item in dataset.videos])
    counts = np.bincount(class_ids.astype(np.intp), minlength=len(dataset.class_names))
    print(f"wrote {manifest_path} ({dataset.num_videos} videos, d_feat={dataset.d_feat})")
    for c, name in enumerate(dataset.class_names):
        print(f"  {name}: {counts[c]} instances")
    return manifest_path


def cmd_train(cfg: RunConfig, manifest: Path, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before any work
    dataset = load_dataset(manifest)
    model = init_model(cfg.train, dataset.d_feat, dataset.num_classes, cfg.seed)
    training_set = build_training_set(dataset, cfg.proposals, cfg.train.k)
    model, curve = train(model, dataset, cfg.train, cfg.proposals, training_set)
    ckpt_path = save_checkpoint(model, out_dir / "checkpoint.utal", cfg.train)
    header = ["epoch", "loss_bin", "loss_cls", "loss_reg", "mean_sigma_pos", "mean_sigma_hardneg"]
    _write_csv(out_dir / "loss_curve.csv", header, map(astuple, curve))
    d, sigma = collect_offset_stats(model, training_set)
    if sigma is None:
        header, columns = ["d_start", "d_end"], d
    else:
        header = ["d_start", "sigma_start", "d_end", "sigma_end"]
        columns = np.stack((d[:, 0], sigma[:, 0], d[:, 1], sigma[:, 1]), axis=1)
    _write_csv(out_dir / "offset_stats.csv", header, columns.tolist())
    _write_run_config(cfg, out_dir, "seed", "proposals", "train")
    print(f"trained {cfg.train.epochs} epochs ({len(training_set)} labeled proposals)")
    print(f"wrote {ckpt_path}")
    return ckpt_path


def _check_fits(model, checkpoint: Path, dataset, manifest: Path) -> None:
    """A checkpoint must read the dataset's feature width and classes."""
    if (model.d_feat, model.num_classes) != (dataset.d_feat, dataset.num_classes):
        raise ConfigError(
            f"checkpoint {checkpoint} expects d_feat={model.d_feat}, C={model.num_classes}; "
            f"manifest {manifest} has d_feat={dataset.d_feat}, C={dataset.num_classes}"
        )


def _format_map_row(map_by_tiou: dict[float, float]) -> str:
    thresholds = sorted(map_by_tiou)
    header = " ".join(f"{t:g}" for t in thresholds)
    row = " ".join(f"{100.0 * map_by_tiou[t]:.1f}" for t in thresholds)
    return f"mAP@tIoU {header} (%): {row}"


def cmd_eval(cfg: RunConfig, checkpoint: Path, manifest: Path, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before any work
    model, cfg.train = load_checkpoint(checkpoint)  # the settings the model was trained with
    dataset = load_dataset(manifest)
    _check_fits(model, checkpoint, dataset, manifest)
    dets = collect_detections(model, dataset, cfg.detect, cfg.proposals)
    report = evaluate_detections(
        dets, ground_truths_by_class(dataset), cfg.detect.tiou_thresholds
    )
    if report.num_detections == 0:
        print("warning: no detections above the score floor", file=sys.stderr)
    record = _write_run_config(cfg, out_dir, "proposals", "detect", "train")
    report_json = json.dumps({**report.to_dict(), "config": record}, indent=2, sort_keys=True)
    (out_dir / "report.json").write_text(report_json + "\n")
    _write_csv(out_dir / "detections.csv", ["video_id", "class_id", "start", "end", "score"],
               ((d.video_id, d.class_id, d.start, d.end, d.score) for d in dets))
    print(_format_map_row(report.map_by_tiou))


def cmd_curves(out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "loss_surfaces.csv"
    rows = loss_surfaces(CURVES_D_GRID, CURVES_SIGMA_GRID)
    _write_csv(path, ["loss_name", "d", "sigma", "value"], rows)
    print(f"wrote {path} ({len(rows)} rows: 3 losses x {len(CURVES_D_GRID)} d"
          f" x {len(CURVES_SIGMA_GRID)} sigma)")
    return path


def cmd_verify(selector: str, out_dir: Path) -> None:
    names = list(SUITES) if selector == "all" else [selector]
    all_failures: list[str] = []
    for name in names:
        failures = SUITES[name]()
        status = "PASS" if not failures else "FAIL"
        print(f"[{status}] {name}")
        for line in failures:
            print(f"    {line}")
        all_failures.extend(failures)
    cmd_curves(out_dir)
    if all_failures:
        raise VerificationError(f"{len(all_failures)} verification failure(s)")


# ----------------------------------------------------------------------
# argument parsing / entry point

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors -> exit code 1
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="utal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic benchmark")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train a model on a generated manifest")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--loss", choices=LOSS_MODES, default=None)
    p.add_argument("--manifest", type=Path, required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint (mAP@tIoU)")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)

    p = sub.add_parser("verify", help="run the numeric verification suites")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=["all", *SUITES.keys()],
    )

    sub.add_parser("curves", help="export the regression loss surfaces as CSV")
    for name, p in sub.choices.items():  # verify alone may omit --out
        if name not in ("verify", "curves"):  # they read no run config
            p.add_argument("--config", type=str, default=None, help="key = value config file")
        p.add_argument("--out", type=Path, required=name != "verify", default="utal-verify",
                       help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        cfg = build_run_config(args) if "config" in args else None
        if args.command == "gen-data":
            cmd_gen_data(cfg, args.out)
        elif args.command == "train":
            cmd_train(cfg, args.manifest, args.out)
        elif args.command == "eval":
            cmd_eval(cfg, args.checkpoint, args.manifest, args.out)
        elif args.command == "verify":
            cmd_verify(args.suite, args.out)
        elif args.command == "curves":
            cmd_curves(args.out)
        return EXIT_OK
    except (ConfigError, OSError) as exc:  # OSError: say, an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a setting too large to allocate, say train.hidden = 10**12
        print(f"error: out of memory: {exc}", file=sys.stderr)
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
