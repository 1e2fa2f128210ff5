"""Run the seed-7 pipeline in this tree and in another one, and compare every file it writes.

Usage: python3 tools/artifacts.py --against DIR

In each tree, child processes `python3 -m utal.cli` with PYTHONPATH=<tree>/src
run `gen-data --seed 7`, then `train` (train.epochs = 2) and `eval` for every
loss mode, in a temporary directory that is removed afterwards; neither tree
is written to.  Each file is printed as identical, differing, or present in
one tree only; a differing JSON file also names its differing keys, as
dotted paths.  The exit code is 0 only when every file is identical.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
LOSS_MODES = ("l1", "kl_l1", "sampled_l1", "expected_l1")


def run_pipeline(tree: Path, out: Path) -> None:
    """The pipeline's commands, in order, with `out` as their working directory;
    the config file ../train.cfg sits beside it, outside the comparison."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               # the bytes depend on the BLAS thread count; older trees do not pin it
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    commands = [["gen-data", "--seed", "7", "--out", "data"]]
    for mode in LOSS_MODES:
        commands += [
            ["train", "--manifest", "data/manifest.json", "--loss", mode,
             "--config", "../train.cfg", "--out", f"train_{mode}"],
            ["eval", "--manifest", "data/manifest.json",
             "--checkpoint", f"train_{mode}/checkpoint.utal", "--out", f"eval_{mode}"],
        ]
    for args in commands:
        done = subprocess.run([sys.executable, "-m", "utal.cli", *args], cwd=out, env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{tree}: utal {' '.join(args)} exited {done.returncode}\n{done.stderr}")


def json_differences(a, b, path: str = "") -> list[str]:
    """Dotted paths of the keys whose values differ; a list or a scalar is one value."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [path or "(top level)"]
    found = []
    for key in sorted(a.keys() | b.keys()):
        sub = f"{path}.{key}" if path else key
        found += json_differences(a.get(key), b.get(key), sub) if key in a and key in b else [sub]
    return found


def compare(this: Path, other: Path) -> bool:
    """Print one line per file; True when every file is identical."""
    files = {p.relative_to(root) for root in (this, other) for p in root.rglob("*") if p.is_file()}
    counts = {"identical": 0, "differing": 0, "in one tree only": 0}
    for rel in sorted(files, key=str):
        a, b = this / rel, other / rel
        if not (a.is_file() and b.is_file()):
            counts["in one tree only"] += 1
            print(f"only in {'this tree' if a.is_file() else '--against'}  {rel}")
            continue
        data_a, data_b = a.read_bytes(), b.read_bytes()
        if data_a == data_b:
            counts["identical"] += 1
            print(f"identical  {rel}")
            continue
        counts["differing"] += 1
        keys = None
        if rel.suffix == ".json":
            try:
                keys = json_differences(json.loads(data_a), json.loads(data_b))
            except ValueError:
                pass
        # not JSON, or the same JSON written with other bytes: no keys to name
        print(f"differing  {rel}" + (f": keys {', '.join(keys)}" if keys else ""))
    print(f"{len(files)} files: " + ", ".join(f"{n} {what}" for what, n in counts.items()))
    return counts["identical"] == len(files)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True, help="the other tree's root")
    args = parser.parse_args()
    other = args.against.resolve()
    if not (other / "src" / "utal").is_dir():
        parser.error(f"{other} holds no src/utal")
    with tempfile.TemporaryDirectory(prefix="utal-artifacts-") as tmp:
        (Path(tmp) / "train.cfg").write_text("train.epochs = 2\n")
        run_pipeline(HERE, Path(tmp) / "this")
        run_pipeline(other, Path(tmp) / "against")
        return 0 if compare(Path(tmp) / "this", Path(tmp) / "against") else 1


if __name__ == "__main__":
    sys.exit(main())
