#!/usr/bin/env python3
"""Benchmark of the utal pipeline: training, inference and mAP in one process.

    python3 bench/run.py --workload {train,eval-long} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout: the package is imported from ./src and
the NMS oracle from ./tests/_oracles.py (read only).  Inputs are generated
from --seed, so one seed always gives the same inputs.

  train      build_training_set + one train() call of 2 epochs, the calls
             `utal train` makes, repeated on a fresh model for --seconds.
  eval-long  collect_detections + evaluate_detections on 24 long videos
             (T 768, 12 instances each), with a checkpoint that set-up
             trains for 2 epochs on the default benchmark (200 videos,
             T 64-128), repeated for --seconds: NMS, then pooling, dominate.

Times of the timed calls are corrected for contention from other tenants of
the host (bench/contention.py); the raw times are printed as well.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics.  With --trace 1 the workload is measured untraced, then
for half as long with a span around every public layer function, and the last line
carries the per-layer metrics, per timed pass, and the tracing overhead; the spans go to
.bench_work/trace-<workload>-seed<N>.tsv.  The lines before the JSON give
the environment, the metrics under the names each workload uses for them,
the failed output checks and, when traced, the self-time shares.
"""

import os

# one BLAS thread, pinned before numpy loads, as the test suite does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def _blas_threads() -> str:
    """The thread count the loaded OpenBLAS reports, else the pinned variable."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for sym in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return str(fn())
    except OSError:
        pass
    return "env " + os.environ["OPENBLAS_NUM_THREADS"]


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _fmt(value) -> str:
    return "n/a (too few samples)" if value is None else f"{value:.6g}"


def workload_lines(w, workload: str, e2e: dict, timed: dict) -> list[str]:
    """The end-to-end metrics under the names the workload uses for them."""
    if workload == "train":
        named = [
            ("train_props_per_s", e2e["items_per_s"], "1/s"),
            ("build_s", e2e["aux_s"], "s"),
            ("batch_ms_p50", e2e["step_ms_p50"], "ms"),
            ("batch_ms_p95", timed["step_ms_p95"], "ms"),
        ]
    else:
        named = [
            ("eval_videos_per_s", e2e["items_per_s"], "1/s"),
            ("video_ms_p50", e2e["step_ms_p50"], "ms"),
            ("video_ms_p95", timed["step_ms_p95"], "ms"),
            ("ap_s", e2e["aux_s"], "s"),
        ]
    named += [(k, e2e[k], w.END_TO_END[k]) for k in ("map_050", "map_mean", "setup_s", "peak_rss_mb")]
    return [f"  {name:<20} {_fmt(value):>14} {unit}" for name, value, unit in named]


def run(args) -> int:
    import numpy as np

    import tracer
    import workloads as w

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    clocks, patches = tracer.Patches(), tracer.Patches()
    tr = tracer.Tracer()
    layer = None
    try:
        bench = w.Bench(args.workload, args.seed, args.seconds, workdir)
        bench.install_clocks(clocks)
        setup_s = bench.timed_setups()
        bench.warm_up()
        timed = bench.measure()
        e2e = {"setup_s": setup_s, **{k: timed[k] for k in ("items_per_s", "step_ms_p50", "aux_s")}}
        e2e.update(bench.quality())
        if args.workload != "train":
            bench.check_detections()
        if args.trace:
            # the clocks (and the probes they run) go outside the spans
            clocks.restore()
            w.install_tracer(tr, patches)
            bench.install_clocks(clocks)
            # half as long: a traced run must still end within the time a run may take
            bench.seconds = args.seconds / 2
            tr.enabled = True
            tr.span("bench.setup", bench.setup, with_model=False)
            tr.counts.clear()  # the counts are of the timed phase only
            phase = len(tr.names)
            traced = tr.span("bench.measure", bench.measure)
            tr.enabled = False
            w.check_span_coverage(tr, bench)
            layer = w.per_layer_metrics(tr, bench, phase, timed, traced)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        clocks.restore()
        patches.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    tally = bench.tally
    print(f"env {json.dumps(environment(np.__version__), sort_keys=True)}")
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}: "
        f"{timed['passes']} timed passes, {timed['steps']} step samples"
    )
    print("\n".join(workload_lines(w, args.workload, e2e, timed)))
    raw = timed["raw"]
    print(
        f"  as measured, before the contention correction (slowdown {timed['slowdown']:.4g}, "
        f"BLAS share {timed['blas_share']:.3f}): "
        f"items_per_s {raw['items_per_s']:.6g}, step_ms_p50 {raw['step_ms_p50']:.6g}, "
        f"aux_s {raw['aux_s']:.6g}"
    )
    fail_frac = tally.failed / tally.attempted
    print(f"  {'fail_frac':<20} {fail_frac:>14.6g} ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    if layer is None:
        metrics = {k: {"value": float(e2e[k]), "unit": unit} for k, unit in w.END_TO_END.items()}
    else:
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.tsv"
        tr.write(trace_file)
        print(
            f"traced timed phase ({traced['passes']} passes, {len(tr.names)} spans in "
            f"{trace_file.relative_to(ROOT)}):"
        )
        for key in ("items_per_s", "step_ms_p50", "aux_s"):
            overhead = layer["trace.overhead." + key][0]
            print(f"  {key:<20} {traced[key]:>14.6g} (tracing overhead {overhead:+.6g})")
        print("self-time shares of the traced timed phase:")
        for name, share in w.self_time_shares(tr, phase)[:15]:
            print(f"  {name:<36} {100 * share:6.2f}%")
        metrics = {k: {"value": float(v), "unit": unit} for k, (v, unit) in layer.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval-long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "utal" / "__init__.py").is_file() or not (
        ROOT / "tests" / "_oracles.py"
    ).is_file():
        print(f"error: {ROOT} is not a utal checkout (need src/utal and tests/_oracles.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
