"""Benchmark of hypoexp: one workload, one seed, one run.

    python3 bench/run.py --workload distribution --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same run is traced and the object
holds the per-layer metrics instead.  See bench/README.md.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

# One thread of load: numpy's BLAS would otherwise start a pool for the
# matrix products of the array evaluation.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

WORKLOADS = ("distribution", "characterize", "oracles", "cli")
ROOT = Path.cwd()
OUT_DIR = Path(__file__).resolve().parent / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "hypoexp" / "__init__.py").is_file():
        print(f"error: no hypoexp sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = importlib.import_module(f"wl_{args.workload}")

    import_start = time.perf_counter()
    import hypoexp
    import hypoexp.cli  # noqa: F401  (the characterize and cli workloads drive it)
    import_s = time.perf_counter() - import_start
    if Path(hypoexp.__file__).resolve().parent != (src / "hypoexp").resolve():
        print(f"error: imported hypoexp from {hypoexp.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    build_start = time.perf_counter()
    state = workload.setup(hypoexp, args.seed)
    setup_end = time.perf_counter()
    setup_cpu = time.process_time()  # CPU seconds since the process started

    import refs  # the benchmark's own references stay out of setup_s
    from harness import Recorder

    workload.references(state, refs)
    # Inputs and references live for the whole run: keep them out of the
    # collector's scans so that they do not slow the timed operations.
    gc.collect()
    gc.freeze()
    rec = Recorder(tracer)
    start = time.perf_counter()
    while True:
        workload.run_round(state, rec)
        rec.end_round()
        if time.perf_counter() - start >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    if args.trace:
        import layers

        extras = {
            "setup.import_s": import_s,
            "setup.build_s": setup_end - build_start,
        }
        extras.update(workload.rates_metrics(state, rec))
        if hasattr(workload, "trace_extras"):
            extras.update(workload.trace_extras(state))
        metrics = layers.per_layer_metrics(tracer, rec, extras)
        tracer.write(OUT_DIR / f"trace-{args.workload}", {
            "workload": args.workload, "seed": args.seed, "rounds": rec.rounds,
            "attempted": rec.attempted, "failed": rec.failed,
            "traced_timing": rec.timing_metrics(),
        })
    else:
        if hasattr(workload, "peak_rss_kb"):
            peak_kb = workload.peak_rss_kb()
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": setup_cpu,
            "peak_rss_mb": peak_kb / 1024.0,
            **rec.timing_metrics(),
            "accuracy_digits": min(rec.panel_digits),
        }
        units = {"setup_s": "s", "peak_rss_mb": "MB", "round_cpu_s": "s", "call_cpu_geomean_ms": "ms",
                 "accuracy_digits": "digits"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": rec.correct, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
