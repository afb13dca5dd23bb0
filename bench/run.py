"""Benchmark entry point for slimrnn.

    python3 bench/run.py --workload train-ref --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports slimrnn from ``src/`` there and
fails (exit 2, no result) if that is missing. Workloads are ``train-ref``,
``sweep-variants`` and ``eval-checkpoint`` (see ``workloads.py`` and
``METRICS.md``). With ``--trace 0`` the last line of standard output is a
JSON object holding every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` it holds every per-layer metric, taken from spans recorded
around the library's layers, and the spans are written to
``.bench_out/trace-<workload>-seed<seed>.jsonl``. The lines before it
record the environment and the run's raw timings.

Scratch files go to ``.bench_work/`` and are removed at exit. The benchmark
runs in this one process and starts no threads of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import spans  # noqa: E402  (after the bytecode switch)
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description="slimrnn benchmark")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_slimrnn():
    """Import the checkout's own slimrnn, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "slimrnn", "__init__.py")):
        sys.exit(f"error: no slimrnn sources under {src}")
    sys.path.insert(0, src)
    import slimrnn
    if os.path.dirname(os.path.dirname(os.path.abspath(slimrnn.__file__))) != src:
        sys.exit(f"error: imported slimrnn from {slimrnn.__file__}, not {src}")
    return slimrnn


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = [line.split()[-1] for line in maps if "openblas" in line.lower()]
    if not paths:
        return None
    lib = ctypes.CDLL(paths[0])
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    s = import_slimrnn()
    import numpy as np

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work_root = os.path.join(ROOT, ".bench_work")
    work_dir = os.path.join(work_root, run_id)
    os.makedirs(work_dir)
    ctx = workloads.Context(
        s=s, seed=args.seed, seconds=args.seconds, work_dir=work_dir,
        ledger=workloads.Ledger(s.SlimRnnError),
        tracer=spans.Tracer(run_id) if args.trace else None)
    try:
        end_to_end, layer, details = workloads.run(ctx, args.workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(work_root)
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if ctx.tracer:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        ctx.tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"))

    values = layer if args.trace else end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in values]
    ledger = ctx.ledger
    print(json.dumps({"env": environment(np)}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "details": details,
                      "failures": ledger.failures, "missing_metrics": missing}))
    print(json.dumps({
        "correct": ledger.failed == 0 and not missing,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
