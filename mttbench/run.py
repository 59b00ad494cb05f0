"""Benchmark command line.

    python3 mttbench/run.py --workload big30|presets|ga --seed N \
        --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give each scene's make-up and the SHA-256 of its outputs.
mttsort is imported from the `src` directory beside this one and nowhere
else, so the command fails where that source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("big30", "presets", "ga")
# One client and no pools: BLAS runs single-threaded, which also keeps out
# the occasional 20x slower small solves seen under default threading.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="mttbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    start = perf_counter()
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import mttsort
    except ImportError as exc:
        print(f"error: cannot import mttsort from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(mttsort.__file__).resolve().parent != (src / "mttsort").resolve():
        print(f"error: mttsort was imported from {mttsort.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from mttbench import bench
    import_s = perf_counter() - start

    work_dir = ROOT / "mttbench" / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = bench.run_benchmark(args.workload, args.seed, args.seconds,
                                     bool(args.trace), str(work_dir), import_s=import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
