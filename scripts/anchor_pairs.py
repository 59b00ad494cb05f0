#!/usr/bin/env python3
"""Benchmark runs of an anchor tree against this working tree, in pairs.

The anchor is a commit, unpacked with `git archive` into a temporary
directory, or a directory holding a tree. Pair i runs

    python3 mttbench/run.py --workload W --seed S+i --seconds T --trace 0

in the anchor tree and in this one, the anchor first in even pairs. The
script exits 1 unless both sides print the same `sha256` lines at every
seed. For each end-to-end metric of `BENCHMARK.json` it prints the
median of each side, the ratio of the medians (this tree over the
anchor) and the pairs this tree won in the metric's better direction;
ties count for neither side.

    python scripts/anchor_pairs.py --anchor 1413227 --workload presets --pairs 3

Run from the repository root. `--runs FILE` appends each run as one JSON
line: the side, the seed, its `sha256` lines and its result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unpack(commit: str, into: str) -> Path:
    """The tree of `commit` in this repository, unpacked under `into`."""
    archive = os.path.join(into, "anchor.tar")
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", archive,
                           commit], capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: cannot unpack {commit}: {done.stderr.strip()}")
    tree = Path(into) / "tree"
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    return tree


def bench(tree: Path, workload: str, seed: int, seconds: float):
    """The `sha256` lines and the result of one benchmark run in `tree`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(tree / "mttbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: the run in {tree} at seed {seed} exited "
                 f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return [line for line in lines if line.startswith("sha256 ")], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--anchor", required=True, help="a commit or a tree directory")
    parser.add_argument("--workload", required=True, choices=("big30", "presets", "ga"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="run length (BENCHMARK.json's by default)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--runs", help="append each run as one JSON line to this file")
    args = parser.parse_args()
    if args.pairs < 1 or args.seed < 0 or (args.seconds is not None and args.seconds < 0):
        parser.error("--pairs must be >= 1, and --seed and --seconds >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    values = {"anchor": [], "tree": []}
    with tempfile.TemporaryDirectory() as scratch:
        anchor = Path(args.anchor)
        if not anchor.is_dir():
            anchor = unpack(args.anchor, scratch)
        trees = {"anchor": anchor, "tree": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            sides = ("anchor", "tree") if i % 2 == 0 else ("tree", "anchor")
            shas = {}
            for side in sides:
                shas[side], result = bench(trees[side], args.workload, seed, seconds)
                values[side].append({name: metric["value"]
                                     for name, metric in result["metrics"].items()})
                if args.runs:
                    with open(args.runs, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                             "side": side, "sha256": shas[side],
                                             "result": result}) + "\n")
            if shas["anchor"] != shas["tree"]:
                sys.exit(f"error: the sha256 lines differ at seed {seed}:\n"
                         + "\n".join(shas["anchor"]) + "\nagainst\n" + "\n".join(shas["tree"]))

    print(f"anchor={args.anchor} workload={args.workload} pairs={args.pairs} "
          f"seconds={seconds:g}")
    print("metric          anchor median  tree median   ratio  tree won")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        anchor_runs = [run[name] for run in values["anchor"]]
        tree_runs = [run[name] for run in values["tree"]]
        won = sum(sign * (t - a) > 0 for a, t in zip(anchor_runs, tree_runs))
        a, t = statistics.median(anchor_runs), statistics.median(tree_runs)
        ratio = f"{t / a:7.3f}" if a else "      -"
        print(f"{name:<15} {a:13.6g} {t:12.6g} {ratio}  {won}/{args.pairs}")
    print(f"sha256 lines equal at seeds {args.seed}-{args.seed + args.pairs - 1}")


if __name__ == "__main__":
    main()
