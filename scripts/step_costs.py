#!/usr/bin/env python3
"""Where a tracker step's time goes, stage by stage.

Sets up one workload of `mttbench.workloads`, runs N rounds of it in this
process, and times every call of `Tracker.step` and of its stages:

* preprocess: `tracker.preprocess`, the confidence filter and NMS;
* predict: `Tracker._predict`, the Kalman predict and the box check;
* match: `Tracker._match`, the cascade and the IoU stage;
* update: `Tracker._update`, the Kalman update and feature pushes;
* emit: `Tracker._emit`, the confirmed-track records;
* keep: `Tracker._keep_and_initiate`, the keep rule and new tracks;
* other: the rest of `Tracker.step`.

Each round is timed on its own. For each stage it prints the microseconds
per step of the fastest round, which repeats on a noisy machine, next to
the mean over every step of the rounds. The timers wrap the functions
from outside; nothing in `src/` changes. Each timed call adds a wrapper call and two clock reads, well
under a microsecond, which the stages' figures include.

    PYTHONPATH=src python scripts/step_costs.py --workload ga --rounds 3

Run from the repository root; `--tiny` runs the self-test's 12-frame
scenes.
"""

import argparse
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from mttbench import workloads  # noqa: E402
from mttbench.layertrace import Patches  # noqa: E402
from mttsort import tracker  # noqa: E402

STAGES = (
    (tracker, "preprocess", "preprocess"),
    (tracker.Tracker, "_predict", "predict"),
    (tracker.Tracker, "_match", "match"),
    (tracker.Tracker, "_update", "update"),
    (tracker.Tracker, "_emit", "emit"),
    (tracker.Tracker, "_keep_and_initiate", "keep"),
)


def timed(seconds: Counter, calls: Counter, name: str):
    """Wrapper factory adding each call's seconds to `seconds[name]` and
    counting it in `calls[name]`."""
    def make(fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                calls[name] += 1
        return wrapper
    return make


def run_round(workload, scene_list, sequences, root, tiny) -> None:
    if workload == "ga":
        workloads.ga_round(sequences, tiny)
        return
    for scene in scene_list:
        try:
            workloads.file_pass(scene, os.path.join(root, scene.name))
        except ValueError as exc:
            if not workloads.is_known_fault(scene, exc):
                raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="ga")
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--tiny", action="store_true", help="12-frame scenes")
    args = parser.parse_args()
    if args.seed < 0 or args.rounds < 1:
        parser.error("--seed must be >= 0 and --rounds >= 1")

    scene_list = workloads.scenes(args.workload, args.seed, args.tiny)
    rounds, patches = [], Patches()
    with tempfile.TemporaryDirectory() as root:
        _, sequences = workloads.set_up(args.workload, scene_list, root)
        for _ in range(args.rounds):
            seconds, calls = Counter(), Counter()
            for owner, name, stage in STAGES + ((tracker.Tracker, "step", "step"),):
                patches.wrap(owner, name, timed(seconds, calls, stage))
            try:
                run_round(args.workload, scene_list, sequences, root, args.tiny)
            finally:
                patches.restore()
            rounds.append((seconds, calls))

    stages = [stage for _, _, stage in STAGES]
    for seconds, _ in rounds:
        seconds["other"] = seconds["step"] - sum(seconds[stage] for stage in stages)
    count = sum(calls["step"] for _, calls in rounds)
    print(f"workload={args.workload} seed={args.seed} rounds={args.rounds}")
    print("stage          min us  mean us  (per step)")
    for stage in stages + ["other", "step"]:
        fastest = min(seconds[stage] / max(calls["step"], 1) for seconds, calls in rounds)
        mean = sum(seconds[stage] for seconds, _ in rounds) / max(count, 1)
        print(f"{stage:<14} {fastest * 1e6:6.1f}  {mean * 1e6:7.1f}")
    print(f"steps {count}")


if __name__ == "__main__":
    main()
