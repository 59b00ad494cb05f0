#!/usr/bin/env python3
"""Where an evaluation's time goes, part by part.

Sets up one workload of `mttbench.workloads`, runs N rounds of it in this
process, and times every call of `metrics.evaluate` and of its parts:

* table: `metrics._frame_overlaps`, the per-frame GT x prediction IoUs;
* cells: `metrics._cells`, the live-cell table CLEAR, IDF1 and HOTA read;
* clear: `metrics.clear_counts`, CLEAR's matching, walking only the
  contested frames;
* hota: `metrics.hota`, the 19 localization levels;
* idf1: `metrics.idf1`, the global identity mapping;
* other: the rest of `metrics.evaluate`.

It prints the milliseconds per round of each, the `solve_matchings`
calls HOTA makes per round, split into forced ones (the mask is its own
matching, or is empty) and solved ones (the lexicographic refine runs),
and how many of the overlap tables' frames CLEAR walks with
`clear_match` per round. The wrappers that count solves and walks add a
call each, which the hota and clear figures include. The timers wrap the
functions from outside; nothing in `src/` changes.

    PYTHONPATH=src python scripts/eval_costs.py --workload presets --rounds 3

Run from the repository root; `--tiny` runs the self-test's 12-frame
scenes.
"""

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from mttbench import workloads  # noqa: E402
from mttbench.layertrace import Patches  # noqa: E402
from mttsort import association, metrics  # noqa: E402
from step_costs import run_round, timed  # noqa: E402

PARTS = (
    ("_frame_overlaps", "table"),
    ("_cells", "cells"),
    ("clear_counts", "clear"),
    ("hota", "hota"),
    ("idf1", "idf1"),
)


def counting_solves(calls: Counter):
    """Wrapper factory for HOTA's `solve_matchings`: counts each call in
    `calls` as "solved" when it runs the refine, else as "forced"."""
    def make(fn):
        def wrapper(cost):
            before = calls["refine"]
            result = fn(cost)
            calls["solved" if calls["refine"] > before else "forced"] += 1
            return result
        return wrapper
    return make


def counting_frames(calls: Counter):
    """Wrapper factory for `_frame_overlaps`: adds each table's frames to
    calls["frames"]."""
    def make(fn):
        def wrapper(gt, pred):
            table = fn(gt, pred)
            calls["frames"] += len(table.rows)
            return table
        return wrapper
    return make


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="presets")
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--tiny", action="store_true", help="12-frame scenes")
    args = parser.parse_args()
    if args.seed < 0 or args.rounds < 1:
        parser.error("--seed must be >= 0 and --rounds >= 1")

    scene_list = workloads.scenes(args.workload, args.seed, args.tiny)
    seconds, calls, patches = Counter(), Counter(), Patches()
    with tempfile.TemporaryDirectory() as root:
        _, sequences = workloads.set_up(args.workload, scene_list, root)
        for name, part in PARTS + (("evaluate", "evaluate"),):
            patches.wrap(metrics, name, timed(seconds, calls, part))
        patches.wrap(association, "_refine_lexicographic",
                     timed(Counter(), calls, "refine"))
        patches.wrap(metrics, "solve_matchings", counting_solves(calls))
        patches.wrap(metrics, "clear_match", timed(Counter(), calls, "walks"))
        patches.wrap(metrics, "_frame_overlaps", counting_frames(calls))
        try:
            for _ in range(args.rounds):
                run_round(args.workload, scene_list, sequences, root, args.tiny)
        finally:
            patches.restore()

    seconds["other"] = seconds["evaluate"] - sum(seconds[part] for _, part in PARTS)
    print(f"workload={args.workload} seed={args.seed} rounds={args.rounds}")
    print("part           ms/round")
    for part in [part for _, part in PARTS] + ["other", "evaluate"]:
        print(f"{part:<14} {seconds[part] * 1e3 / args.rounds:8.2f}")
    print(f"evaluate calls {calls['evaluate'] / args.rounds:g} a round")
    print(f"hota solves    forced {calls['forced'] / args.rounds:g}, "
          f"solved {calls['solved'] / args.rounds:g} a round")
    print(f"clear walks    {calls['walks'] / args.rounds:g} of "
          f"{calls['frames'] / args.rounds:g} frames a round")


if __name__ == "__main__":
    main()
