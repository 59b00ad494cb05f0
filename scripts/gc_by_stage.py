#!/usr/bin/env python3
"""Where CPython's garbage collector runs in a benchmark workload.

Sets up one workload of `mttbench.workloads`, runs N rounds of it in this
process, and counts through `gc.callbacks` the collections of each
generation and their time in each stage of a round:

* load: `seqio.load_sequence`;
* track: `run_sequence` (the file pass's and the GA's);
* write+parse: `seqio.write_results` and `seqio.parse_results`;
* evaluate: `metrics.evaluate`;
* rest: everything else in a round.

The collector's settings are left as they are: nothing is enabled,
disabled, frozen or re-thresholded. A collection is charged to the stage
it starts in, so this shows where a pass's allocations make the
collections land, which the benchmark's per-segment minimum cannot.

    PYTHONPATH=src python scripts/gc_by_stage.py --workload big30 --rounds 20

Run from the repository root; `--tiny` runs the self-test's 12-frame
scenes.
"""

import argparse
import gc
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from mttbench import workloads  # noqa: E402
from mttbench.layertrace import Patches  # noqa: E402
from mttsort import ga, metrics, seqio, tracker  # noqa: E402
from step_costs import run_round  # noqa: E402

STAGES = ("load", "track", "write+parse", "evaluate", "rest")
STAGE_CALLS = (
    (seqio, "load_sequence", "load"),
    (tracker, "run_sequence", "track"),
    (ga, "run_sequence", "track"),
    (seqio, "write_results", "write+parse"),
    (seqio, "parse_results", "write+parse"),
    (metrics, "evaluate", "evaluate"),
)
GENERATIONS = 3


class Collections:
    """Collections and their seconds per stage and generation."""

    def __init__(self):
        self.stage = "rest"
        self.counts = {s: [0] * GENERATIONS for s in STAGES}
        self.seconds = {s: [0.0] * GENERATIONS for s in STAGES}
        self._started = 0.0

    def callback(self, phase, info) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        generation = info["generation"]
        self.counts[self.stage][generation] += 1
        self.seconds[self.stage][generation] += perf_counter() - self._started

    def enter(self, stage: str):
        """Wrapper factory: a call of the wrapped function is in `stage`."""
        def make(fn):
            def staged(*args, **kwargs):
                outer, self.stage = self.stage, stage
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.stage = outer
            return staged
        return make


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="big30")
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--tiny", action="store_true", help="12-frame scenes")
    args = parser.parse_args()
    if args.seed < 0 or args.rounds < 1:
        parser.error("--seed must be >= 0 and --rounds >= 1")

    scene_list = workloads.scenes(args.workload, args.seed, args.tiny)
    collections, patches = Collections(), Patches()
    with tempfile.TemporaryDirectory() as root:
        _, sequences = workloads.set_up(args.workload, scene_list, root)
        for owner, name, stage in STAGE_CALLS:
            patches.wrap(owner, name, collections.enter(stage))
        gc.callbacks.append(collections.callback)
        try:
            for _ in range(args.rounds):
                run_round(args.workload, scene_list, sequences, root, args.tiny)
        finally:
            gc.callbacks.remove(collections.callback)
            patches.restore()

    rounds = args.rounds
    print(f"workload={args.workload} seed={args.seed} rounds={rounds}")
    print("per round      " + "".join(f"   gen{g}  gen{g} ms" for g in range(GENERATIONS)))
    for stage in STAGES:
        cells = "".join(f"{count / rounds:7.2f} {seconds * 1e3 / rounds:8.3f}"
                        for count, seconds in zip(collections.counts[stage],
                                                  collections.seconds[stage]))
        print(f"{stage:<14} {cells}")
    print(f"gc threshold {gc.get_threshold()}")


if __name__ == "__main__":
    main()
