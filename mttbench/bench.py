"""One benchmark run: set up a workload, repeat its rounds for the given
time, check the outputs, and report the metrics.

The load is a closed loop from one client: each round starts when the
previous one ends, in this one process, with no thread or process pool.

Timing. Every round of a run does the same calls on the same inputs, so a
round splits into the same segments each time: the stretches between the
entries and exits of the calls `Timeline` probes (passes, tracking, each
`Tracker.step`, Kalman steps, cost builders, assignment solves, evaluation
and its parts, file I/O, GA fitness evaluations). A figure sums, over its
segments, the fastest time each segment took in any round of the run. On
a shared host other tenants slow execution by up to half in bursts of
about a millisecond; a segment rarely stays slow in every round, so the
sum of segment minima repeats from run to run far better than medians of
whole rounds do.

With tracing on, untraced and traced rounds alternate. The traced rounds
give the per-layer figures; the difference between the two kinds of
round is the tracing overhead.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from mttsort import association, ga, kalman, metrics, seqio, tracker

from . import checks, layertrace, workloads

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "track_fps": "frames/s",
    "eval_fps": "frames/s",
    "frame_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "seqio.load_s": "s",
    "seqio.results_io_s": "s",
    "tracker.preprocess_s": "s",
    "tracker.dets_kept_ratio": "ratio",
    "tracker.self_s": "s",
    "kalman.predict.calls": "count",
    "kalman.predict_s": "s",
    "kalman.update.calls": "count",
    "kalman.update_s": "s",
    "kalman.gating.calls": "count",
    "kalman.gating_s": "s",
    "association.cascade_s": "s",
    "association.appearance_cost_s": "s",
    "association.iou_cost_s": "s",
    "association.solve.calls": "count",
    "association.solve_s": "s",
    "association.solve.cells": "count",
    "association.lsa.calls": "count",
    "association.iou.calls": "count",
    "metrics.clear_s": "s",
    "metrics.idf1_s": "s",
    "metrics.hota_s": "s",
    "metrics.solve.calls": "count",
    "metrics.solve_s": "s",
    "ga.fitness.calls": "count",
    "ga.fitness_s": "s",
    "ga.cache_hits": "count",
    "ga.generations": "count",
    "synth.generate_s": "s",
    "trace.overhead_s": "s",
}

# Set-up is repeated this many times; its segments take the fastest repeat.
SETUP_REPEATS = 3
# A run has at least this many rounds, however short its time: segment
# minima need repeats, the output check compares passes byte for byte, and
# a traced run needs rounds of both kinds.
MIN_ROUNDS = 6
# GT frames scored against themselves in the perfect-score check.
IDENTITY_FRAMES = 10


class Timeline:
    """Records a timestamp at the entry and the exit of each probed call,
    and the counts the end-to-end rates divide by."""

    # Calls whose spans the figures add up; every other probe only splits
    # segments ("split"), so that each segment is short.
    KINDS = ("setup", "pass", "track", "step", "evaluate", "split")

    def __init__(self):
        self._patches = layertrace.Patches()
        self.start_round()

    def code(self, kind: str) -> int:
        """Event tag of entering a `kind` call; leaving it is code + 1."""
        return 2 * self.KINDS.index(kind)

    def start_round(self) -> None:
        self.tags = array("i")
        self.times = array("d")
        self.track_frames = self.eval_frames = 0
        self.fitness_calls = self.fitness_failed = 0

    def install(self) -> None:
        wrap, probe = self._patches.wrap, self._probe
        wrap(workloads, "set_up", probe("setup"))
        wrap(workloads, "file_pass", probe("pass"))
        wrap(workloads, "ga_round", probe("pass"))
        wrap(tracker, "run_sequence", probe("track", self._tracked))
        wrap(ga, "run_sequence", probe("track", self._tracked))
        wrap(tracker.Tracker, "step", probe("step"))
        wrap(metrics, "evaluate", probe("evaluate", self._evaluated))
        wrap(ga, "evaluate_fitness", probe("split", self._fitness))
        for owner, name in (
                (seqio, "load_sequence"), (seqio, "write_results"),
                (seqio, "parse_results"), (tracker, "preprocess"),
                (kalman.KalmanModel, "predict"), (kalman.KalmanModel, "update"),
                (kalman.KalmanModel, "gating_distance"),
                (association, "matching_cascade"), (association, "appearance_cost"),
                (association, "iou_cost"), (association, "solve_assignment"),
                (association, "linear_sum_assignment"), (metrics, "clear_match"),
                (metrics, "idf1"), (metrics, "hota"), (metrics, "solve_assignment")):
            wrap(owner, name, probe("split"))

    def uninstall(self) -> None:
        self._patches.restore()

    def _probe(self, kind: str, after=None):
        code = self.code(kind)

        def make(fn):
            def probed(*args, **kwargs):
                self.tags.append(code)
                self.times.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.times.append(perf_counter())
                    self.tags.append(code + 1)
                if after is not None:
                    after(args, result)
                return result
            return probed
        return make

    def _tracked(self, args, results) -> None:
        self.track_frames += len(results)

    def _evaluated(self, args, report) -> None:
        self.eval_frames += len({e.frame for e in args[0]})

    def _fitness(self, args, value) -> None:
        self.fitness_calls += 1
        self.fitness_failed += value == float("-inf")


class SegmentMinimum:
    """The fastest time of each segment between consecutive probe events,
    over rounds that made the same calls."""

    def __init__(self):
        self.tags = None
        self.best = None

    def add(self, tags, times) -> bool:
        """Fold in one round; False if its calls differ from the first's."""
        tags = np.frombuffer(tags, dtype=np.intc)
        segments = np.diff(np.frombuffer(times, dtype=np.float64))
        if self.tags is None:
            self.tags, self.best = tags.copy(), segments
            return True
        if not np.array_equal(tags, self.tags):
            return False
        np.minimum(self.best, segments, out=self.best)
        return True

    def spans(self, code: int) -> np.ndarray:
        """Time of each call entered with event tag `code`."""
        if self.tags is None:
            return np.zeros(0)
        elapsed = np.concatenate([[0.0], np.cumsum(self.best)])
        return (elapsed[np.nonzero(self.tags == code + 1)[0]]
                - elapsed[np.nonzero(self.tags == code)[0]])


@dataclass
class Round:
    traced: bool
    attempted: int
    failed: int
    track_frames: int
    eval_frames: int
    layers: dict


def _layer_figures(raw: dict, ga_result, tiny: bool) -> dict:
    figures = {k: v for k, v in raw.items()
               if k not in ("tracker.dets_in", "tracker.dets_kept")}
    figures["tracker.dets_kept_ratio"] = (
        raw["tracker.dets_kept"] / raw["tracker.dets_in"] if raw["tracker.dets_in"] else 0.0)
    generations = len(ga_result[2]) if ga_result else 0
    lookups = generations * workloads.ga_config(tiny).population_size
    figures["ga.generations"] = generations
    figures["ga.cache_hits"] = lookups - raw["ga.fitness.calls"] if ga_result else 0
    return figures


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  work_dir: str, *, import_s: float = 0.0, tiny: bool = False,
                  log=print) -> dict:
    """Run `workload` and return the result object the command prints."""
    scene_list = workloads.scenes(workload, seed, tiny)
    timeline = Timeline()
    tracer = layertrace.Tracer() if trace else None
    setup = SegmentMinimum()
    timing = {False: SegmentMinimum(), True: SegmentMinimum()}
    problems: list[str] = []
    synth_times: list[float] = []
    rounds: list[Round] = []
    digests: dict[str, list[str]] = {}
    last: dict = {}
    timeline.install()
    try:
        for _ in range(SETUP_REPEATS):
            timeline.start_round()
            if tracer:
                tracer.install()
                before = tracer.snapshot()["synth.generate_s"]
            makeup, sequences = workloads.set_up(workload, scene_list, work_dir)
            if tracer:
                synth_times.append(tracer.snapshot()["synth.generate_s"] - before)
                tracer.uninstall()
            if not setup.add(timeline.tags, timeline.times):
                problems.append("set-up repeats made different calls")

        run_start = perf_counter()
        while len(rounds) < MIN_ROUNDS or perf_counter() - run_start < seconds:
            traced = tracer is not None and len(rounds) % 2 == 1
            timeline.start_round()
            if traced:
                tracer.install()
                before = tracer.snapshot()
            ga_result = None
            attempted = failed = 0
            try:
                if workload == "ga":
                    ga_result = workloads.ga_round(sequences, tiny)
                    attempted, failed = timeline.fitness_calls, timeline.fitness_failed
                    digests.setdefault("ga-best", []).append(workloads.ga_digest(*ga_result))
                    last["ga"] = ga_result
                else:
                    for scene in scene_list:
                        attempted += 1
                        try:
                            outcome = workloads.file_pass(
                                scene, os.path.join(work_dir, scene.name))
                        except ValueError as exc:
                            if not workloads.is_known_fault(scene, exc):
                                raise
                            failed += 1
                            continue
                        digests.setdefault(scene.name, []).append(outcome.digest())
                        last[scene.name] = outcome
            finally:
                if traced:
                    after = tracer.snapshot()
                    tracer.uninstall()
            if not timing[traced].add(timeline.tags, timeline.times):
                problems.append(f"round {len(rounds) + 1} made different calls from round 1")
            layers = {}
            if traced:
                raw = {k: after[k] - before[k] for k in after}
                layers = _layer_figures(raw, ga_result, tiny)
            rounds.append(Round(traced, attempted, failed, timeline.track_frames,
                                timeline.eval_frames, layers))
    finally:
        timeline.uninstall()

    problems += _check(workload, scene_list, last, digests, sequences, work_dir)
    for name, info in makeup.items():
        log(f"scene {name}: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, values in digests.items():
        log(f"sha256 {name} {values[-1]}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    plain = timing[False]
    pipeline_s = plain.spans(timeline.code("pass")).sum()
    log(f"rounds {len(rounds)}, {len(plain.best)} segments a round, "
        f"{len(plain.spans(timeline.code('step')))} frames a round")
    if trace:
        traced_rounds = [r for r in rounds if r.traced]
        values = {name: statistics.median(r.layers[name] for r in traced_rounds)
                  for name in traced_rounds[0].layers}
        values = {k: int(v) if PER_LAYER[k] == "count" and float(v).is_integer() else v
                  for k, v in values.items()}
        values["synth.generate_s"] = statistics.median(synth_times)
        values["trace.overhead_s"] = float(
            timing[True].spans(timeline.code("pass")).sum() - pipeline_s)
        units = PER_LAYER
    else:
        first = rounds[0]
        values = {
            "setup_s": import_s + float(setup.spans(timeline.code("setup")).sum()),
            "pipeline_s": float(pipeline_s),
            "track_fps": first.track_frames / plain.spans(timeline.code("track")).sum(),
            "eval_fps": first.eval_frames / plain.spans(timeline.code("evaluate")).sum(),
            "frame_ms_p50": float(np.percentile(plain.spans(timeline.code("step")), 50)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _check(workload, scene_list, last, digests, sequences, work_dir) -> list[str]:
    problems = []
    for name, values in digests.items():
        problems += checks.same_digest_problems(name, values)
    if workload == "ga":
        best, best_score, history = last["ga"]
        problems += checks.ga_problems(best_score, history,
                                       ga.evaluate_fitness(best, sequences))
        for seq in sequences:
            results = tracker.run_sequence(seq.detections, best, seq.frame_count)
            pred = metrics.results_to_entries(results)
            problems += [f"{seq.name} (GA best): {p}" for p in
                         checks.report_problems(seq.gt, pred, metrics.evaluate(seq.gt, pred))]
            problems += checks.unique_id_problems(results)
            problems += _perfect_score(seq.name, seq.gt)
        return problems

    for scene in scene_list:
        outcome = last.get(scene.name)
        if outcome is None:
            continue  # the known fault failed every pass
        pred = metrics.results_to_entries(outcome.parsed)
        found = checks.report_problems(outcome.gt, pred, outcome.report)
        found += checks.unique_id_problems(outcome.results)
        rewritten = os.path.join(work_dir, scene.name, "pred_rewritten.txt")
        seqio.write_results(outcome.parsed, rewritten)
        with open(rewritten, "rb") as fh:
            found += checks.round_trip_problems(
                outcome.results, outcome.parsed, outcome.written, fh.read())
        if scene.name == "clean":
            found += checks.clean_count_problems(
                outcome.report, scene.spec.identities, scene.config.n_init)
        problems += [f"{scene.name}: {p}" for p in found]
        problems += _perfect_score(scene.name, outcome.gt)
    return problems


def _perfect_score(name, gt) -> list[str]:
    head = tuple(e for e in gt if e.frame <= IDENTITY_FRAMES)
    return [f"{name}: {p}" for p in
            checks.perfect_score_problems(metrics.evaluate(head, head))]
