"""Per-layer tracing of mttsort from outside the program.

`Patches` swaps a module attribute or class method for a wrapper and puts
the original back. `Tracer` wraps the public functions of each layer, and
records per span name the calls, the total time and the self time (total
minus the time of traced calls made inside it), plus a few counts the
layers do not report themselves. Spans are aggregated in memory; nothing
is written while a run is timed.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


class Patches:
    """Installs wrappers and restores the originals in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name: str, make) -> None:
        original = getattr(owner, name, None)
        if original is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{name} not found; "
                  f"its metrics read 0", file=sys.stderr)
            return
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self._stack: list[float] = []
        self._patches = Patches()

    def span(self, name: str, observe=None):
        """Wrapper factory timing each call as span `name`. `observe(args,
        result)` may add counts after a call returns."""
        def make(fn):
            def traced(*args, **kwargs):
                stack = self._stack
                stack.append(0.0)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    inner = stack.pop()
                    self.calls[name] += 1
                    self.total[name] += elapsed
                    self.self_time[name] += elapsed - inner
                    if stack:
                        stack[-1] += elapsed
                if observe is not None:
                    observe(args, result)
                return result
            return traced
        return make

    def count(self, name: str):
        """Wrapper factory counting calls only, for the innermost helpers
        called hundreds of thousands of times a pass."""
        def make(fn):
            def counted(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def install(self) -> None:
        from mttsort import association, ga, kalman, metrics, seqio, synth, tracker

        def kept(args, result):
            self.counts["tracker.dets_in"] += len(args[0])
            self.counts["tracker.dets_kept"] += len(result)

        def cells(args, result):
            shape = getattr(args[0], "shape", ())
            if len(shape) == 2:
                self.counts["association.solve.cells"] += shape[0] * shape[1]

        wrap, span = self._patches.wrap, self.span
        wrap(seqio, "load_sequence", span("seqio.load"))
        wrap(seqio, "write_results", span("seqio.results_io"))
        wrap(seqio, "parse_results", span("seqio.results_io"))
        wrap(tracker, "preprocess", span("tracker.preprocess", kept))
        wrap(tracker.Tracker, "step", span("tracker.step"))
        wrap(kalman.KalmanModel, "predict", span("kalman.predict"))
        wrap(kalman.KalmanModel, "update", span("kalman.update"))
        wrap(kalman.KalmanModel, "gating_distance", span("kalman.gating"))
        wrap(association, "matching_cascade", span("association.cascade"))
        wrap(association, "appearance_cost", span("association.appearance_cost"))
        wrap(association, "iou_cost", span("association.iou_cost"))
        # The tracker's solves go through association.solve_assignment;
        # metrics holds its own reference, traced as metrics.solve.
        wrap(association, "solve_assignment", span("association.solve", cells))
        wrap(association, "linear_sum_assignment", self.count("association.lsa"))
        wrap(association, "iou", self.count("association.iou"))
        wrap(metrics, "iou", self.count("association.iou"))
        wrap(metrics, "clear_match", span("metrics.clear"))
        wrap(metrics, "idf1", span("metrics.idf1"))
        wrap(metrics, "hota", span("metrics.hota"))
        wrap(metrics, "solve_assignment", span("metrics.solve"))
        wrap(ga, "evaluate_fitness", span("ga.fitness"))
        wrap(synth, "generate", span("synth.generate"))

    def uninstall(self) -> None:
        self._patches.restore()

    def snapshot(self) -> dict:
        """The per-layer figures accumulated so far; a round's figures are
        the difference of the snapshots around it."""
        c, t = self.calls, self.total
        return {
            "seqio.load_s": t["seqio.load"],
            "seqio.results_io_s": t["seqio.results_io"],
            "tracker.preprocess_s": t["tracker.preprocess"],
            "tracker.dets_in": self.counts["tracker.dets_in"],
            "tracker.dets_kept": self.counts["tracker.dets_kept"],
            "tracker.self_s": self.self_time["tracker.step"],
            "kalman.predict.calls": c["kalman.predict"],
            "kalman.predict_s": t["kalman.predict"],
            "kalman.update.calls": c["kalman.update"],
            "kalman.update_s": t["kalman.update"],
            "kalman.gating.calls": c["kalman.gating"],
            "kalman.gating_s": t["kalman.gating"],
            "association.cascade_s": t["association.cascade"],
            "association.appearance_cost_s": t["association.appearance_cost"],
            "association.iou_cost_s": t["association.iou_cost"],
            "association.solve.calls": c["association.solve"],
            "association.solve_s": t["association.solve"],
            "association.solve.cells": self.counts["association.solve.cells"],
            "association.lsa.calls": c["association.lsa"],
            "association.iou.calls": c["association.iou"],
            "metrics.clear_s": t["metrics.clear"],
            "metrics.idf1_s": t["metrics.idf1"],
            "metrics.hota_s": t["metrics.hota"],
            "metrics.solve.calls": c["metrics.solve"],
            "metrics.solve_s": t["metrics.solve"],
            "ga.fitness.calls": c["ga.fitness"],
            "ga.fitness_s": t["ga.fitness"],
            "synth.generate_s": t["synth.generate"],
        }
