"""The benchmark's workloads: their scenes, set-up and rounds.

A round is the unit a run repeats until its time is up. Every round of a
run does the same operations on the same inputs, so a run's outputs and
its share of failed operations do not depend on how many rounds fit.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace

import numpy as np

from mttsort import ga, metrics, seqio, synth, tracker
from mttsort.model import PRESETS, BoundingBox, Detection, TrackerConfig, format_config

WORKLOADS = ("big30", "presets", "ga")

# The scaled scene: about 30 tracks against 30 detections a frame, so most
# assignments are larger than the 5x5 enumeration limit.
BIG30 = synth.ScenarioSpec(
    name="big30", identities=30, frames=200, arena=(1920, 1080),
    motion_noise_sigma=1.0, miss_rate=0.05, false_positive_rate=1.0,
    embedding_dim=64, embedding_noise_sigma=0.1, seed=1)

# The hand-built `shrink` stream: one object whose detection height falls
# 200 -> 5 px. With n_init = 1 the track's predicted height drops below
# zero after the last detection and the predicted box is rejected.
SHRINK_HEIGHTS = (200.0, 150.0, 100.0, 50.0, 5.0)
SHRINK_FRAMES = 8
SHRINK_FAULT = "box width and height must be positive"

GA_CONFIG = ga.GAConfig(population_size=6, max_generations=3, seed=0)
GA_SCENES = ("occlusion", "lookalike")

# Set-up ends with one pass over this many leading frames of each scene.
WARMUP_FRAMES = 20
# Frame count of every scene in the self-test's tiny runs.
TINY_FRAMES = 12
TINY_GA_CONFIG = ga.GAConfig(population_size=2, max_generations=2, seed=0)


@dataclass(frozen=True)
class Scene:
    """One sequence of a workload and the tracker config it runs with."""

    name: str
    spec: synth.ScenarioSpec | None  # None: the hand-built shrink stream
    config: TrackerConfig = PRESETS["config1"]
    fault: str | None = None  # message of the known fault every pass raises


@dataclass
class Outcome:
    """What one file-to-report pass produced."""

    results: list
    parsed: list
    gt: tuple
    report: metrics.EvalReport
    written: bytes
    report_text: bytes

    def digest(self) -> str:
        return hashlib.sha256(self.written + self.report_text).hexdigest()


def _tiny(spec: synth.ScenarioSpec) -> synth.ScenarioSpec:
    return replace(spec, frames=TINY_FRAMES, occlusions=tuple(
        w for w in spec.occlusions if w[2] <= TINY_FRAMES))


def scenes(workload: str, seed: int, tiny: bool = False) -> list[Scene]:
    """The scenes of `workload` for benchmark seed `seed`.

    Seed 0 gives the pinned scenes (presets 6/7/23/4, big30 1); seed n
    adds n to each. `clean` keeps its pinned seed, on which the three walks
    never overlap deeply, so its exact error counts can be checked. `ga` is
    one fixed run on the pinned sub-scenes: how many distinct configs a GA
    evaluates depends on its inputs, and that alone moved its time by a
    third from seed to seed.
    """
    def seeded(spec, pinned=False):
        if not (pinned or spec.name == "clean"):
            spec = replace(spec, seed=spec.seed + seed)
        return _tiny(spec) if tiny else spec

    if workload == "big30":
        return [Scene("big30", seeded(BIG30))]
    if workload == "presets":
        return [Scene(s.name, seeded(s)) for s in synth.preset_scenarios()] + [
            Scene("shrink", None, replace(PRESETS["config1"], n_init=1), SHRINK_FAULT)]
    if workload == "ga":
        return [Scene(name, seeded(synth.scenario_preset(name), pinned=True))
                for name in GA_SCENES]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _shrink_stream():
    embedding = np.eye(8)[0]
    gt, detections = [], []
    for frame, height in enumerate(SHRINK_HEIGHTS, start=1):
        box = BoundingBox(300.0 - height / 4, 300.0 - height / 2, height / 2, height)
        gt.append(metrics.GtEntry(frame, 1, box))
        detections.append(Detection(frame, box, 0.9, embedding))
    meta = seqio.SequenceMeta("shrink", SHRINK_FRAMES, 640.0, 480.0, 8)
    return meta, detections, gt


def write_scene(scene: Scene, directory: str) -> dict:
    """Generate `scene` and write it as a sequence directory; returns its
    make-up (frames, identities, detections, GT boxes)."""
    if scene.spec is None:
        meta, detections, gt = _shrink_stream()
    else:
        spec = scene.spec
        gt, detections = synth.generate(spec)
        meta = seqio.SequenceMeta(spec.name, spec.frames, spec.arena[0],
                                  spec.arena[1], spec.embedding_dim)
    seqio.write_sequence(directory, meta, detections, gt)
    return {"frames": meta.frame_count, "identities": len({e.identity for e in gt}),
            "detections": len(detections), "gt_boxes": len(gt),
            "seed": scene.spec.seed if scene.spec else None}


def file_pass(scene: Scene, directory: str, frames: int | None = None) -> Outcome:
    """Load a sequence directory, track it, write and re-read the results,
    and evaluate them: the `track` then `evaluate` command pair.

    `frames` limits the pass to the leading frames (the warm-up pass).
    """
    seq = seqio.load_sequence(directory)
    detections, gt, frame_count = seq.detections, seq.gt, seq.frame_count
    if frames is not None:
        frame_count = min(frames, frame_count)
        detections = [d for d in detections if d.frame <= frame_count]
        gt = tuple(e for e in gt if e.frame <= frame_count)
    results = tracker.run_sequence(detections, scene.config, frame_count)
    pred_path = os.path.join(directory, "pred.txt")
    report_path = os.path.join(directory, "report.txt")
    seqio.write_results(results, pred_path)
    parsed = seqio.parse_results(pred_path)
    report = metrics.evaluate(gt, metrics.results_to_entries(parsed))
    seqio.write_report(report, report_path)
    with open(pred_path, "rb") as fh:
        written = fh.read()
    with open(report_path, "rb") as fh:
        report_text = fh.read()
    return Outcome(results, parsed, gt, report, written, report_text)


def is_known_fault(scene: Scene, exc: Exception) -> bool:
    return scene.fault is not None and scene.fault in str(exc)


def set_up(workload: str, scene_list, root: str):
    """Generate and write every scene, then warm up with one pass over the
    leading frames of each. Returns the per-scene make-up and, for `ga`,
    the loaded sub-scenes the GA rounds evaluate in memory."""
    makeup, sequences = {}, []
    for scene in scene_list:
        directory = os.path.join(root, scene.name)
        makeup[scene.name] = write_scene(scene, directory)
        try:
            file_pass(scene, directory, frames=WARMUP_FRAMES)
        except ValueError as exc:
            if not is_known_fault(scene, exc):
                raise
        if workload == "ga":
            sequences.append(seqio.load_sequence(directory))
    return makeup, sequences


def ga_config(tiny: bool = False) -> ga.GAConfig:
    return TINY_GA_CONFIG if tiny else GA_CONFIG


def ga_round(sequences, tiny: bool = False):
    """One fixed, seeded GA run over the in-memory sub-scenes."""
    return ga.run_ga(ga.DEFAULT_GENE_SPECS, ga_config(tiny), sequences)


def ga_digest(best, best_score, history) -> str:
    text = format_config(best) + f"score = {best_score!r}\n" + ga.format_history(history)
    return hashlib.sha256(text.encode()).hexdigest()
