"""Acceptance suite: each test checks one release criterion at its stated
tolerance and prints a one-line verdict. Run with ``pytest -v -s``.

All random inputs are generated from frozen seeds, so every criterion is
reproducible bit-for-bit.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from mttsort import ga, metrics, seqio, synth
from mttsort.association import INFEASIBLE, solve_assignment
from mttsort.cli import cli
from mttsort.kalman import KalmanModel
from mttsort.metrics import GtEntry
from mttsort.model import BoundingBox, PRESETS, TrackerConfig
from mttsort.tracker import run_sequence

from oracles import (
    assa_oracle, assignment_oracle, clear_oracle, dense, idf1_oracle,
    random_micro_scenario,
)

from test_kalman import random_state, textbook_predict, textbook_update


def report_line(name, detail, elapsed, budget):
    print(f"[PASS] {name}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")


def track_and_evaluate(spec, config):
    gt, dets = synth.generate(spec)
    results = run_sequence(dets, config, spec.frames)
    return metrics.evaluate(gt, metrics.results_to_entries(results))


def sequence_of(spec):
    gt, dets = synth.generate(spec)
    return seqio.Sequence(
        name=spec.name or "scene", frame_count=spec.frames,
        width=spec.arena[0], height=spec.arena[1],
        embedding_dim=spec.embedding_dim,
        detections=tuple(dets), gt=tuple(gt))


def test_metric_identity_on_gt():
    """GT evaluated against itself scores exactly 1.0 on 20 scenarios."""
    budget = 5.0
    start = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        spec = synth.ScenarioSpec(
            identities=int(rng.integers(1, 4)),
            frames=int(rng.integers(10, 50)),
            motion_noise_sigma=2.0, miss_rate=0.1, false_positive_rate=0.3,
            embedding_noise_sigma=0.4, seed=seed)
        gt, _ = synth.generate(spec)
        report = metrics.evaluate(gt, gt)
        assert abs(report.mota - 1.0) < 1e-9
        assert abs(report.idf1 - 1.0) < 1e-9
        assert abs(report.hota - 1.0) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line("metric-identity", "20/20 scenarios exact", elapsed, budget)


def test_metric_oracles_on_micro_scenarios():
    """IDF1/AssA equal brute-force enumeration; CLEAR counts equal a
    literal re-derivation, on 200 random micro-scenarios."""
    budget = 30.0
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    for _ in range(200):
        gt, pred = random_micro_scenario(rng)
        report = metrics.evaluate(gt, pred)
        assert report.idf1 == idf1_oracle(gt, pred)
        assert report.ass_a == assa_oracle(gt, pred)
        assert (report.fn_count, report.fp_count, report.idsw_count,
                report.frag_count) == clear_oracle(gt, pred)

    # hand-computed CLEAR checks
    box = BoundingBox(10, 10, 20, 40)
    gt10 = [GtEntry(f, 1, box) for f in range(1, 11)]
    assert metrics.evaluate(gt10, gt10).mota == 1.0
    assert metrics.evaluate(gt10, [e for e in gt10 if e.frame != 4]).mota == 0.9
    far = BoundingBox(200, 200, 20, 40)
    gt_pair = gt10[:6] + [GtEntry(f, 2, far) for f in range(1, 7)]
    swapped = [GtEntry(e.frame, 11 if (e.identity == 1) == (e.frame <= 3) else 12,
                       e.box) for e in gt_pair]
    assert metrics.evaluate(gt_pair, swapped).idsw_count == 2
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line("metric-oracles", "200/200 micro-scenarios exact", elapsed, budget)


def test_worked_metric_cases():
    """The split-track scenario scores IDF1 = 0.5 and HOTA = sqrt(0.5)."""
    start = time.perf_counter()
    box = BoundingBox(10, 10, 20, 40)
    gt = [GtEntry(f, 1, box) for f in range(1, 11)]
    pred = [GtEntry(f, 101 if f <= 5 else 102, box) for f in range(1, 11)]
    report = metrics.evaluate(gt, pred)
    assert abs(report.idf1 - 0.5) < 1e-9
    assert abs(report.hota - math.sqrt(0.5)) < 1e-9
    assert report.det_a == 1.0 and abs(report.ass_a - 0.5) < 1e-9
    elapsed = time.perf_counter() - start
    report_line("worked-metric-cases", "split track: idf1 0.5, hota sqrt(0.5)",
                elapsed, 5)


def test_tracking_clean_preset():
    """Noiseless 3x300 scene: no id switches, no fragmentations, and only
    n_init warm-up misses."""
    budget = 5.0
    start = time.perf_counter()
    report = track_and_evaluate(synth.scenario_preset("clean"), TrackerConfig())
    assert report.idsw_count == 0
    assert report.frag_count == 0
    assert report.mota >= 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line(
        "tracking-clean",
        f"mota {report.mota:.4f}, idsw 0, frag 0", elapsed, budget)


def test_buffer_ablation_on_occlusion():
    """The 5-deep pooled buffer must not switch identities more than the
    single-feature tracker, and must strictly win on most seeds."""
    budget = 60.0
    start = time.perf_counter()
    base = synth.scenario_preset("occlusion")
    total = {1: 0, 5: 0}
    strict_wins = 0
    for seed in range(100, 110):
        spec = synth.with_seed(base, seed)
        idsw = {}
        for size in (1, 5):
            config = replace(TrackerConfig(), feature_buffer_size=size)
            idsw[size] = track_and_evaluate(spec, config).idsw_count
            total[size] += idsw[size]
        if idsw[5] < idsw[1]:
            strict_wins += 1
    elapsed = time.perf_counter() - start
    assert total[5] <= total[1]
    assert strict_wins >= 6
    assert elapsed < budget
    report_line(
        "buffer-ablation",
        f"idsw totals: buffer5 {total[5]} vs buffer1 {total[1]}, "
        f"strict wins {strict_wins}/10", elapsed, budget)


def test_assignment_matches_exhaustive_minimum():
    """solve_assignment equals the permutation minimum on 500 matrices."""
    budget = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(500):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        cost = rng.uniform(0, 1, (n, m))
        cost[rng.uniform(size=(n, m)) < 0.25] = INFEASIBLE
        matches, _, _ = solve_assignment(cost)
        want_count, want_total = assignment_oracle(cost.tolist(), INFEASIBLE)
        got_total = float(sum(cost[i, j] for i, j in matches))
        assert len(matches) == want_count
        assert got_total == pytest.approx(want_total, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line("assignment-oracle", "500/500 matrices exact", elapsed, budget)


def test_kalman_matches_dense_oracle():
    """predict/update agree with the textbook dense formulas to 1e-9."""
    budget = 10.0
    start = time.perf_counter()
    kf = KalmanModel()
    rng = np.random.default_rng(5)
    for _ in range(100):
        mean, cov = random_state(rng)
        got_mean, got_cov = kf.predict(mean, cov)
        want_mean, want_cov = textbook_predict(kf, mean, cov)
        assert np.abs(got_mean - want_mean).max() < 1e-9
        assert np.abs(dense(got_cov) - want_cov).max() < 1e-9
        z = mean[:4] + rng.normal(0, 5, 4)
        z[2] = abs(z[2]) + 0.1
        z[3] = abs(z[3]) + 1
        got_mean, got_cov = kf.update(mean, cov, z)
        want_mean, want_cov = textbook_update(kf, mean, cov, z)
        assert np.abs(got_mean - want_mean).max() < 1e-9
        assert np.abs(dense(got_cov) - want_cov).max() < 1e-9
    elapsed = time.perf_counter() - start
    report_line("kalman-oracle", "100/100 states within 1e-9", elapsed, budget)


def test_ga_toy_convergence():
    """Single-gene parabola: the GA lands within 0.05 of the grid optimum
    in at least 18 of 20 seeded runs."""
    budget = 20.0
    start = time.perf_counter()
    gene = [ga.GeneSpec("max_dist", 0.1, 0.9)]

    def fitness(config):
        return -(config.max_dist - 0.5) ** 2

    # independent grid-search oracle, step 0.01 over the gene range
    grid = [0.1 + 0.01 * k for k in range(81)]
    grid_best = max(grid, key=lambda v: -(v - 0.5) ** 2)

    hits = 0
    for seed in range(40, 60):
        config = ga.GAConfig(population_size=10, max_generations=50,
                             mutation_rate=0.1, crossover_rate=0.7,
                             tolerance=1e-6, seed=seed)
        best, _, _ = ga.run_ga(gene, config, fitness_fn=fitness)
        if abs(best.max_dist - grid_best) <= 0.05:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 18
    assert elapsed < budget
    report_line("ga-toy-convergence", f"{hits}/20 runs within 0.05 of "
                f"grid optimum {grid_best:.2f}", elapsed, budget)


def test_ga_beats_fixed_presets_end_to_end():
    """On the lookalike scene the GA-found config scores at least as well
    as the best of the six fixed presets."""
    budget = 600.0
    start = time.perf_counter()
    seq = sequence_of(synth.scenario_preset("lookalike"))

    preset_scores = {
        name: ga.evaluate_fitness(PRESETS[name], [seq])
        for name in ("config1", "config2", "config3",
                     "config4", "config5", "config6")
    }
    best_preset = max(preset_scores, key=preset_scores.get)

    config = ga.GAConfig(population_size=10, max_generations=50,
                         mutation_rate=0.1, crossover_rate=0.7,
                         tolerance=1e-3, seed=0)
    _, ga_score, _ = ga.run_ga(ga.DEFAULT_GENE_SPECS, config, [seq])
    elapsed = time.perf_counter() - start
    assert ga_score >= preset_scores[best_preset]
    assert elapsed < budget
    report_line(
        "ga-end-to-end",
        f"ga score {ga_score:.4f} >= {best_preset} "
        f"{preset_scores[best_preset]:.4f}", elapsed, budget)


def test_cli_determinism(tmp_path):
    """Every subcommand produces byte-identical output when re-run."""
    budget = 120.0
    start = time.perf_counter()
    outputs = {}
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        seq = base / "seq"
        pred = base / "pred.txt"
        rep = base / "report.txt"
        best = base / "best.cfg"
        ga_cfg = base / "ga.cfg"
        ga_cfg.write_text(
            "population_size = 4\nmax_generations = 3\nmutation_rate = 0.1\n"
            "crossover_rate = 0.7\ntolerance = 0.001\nseed = 9\n")
        assert cli(["synth", "--preset", "occlusion", "--out", str(seq),
                    "--seed", "3"]) == 0
        assert cli(["track", "--seq", str(seq), "--preset", "config1",
                    "--out", str(pred)]) == 0
        assert cli(["evaluate", "--seq", str(seq), "--pred", str(pred),
                    "--report", str(rep)]) == 0
        assert cli(["optimize", "--seqs", str(seq), "--ga-config", str(ga_cfg),
                    "--out", str(best)]) == 0
        outputs[run] = {
            "det": (seq / "det.txt").read_bytes(),
            "gt": (seq / "gt.txt").read_bytes(),
            "meta": (seq / "meta.txt").read_bytes(),
            "pred": pred.read_bytes(),
            "report": rep.read_bytes(),
            "best": best.read_bytes(),
        }
    for key in outputs["a"]:
        assert outputs["a"][key] == outputs["b"][key], f"{key} differs"
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line("cli-determinism",
                "synth/track/evaluate/optimize byte-identical", elapsed, budget)
