import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mttsort import ga, metrics, synth
from mttsort.ga import (
    DEFAULT_GENE_SPECS, GAConfig, GeneSpec, crossover,
    evaluate_fitness, format_history, initialize_population, mutate,
    parse_ga_config_text, run_ga, select_parents,
)
from mttsort.model import ConfigError, TrackerConfig
from mttsort.seqio import Sequence

GENE = GeneSpec("max_dist", 0.1, 0.9)


def toy_fitness(config):
    return -(config.max_dist - 0.5) ** 2


def toy_ga(seed, **overrides):
    values = dict(population_size=10, max_generations=50, mutation_rate=0.1,
                  crossover_rate=0.7, tolerance=1e-6, seed=seed)
    values.update(overrides)
    return GAConfig(**values)


# ----------------------------------------------------------------- schema

def test_gene_spec_validation():
    with pytest.raises(ConfigError):
        GeneSpec("max_dist", 0.9, 0.1)
    with pytest.raises(ConfigError, match="'wheels' is not a numeric TrackerConfig field"):
        GeneSpec("wheels", 0, 1)
    # An integer field samples the integers from int(low) to int(high), so
    # each bound must be an integer value.
    with pytest.raises(ConfigError, match="gene max_age: bound 1.5 is not an integer"):
        GeneSpec("max_age", 1.5, 3.0)
    with pytest.raises(ConfigError, match="gene n_init: bound 0.2 is not an integer"):
        GeneSpec("n_init", 0.2, 2.0)
    # Each bound must make a valid TrackerConfig.
    with pytest.raises(ConfigError, match="gene n_init: bound 0: n_init must be"):
        GeneSpec("n_init", 0, 2)
    with pytest.raises(ConfigError, match="gene max_dist: bound 0.0: max_dist must be"):
        GeneSpec("max_dist", 0.0, 0.5)
    with pytest.raises(ConfigError, match="gene nms_max_overlap: bound 1.5: "):
        GeneSpec("nms_max_overlap", 0.3, 1.5)
    with pytest.raises(ConfigError, match="gene min_confidence: bound -inf: "):
        GeneSpec("min_confidence", -math.inf, 0.5)
    with pytest.raises(ConfigError, match="gene max_age: bound inf is not an integer"):
        GeneSpec("max_age", 10, math.inf)
    # Integer values given as floats are integer bounds.
    assert GeneSpec("max_age", 1.0, 3.0).low == 1.0


def test_ga_config_validation():
    with pytest.raises(ConfigError):
        GAConfig(population_size=1)
    with pytest.raises(ConfigError):
        GAConfig(mutation_rate=1.5)
    with pytest.raises(ConfigError):
        GAConfig(tolerance=0.0)


@pytest.mark.parametrize("name", ["population_size", "max_generations", "seed"])
@pytest.mark.parametrize("value", [2.5, 4.0, True, "4"])
def test_ga_config_integer_fields_take_only_integers(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an integer, got {value!r}"):
        GAConfig(**{name: value})


def test_ga_defaults_match_documented_run():
    cfg = GAConfig()
    assert cfg.max_generations == 50
    assert cfg.population_size == 10
    assert cfg.mutation_rate == 0.1
    assert cfg.crossover_rate == 0.7


def test_parse_ga_config():
    cfg = parse_ga_config_text(
        "population_size = 10\nmax_generations = 50\n"
        "mutation_rate = 0.1\ncrossover_rate = 0.7\nseed = 3\n")
    assert cfg == GAConfig(seed=3)
    with pytest.raises(ConfigError, match="unknown key"):
        parse_ga_config_text("popsize = 4\n")


# ------------------------------------------------------------- population

def test_initialize_population_size_and_bounds():
    field_types = {f.name: f.type for f in fields(TrackerConfig)}
    population = initialize_population(
        DEFAULT_GENE_SPECS, toy_ga(1), np.random.default_rng(1))
    assert len(population) == 10
    for individual in population:
        for spec in DEFAULT_GENE_SPECS:
            value = getattr(individual, spec.name)
            assert spec.low <= value <= spec.high
            assert type(value).__name__ == field_types[spec.name]


def test_initialize_population_deterministic():
    a = initialize_population(DEFAULT_GENE_SPECS, toy_ga(7), np.random.default_rng(7))
    b = initialize_population(DEFAULT_GENE_SPECS, toy_ga(7), np.random.default_rng(7))
    assert a == b


@settings(deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_samples_always_in_range(seed):
    rng = np.random.default_rng(seed)
    for spec in DEFAULT_GENE_SPECS:
        value = spec.sample(rng)
        assert spec.low <= value <= spec.high


# ---------------------------------------------------------------- operators

def test_dominant_individual_wins_every_tournament():
    population = [TrackerConfig(max_dist=0.1 * k) for k in range(1, 6)]
    scores = [0.0, 0.0, 5.0, 0.0, 0.0]
    rng = np.random.default_rng(0)
    for a, b in select_parents(population, scores, rng):
        for parent in (a, b):
            assert parent in population
            if parent is not population[2]:
                # a non-dominant winner means the dominant one was not drawn
                assert parent.max_dist != population[2].max_dist


def test_selection_stays_in_population():
    population = [TrackerConfig(max_dist=0.1 * k) for k in range(1, 5)]
    pairs = select_parents(population, [1.0, 1.0, 1.0, 1.0], np.random.default_rng(3))
    assert len(pairs) == 2
    for a, b in pairs:
        assert a in population and b in population


def test_crossover_rate_zero_copies_parents():
    a, b = TrackerConfig(max_dist=0.2), TrackerConfig(max_dist=0.8)
    rng = np.random.default_rng(0)
    assert crossover(a, b, 0.0, [GENE], rng) == (a, b)


def test_crossover_identical_parents():
    a = TrackerConfig(max_dist=0.3)
    rng = np.random.default_rng(0)
    assert crossover(a, a, 1.0, [GENE], rng) == (a, a)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_crossover_children_take_genes_from_parents(seed):
    rng = np.random.default_rng(seed)
    a = TrackerConfig(max_dist=0.2, max_age=20, n_init=1)
    b = TrackerConfig(max_dist=0.8, max_age=90, n_init=5)
    c1, c2 = crossover(a, b, 1.0, DEFAULT_GENE_SPECS, rng)
    for spec in DEFAULT_GENE_SPECS:
        va, vb = getattr(a, spec.name), getattr(b, spec.name)
        x1, x2 = getattr(c1, spec.name), getattr(c2, spec.name)
        assert {x1, x2} == {va, vb}


def test_mutate_rate_zero_is_identity():
    config = TrackerConfig(max_dist=0.4)
    assert mutate(config, 0.0, DEFAULT_GENE_SPECS,
                  np.random.default_rng(0)) == config


def test_mutate_rate_one_resamples_every_gene():
    config = TrackerConfig(max_dist=0.4, max_age=33)
    rng = np.random.default_rng(12)
    mutated = mutate(config, 1.0, DEFAULT_GENE_SPECS, rng)
    # replay the exact rng stream: one uniform gate + one sample per gene
    replay = np.random.default_rng(12)
    for spec in DEFAULT_GENE_SPECS:
        gate = replay.random()
        assert gate < 1.0
        assert getattr(mutated, spec.name) == spec.sample(replay)


# ------------------------------------------------------------------ run_ga

def test_degenerate_population_terminates_at_generation_one():
    # constant fitness: the initial population's score spread is exactly 0
    ga = toy_ga(0, mutation_rate=0.0, crossover_rate=0.0, tolerance=1e-3)
    best, best_score, history = run_ga(
        [GENE], ga, fitness_fn=lambda c: 1.0)
    assert len(history) == 1
    assert history[0].generation == 1
    assert best_score == 1.0


def test_history_and_best_deterministic():
    ga = toy_ga(5)
    a = run_ga([GENE], ga, fitness_fn=toy_fitness)
    b = run_ga([GENE], ga, fitness_fn=toy_fitness)
    assert a == b


def test_every_evaluated_individual_in_bounds():
    seen = []

    def spy_fitness(config):
        seen.append(config)
        return toy_fitness(config)

    run_ga([GENE], toy_ga(9), fitness_fn=spy_fitness)
    assert seen
    for config in seen:
        assert GENE.low <= config.max_dist <= GENE.high


def test_best_ever_is_max_over_history():
    _, best_score, history = run_ga([GENE], toy_ga(2), fitness_fn=toy_fitness)
    assert best_score == max(h.best for h in history)


def test_best_ever_is_the_earliest_config_at_the_best_score():
    # A step objective: every generation after the first reaches the best
    # score again, with other configs. The first config to reach it, in
    # the order the run scores them, is returned.
    seen = []

    def step(config):
        score = float(config.max_dist > 0.5)
        seen.append((config, score))
        return score

    best, best_score, history = run_ga([GENE], toy_ga(2), fitness_fn=step)
    assert best_score == max(h.best for h in history) == 1.0
    assert len(history) > 1 and all(h.best == 1.0 for h in history)
    at_best = [config for config, score in seen if score == best_score]
    assert best == at_best[0]


@pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
def test_a_non_finite_fitness_is_an_error_naming_the_config(bad):
    first = initialize_population([GENE], toy_ga(0), np.random.default_rng(0))[0]
    with pytest.raises(ValueError, match=f"fitness of {re.escape(repr(first))} is {bad!r}"):
        run_ga([GENE], toy_ga(0), fitness_fn=lambda config: bad)


def test_termination_within_budget():
    ga = toy_ga(3, max_generations=7, tolerance=1e-12)
    _, _, history = run_ga([GENE], ga, fitness_fn=toy_fitness)
    assert 1 <= len(history) <= 7


def test_toy_convergence_single_seed():
    best, _, _ = run_ga([GENE], toy_ga(42), fitness_fn=toy_fitness)
    assert abs(best.max_dist - 0.5) <= 0.05


def test_format_history_table():
    _, _, history = run_ga([GENE], toy_ga(1), fitness_fn=toy_fitness)
    text = format_history(history)
    lines = text.strip().splitlines()
    assert lines[0] == "generation,best,mean,std"
    assert len(lines) == len(history) + 1
    assert lines[1].startswith("1,")


class BadSeq:
    detections = ()
    gt = ()  # evaluation with empty gt is a data error
    frame_count = 3


def test_evaluate_fitness_data_error_propagates():
    # An empty ground truth is a data error: it propagates, and no score
    # stands in for it.
    with pytest.raises(ValueError, match="ground-truth"):
        evaluate_fitness(TrackerConfig(), [BadSeq()])


@pytest.mark.parametrize("error", [KeyError("fault"), ValueError("fault")])
def test_evaluate_fitness_propagates_program_faults(monkeypatch, error):
    def failing(*args):
        raise error

    monkeypatch.setattr(ga, "run_sequence", failing)
    with pytest.raises(type(error), match="fault"):
        evaluate_fitness(TrackerConfig(), [BadSeq()])


def test_evaluate_fitness_tracks_and_evaluates_each_sub_scene_once(monkeypatch):
    # The benchmark's GA frame rates count the frames of what ga.run_sequence
    # returns and of the GT that metrics.evaluate gets, one call of each per
    # sub-scene; a route around either call would read as a rate of 0. The
    # second scene's last three frames hold no detection.
    sequences = []
    for name, frame_count in (("clean", 12), ("crowded", 15)):
        spec = replace(synth.scenario_preset(name), frames=12)
        gt, detections = synth.generate(spec)
        sequences.append(Sequence(name, frame_count, *spec.arena, spec.embedding_dim,
                                  detections=tuple(detections), gt=tuple(gt)))
    run_sequence, evaluate = ga.run_sequence, metrics.evaluate
    tracked, evaluated = [], []

    def counting_run(detections, config, frame_count):
        results = run_sequence(detections, config, frame_count)
        tracked.append((detections, len(results)))
        return results

    def counting_evaluate(gt, pred):
        evaluated.append(gt)
        return evaluate(gt, pred)

    monkeypatch.setattr(ga, "run_sequence", counting_run)
    monkeypatch.setattr(metrics, "evaluate", counting_evaluate)
    assert evaluate_fitness(TrackerConfig(), sequences) > 0
    assert len(tracked) == len(evaluated) == len(sequences)
    for seq, (detections, n_results), gt in zip(sequences, tracked, evaluated):
        assert detections is seq.detections and n_results == seq.frame_count
        assert gt is seq.gt
