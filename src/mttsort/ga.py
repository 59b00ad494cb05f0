"""Genetic search over the tracker hyperparameter space.

Individuals are complete TrackerConfig values. A gene (GeneSpec) is a
numeric TrackerConfig field with a sampling range; it samples integers
exactly when that field is an ``int``. Fitness is the aggregate HOTA +
MOTA + IDF1 score of a config, averaged over the evaluation sub-scenes.
The whole run is driven by one seeded generator, so results are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import metrics
from .kalman import NumericalError
from .model import ConfigError, TrackerConfig, coerce_fields, parse_kv_lines
from .tracker import run_sequence


# The numeric TrackerConfig fields, by type name: the fields a gene can be.
_GENE_TYPES = {f.name: f.type for f in fields(TrackerConfig) if f.type in ("int", "float")}


@dataclass(frozen=True)
class GeneSpec:
    """One numeric TrackerConfig field to search and its sampling range."""

    name: str
    low: float
    high: float

    def __post_init__(self):
        if self.name not in _GENE_TYPES:
            raise ConfigError(
                f"gene {self.name!r} is not a numeric TrackerConfig field; "
                f"expected one of {sorted(_GENE_TYPES)}"
            )
        if not self.low < self.high:
            raise ConfigError(
                f"gene {self.name}: low must be < high, got [{self.low}, {self.high}]"
            )

    def sample(self, rng: np.random.Generator):
        if _GENE_TYPES[self.name] == "int":
            return int(rng.integers(int(self.low), int(self.high) + 1))
        return float(rng.uniform(self.low, self.high))


# Search ranges spanning all the documented preset variations.
# feature_buffer_size stays fixed unless explicitly added as a gene.
DEFAULT_GENE_SPECS = (
    GeneSpec("min_confidence", 0.1, 0.9),
    GeneSpec("max_dist", 0.1, 0.9),
    GeneSpec("max_iou_distance", 0.3, 0.9),
    GeneSpec("nms_max_overlap", 0.3, 1.0),
    GeneSpec("max_age", 10, 120),
    GeneSpec("n_init", 1, 5),
    GeneSpec("nn_budget", 10, 200),
)


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 10
    max_generations: int = 50
    mutation_rate: float = 0.1
    crossover_rate: float = 0.7
    tolerance: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ConfigError(
                f"population_size must be >= 2, got {self.population_size}")
        if self.max_generations < 1:
            raise ConfigError(
                f"max_generations must be >= 1, got {self.max_generations}")
        for name in ("mutation_rate", "crossover_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must be within [0, 1], got {value}")
        if not self.tolerance > 0:
            raise ConfigError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass
class GAState:
    generation: int
    population: list
    scores: list
    best_ever: tuple  # (TrackerConfig, score)


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best: float
    mean: float
    std: float


def parse_ga_config_text(text: str, source: str = "<ga-config>") -> GAConfig:
    return GAConfig(**coerce_fields(GAConfig, parse_kv_lines(text, source), source))


def load_ga_config(path) -> GAConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ga_config_text(fh.read(), source=str(path))


def initialize_population(gene_specs, ga: GAConfig, rng: np.random.Generator):
    """Sample population_size individuals uniformly within the gene ranges;
    the fields that are not genes keep their TrackerConfig defaults."""
    population = []
    for _ in range(ga.population_size):
        genes = {spec.name: spec.sample(rng) for spec in gene_specs}
        population.append(TrackerConfig(**genes))
    return population


def evaluate_fitness(config: TrackerConfig, sequences) -> float:
    """Score a config over the evaluation sub-scenes.

    Each sub-scene is tracked and evaluated against its ground truth; the
    reports are averaged and scored. A numerical failure of the filter
    makes the individual score -inf rather than aborting the search; data
    errors and program faults propagate.
    """
    reports = []
    try:
        for seq in sequences:
            results = run_sequence(seq.detections, config, seq.frame_count)
            reports.append(
                metrics.evaluate(seq.gt, metrics.results_to_entries(results)))
        return metrics.score(metrics.average_reports(reports))
    except NumericalError:
        return float("-inf")


def select_parents(state: GAState, rng: np.random.Generator):
    """Tournament selection (size 2, with replacement) of parent pairs."""
    n = len(state.population)

    def tournament():
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        return state.population[i] if state.scores[i] >= state.scores[j] \
            else state.population[j]

    n_pairs = (n + 1) // 2
    return [(tournament(), tournament()) for _ in range(n_pairs)]


def crossover(parent_a: TrackerConfig, parent_b: TrackerConfig, rate: float,
              gene_specs, rng: np.random.Generator):
    """Uniform per-gene exchange with pair-level probability `rate`."""
    if rng.random() >= rate:
        return parent_a, parent_b
    genes_a, genes_b = {}, {}
    for spec in gene_specs:
        if rng.random() < 0.5:
            genes_a[spec.name] = getattr(parent_a, spec.name)
            genes_b[spec.name] = getattr(parent_b, spec.name)
        else:
            genes_a[spec.name] = getattr(parent_b, spec.name)
            genes_b[spec.name] = getattr(parent_a, spec.name)
    return replace(parent_a, **genes_a), replace(parent_b, **genes_b)


def mutate(config: TrackerConfig, rate: float, gene_specs,
           rng: np.random.Generator) -> TrackerConfig:
    """Resample each gene independently with probability `rate`."""
    updates = {}
    for spec in gene_specs:
        if rng.random() < rate:
            updates[spec.name] = spec.sample(rng)
    return replace(config, **updates) if updates else config


def run_ga(gene_specs, ga: GAConfig, sequences=None, *, fitness_fn=None):
    """Run the generational loop and return (best, best_score, history).

    Terminates when the population score standard deviation drops to the
    tolerance or the generation budget is exhausted. `fitness_fn` overrides
    the default sub-scene evaluation (useful for synthetic objectives);
    fitness values are cached per config since populations converge onto
    repeated individuals.
    """
    if fitness_fn is None:
        if sequences is None:
            raise ValueError("run_ga needs sequences or an explicit fitness_fn")
        fitness_fn = lambda config: evaluate_fitness(config, sequences)

    cache: dict[TrackerConfig, float] = {}

    def fitness(config):
        if config not in cache:
            cache[config] = fitness_fn(config)
        return cache[config]

    rng = np.random.default_rng(ga.seed)
    population = initialize_population(gene_specs, ga, rng)
    scores = [fitness(c) for c in population]
    state = GAState(generation=1, population=population, scores=scores,
                    best_ever=_best_of(population, scores))
    history = [_stats(state)]

    while (not _converged(state.scores, ga.tolerance)
           and state.generation < ga.max_generations):
        offspring: list[TrackerConfig] = []
        for parent_a, parent_b in select_parents(state, rng):
            child_a, child_b = crossover(
                parent_a, parent_b, ga.crossover_rate, gene_specs, rng)
            offspring.append(mutate(child_a, ga.mutation_rate, gene_specs, rng))
            offspring.append(mutate(child_b, ga.mutation_rate, gene_specs, rng))
        population = offspring[:ga.population_size]
        scores = [fitness(c) for c in population]
        state.generation += 1
        state.population = population
        state.scores = scores
        candidate = _best_of(population, scores)
        if candidate[1] > state.best_ever[1]:
            state.best_ever = candidate
        history.append(_stats(state))

    best_config, best_score = state.best_ever
    return best_config, best_score, history


def _best_of(population, scores):
    best_idx = max(range(len(scores)), key=lambda i: scores[i])
    return population[best_idx], scores[best_idx]


def _converged(scores, tolerance: float) -> bool:
    finite = [s for s in scores if math.isfinite(s)]
    if len(finite) < len(scores):
        return False
    return float(np.std(finite)) <= tolerance


def _stats(state: GAState) -> GenerationStats:
    finite = [s for s in state.scores if math.isfinite(s)]
    mean = float(np.mean(finite)) if finite else float("-inf")
    std = float(np.std(finite)) if finite else float("inf")
    return GenerationStats(
        generation=state.generation,
        best=max(state.scores),
        mean=mean,
        std=std,
    )


def format_history(history) -> str:
    """History as a comma-delimited table: generation, best, mean, std."""
    lines = ["generation,best,mean,std"]
    for entry in history:
        lines.append(
            f"{entry.generation},{entry.best:.6f},{entry.mean:.6f},{entry.std:.6f}")
    return "\n".join(lines) + "\n"
