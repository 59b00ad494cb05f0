"""Deterministic synthetic sequences: ground truth, noisy detections, and
identity-conditioned embeddings.

Each identity follows a bounded random-walk velocity model inside the
arena. Detections are the ground-truth boxes with optional center jitter,
dropout, and Poisson false positives; embeddings are noisy draws around
per-identity orthonormal anchor vectors, so appearance separability is
controlled by a single noise parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .metrics import GtEntry
from .model import BoundingBox, ConfigError, Detection, coerce_fields, parse_kv_lines

# Per-frame Gaussian acceleration of the velocity walk, in pixels/frame^2.
ACCEL_SIGMA = 0.35
# Hard speed limit as a fraction of arena width per frame.
SPEED_LIMIT_FRACTION = 0.05


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to generate one synthetic sub-scene."""

    name: str = ""
    identities: int = 3
    frames: int = 100
    arena: tuple = (640, 480)
    motion_noise_sigma: float = 0.0
    miss_rate: float = 0.0
    false_positive_rate: float = 0.0
    embedding_dim: int = 8
    embedding_noise_sigma: float = 0.0
    occlusions: tuple = ()  # (identity, start_frame, end_frame), inclusive
    seed: int = 0

    def __post_init__(self):
        if self.identities < 1:
            raise ConfigError(f"identities must be >= 1, got {self.identities}")
        if self.frames < 1:
            raise ConfigError(f"frames must be >= 1, got {self.frames}")
        if self.identities > self.embedding_dim:
            raise ConfigError(
                f"cannot build {self.identities} near-orthogonal anchors in "
                f"{self.embedding_dim} dimensions"
            )
        if not (self.arena[0] > 0 and self.arena[1] > 0):
            raise ConfigError(f"arena must be positive, got {self.arena}")
        for rate_name in ("miss_rate",):
            rate = getattr(self, rate_name)
            if not (0.0 <= rate <= 1.0):
                raise ConfigError(f"{rate_name} must be within [0, 1], got {rate}")
        if not self.false_positive_rate >= 0:
            raise ConfigError(
                f"false_positive_rate must be >= 0, got {self.false_positive_rate}")
        for sigma_name in ("motion_noise_sigma", "embedding_noise_sigma"):
            if not getattr(self, sigma_name) >= 0:
                raise ConfigError(f"{sigma_name} must be >= 0")
        for identity, start, end in self.occlusions:
            if not (1 <= identity <= self.identities):
                raise ConfigError(f"occlusion identity {identity} out of range")
            if not (1 <= start <= end <= self.frames):
                raise ConfigError(
                    f"occlusion window {start}-{end} outside [1, {self.frames}]")


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 1e-9 else vec


def generate(spec: ScenarioSpec):
    """Produce (gt_entries, detections) for a scenario, fully seed-driven."""
    rng = np.random.default_rng(spec.seed)
    arena_w, arena_h = spec.arena
    k = spec.identities

    # Orthonormal appearance anchors, one per identity.
    basis, _ = np.linalg.qr(rng.normal(size=(spec.embedding_dim, k)))
    anchors = basis.T[:k]

    widths = rng.uniform(0.055, 0.11, k) * arena_w
    heights = rng.uniform(0.10, 0.19, k) * arena_h
    cx = np.array([rng.uniform(w / 2, arena_w - w / 2) for w in widths])
    cy = np.array([rng.uniform(h / 2, arena_h - h / 2) for h in heights])
    velocity = rng.normal(0.0, 1.5, size=(k, 2))
    speed_limit = SPEED_LIMIT_FRACTION * arena_w

    occluded: dict[int, set[int]] = {i: set() for i in range(1, k + 1)}
    for identity, start, end in spec.occlusions:
        occluded[identity].update(range(start, end + 1))

    gt: list[GtEntry] = []
    detections: list[Detection] = []
    for frame in range(1, spec.frames + 1):
        for i in range(k):
            velocity[i] += rng.normal(0.0, ACCEL_SIGMA, 2)
            speed = np.linalg.norm(velocity[i])
            if speed > speed_limit:
                velocity[i] *= speed_limit / speed
            cx[i] += velocity[i][0]
            cy[i] += velocity[i][1]
            # Reflect off the arena walls so the whole box stays inside.
            lo_x, hi_x = widths[i] / 2, arena_w - widths[i] / 2
            lo_y, hi_y = heights[i] / 2, arena_h - heights[i] / 2
            if cx[i] < lo_x or cx[i] > hi_x:
                cx[i] = 2 * (lo_x if cx[i] < lo_x else hi_x) - cx[i]
                velocity[i][0] = -velocity[i][0]
            if cy[i] < lo_y or cy[i] > hi_y:
                cy[i] = 2 * (lo_y if cy[i] < lo_y else hi_y) - cy[i]
                velocity[i][1] = -velocity[i][1]
            cx[i] = min(max(cx[i], lo_x), hi_x)
            cy[i] = min(max(cy[i], lo_y), hi_y)

            identity = i + 1
            if frame in occluded[identity]:
                continue
            box = BoundingBox(cx[i] - widths[i] / 2, cy[i] - heights[i] / 2,
                              widths[i], heights[i])
            gt.append(GtEntry(frame=frame, identity=identity, box=box))

            if rng.random() < spec.miss_rate:
                continue
            jitter = rng.normal(0.0, spec.motion_noise_sigma, 2) \
                if spec.motion_noise_sigma > 0 else np.zeros(2)
            det_box = BoundingBox(box.left + jitter[0], box.top + jitter[1],
                                  box.width, box.height)
            confidence = rng.uniform(0.8, 1.0)
            noise = rng.normal(0.0, spec.embedding_noise_sigma,
                               spec.embedding_dim)
            embedding = _unit(anchors[i] + noise)
            detections.append(Detection(
                frame=frame, box=det_box,
                confidence=round(confidence, 4), embedding=embedding))

        for _ in range(rng.poisson(spec.false_positive_rate)):
            fp_w = rng.uniform(0.04, 0.12) * arena_w
            fp_h = rng.uniform(0.08, 0.20) * arena_h
            fp_box = BoundingBox(rng.uniform(0, arena_w - fp_w),
                                 rng.uniform(0, arena_h - fp_h), fp_w, fp_h)
            confidence = rng.uniform(0.5, 0.9)
            embedding = _unit(rng.normal(size=spec.embedding_dim))
            detections.append(Detection(
                frame=frame, box=fp_box,
                confidence=round(confidence, 4), embedding=embedding))

    return gt, detections


# Preset seeds are pinned: `clean` uses one where the three walks never
# overlap deeply (so it exercises pure lifecycle behavior), while `crowded`
# has frequent crossings.
PRESET_SCENARIOS = (
    ScenarioSpec(
        name="clean", identities=3, frames=300, arena=(640, 480),
        motion_noise_sigma=0.0, miss_rate=0.0, false_positive_rate=0.0,
        embedding_dim=8, embedding_noise_sigma=0.0, occlusions=(), seed=6,
    ),
    ScenarioSpec(
        name="occlusion", identities=3, frames=120, arena=(640, 480),
        motion_noise_sigma=1.0, miss_rate=0.02, false_positive_rate=0.05,
        embedding_dim=8, embedding_noise_sigma=0.22,
        occlusions=((1, 30, 49), (2, 55, 74), (3, 80, 99)), seed=7,
    ),
    ScenarioSpec(
        name="lookalike", identities=3, frames=150, arena=(640, 480),
        motion_noise_sigma=1.5, miss_rate=0.05, false_positive_rate=0.2,
        embedding_dim=8, embedding_noise_sigma=0.45, occlusions=(), seed=23,
    ),
    ScenarioSpec(
        name="crowded", identities=3, frames=300, arena=(640, 480),
        motion_noise_sigma=1.0, miss_rate=0.05, false_positive_rate=0.3,
        embedding_dim=8, embedding_noise_sigma=0.25, occlusions=(), seed=4,
    ),
)


def preset_scenarios() -> list[ScenarioSpec]:
    return list(PRESET_SCENARIOS)


def scenario_preset(name: str) -> ScenarioSpec:
    for spec in PRESET_SCENARIOS:
        if spec.name == name:
            return spec
    known = [s.name for s in PRESET_SCENARIOS]
    raise ConfigError(f"unknown scenario preset {name!r}; expected one of {known}")


@dataclass(frozen=True)
class _ArenaKeys:
    """How a scenario file spells `ScenarioSpec.arena`."""

    arena_width: float = 640.0
    arena_height: float = 480.0


def parse_scenario_text(text: str, source: str = "<scenario>") -> ScenarioSpec:
    """Scenario files are ``key = value``; occlusions are ``id:start:end``
    triples separated by commas, the arena is ``arena_width``/
    ``arena_height``."""
    raw = parse_kv_lines(text, source)
    arena_raw = {f.name: raw.pop(f.name) for f in fields(_ArenaKeys) if f.name in raw}
    arena = _ArenaKeys(**coerce_fields(_ArenaKeys, arena_raw, source))
    occlusions_text = raw.pop("occlusions", "")
    windows = []
    for chunk in filter(None, (c.strip() for c in occlusions_text.split(","))):
        try:
            identity, start, end = (int(p) for p in chunk.split(":"))
        except ValueError:
            raise ConfigError(
                f"{source}: malformed value for 'occlusions': {chunk!r}") from None
        windows.append((identity, start, end))
    return ScenarioSpec(
        **coerce_fields(ScenarioSpec, raw, source),
        arena=(arena.arena_width, arena.arena_height),
        occlusions=tuple(windows))


def load_scenario(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read(), source=str(path))


def with_seed(spec: ScenarioSpec, seed: int) -> ScenarioSpec:
    return replace(spec, seed=seed)
