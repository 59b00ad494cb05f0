"""Core domain types: boxes, detections, tracker configuration and presets."""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np


class ConfigError(ValueError):
    """Raised for invalid configuration values, unknown keys or presets."""


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel-space box in (left, top, width, height) form."""

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self):
        isfinite = math.isfinite
        if not (isfinite(self.left) and isfinite(self.top)
                and isfinite(self.width) and isfinite(self.height)):
            raise ValueError(
                f"box fields must be finite, got ({self.left}, {self.top}, "
                f"{self.width}, {self.height})"
            )
        if not (self.width > 0 and self.height > 0):
            raise ValueError(
                f"box width and height must be positive, got "
                f"({self.width}, {self.height})"
            )

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    def to_center(self) -> np.ndarray:
        """Return the (cx, cy, aspect, height) measurement vector."""
        return np.array(
            [
                self.left + self.width / 2.0,
                self.top + self.height / 2.0,
                self.width / self.height,
                self.height,
            ]
        )

    @classmethod
    def from_center(cls, vec) -> "BoundingBox":
        """Inverse of :meth:`to_center`."""
        cx, cy, aspect, height = (float(v) for v in vec)
        width = aspect * height
        return cls(cx - width / 2.0, cy - height / 2.0, width, height)


@dataclass(frozen=True)
class Detection:
    """A single-frame detection with appearance embedding.

    The embedding is expected to be L2-normalized; loaders normalize on
    ingestion so the tracker can treat dot products as cosine similarity.
    """

    frame: int
    box: BoundingBox
    confidence: float
    embedding: np.ndarray

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(
                f"confidence must be within [0, 1], got {self.confidence}"
            )
        if not np.isfinite(self.embedding).all():
            raise ValueError("embedding values must be finite")


class TrackState(enum.Enum):
    """Track lifecycle. Tentative -> Confirmed -> Deleted; Deleted is terminal."""

    Tentative = 1
    Confirmed = 2
    Deleted = 3


@dataclass(frozen=True)
class TrackerConfig:
    """The tunable tracker hyperparameters.

    Defaults are the balanced baseline (preset ``config1``). ``nn_budget``
    is kept for DeepSort compatibility; the pooled feature buffer supersedes
    it and it has no effect on association.
    """

    min_confidence: float = 0.5
    max_dist: float = 0.2
    max_iou_distance: float = 0.7
    nms_max_overlap: float = 0.7
    max_age: int = 30
    n_init: int = 3
    nn_budget: int = 100
    feature_buffer_size: int = 5

    def __post_init__(self):
        if not (0.0 <= self.min_confidence <= 1.0):
            raise ConfigError(
                f"min_confidence must be within [0, 1], got {self.min_confidence}"
            )
        for name in ("max_dist", "max_iou_distance", "nms_max_overlap"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ConfigError(
                    f"{name} must be within (0, 1], got {value}"
                )
        for name in ("max_age", "n_init", "nn_budget", "feature_buffer_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(
                    f"{name} must be a positive integer, got {value!r}"
                )


_BASELINE = TrackerConfig()

# Named presets: a balanced baseline plus the documented variations around
# it. config7 is the slot for genetic-algorithm output; until an `optimize`
# run produces values it carries the baseline.
PRESETS = {
    "config1": _BASELINE,
    "config2": replace(_BASELINE, min_confidence=0.7),
    "config3": replace(_BASELINE, max_dist=0.4, max_age=80),
    "config4": replace(_BASELINE, nms_max_overlap=0.3, max_iou_distance=0.3),
    "config5": replace(_BASELINE, nms_max_overlap=0.9, max_iou_distance=0.9),
    "config6": replace(_BASELINE, min_confidence=0.3, max_dist=0.6),
    "config7": _BASELINE,
}


def load_preset(name: str) -> TrackerConfig:
    """Look up a named configuration preset.

    Raises ConfigError for unknown names.
    """
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; expected one of {sorted(PRESETS)}"
        ) from None


def parse_kv_lines(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into a dict.

    ``#`` begins a comment (full-line or trailing); blank lines are skipped.
    Duplicate keys are rejected so silent overrides cannot hide typos.
    """
    result: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in result:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        result[key] = value
    return result


# The field types a settings file can set. Settings dataclasses are declared
# under postponed annotations, so a field's type is the name of its type.
_KEY_TYPES = {"int": int, "float": float, "str": str}


def coerce_fields(cls, raw: dict[str, str], source: str) -> dict:
    """Turn ``key = value`` strings into the typed field values of the
    settings dataclass `cls`.

    The keys are the ``int``, ``float`` and ``str`` fields of `cls`; tuple
    fields are not keys. Unknown keys, malformed numbers, non-finite floats
    and missing fields without a default raise ConfigError naming `source`.
    """
    known = {f.name: f for f in fields(cls) if f.type in _KEY_TYPES}
    values = {}
    for key, text_value in raw.items():
        if key not in known:
            raise ConfigError(
                f"{source}: unknown key {key!r}; expected one of {sorted(known)}"
            )
        kind = known[key].type
        try:
            values[key] = _KEY_TYPES[kind](text_value)
        except ValueError:
            raise ConfigError(
                f"{source}: value for {key!r} is not a valid {kind}: {text_value!r}"
            ) from None
        if kind == "float" and not math.isfinite(values[key]):
            raise ConfigError(f"{source}: value for {key!r} must be finite")
    missing = [name for name, f in known.items() if name not in values
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{source}: missing keys {missing}")
    return values


def parse_config_text(text: str, source: str = "<config>") -> TrackerConfig:
    """Build a TrackerConfig from ``key = value`` text.

    Keys not present keep their baseline defaults; unknown keys and
    out-of-range values raise ConfigError naming the offending field.
    """
    return TrackerConfig(**coerce_fields(TrackerConfig, parse_kv_lines(text, source), source))


def load_config(path) -> TrackerConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def format_config(config: TrackerConfig) -> str:
    """Serialize a TrackerConfig in the ``key = value`` file format."""
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in fields(config)]
    return "\n".join(lines) + "\n"
