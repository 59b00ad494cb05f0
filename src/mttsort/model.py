"""Core domain types: boxes, detections, tracker configuration and presets."""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np


class DataError(ValueError):
    """Invalid input: a data file, a settings file or a named preset.

    The CLI reports these as data errors (exit 2); any other exception is
    a fault of the program and keeps its traceback.
    """


class ConfigError(DataError):
    """Raised for invalid configuration values, unknown keys or presets."""


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel-space box in (left, top, width, height) form.

    Every field is finite, both sides are positive, the area width * height
    is a positive finite number, and the right and bottom edges are finite.
    """

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self):
        width, height = self.width, self.height
        isfinite = math.isfinite
        # A positive width with a positive finite area makes both sides
        # positive and finite, and a finite edge then makes its origin
        # finite: this test passes exactly the boxes the checks below do.
        if (width > 0 and 0 < width * height < math.inf
                and isfinite(self.left + width) and isfinite(self.top + height)):
            return
        left, top = self.left, self.top
        if not (isfinite(left) and isfinite(top) and isfinite(width)
                and isfinite(height)):
            raise ValueError(
                f"box fields must be finite, got ({left}, {top}, {width}, {height})"
            )
        if not (width > 0 and height > 0):
            raise ValueError(
                f"box width and height must be positive, got ({width}, {height})"
            )
        if not 0 < width * height < math.inf:
            raise ValueError(
                f"box area width * height must be positive and finite, got "
                f"{width} * {height} = {width * height}"
            )
        raise ValueError(
            f"box right and bottom edges must be finite, got "
            f"({left + width}, {top + height})"
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
        frame = self.frame
        if type(frame) is not int and (
                isinstance(frame, bool) or not isinstance(frame, numbers.Integral)):
            raise ValueError(f"frame index must be an integer, got {frame!r}")
        if frame < 1:
            raise ValueError(f"frame index must be >= 1, got {frame}")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(
                f"confidence must be within [0, 1], got {self.confidence}"
            )
        if not np.isfinite(self.embedding).all():
            raise ValueError("embedding values must be finite")


# The box helpers below take and return (n, k) float arrays, one box a row,
# and do BoundingBox's own arithmetic column by column, so each entry
# equals the per-object value bit for bit.

def box_columns(ltwh: np.ndarray) -> np.ndarray:
    """The (left, top, right, bottom, area) rows of (left, top, width,
    height) rows, as BoundingBox's properties compute them."""
    out = np.empty((len(ltwh), 5))
    out[:, :2] = ltwh[:, :2]
    np.add(ltwh[:, :2], ltwh[:, 2:], out=out[:, 2:4])
    np.multiply(ltwh[:, 2], ltwh[:, 3], out=out[:, 4])
    return out


def center_columns(ltwh: np.ndarray) -> np.ndarray:
    """The `BoundingBox.to_center` rows of (left, top, width, height) rows."""
    out = np.empty((len(ltwh), 4))
    np.add(ltwh[:, :2], ltwh[:, 2:] / 2.0, out=out[:, :2])
    np.divide(ltwh[:, 2], ltwh[:, 3], out=out[:, 2])
    out[:, 3] = ltwh[:, 3]
    return out


def box_rows(ltwh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `box_columns` of (left, top, width, height) rows, and the mask of
    rows that make a BoundingBox: finite box columns, a positive area and a
    positive height, BoundingBox's own checks. Rows out of range give inf
    or NaN columns, not a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        boxes = box_columns(ltwh)
        valid = np.isfinite(boxes).all(axis=1) & (boxes[:, 4] > 0) & (ltwh[:, 3] > 0)
    return boxes, valid


def center_box_rows(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`box_rows` of the (left, top, width, height) rows that
    `BoundingBox.from_center` makes of (cx, cy, aspect, height) rows, in
    one pass with the same operations in the same order: width is aspect
    * height, left and top are cx - width / 2 and cy - height / 2. A state
    far out of range gives inf or NaN columns and an invalid row, not a
    numpy warning."""
    n = len(centers)
    sides = np.empty((n, 2))
    boxes = np.empty((n, 5))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(centers[:, 2], centers[:, 3], out=sides[:, 0])
        sides[:, 1] = centers[:, 3]
        np.subtract(centers[:, :2], sides / 2.0, out=boxes[:, :2])
        np.add(boxes[:, :2], sides, out=boxes[:, 2:4])
        np.multiply(sides[:, 0], sides[:, 1], out=boxes[:, 4])
        valid = np.isfinite(boxes).all(axis=1) & (boxes[:, 4] > 0) & (sides[:, 1] > 0)
    return boxes, valid


def iou_columns(a, b) -> np.ndarray:
    """Intersection-over-union of every row of `a` with every row of `b`,
    as a (len(a), len(b)) array in [0, 1]; rows are (left, top, right,
    bottom, area) box columns (`box_columns`).

    Each entry is inter / (area_a + area_b - inter) in that order, so
    iou_columns(b, a) is exactly iou_columns(a, b).T.
    """
    # Fields down the first axis; `a` runs down, `b` across.
    return _iou_of_fields(a.T[:, :, None], b.T[:, None, :])


def _iou_of_fields(a, b) -> np.ndarray:
    """The `iou_columns` expression on box fields (left, top, right,
    bottom, area) down the first axis of `a` and `b`, broadcast against
    each other over the other axes; each entry is the bits of its pair's
    `iou_columns` entry."""
    # Overlap width and height, zero where the boxes are apart.
    extent = np.maximum(np.minimum(a[2:4], b[2:4]) - np.maximum(a[:2], b[:2]), 0.0)
    inter = extent[0] * extent[1]
    return inter / (a[4] + b[4] - inter)


# The most IoU entries one `block_ious` batch computes at once, so its
# temporaries stay a few MB however many blocks there are.
_OVERLAP_BATCH_ENTRIES = 1 << 14


def block_ious(a, a_first, rows, b, b_first, cols):
    """The `iou_columns` matrices of blocks of box-column rows, in batches.

    Block k is the rows a_first[k]:a_first[k] + rows[k] of `a` against
    the rows b_first[k]:b_first[k] + cols[k] of `b` (int64 arrays, one
    entry a block). The blocks of one shape (r, c), r and c positive, are
    gathered field by field into one contiguous (5, K, r) and one
    (5, K, c) stack, at most _OVERLAP_BATCH_ENTRIES // (r * c) blocks (at
    least one), whose (K, r, c) IoUs are one `_iou_of_fields` call. Yields
    (blocks, ious) for each batch: the batch's block numbers, ascending,
    and their matrices. Each entry is the bits of the per-block call, and
    the batch warns as numpy's error state says, on exactly the entries
    whose per-block call would.
    """
    a_fields, b_fields = a.T, b.T
    shape = rows * (int(cols.max(initial=0)) + 1) + cols
    for code in np.unique(shape[(rows > 0) & (cols > 0)]).tolist():
        blocks = np.flatnonzero(shape == code)
        r, c = int(rows[blocks[0]]), int(cols[blocks[0]])
        per_call = max(1, _OVERLAP_BATCH_ENTRIES // (r * c))
        for i in range(0, len(blocks), per_call):
            batch = blocks[i:i + per_call]
            a_stack = a_fields[:, a_first[batch, None] + np.arange(r)]
            b_stack = b_fields[:, b_first[batch, None] + np.arange(c)]
            yield batch, _iou_of_fields(a_stack[..., :, None], b_stack[..., None, :])


def _frame_overlaps(boxes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """For each box-column row of `boxes`, whose frames are the blocks
    starts[f]:starts[f + 1], the largest `iou_columns` value with another
    row of its frame: NaN if one of those is NaN, -inf for a row alone.

    Each frame of two or more rows is one `block_ious` block, its rows
    against themselves. Warnings are off: the values are those of the
    per-frame call, whose own warnings come where `preprocess` makes it.
    """
    overlap = np.full(len(boxes), -np.inf)
    firsts = starts[:-1]
    sizes = np.diff(starts)
    # A row alone keeps -inf; its frame is no block.
    sizes[sizes == 1] = 0
    with np.errstate(all="ignore"):
        for frames, ious in block_ious(boxes, firsts, sizes, boxes, firsts, sizes):
            m = ious.shape[1]
            ious[:, range(m), range(m)] = -np.inf
            overlap[firsts[frames, None] + np.arange(m)] = ious.max(axis=2)
    return overlap


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """A detection stream as columns, one row per detection, in the order
    of its source: `frame` int64 (n,), `ltwh` (n, 4) (left, top, width,
    height) rows, `confidence` (n,) and `embeddings` (n, D). The columns
    may be views of a loader's array; instances are not changed once
    built.

    Iterating a table builds its `Detection` objects, stably sorted by
    frame.
    """

    frame: np.ndarray
    ltwh: np.ndarray
    confidence: np.ndarray
    embeddings: np.ndarray

    def __len__(self) -> int:
        return len(self.frame)

    def __iter__(self):
        frames, ltwh = self.frame.tolist(), self.ltwh.tolist()
        confidence, embeddings = self.confidence.tolist(), self.embeddings
        for i in np.argsort(self.frame, kind="stable").tolist():
            yield Detection(frames[i], BoundingBox(*ltwh[i]), confidence[i], embeddings[i])

    @classmethod
    def of(cls, detections) -> "DetectionTable":
        """A table as it is; the columns of any other iterable of
        detections, in its order. Frames must fit int64."""
        if isinstance(detections, DetectionTable):
            return detections
        detections = tuple(detections)
        n = len(detections)
        boxes = [d.box for d in detections]
        ltwh = np.array([[b.left for b in boxes], [b.top for b in boxes],
                         [b.width for b in boxes], [b.height for b in boxes]],
                        dtype=float).reshape(4, n).T
        embeddings = (np.array([d.embedding for d in detections], dtype=float)
                      .reshape(n, -1) if n else np.zeros((0, 0)))
        return cls(np.array([d.frame for d in detections], dtype=np.int64), ltwh,
                   np.array([d.confidence for d in detections], dtype=float), embeddings)

    def stream_columns(self) -> tuple[np.ndarray, "FrameDetections"]:
        """The frames and the columns of the rows, sorted by frame and then
        by descending confidence, both stable; `overlap` is taken within
        each frame."""
        order = np.argsort(-self.confidence, kind="stable")
        order = order[np.argsort(self.frame[order], kind="stable")]
        frames, ltwh = self.frame[order], self.ltwh[order]
        boxes = box_columns(ltwh)
        starts = np.concatenate(([0], np.flatnonzero(frames[1:] != frames[:-1]) + 1,
                                 [len(frames)]))
        return frames, FrameDetections(
            None, self.confidence[order], boxes, center_columns(ltwh),
            self.embeddings[order], _frame_overlaps(boxes, starts))


@dataclass(eq=False)
class FrameDetections:
    """One frame's detections as columns, one row per detection.

    Rows are in descending confidence (a stable sort: ties keep input
    order). `boxes` rows are (left, top, right, bottom, area) and
    `measurements` rows are `to_center()` vectors, computed as
    BoundingBox computes them, so every entry equals the per-object value
    bit for bit. `overlap` holds each row's largest IoU with another row
    of its frame as the stream was built (`_frame_overlaps`): NaN if one
    of those IoUs is NaN, -inf for a row alone. It bounds the row's IoU
    with every other row here, for a `take` of rows too, so a row whose
    `overlap` is at most a threshold overlaps no row here by more.
    `frame` is None for a frame built from no detections. Instances are
    not changed once built.
    """

    frame: int | None
    confidence: np.ndarray
    boxes: np.ndarray
    measurements: np.ndarray
    embeddings: np.ndarray
    overlap: np.ndarray

    def __len__(self) -> int:
        return len(self.confidence)

    def take(self, rows) -> "FrameDetections":
        """The rows `rows` (a list of indices or a slice), in that order."""
        return FrameDetections(self.frame, self.confidence[rows], self.boxes[rows],
                               self.measurements[rows], self.embeddings[rows],
                               self.overlap[rows])

    @classmethod
    def of(cls, detections) -> "FrameDetections":
        """The columns of detections all of one frame: a `DetectionTable`
        or any iterable of `Detection`."""
        frames, columns = DetectionTable.of(detections).stream_columns()
        if frames.size and frames[0] != frames[-1]:
            raise ValueError(
                f"detections of frames {sorted(set(frames.tolist()))} given as one frame")
        return replace(columns, frame=int(frames[0]) if frames.size else None)

    @classmethod
    def stream(cls, detections, frame_count: int) -> list["FrameDetections"]:
        """The columns of frames 1..frame_count of a detection stream, a
        `DetectionTable` or any iterable of `Detection`, one entry per
        frame; detections of later frames, whatever their frame number,
        are left out.

        The stream's columns are built once, and each frame's columns are
        views of a block of their rows.
        """
        if not isinstance(detections, DetectionTable):
            detections = DetectionTable.of(d for d in detections if d.frame <= frame_count)
        frames, columns = detections.stream_columns()
        starts = np.searchsorted(frames, np.arange(1, frame_count + 2)).tolist()
        return [cls(frame, columns.confidence[a:b], columns.boxes[a:b],
                    columns.measurements[a:b], columns.embeddings[a:b],
                    columns.overlap[a:b])
                for frame, a, b in zip(range(1, frame_count + 1), starts, starts[1:])]


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


def build_settings(cls, raw: dict[str, str], source: str, **extra):
    """Build the settings dataclass `cls` from ``key = value`` strings (read
    by `coerce_fields`) plus the typed values `extra`.

    A value the dataclass's own checks reject raises ConfigError with
    `source` in front of the dataclass's message.
    """
    values = coerce_fields(cls, raw, source)
    try:
        return cls(**values, **extra)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def parse_config_text(text: str, source: str = "<config>") -> TrackerConfig:
    """Build a TrackerConfig from ``key = value`` text.

    Keys not present keep their baseline defaults; unknown keys and
    out-of-range values raise ConfigError naming the source and the
    offending field.
    """
    return build_settings(TrackerConfig, parse_kv_lines(text, source), source)


def load_config(path) -> TrackerConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def format_config(config: TrackerConfig) -> str:
    """Serialize a TrackerConfig in the ``key = value`` file format."""
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in fields(config)]
    return "\n".join(lines) + "\n"
