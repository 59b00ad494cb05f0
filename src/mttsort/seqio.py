"""On-disk sequence format and result/report serialization.

A sequence directory holds:

* ``meta.txt``   — ``key = value``: name, frame_count, width, height,
  embedding_dim
* ``det.txt``    — ``frame,-1,left,top,width,height,conf,e1,...,eD``
* ``gt.txt``     — optional ground truth, ``frame,id,left,top,width,height``

Tracking results use the familiar ``frame,id,left,top,width,height,conf,
-1,-1,-1`` rows with fixed two-decimal coordinates so outputs are byte
stable. Every writer prints a box's width and height as at least 0.01, so
that a box it writes is never rejected when read back. Reports serialize
as ``metric = value`` lines with five decimals.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .metrics import EvalReport, GtEntry
from .model import (BoundingBox, ConfigError, DataError, Detection, build_settings,
                    parse_kv_lines)
from .tracker import FrameResult

META_FILE = "meta.txt"
DET_FILE = "det.txt"
GT_FILE = "gt.txt"


class ParseError(DataError):
    """Malformed data file; the message carries file and line number."""


@dataclass(frozen=True)
class SequenceMeta:
    name: str
    frame_count: int
    width: float
    height: float
    embedding_dim: int

    def __post_init__(self):
        for name in ("frame_count", "width", "height", "embedding_dim"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class Sequence(SequenceMeta):
    """A parsed sequence directory: metadata, detections, optional GT."""

    detections: tuple
    gt: tuple | None = None


def _rows(path, n_fields: int | None = None):
    """Yield (lineno, fields) for each non-blank line of a comma-separated
    file, fields stripped; with `n_fields` given, a row with another field
    count is a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if n_fields is not None and len(fields) != n_fields:
                raise ParseError(
                    f"{path}:{lineno}: expected {n_fields} comma-separated "
                    f"fields, got {len(fields)}"
                )
            yield lineno, fields


def _box(numbers, path, lineno: int) -> BoundingBox:
    try:
        return BoundingBox(*numbers)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from None


def _parse_float(text: str, path, lineno: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: {what} is not a number: {text!r}") from None


def _parse_int(text: str, path, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: {what} is not an integer: {text!r}") from None


def _parse_frame(text: str, path, lineno: int, frame_count: int) -> int:
    frame = _parse_int(text, path, lineno, "frame")
    if not 1 <= frame <= frame_count:
        raise ParseError(f"{path}:{lineno}: frame {frame} outside [1, {frame_count}]")
    return frame


def _unit_embedding(values, path, lineno: int) -> np.ndarray:
    """`values` divided by their L2 norm; first by their largest magnitude
    where that norm overflows or is below 1e-9, so only an all-zero row
    has no direction."""
    embedding = np.array(values)
    if not np.isfinite(embedding).all():
        raise ParseError(f"{path}:{lineno}: embedding values must be finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(embedding)
    if not 1e-9 <= norm < np.inf:
        scale = np.abs(embedding).max()
        if scale == 0:
            raise ParseError(f"{path}:{lineno}: embedding has zero norm")
        embedding = embedding / scale
        norm = np.linalg.norm(embedding)
    return embedding / norm


def parse_detections(path, expected_dim: int, frame_count: int) -> list[Detection]:
    """Load detections-with-embeddings rows, sorted by frame.

    Embeddings are L2-normalized here; a row whose embedding dimension
    disagrees with `expected_dim`, or whose frame is outside
    [1, frame_count], is a schema error.
    """
    detections = []
    for lineno, fields in _rows(path):
        if len(fields) < 8:
            raise ParseError(
                f"{path}:{lineno}: detection rows need at least 8 fields "
                f"(frame,-1,left,top,width,height,conf,embedding...), got "
                f"{len(fields)}"
            )
        if len(fields) != 7 + expected_dim:
            raise ParseError(
                f"{path}:{lineno}: expected embedding dimension {expected_dim}, "
                f"row has {len(fields) - 7} embedding fields"
            )
        frame = _parse_frame(fields[0], path, lineno, frame_count)
        sentinel = _parse_float(fields[1], path, lineno, "id field")
        if sentinel != -1:
            raise ParseError(
                f"{path}:{lineno}: detection id field must be -1, got "
                f"{fields[1]!r}"
            )
        numbers = [_parse_float(f, path, lineno, "field") for f in fields[2:]]
        embedding = _unit_embedding(numbers[5:], path, lineno)
        box = _box(numbers[:4], path, lineno)
        # The tracker works on the (cx, cy, aspect, height) form of a box.
        center = (box.left + box.width / 2.0, box.top + box.height / 2.0,
                  box.width / box.height)
        if not (center[2] > 0 and all(map(math.isfinite, center))):
            raise ParseError(
                f"{path}:{lineno}: box center and aspect (cx, cy, width/height) "
                f"must be finite with a positive aspect, got {center}")
        try:
            detections.append(Detection(
                frame=frame,
                box=box,
                confidence=numbers[4],
                embedding=embedding,
            ))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    detections.sort(key=lambda d: d.frame)
    return detections


def _box_fields(box: BoundingBox) -> str:
    """A box's ``left,top,width,height`` fields with two decimals; a side
    below 0.01 is written as 0.01, so it does not print as 0.00 and every
    written box reads back as a box."""
    return (f"{box.left:.2f},{box.top:.2f},"
            f"{max(box.width, 0.01):.2f},{max(box.height, 0.01):.2f}")


def write_detections(detections, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for det in detections:
            emb = ",".join(format(v, ".10g") for v in det.embedding)
            fh.write(f"{det.frame},-1,{_box_fields(det.box)},{det.confidence:.4f},{emb}\n")


def parse_gt(path, frame_count: int) -> list[GtEntry]:
    """Load ground-truth rows; (frame, identity) pairs must be unique and
    frames within [1, frame_count]."""
    entries = []
    seen = set()
    for lineno, fields in _rows(path, n_fields=6):
        frame = _parse_frame(fields[0], path, lineno, frame_count)
        identity = _parse_int(fields[1], path, lineno, "identity")
        if (frame, identity) in seen:
            raise ParseError(
                f"{path}:{lineno}: duplicate (frame, identity) "
                f"({frame}, {identity})"
            )
        seen.add((frame, identity))
        numbers = [_parse_float(f, path, lineno, "field") for f in fields[2:]]
        entries.append(GtEntry(frame, identity, _box(numbers, path, lineno)))
    entries.sort(key=lambda e: (e.frame, e.identity))
    return entries


def write_gt(entries, path) -> None:
    rows = sorted(entries, key=lambda e: (e.frame, e.identity))
    with open(path, "w", encoding="utf-8") as fh:
        for e in rows:
            fh.write(f"{e.frame},{e.identity},{_box_fields(e.box)}\n")


def parse_meta(path) -> SequenceMeta:
    source = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return build_settings(SequenceMeta, parse_kv_lines(text, source), source)
    except ConfigError as exc:
        raise ParseError(str(exc)) from None


def write_meta(meta: SequenceMeta, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"name = {meta.name}\n")
        fh.write(f"frame_count = {meta.frame_count}\n")
        fh.write(f"width = {meta.width:g}\n")
        fh.write(f"height = {meta.height:g}\n")
        fh.write(f"embedding_dim = {meta.embedding_dim}\n")


def load_sequence(directory) -> Sequence:
    """Read a sequence directory (meta + detections + optional GT)."""
    meta = parse_meta(os.path.join(directory, META_FILE))
    detections = parse_detections(os.path.join(directory, DET_FILE),
                                  meta.embedding_dim, meta.frame_count)
    gt = None
    gt_path = os.path.join(directory, GT_FILE)
    if os.path.exists(gt_path):
        gt = tuple(parse_gt(gt_path, meta.frame_count))
    return Sequence(**asdict(meta), detections=tuple(detections), gt=gt)


def write_sequence(directory, meta: SequenceMeta, detections, gt=None) -> None:
    os.makedirs(directory, exist_ok=True)
    write_meta(meta, os.path.join(directory, META_FILE))
    write_detections(detections, os.path.join(directory, DET_FILE))
    if gt is not None:
        write_gt(gt, os.path.join(directory, GT_FILE))


def write_results(results, path) -> None:
    """Write FrameResults as result rows sorted by (frame, id)."""
    rows = []
    for res in results:
        for track_id, box, confidence in res.records:
            rows.append((res.frame, track_id, box, confidence))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8") as fh:
        for frame, track_id, box, confidence in rows:
            fh.write(f"{frame},{track_id},{_box_fields(box)},{confidence:.2f},-1,-1,-1\n")


def parse_results(path) -> list[FrameResult]:
    """Inverse of write_results; rows grouped into per-frame results."""
    by_frame: dict[int, list] = {}
    seen = set()
    for lineno, fields in _rows(path, n_fields=10):
        if fields[7:] != ["-1", "-1", "-1"]:
            raise ParseError(
                f"{path}:{lineno}: result rows must end with -1,-1,-1")
        frame = _parse_int(fields[0], path, lineno, "frame")
        track_id = _parse_int(fields[1], path, lineno, "track id")
        numbers = [_parse_float(f, path, lineno, "field") for f in fields[2:7]]
        box = _box(numbers[:4], path, lineno)
        confidence = numbers[4]
        if not (0.0 <= confidence <= 1.0):
            raise ParseError(
                f"{path}:{lineno}: confidence must be within [0, 1], "
                f"got {confidence}"
            )
        if (frame, track_id) in seen:
            raise ParseError(
                f"{path}:{lineno}: duplicate track id {track_id} in "
                f"frame {frame}"
            )
        seen.add((frame, track_id))
        by_frame.setdefault(frame, []).append((track_id, box, confidence))
    results = []
    for frame in sorted(by_frame):
        records = sorted(by_frame[frame], key=lambda r: r[0])
        results.append(FrameResult(frame=frame, records=tuple(records)))
    return results


_REPORT_FLOATS = ("hota", "mota", "idf1", "det_re", "det_pr", "det_a", "ass_a")
_REPORT_COUNTS = (("fn", "fn_count"), ("fp", "fp_count"),
                  ("idsw", "idsw_count"), ("frag", "frag_count"))


def format_report(report: EvalReport) -> str:
    lines = [f"{name} = {getattr(report, name):.5f}" for name in _REPORT_FLOATS]
    lines += [f"{label} = {getattr(report, attr)}" for label, attr in _REPORT_COUNTS]
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report))

