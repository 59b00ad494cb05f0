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

Each data file is converted by one ``np.loadtxt`` call and its rows are
checked as columns. Numbers follow numpy's text grammar, which is that of
Python's ``float()`` and ``int()`` (surrounding whitespace, a sign,
leading zeros, ``nan``, ``inf``, exponents) except that underscores
(``1_0``) and non-ASCII digits are not numbers. Frames and ids are
integers (``1.0`` is not one), and ids load as Python ints of any size.
Blank and whitespace-only lines are skipped. A file that fails is read
again row by row, and its ParseError names the first bad line, with the
checks of a row made in the order its parser documents.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import NoReturn

import numpy as np

from .metrics import EvalReport, GtEntry
from .model import (BoundingBox, ConfigError, DataError, Detection, DetectionTable,
                    box_rows, build_settings, center_columns, parse_kv_lines)
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
    """A parsed sequence directory: metadata, detections, optional GT.

    `load_sequence` gives the detections as one `DetectionTable`; any
    iterable of `Detection` tracks the same.
    """

    detections: DetectionTable | tuple
    gt: tuple | None = None


def _table(path, dtype: np.dtype) -> np.ndarray | None:
    """The non-blank lines of a comma-separated file as one structured
    array, converted by one `np.loadtxt` call; None if a line has another
    field count than `dtype` or a field that does not convert."""
    with open(path, "r", encoding="utf-8") as fh:
        # loadtxt rejects whitespace-only lines and warns on no lines.
        lines = (line for line in fh if not line.isspace())
        first = next(lines, None)
        if first is None:
            return np.empty(0, dtype)
        try:
            return np.loadtxt(itertools.chain((first,), lines), dtype=dtype,
                              delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return None


def _ints(texts) -> list[int] | None:
    """The integer fields `texts` (an object column of loadtxt's) as Python
    ints of any size; None if one is not an integer in numpy's grammar,
    which is `int()`'s without underscores or non-ASCII digits."""
    # int() does not strip the separators \x1c-\x1f; numpy and str.strip do.
    texts = list(map(str.strip, texts))
    joined = "".join(texts)
    if "_" in joined or not joined.isascii():
        return None
    try:
        return list(map(int, texts))
    except ValueError:
        return None


def _frames_ok(frames: list[int], frame_count: int | None) -> bool:
    return (min(frames, default=1) >= 1
            and (frame_count is None or max(frames, default=1) <= frame_count))


def _confidences_ok(confidence: np.ndarray) -> bool:
    return bool(((confidence >= 0.0) & (confidence <= 1.0)).all())


def _unique_pair_order(frames: list[int], ids: list[int]) -> list[int] | None:
    """The row indices in (frame, id) order, by two stable index sorts; None
    if two rows share a (frame, id) pair, found by comparing neighbours in
    that order."""
    order = sorted(range(len(frames)), key=ids.__getitem__)
    order.sort(key=frames.__getitem__)
    for a, b in zip(order, order[1:]):
        if frames[a] == frames[b] and ids[a] == ids[b]:
            return None
    return order


# The error path. A file the bulk conversion or checks reject is read
# again, and each row is checked on its own in its parser's documented
# order until one raises. These checks build nothing, so no file is
# accepted here.

def _raise_first_error(path, check_row, *args) -> NoReturn:
    """Raise the ParseError of the first line of `path` that
    `check_row(fields, where, *args)` rejects; `fields` are the row's
    stripped fields and `where` is ``path:lineno``."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                check_row([f.strip() for f in line.split(",")], f"{path}:{lineno}", *args)
    raise RuntimeError(f"{path}: rejected as a whole, but no line fails its row checks")


def _number(text: str, kind, where: str, what: str):
    """A stripped field as `kind` (float or int), in the grammar of the
    bulk conversion: without underscores and non-ASCII characters,
    `float()` accepts exactly the texts numpy's parser does, and `int()`
    those `_ints` does."""
    if "_" not in text and text.isascii():
        try:
            return kind(text)
        except ValueError:
            pass
    noun = "a number" if kind is float else "an integer"
    raise ParseError(f"{where}: {what} is not {noun}: {text!r}")


def _check_field_count(fields, n_fields: int, where: str) -> None:
    if len(fields) != n_fields:
        raise ParseError(
            f"{where}: expected {n_fields} comma-separated fields, got {len(fields)}")


def _check_frame(text: str, where: str, frame_count: int | None) -> int:
    frame = _number(text, int, where, "frame")
    if frame_count is None:
        if frame < 1:
            raise ParseError(f"{where}: frame {frame} is below 1")
    elif not 1 <= frame <= frame_count:
        raise ParseError(f"{where}: frame {frame} outside [1, {frame_count}]")
    return frame


def _check_box(numbers, where: str) -> BoundingBox:
    try:
        return BoundingBox(*numbers)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _check_detection_row(fields, where, expected_dim, frame_count) -> None:
    if len(fields) < 8:
        raise ParseError(
            f"{where}: detection rows need at least 8 fields "
            f"(frame,-1,left,top,width,height,conf,embedding...), got "
            f"{len(fields)}"
        )
    if len(fields) != 7 + expected_dim:
        raise ParseError(
            f"{where}: expected embedding dimension {expected_dim}, "
            f"row has {len(fields) - 7} embedding fields"
        )
    frame = _check_frame(fields[0], where, frame_count)
    if _number(fields[1], float, where, "id field") != -1:
        raise ParseError(f"{where}: detection id field must be -1, got {fields[1]!r}")
    numbers = [_number(f, float, where, "field") for f in fields[2:]]
    embedding = np.array(numbers[5:])
    if not np.isfinite(embedding).all():
        raise ParseError(f"{where}: embedding values must be finite")
    # A finite row has no direction only if it is all zero (see _unit_rows).
    if not embedding.any():
        raise ParseError(f"{where}: embedding has zero norm")
    box = _check_box(numbers[:4], where)
    center = (box.left + box.width / 2.0, box.top + box.height / 2.0,
              box.width / box.height)
    if not (center[2] > 0 and all(map(math.isfinite, center))):
        raise ParseError(
            f"{where}: box center and aspect (cx, cy, width/height) "
            f"must be finite with a positive aspect, got {center}")
    try:
        Detection(frame=frame, box=box, confidence=numbers[4], embedding=embedding)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _check_gt_row(fields, where, frame_count, seen) -> None:
    _check_field_count(fields, 6, where)
    frame = _check_frame(fields[0], where, frame_count)
    identity = _number(fields[1], int, where, "identity")
    if (frame, identity) in seen:
        raise ParseError(
            f"{where}: duplicate (frame, identity) ({frame}, {identity})")
    seen.add((frame, identity))
    _check_box([_number(f, float, where, "field") for f in fields[2:]], where)


def _check_result_row(fields, where, frame_count, seen) -> None:
    _check_field_count(fields, 10, where)
    if fields[7:] != ["-1", "-1", "-1"]:
        raise ParseError(f"{where}: result rows must end with -1,-1,-1")
    frame = _check_frame(fields[0], where, frame_count)
    track_id = _number(fields[1], int, where, "track id")
    numbers = [_number(f, float, where, "field") for f in fields[2:7]]
    _check_box(numbers[:4], where)
    if not (0.0 <= numbers[4] <= 1.0):
        raise ParseError(
            f"{where}: confidence must be within [0, 1], got {numbers[4]}")
    if (frame, track_id) in seen:
        raise ParseError(
            f"{where}: duplicate track id {track_id} in frame {frame}")
    seen.add((frame, track_id))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The L2 norm of each row, as `np.linalg.norm` computes it for the row
    alone: the square root of a BLAS dot product of the row with itself,
    which a stacked (1, D) @ (D, 1) matmul makes per row."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _unit_rows(embeddings: np.ndarray) -> None:
    """Divide each finite, not all-zero row of `embeddings` in place by its
    L2 norm; a row whose norm overflows or is below 1e-9 is first divided
    by its largest magnitude, so that every such row has a direction."""
    norms = _row_norms(embeddings)
    rescale = ~((norms >= 1e-9) & (norms < np.inf))
    if rescale.any():
        rows = embeddings[rescale]
        rows /= np.abs(rows).max(axis=1, keepdims=True)
        embeddings[rescale] = rows
        norms[rescale] = _row_norms(rows)
    embeddings /= norms[:, None]


def _detections_ok(table: np.ndarray, frames: list[int], frame_count: int) -> bool:
    embeddings, ltwh = table["embedding"], table["box"]
    if not (_frames_ok(frames, frame_count) and (table["sentinel"] == -1).all()
            and np.isfinite(embeddings).all() and embeddings.any(axis=1).all()
            and box_rows(ltwh)[1].all()):
        return False
    # The tracker works on the (cx, cy, aspect, height) form of a box.
    with np.errstate(over="ignore"):
        centers = center_columns(ltwh)
    return bool(np.isfinite(centers).all() and (centers[:, 2] > 0).all()
                and _confidences_ok(table["confidence"]))


_LAST_FRAME = int(np.iinfo(np.int64).max)


def _detection_table(path, expected_dim: int, frame_count: int) -> DetectionTable:
    """The rows of a detections file as one table in file order: its
    columns are views of the parser's checked array, with each embedding
    L2-normalized in place, and its frames one int64 array, so a frame
    past the largest int64 is out of range whatever `frame_count` is."""
    frame_count = min(frame_count, _LAST_FRAME)
    table = _table(path, np.dtype([
        ("frame", object), ("sentinel", float), ("box", float, (4,)),
        ("confidence", float), ("embedding", float, (expected_dim,))]))
    frames = None if table is None else _ints(table["frame"])
    if frames is None or not _detections_ok(table, frames, frame_count):
        _raise_first_error(path, _check_detection_row, expected_dim, frame_count)
    embeddings = table["embedding"]
    _unit_rows(embeddings)
    return DetectionTable(np.array(frames, dtype=np.int64), table["box"],
                          table["confidence"], embeddings)


def parse_detections(path, expected_dim: int, frame_count: int) -> list[Detection]:
    """Load detections-with-embeddings rows, sorted by frame.

    Embeddings are L2-normalized here; a row whose embedding dimension
    disagrees with `expected_dim`, or whose frame is outside
    [1, frame_count] or past the largest int64, is a schema error. A
    row's checks come in this order: field count, frame, the -1 id field,
    numbers, a finite and nonzero embedding, the box, its center form, the
    confidence. Each detection's embedding is a row of one array of the
    file's. These are the detections of the file's `DetectionTable`, which
    `load_sequence` keeps instead.
    """
    return list(_detection_table(path, expected_dim, frame_count))


def _box_fields(box: BoundingBox) -> str:
    """A box's ``left,top,width,height`` fields with two decimals; a side
    below 0.01 is written as 0.01, so it does not print as 0.00 and every
    written box reads back as a box."""
    return (f"{box.left:.2f},{box.top:.2f},"
            f"{max(box.width, 0.01):.2f},{max(box.height, 0.01):.2f}")


def write_detections(detections, path) -> None:
    patterns = {}  # embedding length -> "%.10g,...,%.10g"
    with open(path, "w", encoding="utf-8") as fh:
        for det in detections:
            values = tuple(det.embedding.tolist())
            pattern = patterns.get(len(values))
            if pattern is None:
                pattern = patterns[len(values)] = ",".join(["%.10g"] * len(values))
            fh.write(f"{det.frame},-1,{_box_fields(det.box)},{det.confidence:.4f},"
                     f"{pattern % values}\n")


def parse_gt(path, frame_count: int) -> list[GtEntry]:
    """Load ground-truth rows; (frame, identity) pairs must be unique and
    frames within [1, frame_count]. A row's checks come in this order:
    field count, frame, identity, uniqueness, numbers, the box."""
    table = _table(path, np.dtype([
        ("frame", object), ("identity", object), ("box", float, (4,))]))
    order = None
    if table is not None:
        frames, identities = _ints(table["frame"]), _ints(table["identity"])
        if frames is not None and identities is not None:
            order = _unique_pair_order(frames, identities)
    if (order is None or not _frames_ok(frames, frame_count)
            or not box_rows(table["box"])[1].all()):
        _raise_first_error(path, _check_gt_row, frame_count, set())
    boxes = table["box"].tolist()
    return [GtEntry(frames[i], identities[i], BoundingBox(*boxes[i])) for i in order]


def write_gt(entries, path) -> None:
    rows = sorted(entries, key=attrgetter("identity"))
    rows.sort(key=attrgetter("frame"))
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


def _exact_text(value: float) -> str:
    """`value` as ``:g`` prints it (``1920``) where that reads back as
    `value`, else its shortest text that does (``1234567.0``)."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def write_meta(meta: SequenceMeta, path) -> None:
    """Write ``meta.txt``; ValueError before opening it for a name with ``#``,
    a line break or surrounding whitespace, which `parse_meta` misreads."""
    name = meta.name
    if "#" in name or name != name.strip() or len(name.splitlines()) > 1:
        raise ValueError(f"sequence name {name!r} does not read back from meta.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"name = {meta.name}\n")
        fh.write(f"frame_count = {meta.frame_count}\n")
        fh.write(f"width = {_exact_text(meta.width)}\n")
        fh.write(f"height = {_exact_text(meta.height)}\n")
        fh.write(f"embedding_dim = {meta.embedding_dim}\n")


def load_sequence(directory) -> Sequence:
    """Read a sequence directory (meta + detections + optional GT)."""
    meta = parse_meta(os.path.join(directory, META_FILE))
    detections = _detection_table(os.path.join(directory, DET_FILE),
                                  meta.embedding_dim, meta.frame_count)
    gt = None
    gt_path = os.path.join(directory, GT_FILE)
    if os.path.exists(gt_path):
        gt = tuple(parse_gt(gt_path, meta.frame_count))
    return Sequence(**asdict(meta), detections=detections, gt=gt)


def write_sequence(directory, meta: SequenceMeta, detections, gt=None) -> None:
    os.makedirs(directory, exist_ok=True)
    write_meta(meta, os.path.join(directory, META_FILE))
    write_detections(detections, os.path.join(directory, DET_FILE))
    if gt is not None:
        write_gt(gt, os.path.join(directory, GT_FILE))


def write_results(results, path) -> None:
    """Write FrameResults as result rows sorted by (frame, id), a stable
    sort of the results' records in order; each row is written with its
    own result's frame."""
    frames, ids, lines = [], [], []
    for res in results:
        frame = res.frame
        for track_id, box, confidence in res.records:
            frames.append(frame)
            ids.append(track_id)
            lines.append(f"{frame},{track_id},{_box_fields(box)},{confidence:.2f},-1,-1,-1\n")
    # Two stable sorts order as one on (frame, id) tuples does.
    order = sorted(range(len(lines)), key=ids.__getitem__)
    order.sort(key=frames.__getitem__)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([lines[i] for i in order])


def parse_results(path, frame_count: int | None = None) -> list[FrameResult]:
    """Inverse of write_results; rows grouped into per-frame results.

    Frames must be at least 1 and, with `frame_count` given, at most
    `frame_count`. A row's checks come in this order: field count, the
    -1,-1,-1 tail, frame, track id, numbers, the box, the confidence,
    uniqueness of (frame, track id).
    """
    table = _table(path, np.dtype([
        ("frame", object), ("track_id", object), ("box", float, (4,)),
        ("confidence", float), ("tail", object, (3,))]))
    order = None
    if table is not None:
        frames, track_ids = _ints(table["frame"]), _ints(table["track_id"])
        if frames is not None and track_ids is not None:
            order = _unique_pair_order(frames, track_ids)
    if (order is None
            or not all(t.strip() == "-1" for t in set(table["tail"].flat))
            or not _frames_ok(frames, frame_count)
            or not box_rows(table["box"])[1].all()
            or not _confidences_ok(table["confidence"])):
        _raise_first_error(path, _check_result_row, frame_count, set())
    boxes, confidence = table["box"].tolist(), table["confidence"].tolist()
    return [FrameResult(frame=frame, records=tuple(
                (track_ids[i], BoundingBox(*boxes[i]), confidence[i]) for i in rows))
            for frame, rows in itertools.groupby(order, key=frames.__getitem__)]


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

