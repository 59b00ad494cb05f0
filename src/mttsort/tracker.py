"""The per-frame tracking pipeline.

Each frame: filter and NMS the detections, Kalman-predict all live tracks
and delete those whose state is no box (`model.box_rows`' rule) or is
outside the filter's domain (`kalman.in_domain`), match confirmed tracks
by pooled appearance (cascade), match the remainder by IoU, update the
matched tracks, emit the confirmed tracks, keep the rows that can still
match and start new tracks.

A track is confirmed once it holds `confirm_hits = max(2, n_init)` hits
(a newborn holds one). A tentative track ends on its first miss, a
confirmed one after `max_age` misses in a row.

A frame's detections arrive as columns (`FrameDetections`), and the
tracker holds its live tracks as one `TrackStack` for its whole life:
row i's Kalman state is `mean[i]` and `covariance[i]` (its 2x2 blocks,
see `kalman`), and `tracks[i]` its id, lifecycle counters and feature
buffer. Every stage reads rows of those arrays; rows stay in ascending
track id.

Per-row work of a few flops runs on Python floats from one `tolist()`,
the same IEEE operations numpy does (overflow gives inf or NaN, with no
warning), without numpy's per-call cost; per-pair work and the Kalman
algebra stay in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import inf, isfinite

import numpy as np

from . import association
from .kalman import KalmanModel, in_domain
from .model import BoundingBox, FrameDetections, TrackerConfig


@dataclass
class Track:
    """One hypothesized trajectory's id, lifecycle counters and feature
    buffer; its Kalman state is its row of the tracker's `TrackStack`.
    It is confirmed while `hits >= Tracker.confirm_hits`, and the tracker
    drops its row by the keep rule of `Tracker._keep_and_initiate`."""

    track_id: int
    features: association.FeatureBuffer
    hits: int = 1
    time_since_update: int = 0
    last_confidence: float = 0.0


@dataclass(eq=False)
class TrackStack:
    """Track states as rows: `mean` (N, 8) and `covariance` (N, 3, 4) blocks
    (see `kalman`), with `tracks[i]` holding row i's id, lifecycle counters
    and feature buffer."""

    tracks: list
    mean: np.ndarray
    covariance: np.ndarray

    def __len__(self) -> int:
        return len(self.tracks)

    def take(self, rows: list) -> TrackStack:
        """The rows `rows`, in that order; the stack itself for all rows in
        order."""
        if rows == list(range(len(self.tracks))):
            return self
        return TrackStack([self.tracks[i] for i in rows], self.mean[rows],
                          self.covariance[rows])


@dataclass(frozen=True)
class FrameResult:
    """Confirmed-track output for one frame: (track_id, box, confidence)."""

    frame: int
    records: tuple


def preprocess(detections: FrameDetections, config: TrackerConfig) -> FrameDetections:
    """Confidence filtering followed by greedy NMS.

    Rows come in descending confidence (ties in input order), so the
    detections at or above min_confidence are a leading block. It is
    scanned in order, and a box is kept iff its IoU with every
    already-kept box is <= nms_max_overlap. The candidates' IoUs are
    computed only when there are two or more and one's `overlap` column
    fails that test; otherwise no candidate overlaps another by more, and
    none is dropped.
    """
    threshold, limit = config.min_confidence, config.nms_max_overlap
    # Every row is counted, as count_nonzero does; a NaN overlap fails `<=`.
    n = sum(c >= threshold for c in detections.confidence.tolist())
    dropped = set()
    if n > 1 and not all(o <= limit for o in detections.overlap[:n].tolist()):
        boxes = detections.boxes[:n]
        # Box k is dropped iff a kept box j < k overlaps it; the pairs come
        # in ascending k, so every j's fate is known when k is reached.
        rows, cols = np.nonzero(~(association.iou_columns(boxes, boxes) <= limit))
        for k, j in zip(rows.tolist(), cols.tolist()):
            if j < k and j not in dropped:
                dropped.add(k)
    if not dropped:
        return detections if n == len(detections) else detections.take(slice(0, n))
    return detections.take([k for k in range(n) if k not in dropped])


class Tracker:
    """Stateful tracker for one sequence; call step() once per frame."""

    def __init__(self, config: TrackerConfig):
        self.config = config
        self.confirm_hits = max(2, config.n_init)
        self.kalman = KalmanModel()
        self.stack = TrackStack([], np.zeros((0, 8)), np.zeros((0, 3, 4)))
        self._next_id = 1
        self._last_frame = 0

    def step(self, frame: int, detections: FrameDetections) -> FrameResult:
        """Advance one frame and return the confirmed-track records."""
        if frame <= self._last_frame:
            raise ValueError(
                f"frames must be strictly increasing: got {frame} after "
                f"{self._last_frame}"
            )
        if detections.frame not in (None, frame):
            raise ValueError(
                f"detection for frame {detections.frame} passed to step({frame})"
            )
        self._last_frame = frame

        detections = preprocess(detections, self.config)
        boxes = self._predict()
        matches, unmatched_det_idx = self._match(detections, boxes)
        self._update(detections, matches)
        result = self._emit(frame)
        self._keep_and_initiate(detections, unmatched_det_idx)
        return result

    def _predict(self) -> list:
        """One Kalman predict over the stack of all live tracks, replacing
        its arrays; rows whose state makes no BoundingBox by `box_rows`'
        rule or is outside the filter's domain are deleted. Returns the
        kept rows' (left, top, right, bottom, area) tuples,
        `BoundingBox.from_center`'s arithmetic on each predicted row."""
        stack = self.stack
        if not stack.tracks:
            return []
        stack.mean, stack.covariance = self.kalman.predict(stack.mean, stack.covariance)
        inside = in_domain(stack.mean[:, 3].tolist(), stack.covariance[:, 0].tolist())
        boxes, kept = [], []
        for i, (cx, cy, aspect, height) in enumerate(stack.mean[:, :4].tolist()):
            width = aspect * height
            left = cx - width / 2.0
            top = cy - height / 2.0
            right = left + width
            bottom = top + height
            area = width * height
            # A finite sum has finite terms: right and bottom cover the rest.
            if (isfinite(right) and isfinite(bottom) and 0.0 < area < inf and height > 0.0
                    and inside[i]):
                boxes.append((left, top, right, bottom, area))
                kept.append(i)
        if len(kept) < len(stack.tracks):
            self.stack = stack = stack.take(kept)
        for track in stack.tracks:
            track.time_since_update += 1
        return boxes

    def _update(self, detections: FrameDetections, matches) -> None:
        """One Kalman update over the stacked rows of the frame's (track,
        detection) matches.

        Every live row is in the filter's domain (`_predict`), so the update
        cannot fail. A stacked row equals its one-row call, so when every
        live row is matched (`matches` is sorted) the whole stack is
        updated, with no gather and scatter.
        """
        if not matches:
            return
        stack, kalman = self.stack, self.kalman
        rows = [i for i, _ in matches]
        measurements = detections.measurements[[j for _, j in matches]]
        if len(rows) == len(stack.tracks):
            stack.mean, stack.covariance = kalman.update(
                stack.mean, stack.covariance, measurements)
        else:
            stack.mean[rows], stack.covariance[rows] = kalman.update(
                stack.mean[rows], stack.covariance[rows], measurements)
        confidence = detections.confidence.tolist()
        for i, j in matches:
            track = stack.tracks[i]
            track.features.push(detections.embeddings[j])
            track.hits += 1
            track.time_since_update = 0
            track.last_confidence = confidence[j]

    def _match(self, detections: FrameDetections, boxes: list):
        """The frame's (track row, detection row) matches, sorted, and the
        detection rows left unmatched, in order. `boxes` are the stack's
        predicted box tuples (`_predict`).

        The cascade matches confirmed rows by appearance; the tentative
        rows and the confirmed rows missed for one frame then compete by
        IoU for the detections it left. With no such row or no such
        detection, the IoU stage is skipped: it could match nothing.
        """
        stack = self.stack
        tracks = stack.tracks
        confirm_hits = self.confirm_hits
        confirmed, tentative = [], []
        for i, track in enumerate(tracks):
            (confirmed if track.hits >= confirm_hits else tentative).append(i)

        cascade_matches, cascade_unmatched, unmatched_dets = \
            association.matching_cascade(
                stack.take(confirmed), detections, self.config, self.kalman)
        matches = [(confirmed[r], c) for r, c in cascade_matches]

        # Recently lost confirmed tracks get one IoU-based second chance,
        # together with the not-yet-confirmed tracks.
        iou_candidates = tentative + [
            confirmed[r] for r in cascade_unmatched
            if tracks[confirmed[r]].time_since_update == 1]
        if not iou_candidates or not unmatched_dets:
            return sorted(matches), unmatched_dets

        candidate_boxes = np.fromiter(
            chain.from_iterable([boxes[i] for i in iou_candidates]), float,
            5 * len(iou_candidates)).reshape(-1, 5)
        cost = association.iou_cost(
            candidate_boxes, detections.boxes[unmatched_dets], self.config.max_iou_distance)
        iou_matches, _, iou_unmatched_dets = association.solve_assignment(cost)

        matches += [(iou_candidates[r], unmatched_dets[c])
                    for r, c in iou_matches]
        return sorted(matches), [unmatched_dets[c] for c in iou_unmatched_dets]

    def _keep_and_initiate(self, detections: FrameDetections, births: list) -> None:
        """End of frame: keep the rows matched this frame (`time_since_update`
        0) and the confirmed rows missed fewer than `max_age` frames, the
        rows that can still match (the cascade ends at depth `max_age`, the
        IoU stage takes depth 1), then append one new track per detection
        row of `births`, numbered in that order."""
        max_age, confirm_hits = self.config.max_age, self.confirm_hits
        stack = self.stack.take([
            i for i, t in enumerate(self.stack.tracks)
            if t.time_since_update == 0
            or (t.hits >= confirm_hits and t.time_since_update < max_age)])
        if births:
            means, covariances = self.kalman.initiate(detections.measurements[births])
            size, tracks = self.config.feature_buffer_size, []
            for row in births:
                track = Track(self._next_id, association.FeatureBuffer(size),
                              last_confidence=float(detections.confidence[row]))
                track.features.push(detections.embeddings[row])
                tracks.append(track)
                self._next_id += 1
            stack = TrackStack(stack.tracks + tracks,
                               np.concatenate([stack.mean, means]),
                               np.concatenate([stack.covariance, covariances]))
        self.stack = stack

    def _emit(self, frame: int) -> FrameResult:
        """The confirmed rows matched this frame or missed for one frame,
        as (track_id, box, last confidence) records in ascending track id;
        a missed row is reported at its predicted box, and longer gaps are
        suppressed until re-matched.

        Each box is built from its row's (cx, cy, aspect, height) floats
        with `BoundingBox.from_center`'s operations in Python floats, the
        same IEEE operations numpy does, so the bits are the same.
        """
        stack = self.stack
        confirm_hits = self.confirm_hits
        rows = [i for i, t in enumerate(stack.tracks)
                if t.hits >= confirm_hits and t.time_since_update <= 1]
        if not rows:
            return FrameResult(frame=frame, records=())
        records = []
        for i, (cx, cy, aspect, height) in zip(rows, stack.mean[rows, :4].tolist()):
            width = aspect * height
            track = stack.tracks[i]
            records.append((track.track_id,
                            BoundingBox(cx - width / 2.0, cy - height / 2.0, width, height),
                            track.last_confidence))
        return FrameResult(frame=frame, records=tuple(records))


def run_sequence(detections, config: TrackerConfig,
                 frame_count: int) -> list[FrameResult]:
    """Track a whole detection stream and return one FrameResult per frame.

    `detections` is a `DetectionTable` or any iterable of `Detection`.
    Frames run from 1 to `frame_count`; frames without detections still
    advance the tracker, and detections of later frames are left out. The
    stream's columns are built once per call (`FrameDetections.stream`).
    """
    tracker = Tracker(config)
    return [tracker.step(columns.frame, columns)
            for columns in FrameDetections.stream(detections, frame_count)]
