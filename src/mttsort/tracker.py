"""The per-frame tracking pipeline.

Each frame: filter and NMS the detections, Kalman-predict all live tracks,
match confirmed tracks by pooled appearance (cascade), match the remainder
by IoU, update lifecycles, start new tracks, and emit the confirmed ones.

A frame's detections arrive as columns (`FrameDetections`), and the live
tracks' predicted states are stacked once a frame (`TrackStack`); every
stage reads rows of those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import association
from .kalman import KalmanModel, NumericalError
from .model import (BoundingBox, FrameDetections, TrackerConfig, TrackState,
                    ltwh_from_centers)


@dataclass
class Track:
    """One hypothesized trajectory with Kalman state and feature buffer."""

    track_id: int
    mean: np.ndarray
    covariance: np.ndarray
    features: association.FeatureBuffer
    state: TrackState = TrackState.Tentative
    hits: int = 1
    time_since_update: int = 0
    age: int = 1
    last_confidence: float = 0.0

    def update(self, kalman: KalmanModel, detections: FrameDetections,
               row: int, n_init: int) -> None:
        """Fold detection `row` of `detections` into the track on its own.

        A numerically failed Kalman update leaves the predicted state in
        place; the association bookkeeping still happens.
        """
        try:
            self.mean, self.covariance = kalman.update(
                self.mean, self.covariance, detections.measurements[row])
        except NumericalError:
            pass
        self.mark_hit(detections, row, n_init)

    def mark_hit(self, detections: FrameDetections, row: int, n_init: int) -> None:
        """Lifecycle step for a track matched to detection `row` this
        frame, after its Kalman update."""
        self.features.push(detections.embeddings[row])
        self.hits += 1
        self.time_since_update = 0
        self.last_confidence = float(detections.confidence[row])
        if self.state == TrackState.Tentative and self.hits >= n_init:
            self.state = TrackState.Confirmed

    def mark_missed(self, max_age: int) -> None:
        """Lifecycle step for a track that got no detection this frame."""
        if self.state == TrackState.Tentative:
            self._delete()
        elif self.time_since_update > max_age:
            self._delete()

    def _delete(self) -> None:
        self.state = TrackState.Deleted
        self.features.clear()


@dataclass(eq=False)
class TrackStack:
    """Track states as rows: `mean` (N, 8) and `covariance` (N, 8, 8), with
    `tracks[i]` holding row i's id, lifecycle counters and feature buffer.

    The stack built by a frame's predict is the tracks' state for the rest
    of that frame: each track's mean and covariance are views of its row.
    """

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

    @classmethod
    def of(cls, tracks) -> TrackStack:
        """The stack of the tracks' own states."""
        tracks = list(tracks)
        if not tracks:
            return cls(tracks, np.zeros((0, 8)), np.zeros((0, 8, 8)))
        return cls(tracks, np.array([t.mean for t in tracks]),
                   np.array([t.covariance for t in tracks]))


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
    already-kept box is <= nms_max_overlap. Fewer than two candidates
    need no IoU.
    """
    n = int(np.count_nonzero(detections.confidence >= config.min_confidence))
    dropped = set()
    if n > 1:
        boxes = detections.boxes[:n]
        # Box k is dropped iff a kept box j < k overlaps it; the pairs come
        # in ascending k, so every j's fate is known when k is reached.
        rows, cols = np.nonzero(~(association.iou_columns(boxes, boxes)
                                  <= config.nms_max_overlap))
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
        self.kalman = KalmanModel()
        self.tracks: list[Track] = []
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
        stack = self._predict()
        matches, unmatched_track_idx, unmatched_det_idx = self._match(stack, detections)

        self._update(stack, detections, matches)
        for track_idx in unmatched_track_idx:
            stack.tracks[track_idx].mark_missed(self.config.max_age)
        for det_idx in unmatched_det_idx:
            self._initiate(detections, det_idx)

        result = self._emit(frame, stack)
        self.tracks = [t for t in self.tracks if t.state != TrackState.Deleted]
        return result

    def _predict(self) -> TrackStack:
        """One Kalman predict over the stack of all live tracks.

        Each track's mean and covariance become views of its row of the
        returned stack, so the update's write-back reaches the track.
        """
        stack = TrackStack.of(self.tracks)
        if not stack.tracks:
            return stack
        means, covariances = self.kalman.predict(stack.mean, stack.covariance)
        tracks = stack.tracks
        # A track whose predicted aspect or height is no longer positive
        # (or is NaN) has no box; it is deleted before any stage asks for
        # one.
        if not means[:, 2:4].min() > 0:
            physical = (means[:, 2] > 0) & (means[:, 3] > 0)
            tracks = [t for t, keep in zip(tracks, physical.tolist()) if keep]
            means, covariances = means[physical], covariances[physical]
            self.tracks = list(tracks)
        for track, mean, covariance in zip(tracks, means, covariances):
            track.mean, track.covariance = mean, covariance
            track.age += 1
            track.time_since_update += 1
        return TrackStack(tracks, means, covariances)

    def _update(self, stack: TrackStack, detections: FrameDetections,
                matches) -> None:
        """One Kalman update over the stacked rows of the frame's (track,
        detection) matches, written back into the stack.

        The stacked factorization fails as a whole if one track's does;
        the matches are then redone one at a time through `Track.update`,
        so only a failing track keeps its predicted state.
        """
        if not matches:
            return
        n_init = self.config.n_init
        rows = [i for i, _ in matches]
        try:
            means, covariances = self.kalman.update(
                stack.mean[rows], stack.covariance[rows],
                detections.measurements[[j for _, j in matches]])
        except NumericalError:
            for i, j in matches:
                track = stack.tracks[i]
                track.update(self.kalman, detections, j, n_init)
                stack.mean[i], stack.covariance[i] = track.mean, track.covariance
            return
        stack.mean[rows], stack.covariance[rows] = means, covariances
        for i, j in matches:
            stack.tracks[i].mark_hit(detections, j, n_init)

    def _match(self, stack: TrackStack, detections: FrameDetections):
        tracks = stack.tracks
        confirmed = [i for i, t in enumerate(tracks)
                     if t.state == TrackState.Confirmed]
        tentative = [i for i, t in enumerate(tracks)
                     if t.state == TrackState.Tentative]

        cascade_matches, cascade_unmatched, unmatched_dets = \
            association.matching_cascade(
                stack.take(confirmed), detections, self.config, self.kalman)
        matches = [(confirmed[r], c) for r, c in cascade_matches]

        # Recently lost confirmed tracks get one IoU-based second chance,
        # together with the not-yet-confirmed tracks.
        iou_candidates = tentative + [
            confirmed[r] for r in cascade_unmatched
            if tracks[confirmed[r]].time_since_update == 1]
        leftover = [confirmed[r] for r in cascade_unmatched
                    if tracks[confirmed[r]].time_since_update != 1]

        cost = association.iou_cost(
            stack.take(iou_candidates), detections.take(unmatched_dets),
            self.config.max_iou_distance)
        iou_matches, iou_unmatched_tracks, iou_unmatched_dets = \
            association.solve_assignment(cost)

        matches += [(iou_candidates[r], unmatched_dets[c])
                    for r, c in iou_matches]
        unmatched_tracks = sorted(
            leftover + [iou_candidates[r] for r in iou_unmatched_tracks])
        unmatched_dets = [unmatched_dets[c] for c in iou_unmatched_dets]
        return sorted(matches), unmatched_tracks, unmatched_dets

    def _initiate(self, detections: FrameDetections, row: int) -> None:
        mean, covariance = self.kalman.initiate(detections.measurements[row])
        track = Track(
            track_id=self._next_id,
            mean=mean,
            covariance=covariance,
            features=association.FeatureBuffer(self.config.feature_buffer_size),
            last_confidence=float(detections.confidence[row]),
        )
        track.features.push(detections.embeddings[row])
        self.tracks.append(track)
        self._next_id += 1

    def _emit(self, frame: int, stack: TrackStack) -> FrameResult:
        # A confirmed track missing for a single frame is reported at its
        # predicted box; longer gaps are suppressed until re-matched.
        # Tracks born this frame are tentative, so every reported track
        # has a row in the stack.
        rows = [i for i, t in enumerate(stack.tracks)
                if t.state == TrackState.Confirmed and t.time_since_update <= 1]
        ltwh = ltwh_from_centers(stack.mean[rows, :4]).tolist() if rows else []
        records = [(stack.tracks[i].track_id, BoundingBox(*box),
                    stack.tracks[i].last_confidence) for i, box in zip(rows, ltwh)]
        records.sort(key=lambda r: r[0])
        return FrameResult(frame=frame, records=tuple(records))


def run_sequence(detections, config: TrackerConfig,
                 frame_count: int) -> list[FrameResult]:
    """Track a whole detection stream and return one FrameResult per frame.

    Frames run from 1 to `frame_count`; frames without detections still
    advance the tracker. The stream's columns are built once per call.
    """
    tracker = Tracker(config)
    return [tracker.step(columns.frame, columns)
            for columns in FrameDetections.stream(detections, frame_count)]
