"""The per-frame tracking pipeline.

Each frame: filter and NMS the detections, Kalman-predict all live tracks,
match confirmed tracks by pooled appearance (cascade), match the remainder
by IoU, update lifecycles, start new tracks, and emit the confirmed ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import association
from .kalman import KalmanModel, NumericalError
from .model import BoundingBox, Detection, TrackerConfig, TrackState


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

    def to_box(self) -> BoundingBox:
        return BoundingBox.from_center(self.mean[:4])

    def predict(self, kalman: KalmanModel) -> None:
        self.mean, self.covariance = kalman.predict(self.mean, self.covariance)
        self.age += 1
        self.time_since_update += 1

    def update(self, kalman: KalmanModel, detection: Detection,
               n_init: int) -> None:
        """Fold a matched detection into the track.

        A numerically failed Kalman update leaves the predicted state in
        place; the association bookkeeping still happens.
        """
        try:
            self.mean, self.covariance = kalman.update(
                self.mean, self.covariance, detection.box.to_center())
        except NumericalError:
            pass
        self.features.push(detection.embedding)
        self.hits += 1
        self.time_since_update = 0
        self.last_confidence = detection.confidence
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


@dataclass(frozen=True)
class FrameResult:
    """Confirmed-track output for one frame: (track_id, box, confidence)."""

    frame: int
    records: tuple


def preprocess(detections, config: TrackerConfig) -> list[Detection]:
    """Confidence filtering followed by greedy NMS.

    Detections below min_confidence are dropped; the rest are scanned in
    descending confidence order (ties keep input order) and a box is kept
    iff its IoU with every already-kept box is <= nms_max_overlap.
    """
    candidates = [d for d in detections if d.confidence >= config.min_confidence]
    candidates.sort(key=lambda d: -d.confidence)
    boxes = [d.box for d in candidates]
    allowed = (association.iou_matrix(boxes, boxes) <= config.nms_max_overlap).tolist()
    kept: list[int] = []
    for k, row in enumerate(allowed):
        if all(row[j] for j in kept):
            kept.append(k)
    return [candidates[k] for k in kept]


class Tracker:
    """Stateful tracker for one sequence; call step() once per frame."""

    def __init__(self, config: TrackerConfig):
        self.config = config
        self.kalman = KalmanModel()
        self.tracks: list[Track] = []
        self._next_id = 1
        self._last_frame = 0

    def step(self, frame: int, detections) -> FrameResult:
        """Advance one frame and return the confirmed-track records."""
        if frame <= self._last_frame:
            raise ValueError(
                f"frames must be strictly increasing: got {frame} after "
                f"{self._last_frame}"
            )
        for det in detections:
            if det.frame != frame:
                raise ValueError(
                    f"detection for frame {det.frame} passed to step({frame})"
                )
        self._last_frame = frame

        detections = preprocess(detections, self.config)
        for track in self.tracks:
            track.predict(self.kalman)
        # A track whose predicted aspect or height is no longer positive
        # has no box; it is deleted before any stage asks for one.
        self.tracks = [t for t in self.tracks if t.mean[2] > 0 and t.mean[3] > 0]

        matches, unmatched_track_idx, unmatched_det_idx = self._match(detections)

        for track_idx, det_idx in matches:
            self.tracks[track_idx].update(
                self.kalman, detections[det_idx], self.config.n_init)
        for track_idx in unmatched_track_idx:
            self.tracks[track_idx].mark_missed(self.config.max_age)
        for det_idx in unmatched_det_idx:
            self._initiate(detections[det_idx])

        result = self._emit(frame)
        self.tracks = [t for t in self.tracks if t.state != TrackState.Deleted]
        return result

    def _match(self, detections):
        confirmed = [i for i, t in enumerate(self.tracks)
                     if t.state == TrackState.Confirmed]
        tentative = [i for i, t in enumerate(self.tracks)
                     if t.state == TrackState.Tentative]

        cascade_matches, cascade_unmatched, unmatched_dets = \
            association.matching_cascade(
                [self.tracks[i] for i in confirmed], detections,
                self.config, self.kalman)
        matches = [(confirmed[r], c) for r, c in cascade_matches]

        # Recently lost confirmed tracks get one IoU-based second chance,
        # together with the not-yet-confirmed tracks.
        iou_candidates = tentative + [
            confirmed[r] for r in cascade_unmatched
            if self.tracks[confirmed[r]].time_since_update == 1]
        leftover = [confirmed[r] for r in cascade_unmatched
                    if self.tracks[confirmed[r]].time_since_update != 1]

        cost = association.iou_cost(
            [self.tracks[i] for i in iou_candidates],
            [detections[j] for j in unmatched_dets],
            self.config.max_iou_distance)
        iou_matches, iou_unmatched_tracks, iou_unmatched_dets = \
            association.solve_assignment(cost)

        matches += [(iou_candidates[r], unmatched_dets[c])
                    for r, c in iou_matches]
        unmatched_tracks = sorted(
            leftover + [iou_candidates[r] for r in iou_unmatched_tracks])
        unmatched_dets = [unmatched_dets[c] for c in iou_unmatched_dets]
        return sorted(matches), unmatched_tracks, unmatched_dets

    def _initiate(self, detection: Detection) -> None:
        mean, covariance = self.kalman.initiate(detection.box.to_center())
        track = Track(
            track_id=self._next_id,
            mean=mean,
            covariance=covariance,
            features=association.FeatureBuffer(self.config.feature_buffer_size),
            last_confidence=detection.confidence,
        )
        track.features.push(detection.embedding)
        self.tracks.append(track)
        self._next_id += 1

    def _emit(self, frame: int) -> FrameResult:
        # A confirmed track missing for a single frame is reported at its
        # predicted box; longer gaps are suppressed until re-matched.
        records = []
        for track in self.tracks:
            if track.state != TrackState.Confirmed:
                continue
            if track.time_since_update > 1:
                continue
            records.append((track.track_id, track.to_box(), track.last_confidence))
        records.sort(key=lambda r: r[0])
        return FrameResult(frame=frame, records=tuple(records))


def run_sequence(detections, config: TrackerConfig,
                 frame_count: int) -> list[FrameResult]:
    """Track a whole detection stream and return one FrameResult per frame.

    Frames run from 1 to `frame_count`; frames without detections still
    advance the tracker.
    """
    by_frame: dict[int, list[Detection]] = {}
    for det in detections:
        by_frame.setdefault(det.frame, []).append(det)
    tracker = Tracker(config)
    return [tracker.step(f, by_frame.get(f, [])) for f in range(1, frame_count + 1)]
