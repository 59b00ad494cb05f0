import dataclasses
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mttsort import association, seqio, synth
from mttsort.association import FeatureBuffer
from mttsort.kalman import KalmanModel
from mttsort.model import BoundingBox, Detection, FrameDetections, TrackerConfig
from mttsort.tracker import (FrameResult, Track, Tracker, TrackStack, preprocess,
                             run_sequence)

from oracles import (bits, box_iou, center_box_rows_oracle, domain_rows_oracle,
                     ltwh_from_centers, preprocess_oracle)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def unit(*values):
    v = np.array(values, dtype=float)
    return v / np.linalg.norm(v)


def det(frame, left, top, w=30, h=60, conf=0.9, emb=(1, 0)):
    return Detection(frame=frame, box=BoundingBox(left, top, w, h),
                     confidence=conf, embedding=unit(*emb))


def linear_stream(frames, start=(100, 100), step=(3, 0), emb=(1, 0),
                  skip=(), conf=0.9):
    stream = []
    for f in range(1, frames + 1):
        if f in skip:
            continue
        stream.append(det(f, start[0] + step[0] * (f - 1),
                          start[1] + step[1] * (f - 1), emb=emb, conf=conf))
    return stream


# ------------------------------------------------------------- preprocess

def test_preprocess_confidence_filter():
    config = TrackerConfig(min_confidence=0.5)
    kept = preprocess(
        FrameDetections.of([det(1, 0, 0, conf=0.9), det(1, 100, 0, conf=0.4)]), config)
    assert kept.confidence.tolist() == [0.9]


def test_preprocess_keeps_a_confidence_equal_to_min_confidence():
    config = TrackerConfig(min_confidence=0.5)
    kept = preprocess(FrameDetections.of(
        [det(1, 0, 0, conf=0.5), det(1, 100, 0, conf=0.4), det(1, 200, 0, conf=0.9)]),
        config)
    assert kept.confidence.tolist() == [0.9, 0.5]


def test_preprocess_out_of_descending_order_counts_every_row():
    # Rows out of the descending order that `preprocess` assumes: the
    # count is count_nonzero's over every row, not the length of the
    # leading block at or above min_confidence, and that many leading rows
    # are kept (the boxes are apart, so NMS drops none).
    columns = FrameDetections.of(
        [det(1, 100 * k, 0, conf=c) for k, c in enumerate((0.9, 0.6, 0.3, 0.7))])
    shuffled = columns.take([3, 0, 1, 2])
    assert shuffled.confidence.tolist() == [0.3, 0.9, 0.7, 0.6]
    config = TrackerConfig(min_confidence=0.5)
    kept = preprocess(shuffled, config)
    assert len(kept) == np.count_nonzero(shuffled.confidence >= 0.5) == 3
    assert kept.confidence.tolist() == [0.3, 0.9, 0.7]


def test_preprocess_nms_suppresses_duplicates():
    config = TrackerConfig(nms_max_overlap=0.7)
    kept = preprocess(
        FrameDetections.of([det(1, 0, 0, conf=0.8), det(1, 0, 0, conf=0.95)]), config)
    assert len(kept) == 1
    assert kept.confidence[0] == 0.95


def test_preprocess_keeps_moderate_overlap():
    config = TrackerConfig(nms_max_overlap=0.3)
    a = det(1, 0, 0, w=10, h=10)
    b = det(1, 7, 0, w=10, h=10, conf=0.8)  # IoU = 3/17 < 0.3
    kept = preprocess(FrameDetections.of([a, b]), config)
    assert len(kept) == 2


def assert_kept_columns(kept, expected):
    """The rows `preprocess` kept are the columns of the Detection objects
    `expected`, bit for bit."""
    want = FrameDetections.of(expected)
    assert len(kept) == len(want)
    for name in ("confidence", "boxes", "measurements", "embeddings"):
        assert getattr(kept, name).tobytes() == getattr(want, name).tobytes()


def greedy_nms_oracle(detections, config):
    """Literal greedy NMS: by descending confidence, keep a detection iff
    no kept one overlaps it by more than nms_max_overlap."""
    candidates = sorted(
        (d for d in detections if d.confidence >= config.min_confidence),
        key=lambda d: -d.confidence)
    kept = []
    for d in candidates:
        if all(box_iou(d.box, k.box) <= config.nms_max_overlap for k in kept):
            kept.append(d)
    return kept


@settings(deadline=None, max_examples=80)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                          st.integers(1, 10), st.integers(1, 10),
                          st.sampled_from([0.3, 0.6, 0.9, 1.0])),
                max_size=8),
       st.sampled_from([0.1, 0.2, 0.5, 0.7, 1.0]))
def test_preprocess_matches_greedy_nms_oracle(raw, overlap):
    detections = [det(1, left, top, w, h, conf) for left, top, w, h, conf in raw]
    config = TrackerConfig(nms_max_overlap=overlap)
    kept = preprocess(FrameDetections.of(detections), config)
    assert_kept_columns(kept, greedy_nms_oracle(detections, config))


@pytest.mark.parametrize("layout, nan_row, calls", [
    (((0, 0.2), (0, 0.3)), None, []),
    (((0, 0.9), (0, 0.3)), None, []),
    (((0, 0.9), (40, 0.6)), None, []),
    (((0, 0.9), (10, 0.6)), None, []),
    (((0, 0.9), (0, 0.6)), None, [2]),
    (((0, 0.9), (40, 0.6), (0, 0.3)), None, [2]),
    (((0, 0.9), (40, 0.6)), 1, [2]),
], ids=["no-candidate", "one-candidate", "two-apart", "two-at-the-threshold",
        "two-overlapping", "overlap-with-a-row-below-min-confidence",
        "two-apart-with-a-nan-overlap"])
def test_preprocess_calls_the_iou_kernel_only_when_a_candidate_overlap_fails(
        monkeypatch, layout, nan_row, calls):
    # Detections are 30x60 boxes at (left, 0) with a confidence; candidates
    # are those at or above min_confidence 0.5. The kernel runs on the
    # candidates, only when two or more of them hold one whose `overlap`
    # exceeds nms_max_overlap 0.5 (boxes 10 px apart overlap by exactly 0.5)
    # or is NaN, which fails `<=` as it does in numpy.
    detections = [det(1, left, 0, conf=c) for left, c in layout]
    columns = FrameDetections.of(detections)
    if nan_row is not None:
        overlap = columns.overlap.copy()
        overlap[nan_row] = math.nan
        columns = dataclasses.replace(columns, overlap=overlap)
    config = TrackerConfig(min_confidence=0.5, nms_max_overlap=0.5)
    kernel, seen = association.iou_columns, []

    def counting(a, b):
        seen.append(len(a))
        return kernel(a, b)

    monkeypatch.setattr(association, "iou_columns", counting)
    kept = preprocess(columns, config)
    assert seen == calls
    assert_kept_columns(kept, preprocess_oracle(detections, config))


# Boxes on a 5 px grid with sides 5 or 10 px: duplicates are common, and the
# IoUs are small rationals that the thresholds below hit exactly (1/3, 1/2,
# 1/4, 1/7 and 1 all occur).
grid_detections = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([5, 10]),
              st.sampled_from([5, 10]), st.sampled_from([0.3, 0.5, 0.7, 0.9])),
    max_size=9)


@settings(deadline=None, max_examples=300)
@given(grid_detections, st.sampled_from([0.3, 0.5, 0.7]),
       st.sampled_from([1 / 7, 0.25, 1 / 3, 0.5, 0.7, 1.0]))
def test_preprocess_equals_the_object_version(raw, min_confidence, overlap):
    detections = [det(1, 5 * x, 5 * y, w, h, conf) for x, y, w, h, conf in raw]
    config = TrackerConfig(min_confidence=min_confidence, nms_max_overlap=overlap)
    kept = preprocess(FrameDetections.of(detections), config)
    assert_kept_columns(kept, preprocess_oracle(detections, config))


@settings(deadline=None, max_examples=300)
@given(grid_detections, st.data(), st.sampled_from([0.3, 0.5, 0.7]),
       st.sampled_from([1 / 7, 0.25, 1 / 3, 0.5, 0.7, 1.0]))
def test_preprocess_of_taken_rows_equals_the_object_version(
        raw, data, min_confidence, overlap):
    # A frame's `overlap` column comes from all its rows, so on a subset
    # it is only an upper bound; NMS over the subset is still exact.
    detections = [det(1, 5 * x, 5 * y, w, h, conf) for x, y, w, h, conf in raw]
    ordered = sorted(detections, key=lambda d: -d.confidence)
    rows = sorted(data.draw(st.sets(st.integers(0, len(raw) - 1)))) if raw else []
    config = TrackerConfig(min_confidence=min_confidence, nms_max_overlap=overlap)
    kept = preprocess(FrameDetections.of(detections).take(rows), config)
    assert_kept_columns(kept, preprocess_oracle([ordered[i] for i in rows], config))


# -------------------------------------------------------------- lifecycle

def test_confirmation_at_n_init_and_stable_id():
    config = TrackerConfig(n_init=3)
    results = run_sequence(linear_stream(8), config, 8)
    assert [len(r.records) for r in results[:2]] == [0, 0]
    for r in results[2:]:
        assert len(r.records) == 1
        assert r.records[0][0] == 1


def test_long_occlusion_creates_new_id():
    config = TrackerConfig(n_init=2, max_age=5)
    # present 1..6, absent 7..13 (gap of 7 > max_age 5), present again 14..20
    stream = linear_stream(20, skip=set(range(7, 14)))
    results = run_sequence(stream, config, 20)
    ids_early = {r.records[0][0] for r in results[:6] if r.records}
    ids_late = {r.records[0][0] for r in results[14:] if r.records}
    assert ids_early == {1}
    assert ids_late == {2}


def test_short_occlusion_resumes_same_id():
    config = TrackerConfig(n_init=2, max_age=30)
    # absent 8..15 (8-frame gap, well within max_age); distinctive embedding
    stream = linear_stream(30, skip=set(range(8, 16)))
    results = run_sequence(stream, config, 30)
    reported_ids = {rec[0] for r in results for rec in r.records}
    assert reported_ids == {1}
    # covered again after the gap
    assert all(r.records for r in results[16:])


def test_out_of_order_frames_rejected():
    tracker = Tracker(TrackerConfig())
    tracker.step(5, FrameDetections.of([]))
    with pytest.raises(ValueError, match="strictly increasing"):
        tracker.step(5, FrameDetections.of([]))
    with pytest.raises(ValueError, match="strictly increasing"):
        tracker.step(3, FrameDetections.of([]))


def test_step_rejects_foreign_frame_detections():
    tracker = Tracker(TrackerConfig())
    with pytest.raises(ValueError, match="frame"):
        tracker.step(1, FrameDetections.of([det(2, 0, 0)]))


def test_empty_stream():
    assert run_sequence([], TrackerConfig(), 0) == []


def test_only_confirmed_tracks_reported():
    config = TrackerConfig(n_init=3)
    tracker = Tracker(config)
    result = tracker.step(1, FrameDetections.of([det(1, 100, 100)]))
    assert result.records == ()
    assert tracker.stack.tracks[0].hits < tracker.confirm_hits


def test_records_unique_and_sorted():
    config = TrackerConfig(n_init=1)
    streams = linear_stream(6, start=(50, 50), emb=(1, 0)) + \
        linear_stream(6, start=(300, 200), emb=(0, 1))
    results = run_sequence(sorted(streams, key=lambda d: d.frame), config, 6)
    for r in results:
        ids = [rec[0] for rec in r.records]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))


def test_single_frame_gap_reports_predicted_box():
    config = TrackerConfig(n_init=2, max_age=30)
    stream = linear_stream(10, skip={6})
    results = run_sequence(stream, config, 10)
    assert results[5].records, "1-frame miss should coast at the predicted box"
    # a longer gap is suppressed after the first coasted frame
    stream = linear_stream(12, skip={6, 7, 8})
    results = run_sequence(stream, config, 12)
    assert results[5].records
    assert not results[6].records
    assert not results[7].records


@pytest.mark.parametrize("n_init, max_age", [(1, 1), (2, 3), (3, 2)])
def test_counters_and_deletion_rules(n_init, max_age):
    # A newborn is tentative with 1 hit whatever n_init is, so a miss on its
    # second frame removes it, and it confirms on its second hit at n_init 1.
    config = TrackerConfig(n_init=n_init, max_age=max_age)
    tracker = Tracker(config)
    assert tracker.confirm_hits == max(n_init, 2)
    tracker.step(1, FrameDetections.of([det(1, 100, 100)]))
    newborn = tracker.stack.tracks[0]
    assert (newborn.hits, newborn.time_since_update) == (1, 0)
    tracker.step(2, FrameDetections.of([]))
    assert tracker.stack.tracks == []

    tracker = Tracker(config)
    confirmed_at = max(n_init, 2)
    for f in range(1, confirmed_at + 1):
        result = tracker.step(f, FrameDetections.of([det(f, 100 + 3 * (f - 1), 100)]))
        [track] = tracker.stack.tracks
        assert (track.hits, track.time_since_update) == (f, 0)
        assert (track.hits >= tracker.confirm_hits) == (f == confirmed_at)
        assert [r[0] for r in result.records] == ([1] if f == confirmed_at else [])
    # Missed, the confirmed track is reported at its predicted box for one
    # frame only, and its row lives through max_age - 1 missed frames: at
    # max_age it could match nothing again.
    for f in range(confirmed_at + 1, confirmed_at + max_age + 1):
        result = tracker.step(f, FrameDetections.of([]))
        missed = f - confirmed_at
        assert [r[0] for r in result.records] == ([1] if missed == 1 else [])
        assert tracker.stack.tracks == ([track] if missed < max_age else [])
        assert track.time_since_update == missed


def test_deleted_ids_never_reappear():
    spec = synth.scenario_preset("occlusion")
    _, dets = synth.generate(spec)
    tracker = Tracker(TrackerConfig())
    by_frame = {}
    for d in dets:
        by_frame.setdefault(d.frame, []).append(d)
    ever_live = set()
    dead = set()
    for f in range(1, spec.frames + 1):
        result = tracker.step(f, FrameDetections.of(by_frame.get(f, [])))
        assert not (dead & {tid for tid, _, _ in result.records})
        live = {t.track_id for t in tracker.stack.tracks}
        dead |= ever_live - live
        ever_live |= live
    assert dead, "scenario should actually delete some tracks"


def test_track_ids_strictly_increasing():
    spec = synth.scenario_preset("crowded")
    gt, dets = synth.generate(spec)
    tracker = Tracker(TrackerConfig())
    by_frame = {}
    for d in dets:
        by_frame.setdefault(d.frame, []).append(d)
    seen_max = 0
    created = []
    for f in range(1, spec.frames + 1):
        tracker.step(f, FrameDetections.of(by_frame.get(f, [])))
        for t in tracker.stack.tracks:
            if t.track_id > seen_max:
                created.append(t.track_id)
                seen_max = t.track_id
    assert created == sorted(created)


def test_run_sequence_deterministic(tmp_path):
    spec = synth.scenario_preset("lookalike")
    _, dets = synth.generate(spec)
    config = TrackerConfig()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    seqio.write_results(run_sequence(dets, config, spec.frames), a)
    seqio.write_results(run_sequence(dets, config, spec.frames), b)
    assert a.read_bytes() == b.read_bytes()


def test_buffer_one_regression_golden(tmp_path):
    """feature_buffer_size=1 pins the single-newest-feature behavior."""
    spec = synth.scenario_preset("occlusion")
    _, dets = synth.generate(spec)
    config = TrackerConfig(feature_buffer_size=1)
    out = tmp_path / "results.txt"
    seqio.write_results(run_sequence(dets, config, spec.frames), out)
    golden = os.path.join(DATA_DIR, "buffer1_occlusion_results.txt")
    with open(golden, "rb") as fh:
        assert out.read_bytes() == fh.read()


# --------------------------------------------------- non-physical states

def shrink_stream():
    # One object whose detection height falls 200 -> 5 px in five frames.
    stream = []
    for frame, height in enumerate((200.0, 150.0, 100.0, 50.0, 5.0), start=1):
        box = BoundingBox(300.0 - height / 4, 300.0 - height / 2, height / 2, height)
        stream.append(Detection(frame, box, 0.9, np.eye(8)[0]))
    return stream


def test_track_with_non_physical_prediction_is_deleted():
    # After the last detection the predicted height falls below zero; the
    # track is deleted at predict time instead of failing to make a box.
    results = run_sequence(shrink_stream(), TrackerConfig(n_init=1), frame_count=8)
    emitted = [(r.frame, tid) for r in results for tid, _, _ in r.records]
    assert emitted == [(2, 1), (3, 1), (4, 1), (5, 1)]


# ------------------------------------------------ the filter's domain

# A negative position variance; its innovation variances are negative, so
# a state holding it is outside the filter's domain.
BROKEN_COVARIANCE = np.array([[-1e6] * 4, [0.0] * 4, [1.0] * 4])


def tracker_holding(config, *specs):
    """A Tracker whose live tracks are given directly, one per (detection,
    hits, time_since_update); each starts from its detection's box."""
    tracker = Tracker(config)
    tracks = []
    for detection, hits, time_since_update in specs:
        track = Track(track_id=len(tracks) + 1,
                      features=FeatureBuffer(config.feature_buffer_size),
                      hits=hits, time_since_update=time_since_update)
        track.features.push(detection.embedding)
        tracks.append(track)
    tracker.stack = TrackStack(tracks, *tracker.kalman.initiate(
        [detection.box.to_center() for detection, _, _ in specs]))
    tracker._next_id = len(tracks) + 1
    return tracker


def numpy_emit(tracker, frame):
    """`Tracker._emit` as it was: the emitted rows' boxes from one
    `ltwh_from_centers` call over their (cx, cy, aspect, height) rows."""
    stack = tracker.stack
    rows = [i for i, t in enumerate(stack.tracks)
            if t.hits >= tracker.confirm_hits and t.time_since_update <= 1]
    ltwh = ltwh_from_centers(stack.mean[rows, :4]).tolist() if rows else []
    return FrameResult(frame, tuple(
        (stack.tracks[i].track_id, BoundingBox(*box), stack.tracks[i].last_confidence)
        for i, box in zip(rows, ltwh)))


def result_or_error(emit, *args):
    try:
        return bits(emit(*args))
    except ValueError as exc:
        return str(exc)


# (cx, cy, aspect, height) rows: mostly boxes, some huge, tiny, zero or
# negative sides.
center_position = st.one_of(st.floats(-1e4, 1e4), st.sampled_from([1e300, -1e300]))
center_side = st.one_of(st.floats(0.01, 100.0),
                        st.sampled_from([1e-170, 1e160, 1e300, -1.0, 0.0]))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.tuples(center_position, center_position, center_side,
                                    center_side),
                          st.integers(1, 4), st.integers(0, 3), st.floats(0, 1)),
                max_size=6),
       st.integers(2, 3))
def test_emit_equals_the_numpy_emit(rows, n_init):
    # Same records bit for bit, or the same box error.
    tracker = Tracker(TrackerConfig(n_init=n_init))
    tracks = [Track(track_id, FeatureBuffer(1), hits=hits, time_since_update=since,
                    last_confidence=confidence)
              for track_id, (_, hits, since, confidence) in enumerate(rows, start=1)]
    mean = np.zeros((len(rows), 8))
    mean[:, :4] = [center for center, *_ in rows] or np.zeros((0, 4))
    tracker.stack = TrackStack(tracks, mean, np.zeros((len(rows), 3, 4)))
    assert result_or_error(tracker._emit, 7) == result_or_error(numpy_emit, tracker, 7)


def test_gate_covers_tracks_past_the_last_detection(monkeypatch):
    # The one detection goes to the depth-1 track. The cascade's one gated
    # matrix still covers the depth-2 track; a per-depth loop would have
    # stopped before reaching it. Both tracks hold the 3 hits that confirm
    # at n_init 3.
    a, b = det(1, 100, 100, emb=(1, 0)), det(1, 400, 100, emb=(0, 1))
    tracker = tracker_holding(TrackerConfig(n_init=3), (a, 3, 0), (b, 3, 1))
    gated = []
    gating_distance = tracker.kalman.gating_distance

    def spy(mean, covariance, measurements):
        gated.append(len(mean))
        return gating_distance(mean, covariance, measurements)

    monkeypatch.setattr(tracker.kalman, "gating_distance", spy)
    result = tracker.step(2, FrameDetections.of([det(2, 100, 100, emb=(1, 0))]))
    assert gated == [2]
    assert [track_id for track_id, _, _ in result.records] == [1]


@pytest.mark.parametrize("broken", [False, True], ids=["stacked", "deleted"])
@pytest.mark.parametrize("unmatched", [False, True], ids=["all-rows", "some-rows"])
@pytest.mark.parametrize("confidences", [(0.8, 0.7), (0.7, 0.8)],
                         ids=["in-order", "permuted"])
def test_update_equals_the_gathered_update_of_the_matched_rows(
        confidences, unmatched, broken):
    # Tentative tracks a and b are each matched by IoU to their own
    # detection, whose rows run in descending confidence: in the order of
    # the tracks' rows or swapped. With `unmatched`, a confirmed track far
    # from every detection sits between them, so not every live row is
    # matched. With `broken`, b's state is outside the filter's domain: its
    # row is deleted at predict, and its detection starts a new track.
    # Either way the stack's bits are those of gathering the matched rows,
    # updating them and scattering them back.
    a, b, far = (det(1, 100, 100, emb=(1, 0)), det(1, 400, 100, emb=(0, 1)),
                 det(1, 900, 500, emb=(1, 1)))
    specs = [(a, 1, 0)] + [(far, 3, 0)] * unmatched + [(b, 1, 0)]
    tracker = tracker_holding(TrackerConfig(n_init=3), *specs)
    kalman, stack = tracker.kalman, tracker.stack
    if broken:
        stack.covariance[-1] = BROKEN_COVARIANCE
    want_mean, want_covariance = kalman.predict(stack.mean, stack.covariance)
    detections = FrameDetections.of(
        [det(2, 103, 101, emb=(1, 0), conf=confidences[0]),
         det(2, 397, 99, emb=(0, 1), conf=confidences[1])])
    matches = [(0, 0 if confidences[0] > confidences[1] else 1),
               (len(specs) - 1, 1 if confidences[0] > confidences[1] else 0)]
    if broken:
        matches, kept = matches[:1], len(specs) - 1
        want_mean, want_covariance = want_mean[:kept], want_covariance[:kept]
    rows, dets = [i for i, _ in matches], [j for _, j in matches]
    want_mean[rows], want_covariance[rows] = kalman.update(
        want_mean[rows], want_covariance[rows], detections.measurements[dets])

    tracker.step(2, detections)
    stack = tracker.stack
    assert [t.track_id for t in stack.tracks] == list(range(1, len(specs))) + [len(specs) + broken]
    kept = len(want_mean)
    assert [t.time_since_update for t in stack.tracks[:kept]] == \
        [0] + [1] * unmatched + [0] * (not broken)
    assert bits(stack.mean[:kept]) == bits(want_mean)
    assert bits(stack.covariance[:kept]) == bits(want_covariance)
    for i, j in matches:
        assert stack.tracks[i].last_confidence == detections.confidence[j]


class HeldKalman(KalmanModel):
    """A filter whose predict returns the state it is given, so a drawn
    state reaches the tracker's box check as drawn."""

    def predict(self, mean, covariance):
        return mean, covariance


# (cx, cy, aspect, height) fields: NaN, infinities, far origins, products
# that overflow past 1e308, subnormals, and zero or negative sides.
state_fields = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-170, 1e-320, 1e-200, 1.0, -2.0,
                     1e150, 1e160, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(-1e4, 1e4), st.floats())


@settings(deadline=None, max_examples=500)
@given(st.lists(st.tuples(st.tuples(state_fields, state_fields, state_fields, state_fields),
                          st.tuples(state_fields, state_fields, state_fields, state_fields)),
                max_size=6))
def test_predict_keeps_the_rows_and_boxes_of_the_box_check_oracle(states):
    # Each drawn (cx, cy, aspect, height) row has a drawn position-variance
    # row. The kept rows are the box check oracle's mask and the dense
    # filter's domain rule, in order, and the returned box tuples the box
    # oracle's rows, bit for bit, with no warning.
    tracks = [Track(k, FeatureBuffer(1)) for k in range(len(states))]
    mean = np.zeros((len(states), 8))
    mean[:, :4] = np.array([center for center, _ in states], dtype=float).reshape(-1, 4)
    covariance = np.zeros((len(states), 3, 4))
    covariance[:, 0] = np.array([p for _, p in states], dtype=float).reshape(-1, 4)
    tracker = Tracker(TrackerConfig())
    tracker.kalman = HeldKalman()
    tracker.stack = TrackStack(tracks, mean, covariance)
    want_boxes, valid = center_box_rows_oracle(mean[:, :4])
    valid &= domain_rows_oracle(mean, covariance)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        boxes = tracker._predict()
    kept = valid.tolist()
    assert tracker.stack.tracks == [t for t, keep in zip(tracks, kept) if keep]
    assert bits(tracker.stack.mean) == bits(mean[valid])
    assert bits(tracker.stack.covariance) == bits(covariance[valid])
    assert all(type(box) is tuple and len(box) == 5 for box in boxes)
    assert bits(np.array(boxes).reshape(-1, 5)) == bits(want_boxes[valid])
    assert [t.time_since_update for t in tracker.stack.tracks] == [1] * sum(kept)


@pytest.mark.parametrize("state, variance", [
    ([100.0, 100.0, 1e-200, 1e-200, 0, 0, 0, 0], None),     # the width underflows
    # The area overflows; the height stays small enough for the noise.
    ([100.0, 100.0, 1e150, 1e100, 0, 0, 0, 0], None),
    ([100.0, 100.0, np.nan, 60.0, 0, 0, 0, 0], None),
    ([100.0, 100.0, 0.5, -60.0, 0, 0, 0, 0], None),
    # A box whose state is outside the filter's domain: a position variance
    # that is negative, NaN or infinite, or a height whose noise (h / 20)²
    # underflows to 0 in the state's variances and the innovation's.
    ([100.0, 100.0, 0.5, 60.0, 0, 0, 0, 0], -1e6),
    ([100.0, 100.0, 0.5, 60.0, 0, 0, 0, 0], np.nan),
    ([100.0, 100.0, 0.5, 60.0, 0, 0, 0, 0], np.inf),
    ([0.0, 0.0, 1e290, 1e-300, 0, 0, 0, 0], "initiate"),
], ids=["width-underflow", "area-overflow", "nan-aspect", "negative-height",
        "negative-variance", "nan-variance", "inf-variance", "noise-underflow"])
@pytest.mark.parametrize("hits", [1, 3])
def test_track_whose_predicted_state_is_no_box_is_deleted_at_predict(state, variance, hits):
    # Tentative (1 hit) or confirmed (3 hits at n_init 3): either way the
    # track is deleted at predict, with no record, no error and no warning,
    # and the frame's detection starts a new track.
    tracker = tracker_holding(TrackerConfig(n_init=3), (det(1, 100, 100), hits, 0))
    stack = tracker.stack
    stack.mean[0] = state
    if variance == "initiate":
        stack.covariance[0] = tracker.kalman.initiate(state[:4])[1]
    elif variance is not None:
        stack.covariance[0, 0, 1] = variance
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = tracker.step(2, FrameDetections.of([det(2, 100, 100)]))
    assert caught == []
    assert result.records == ()
    assert [t.track_id for t in tracker.stack.tracks] == [2]


@st.composite
def scaling_streams(draw):
    """Up to 3 objects over a gappy run of at most 12 frames, each rescaled
    by a random factor every frame, plus an occasional duplicate box; at
    most 4 detections a frame."""
    frames = sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=12)))
    objects = [
        [draw(st.floats(50, 500)), draw(st.floats(50, 500)),
         draw(st.floats(0.2, 2.0)), draw(st.floats(2, 300))]
        for _ in range(draw(st.integers(1, 3)))]
    stream = []
    for frame in frames:
        here = []
        for k, obj in enumerate(objects):
            obj[3] = max(0.5, obj[3] * draw(st.floats(0.05, 2.0)))
            if draw(st.booleans()):
                cx, cy, aspect, height = obj
                width = aspect * height
                box = BoundingBox(cx - width / 2, cy - height / 2, width, height)
                here.append(Detection(frame, box, 0.9, np.eye(4)[k]))
        if here and draw(st.booleans()):
            here.append(here[0])
        stream.extend(here)
    return stream


@settings(deadline=None, max_examples=150)
@given(scaling_streams(), st.integers(1, 3), st.integers(1, 5))
def test_run_sequence_never_raises_on_valid_streams(stream, n_init, max_age):
    config = TrackerConfig(n_init=n_init, max_age=max_age)
    results = run_sequence(stream, config, frame_count=12)
    assert [r.frame for r in results] == list(range(1, 13))


@settings(deadline=None, max_examples=150)
@given(scaling_streams(), st.integers(1, 3), st.integers(1, 5))
def test_stack_rows_stay_live_and_in_id_order(stream, n_init, max_age):
    # Records come out in stack order, so the stack must keep its rows in
    # ascending track id, and only the rows that the keep rule keeps: the
    # rows matched this frame and the confirmed rows that can still match.
    tracker = Tracker(TrackerConfig(n_init=n_init, max_age=max_age))
    confirm_hits = max(2, n_init)
    for columns in FrameDetections.stream(stream, 12):
        tracker.step(columns.frame, columns)
        stack = tracker.stack
        ids = [t.track_id for t in stack.tracks]
        assert all(a < b for a, b in zip(ids, ids[1:]))
        assert len(stack.tracks) == len(stack.mean) == len(stack.covariance)
        assert all(t.time_since_update == 0
                   or (t.hits >= confirm_hits and 1 <= t.time_since_update < max_age)
                   for t in stack.tracks)
        assert all(t.time_since_update == 0
                   for t in stack.tracks if t.hits < confirm_hits)


def test_detections_past_frame_count_are_left_out_whatever_their_frame():
    box, emb = BoundingBox(0, 0, 5, 5), np.array([1.0, 0.0])
    detections = [Detection(2 ** 70, box, 0.9, emb), Detection(4, box, 0.9, emb)]
    assert run_sequence(detections, TrackerConfig(n_init=1), 3) == [
        FrameResult(frame, ()) for frame in (1, 2, 3)]
