import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mttsort import seqio, synth
from mttsort.model import BoundingBox, Detection, TrackerConfig, TrackState
from mttsort.tracker import FrameResult, Tracker, preprocess, run_sequence

from oracles import box_iou

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
    kept = preprocess([det(1, 0, 0, conf=0.9), det(1, 100, 0, conf=0.4)], config)
    assert [d.confidence for d in kept] == [0.9]


def test_preprocess_nms_suppresses_duplicates():
    config = TrackerConfig(nms_max_overlap=0.7)
    kept = preprocess([det(1, 0, 0, conf=0.8), det(1, 0, 0, conf=0.95)], config)
    assert len(kept) == 1
    assert kept[0].confidence == 0.95


def test_preprocess_keeps_moderate_overlap():
    config = TrackerConfig(nms_max_overlap=0.3)
    a = det(1, 0, 0, w=10, h=10)
    b = det(1, 7, 0, w=10, h=10, conf=0.8)  # IoU = 3/17 < 0.3
    kept = preprocess([a, b], config)
    assert len(kept) == 2


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
    kept = preprocess(detections, config)
    expected = greedy_nms_oracle(detections, config)
    assert [id(d) for d in kept] == [id(d) for d in expected]


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
    tracker.step(5, [])
    with pytest.raises(ValueError, match="strictly increasing"):
        tracker.step(5, [])
    with pytest.raises(ValueError, match="strictly increasing"):
        tracker.step(3, [])


def test_step_rejects_foreign_frame_detections():
    tracker = Tracker(TrackerConfig())
    with pytest.raises(ValueError, match="frame"):
        tracker.step(1, [det(2, 0, 0)])


def test_empty_stream():
    assert run_sequence([], TrackerConfig(), 0) == []


def test_only_confirmed_tracks_reported():
    config = TrackerConfig(n_init=3)
    tracker = Tracker(config)
    result = tracker.step(1, [det(1, 100, 100)])
    assert result.records == ()
    assert tracker.tracks[0].state == TrackState.Tentative


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


def test_counters_and_deletion_rules():
    config = TrackerConfig(n_init=2, max_age=3)
    tracker = Tracker(config)
    tracker.step(1, [det(1, 100, 100)])
    track = tracker.tracks[0]
    assert (track.hits, track.age, track.time_since_update) == (1, 1, 0)
    tracker.step(2, [det(2, 103, 100)])
    assert (track.hits, track.age, track.time_since_update) == (2, 2, 0)
    assert track.state == TrackState.Confirmed
    for f in range(3, 6):
        tracker.step(f, [])
    assert track.time_since_update == 3
    assert track.state == TrackState.Confirmed
    tracker.step(6, [])
    assert track.state == TrackState.Deleted
    assert len(track.features) == 0  # buffer cleared on termination
    assert tracker.tracks == []


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
        result = tracker.step(f, by_frame.get(f, []))
        assert not (dead & {tid for tid, _, _ in result.records})
        live = {t.track_id for t in tracker.tracks}
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
        tracker.step(f, by_frame.get(f, []))
        for t in tracker.tracks:
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
