import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mttsort import model
from mttsort.ga import load_ga_config
from mttsort.model import (
    BoundingBox, ConfigError, DataError, Detection, DetectionTable, FrameDetections,
    TrackerConfig,
    box_columns, box_rows, format_config, load_config, load_preset,
    parse_config_text, parse_kv_lines, PRESETS,
)
from mttsort.seqio import ParseError, parse_meta
from mttsort.synth import load_scenario
from mttsort.tracker import run_sequence

from oracles import bits, center_box_rows_oracle, ltwh_from_centers, stream_columns_oracle


def test_to_center_worked_examples():
    assert BoundingBox(0, 0, 10, 20).to_center().tolist() == [5, 10, 0.5, 20]
    assert BoundingBox(10, 10, 20, 20).to_center().tolist() == [20, 20, 1.0, 20]


@given(
    left=st.floats(-1e4, 1e4),
    top=st.floats(-1e4, 1e4),
    width=st.floats(0.01, 1e4),
    height=st.floats(0.01, 1e4),
)
def test_center_form_round_trip(left, top, width, height):
    box = BoundingBox(left, top, width, height)
    back = BoundingBox.from_center(box.to_center())
    assert np.allclose(
        [back.left, back.top, back.width, back.height],
        [left, top, width, height], rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("width,height", [(0, 5), (5, 0), (-1, 5), (5, -2),
                                          (5e-324, 0.25), (1e300, 1e300)])
def test_degenerate_boxes_rejected(width, height):
    with pytest.raises(ValueError):
        BoundingBox(0, 0, width, height)


@pytest.mark.parametrize("fields", [
    (math.nan, 0, 4, 4), (0, -math.inf, 4, 4), (0, 0, math.inf, 4), (0, 0, 4, math.nan),
    (1e308, 0, 1e308, 1), (0, 1e308, 1, 1e308),
])
def test_non_finite_boxes_rejected(fields):
    with pytest.raises(ValueError, match="finite"):
        BoundingBox(*fields)


def test_detection_validation():
    box = BoundingBox(0, 0, 4, 4)
    emb = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        Detection(frame=0, box=box, confidence=0.5, embedding=emb)
    with pytest.raises(ValueError):
        Detection(frame=1, box=box, confidence=1.5, embedding=emb)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            Detection(frame=1, box=box, confidence=0.5,
                      embedding=np.array([1.0, value]))
    det = Detection(frame=1, box=box, confidence=0.5, embedding=emb)
    assert det.confidence == 0.5


@pytest.mark.parametrize("frame", [1.5, 1.0, True, np.bool_(True), "1", None],
                         ids=repr)
def test_detection_frame_must_be_an_integer(frame):
    with pytest.raises(ValueError, match="frame index must be an integer"):
        Detection(frame, BoundingBox(0, 0, 4, 4), 0.5, np.array([1.0, 0.0]))


@pytest.mark.parametrize("frame", [2, np.int64(2), np.int32(2), np.uint8(2), 2 ** 70])
def test_detection_frame_may_be_any_integer_from_1(frame):
    assert Detection(frame, BoundingBox(0, 0, 4, 4), 0.5, np.array([1.0, 0.0])).frame == frame


def test_preset_values():
    assert load_preset("config2").min_confidence == 0.7
    config3 = load_preset("config3")
    assert config3.max_dist == 0.4 and config3.max_age == 80
    config4 = load_preset("config4")
    assert config4.nms_max_overlap == 0.3 and config4.max_iou_distance == 0.3
    config6 = load_preset("config6")
    assert config6.min_confidence == 0.3 and config6.max_dist == 0.6


def test_baseline_defaults():
    config1 = load_preset("config1")
    assert config1 == TrackerConfig(
        min_confidence=0.5, max_dist=0.2, max_iou_distance=0.7,
        nms_max_overlap=0.7, max_age=30, n_init=3, nn_budget=100,
        feature_buffer_size=5)


def test_presets_stable_across_loads():
    for name in PRESETS:
        assert load_preset(name) == load_preset(name)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        load_preset("config99")


def test_parse_config_partial_and_comments():
    cfg = parse_config_text(
        "# full-line comment\n"
        "max_dist = 0.4   # trailing comment\n"
        "\n"
        "max_age = 80\n")
    assert cfg.max_dist == 0.4
    assert cfg.max_age == 80
    assert cfg.min_confidence == 0.5  # untouched default


def test_parse_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="max_dist"):
        parse_config_text("max_dist = 1.5\n")
    with pytest.raises(ConfigError, match="max_age"):
        parse_config_text("max_age = 0\n")
    with pytest.raises(ConfigError, match="n_init"):
        parse_config_text("n_init = 2.5\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("maximum_age = 10\n")


def test_parse_kv_rejects_malformed_lines():
    with pytest.raises(ConfigError, match=":2:"):
        parse_kv_lines("a = 1\nnonsense\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_lines("a = 1\na = 2\n")


@given(
    min_confidence=st.floats(0, 1),
    max_dist=st.floats(0.01, 1),
    max_age=st.integers(1, 500),
    feature_buffer_size=st.integers(1, 20),
)
def test_config_format_parse_round_trip(min_confidence, max_dist, max_age,
                                        feature_buffer_size):
    cfg = TrackerConfig(
        min_confidence=min_confidence, max_dist=max_dist,
        max_age=max_age, feature_buffer_size=feature_buffer_size)
    assert parse_config_text(format_config(cfg)) == cfg


def test_out_of_range_config_rejected_directly():
    with pytest.raises(ConfigError, match="nms_max_overlap"):
        TrackerConfig(nms_max_overlap=0.0)
    with pytest.raises(ConfigError, match="nn_budget"):
        TrackerConfig(nn_budget=0)


# Each settings file with its loader, a valid body and a float key; the
# four share one reader, so each must reject the same bad values.
SETTINGS_FILES = {
    "config": (load_config, "", "max_dist"),
    "ga-config": (load_ga_config, "", "mutation_rate"),
    "scenario": (load_scenario, "", "motion_noise_sigma"),
    "meta": (parse_meta,
             "name = x\nframe_count = 3\nheight = 48\nembedding_dim = 2\n", "width"),
}


@pytest.mark.parametrize("kind", sorted(SETTINGS_FILES))
@pytest.mark.parametrize("line", ["{key} = nan", "{key} = inf", "{key} = abc",
                                  "wheels = 1"])
def test_settings_readers_name_the_file_and_key(tmp_path, kind, line):
    loader, body, float_key = SETTINGS_FILES[kind]
    line = line.format(key=float_key)
    key = line.split(" = ")[0]
    path = tmp_path / f"{kind}.txt"
    path.write_text(body + line + "\n")
    with pytest.raises((ConfigError, ParseError),
                       match=re.escape(str(path)) + f".*'{key}'"):
        loader(path)


@pytest.mark.parametrize("kind, value", [
    ("config", "1.5"), ("ga-config", "1.5"), ("scenario", "-1"), ("meta", "-1")])
def test_settings_range_errors_name_the_file_and_key(tmp_path, kind, value):
    # Rejected by the dataclass's own checks, after the reader typed it.
    loader, body, float_key = SETTINGS_FILES[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_text(body + f"{float_key} = {value}\n")
    with pytest.raises((ConfigError, ParseError),
                       match=re.escape(str(path)) + f": {float_key} "):
        loader(path)


# ------------------------------------------------------ detection columns

finite_boxes = st.builds(
    BoundingBox, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
    st.floats(1e-3, 1e6), st.floats(1e-3, 1e6))


@st.composite
def detection_streams(draw, max_frame=4):
    """Detections over frames 1..max_frame (in no particular order) with
    3-d embeddings and confidences that often tie."""
    return [Detection(draw(st.integers(1, max_frame)), draw(finite_boxes),
                      draw(st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0])),
                      np.array(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3))))
            for _ in range(draw(st.integers(0, 8)))]


def assert_columns_of(columns, detections):
    """`columns` rows are `detections`, with each column equal to the
    per-object value bit for bit."""
    assert len(columns) == len(detections)
    for row, d in enumerate(detections):
        box = d.box
        assert columns.confidence[row] == d.confidence
        assert columns.boxes[row].tobytes() == np.array(
            [box.left, box.top, box.right, box.bottom, box.area]).tobytes()
        assert columns.measurements[row].tobytes() == box.to_center().tobytes()
        assert columns.embeddings[row].tobytes() == np.asarray(
            d.embedding, dtype=float).tobytes()


@settings(deadline=None, max_examples=150)
@given(detection_streams(max_frame=1))
def test_frame_columns_equal_the_objects_in_descending_confidence(detections):
    columns = FrameDetections.of(detections)
    ordered = sorted(detections, key=lambda d: -d.confidence)  # stable
    assert_columns_of(columns, ordered)
    assert columns.frame == (1 if detections else None)
    rows = list(range(len(ordered)))[::-2]
    assert_columns_of(columns.take(rows), [ordered[i] for i in rows])


@settings(deadline=None, max_examples=150)
@given(detection_streams(), st.integers(0, 5))
def test_stream_columns_are_each_frames_columns(detections, frame_count):
    frames = FrameDetections.stream(detections, frame_count)
    assert [f.frame for f in frames] == list(range(1, frame_count + 1))
    for columns in frames:
        here = [d for d in detections if d.frame == columns.frame]
        assert_columns_of(columns, sorted(here, key=lambda d: -d.confidence))


def test_columns_reject_detections_of_two_frames():
    box, emb = BoundingBox(0, 0, 4, 4), np.array([1.0, 0.0])
    with pytest.raises(ValueError, match=r"frames \[1, 2\]"):
        FrameDetections.of([Detection(1, box, 0.5, emb), Detection(2, box, 0.5, emb)])


@st.composite
def table_streams(draw):
    """Detections of frames 1-5 in any order, with confidences that often
    tie, one embedding dimension of 1-4, and boxes that often overlap."""
    dim = draw(st.integers(1, 4))
    boxes = st.builds(BoundingBox, st.floats(0, 100), st.floats(0, 100),
                      st.floats(20, 60), st.floats(20, 60))
    return [Detection(draw(st.integers(1, 5)), draw(boxes),
                      draw(st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.9, 1.0])),
                      np.array(draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim))))
            for _ in range(draw(st.integers(0, 12)))]


@settings(deadline=None, max_examples=200)
@given(table_streams())
def test_table_iterates_as_its_detections_stably_sorted_by_frame(detections):
    table = DetectionTable.of(detections)
    assert len(table) == len(detections)
    assert bits(list(table)) == bits(sorted(detections, key=lambda d: d.frame))
    assert DetectionTable.of(table) is table


def column_bits(column):
    """`bits` of a float column with every NaN read as np.nan: which NaN
    numpy's max returns, sign bit included, is not fixed."""
    return bits(np.where(np.isnan(column), np.nan, column))


@settings(deadline=None, max_examples=200)
@given(table_streams(), st.integers(0, 6))
def test_stream_of_a_table_equals_the_object_columns(detections, frame_count):
    frames, want = stream_columns_oracle(detections)
    starts = np.searchsorted(frames, np.arange(1, frame_count + 2)).tolist()
    got = FrameDetections.stream(DetectionTable.of(detections), frame_count)
    assert [columns.frame for columns in got] == list(range(1, frame_count + 1))
    for columns, a, b in zip(got, starts, starts[1:]):
        for name in ("confidence", "boxes", "measurements", "embeddings", "overlap"):
            assert column_bits(getattr(columns, name)) == column_bits(
                getattr(want, name)[a:b])


def grid_detection(frame, x, y, w, h, confidence=0.5):
    return Detection(frame, BoundingBox(5 * x, 5 * y, w, h), confidence, np.array([1.0]))


@st.composite
def grid_streams(draw):
    """Frames 1-6 of 0-7 detections each, on a 5 px grid with sides 5 or
    10 px: duplicate boxes are common and every IoU is a small rational."""
    return [grid_detection(frame, draw(st.integers(0, 3)), draw(st.integers(0, 3)),
                           draw(st.sampled_from([5, 10])), draw(st.sampled_from([5, 10])),
                           draw(st.sampled_from([0.3, 0.5, 0.9])))
            for frame in range(1, 7) for _ in range(draw(st.integers(0, 7)))]


def assert_overlap_of(detections, frame_count):
    frames, want = stream_columns_oracle(detections)
    starts = np.searchsorted(frames, np.arange(1, frame_count + 2)).tolist()
    for columns, a, b in zip(FrameDetections.stream(detections, frame_count),
                             starts, starts[1:]):
        assert column_bits(columns.overlap) == column_bits(want.overlap[a:b])


@settings(deadline=None, max_examples=200)
@given(grid_streams())
def test_overlap_is_each_rows_largest_iou_within_its_frame(detections):
    assert_overlap_of(detections, 6)
    for frame in range(1, 7):
        here = [d for d in detections if d.frame == frame]
        columns = FrameDetections.of(here)
        assert column_bits(columns.overlap) == column_bits(
            stream_columns_oracle(here)[1].overlap)
        rows = list(range(len(here)))[::-2]
        assert bits(columns.take(rows).overlap) == bits(columns.overlap[rows])


def test_overlap_batches_frames_of_one_size_up_to_the_entry_cap(monkeypatch):
    # 700 frames of 7 rows cross the entry cap of one batched call, and a
    # frame of 130 rows alone exceeds it; each call holds as many whole
    # frames as fit, and at least one.
    cap = model._OVERLAP_BATCH_ENTRIES
    sizes = [7] * 700 + [130] * 3 + [1] * 5 + [2] * 4
    rng = np.random.default_rng(0)
    detections = [grid_detection(frame, *rng.integers(0, 4, 2).tolist(),
                                 *rng.choice([5, 10], 2).tolist())
                  for frame, size in enumerate(sizes, start=1) for _ in range(size)]
    kernel, seen = model._iou_of_fields, []

    def counting(a, b):
        seen.append(a.shape)
        return kernel(a, b)

    monkeypatch.setattr(model, "_iou_of_fields", counting)
    FrameDetections.stream(detections, len(sizes))
    monkeypatch.undo()
    want = []
    for m, frames in ((2, 4), (7, 700), (130, 3)):
        per_call = max(1, cap // (m * m))
        want += [(5, min(per_call, frames - i), m, 1) for i in range(0, frames, per_call)]
    assert seen == want
    assert all(f * m * m <= max(cap, m * m) for _, f, m, _ in want)
    assert_overlap_of(detections, len(sizes))


def test_overlap_is_nan_where_an_iou_is_nan():
    # This box's bottom edge rounds up by 1, so its overlap with itself
    # (4 * 5e307) overflows, and so does the union: its IoU with itself is
    # NaN. Both copies read NaN, and nothing warns.
    huge = BoundingBox(0, 2.0**53, 5e307, 3)
    detections = [Detection(1, huge, 0.9, np.array([1.0])),
                  Detection(1, huge, 0.3, np.array([1.0])),
                  Detection(1, BoundingBox(0, 0, 10, 10), 0.5, np.array([1.0]))]
    columns = FrameDetections.of(detections)
    assert np.isnan(columns.overlap[[0, 2]]).all()
    assert column_bits(columns.overlap) == column_bits(
        stream_columns_oracle(detections)[1].overlap)


@settings(deadline=None, max_examples=100)
@given(table_streams(), st.integers(1, 3), st.integers(1, 3))
def test_a_table_tracks_as_its_detection_list(detections, n_init, max_age):
    config = TrackerConfig(n_init=n_init, max_age=max_age, min_confidence=0.2)
    assert bits(run_sequence(DetectionTable.of(detections), config, 6)) == bits(
        run_sequence(detections, config, 6))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
                          st.floats(1e-6, 1e3), st.floats(1e-3, 1e6)),
                max_size=6))
def test_boxes_from_centers_equal_from_center_bit_for_bit(rows):
    centers = np.array(rows, dtype=float).reshape(-1, 4)
    ltwh = ltwh_from_centers(centers)
    columns = box_columns(ltwh)
    for row, center in enumerate(centers):
        box = BoundingBox.from_center(center)
        assert ltwh[row].tobytes() == np.array(
            [box.left, box.top, box.width, box.height]).tobytes()
        assert columns[row].tobytes() == np.array(
            [box.left, box.top, box.right, box.bottom, box.area]).tobytes()


# Box fields across signs, zero, subnormals, huge values, inf and NaN.
box_fields = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-200, 1e-160, 1.0, -1.0,
                     1e150, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(-1e6, 1e6), st.floats())


def box_or_none(make, fields):
    """The BoundingBox `make(fields)` builds, or None where it raises."""
    try:
        return make(fields)
    except ValueError:
        return None


@settings(deadline=None, max_examples=500)
@given(st.lists(st.tuples(box_fields, box_fields, box_fields, box_fields), max_size=6))
def test_box_rows_is_the_bounding_box_rule(rows):
    # A row is valid iff its BoundingBox constructs, and a valid row's
    # columns are that box's properties bit for bit. The same holds for
    # the rows `ltwh_from_centers` makes of the drawn rows as center
    # forms, which it returns unchecked. No numpy warning is raised (the
    # suite makes one an error).
    table = np.array(rows, dtype=float).reshape(-1, 4)
    for ltwh, make in ((table, lambda fields: BoundingBox(*fields)),
                       (ltwh_from_centers(table), BoundingBox.from_center)):
        columns, valid = box_rows(ltwh)
        assert valid.dtype == bool and valid.shape == (len(table),)
        for row, fields in enumerate(table.tolist()):
            box = box_or_none(make, fields)
            assert valid[row] == (box is not None)
            if box is not None:
                assert columns[row].tobytes() == np.array(
                    [box.left, box.top, box.right, box.bottom, box.area]).tobytes()


# Heights that underflow a product, are negative, zero, inf or NaN.
center_fields = st.one_of(box_fields, st.sampled_from([1e-170, 1e-320, -2.0, -1e-300]))


@settings(deadline=None, max_examples=500)
@given(st.lists(st.tuples(center_fields, center_fields, center_fields, center_fields),
                max_size=6))
def test_center_box_rows_is_box_rows_of_the_rows_from_centers(rows):
    # The one-pass oracle of the tracker's box check gives the columns and
    # the validity mask of the two-step form bit for bit, and no numpy
    # warning (the suite makes one an error).
    centers = np.array(rows, dtype=float).reshape(-1, 4)
    boxes, valid = center_box_rows_oracle(centers)
    want_boxes, want_valid = box_rows(ltwh_from_centers(centers))
    assert bits(boxes) == bits(want_boxes)
    assert bits(valid) == bits(want_valid)


@pytest.mark.parametrize("bad", [
    (0.0, 0.0, 1e-200, 1e-200),     # the width underflows to 0
    (0.0, 0.0, 1e200, 1e200),       # the width overflows
    (math.nan, 0.0, 1.0, 1.0),
    (0.0, 0.0, 1.0, -2.0),
])
def test_boxes_from_centers_raise_the_first_invalid_rows_box_error(bad):
    # `ltwh_from_centers` returns such rows unchecked; `box_rows` marks them
    # invalid, and the first row it marks is `bad`, whose box raises the
    # error `BoundingBox.from_center(bad)` raises.
    centers = np.array([(5.0, 5.0, 0.5, 10.0), bad, (0.0, 0.0, -1.0, 1.0)])
    ltwh = ltwh_from_centers(centers)
    _, valid = box_rows(ltwh)
    assert valid.tolist() == [True, False, False]
    first = int(np.flatnonzero(~valid)[0])
    with pytest.raises(ValueError) as want:
        BoundingBox.from_center(bad)
    with pytest.raises(ValueError) as got:
        BoundingBox(*ltwh[first].tolist())
    assert str(got.value) == str(want.value)


def test_data_errors_share_one_base():
    assert issubclass(ConfigError, DataError) and issubclass(ParseError, DataError)
    assert issubclass(DataError, ValueError)
