import re

import numpy as np
import pytest

from mttsort import synth
from mttsort.metrics import EvalReport, GtEntry
from mttsort.model import BoundingBox, Detection
from mttsort.seqio import (
    ParseError, Sequence, SequenceMeta, format_overlay, format_report,
    load_sequence, parse_detections, parse_gt, parse_meta, parse_results,
    write_detections, write_gt, write_meta, write_results, write_sequence,
)
from mttsort.tracker import FrameResult


def write(path, text):
    path.write_text(text)
    return str(path)


# -------------------------------------------------------------- detections

def test_parse_detection_row(tmp_path):
    path = write(tmp_path / "det.txt", "1,-1,10,20,30,40,0.9,1,0\n")
    (det,) = parse_detections(path, expected_dim=2)
    assert det.frame == 1
    assert det.box == BoundingBox(10, 20, 30, 40)
    assert det.confidence == 0.9
    assert det.embedding.tolist() == [1.0, 0.0]


def test_embedding_normalized_on_load(tmp_path):
    path = write(tmp_path / "det.txt", "1,-1,10,20,30,40,0.9,3,4\n")
    (det,) = parse_detections(path, expected_dim=2)
    assert det.embedding.tolist() == [0.6, 0.8]


def test_embedding_scale_invariance(tmp_path):
    a = write(tmp_path / "a.txt", "1,-1,10,20,30,40,0.9,0.3,0.4\n")
    b = write(tmp_path / "b.txt", "1,-1,10,20,30,40,0.9,2.1,2.8\n")
    (det_a,), (det_b,) = (parse_detections(a, expected_dim=2),
                          parse_detections(b, expected_dim=2))
    assert np.allclose(det_a.embedding, det_b.embedding, atol=1e-12)


def test_short_row_errors_with_line_number(tmp_path):
    path = write(tmp_path / "det.txt",
                 "1,-1,10,20,30,40,0.9,1,0\n1,-1,10,20,30,40\n")
    with pytest.raises(ParseError, match=":2:"):
        parse_detections(path, expected_dim=2)


def test_dimension_mismatch_vs_meta(tmp_path):
    path = write(tmp_path / "det.txt", "1,-1,10,20,30,40,0.9,1,0\n")
    with pytest.raises(ParseError, match="dimension"):
        parse_detections(path, expected_dim=3)


def test_inconsistent_dimensions_between_rows(tmp_path):
    path = write(tmp_path / "det.txt",
                 "1,-1,10,20,30,40,0.9,1,0\n2,-1,10,20,30,40,0.9,1,0,0\n")
    with pytest.raises(ParseError, match=":2:"):
        parse_detections(path, expected_dim=2)


def test_id_field_must_be_minus_one(tmp_path):
    path = write(tmp_path / "det.txt", "1,7,10,20,30,40,0.9,1,0\n")
    with pytest.raises(ParseError, match="-1"):
        parse_detections(path, expected_dim=2)


def test_bad_confidence_rejected(tmp_path):
    path = write(tmp_path / "det.txt", "1,-1,10,20,30,40,1.7,1,0\n")
    with pytest.raises(ParseError, match=":1:"):
        parse_detections(path, expected_dim=2)


@pytest.mark.parametrize("row", [
    "1,-1,10,10,inf,40,0.9,1,0",
    "2,-1,10,10,20,40,0.9,nan,1",
])
def test_non_finite_detection_fields_name_file_and_line(tmp_path, row):
    path = write(tmp_path / "det.txt", f"1,-1,10,20,30,40,0.9,1,0\n{row}\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:2:") + ".*finite"):
        parse_detections(path, expected_dim=2)


def test_rows_sorted_by_frame(tmp_path):
    path = write(tmp_path / "det.txt",
                 "3,-1,1,1,5,5,0.9,1,0\n1,-1,2,2,5,5,0.9,1,0\n")
    dets = parse_detections(path, expected_dim=2)
    assert [d.frame for d in dets] == [1, 3]


def test_detections_write_parse_round_trip(tmp_path):
    dets = [
        Detection(frame=1, box=BoundingBox(10.25, 20.5, 30.0, 40.75),
                  confidence=0.9, embedding=np.array([0.6, 0.8])),
        Detection(frame=2, box=BoundingBox(11.0, 21.0, 30.0, 40.0),
                  confidence=0.8125, embedding=np.array([1.0, 0.0])),
    ]
    path = tmp_path / "det.txt"
    write_detections(dets, path)
    parsed = parse_detections(path, expected_dim=2)
    for orig, back in zip(dets, parsed):
        assert back.frame == orig.frame
        assert back.box == orig.box
        assert back.confidence == orig.confidence
        assert np.allclose(back.embedding, orig.embedding, atol=1e-9)


# --------------------------------------------------------------------- gt

def test_gt_round_trip_and_duplicate_rejection(tmp_path):
    entries = [GtEntry(2, 1, BoundingBox(5, 6, 7, 8)),
               GtEntry(1, 2, BoundingBox(1, 2, 3, 4))]
    path = tmp_path / "gt.txt"
    write_gt(entries, path)
    parsed = parse_gt(path)
    assert [(e.frame, e.identity) for e in parsed] == [(1, 2), (2, 1)]

    bad = write(tmp_path / "bad.txt", "1,1,0,0,5,5\n1,1,2,2,5,5\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_gt(bad)


def test_non_finite_gt_box_names_file_and_line(tmp_path):
    path = write(tmp_path / "gt.txt", "1,1,0,0,5,5\n2,1,0,0,inf,5\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:2:") + ".*finite"):
        parse_gt(path)


# ---------------------------------------------------------------- results

def frame_result(frame, *records):
    return FrameResult(frame=frame, records=tuple(records))


def test_write_results_empty(tmp_path):
    path = tmp_path / "out.txt"
    write_results([], path)
    assert path.read_bytes() == b""


def test_results_format_is_fixed_precision(tmp_path):
    path = tmp_path / "out.txt"
    results = [frame_result(1, (3, BoundingBox(1.005, 2, 3.5, 4), 0.875))]
    write_results(results, path)
    assert path.read_text() == "1,3,1.00,2.00,3.50,4.00,0.88,-1,-1,-1\n"


def test_results_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    results = []
    for frame in range(1, 6):
        records = []
        for tid in range(1, int(rng.integers(1, 4)) + 1):
            box = BoundingBox(*(np.round(rng.uniform(1, 100, 4), 2)))
            records.append((tid, box, float(np.round(rng.uniform(0, 1), 2))))
        results.append(frame_result(frame, *records))
    path = tmp_path / "out.txt"
    write_results(results, path)
    assert parse_results(path) == results


def test_results_sorted_by_frame_then_id(tmp_path):
    results = [
        frame_result(2, (2, BoundingBox(0, 0, 1, 1), 0.5),
                     (1, BoundingBox(5, 5, 1, 1), 0.5)),
        frame_result(1, (9, BoundingBox(0, 0, 1, 1), 0.5)),
    ]
    path = tmp_path / "out.txt"
    write_results(results, path)
    lines = path.read_text().splitlines()
    assert [line.split(",")[:2] for line in lines] == [
        ["1", "9"], ["2", "1"], ["2", "2"]]


def test_parse_results_schema_errors(tmp_path):
    bad_tail = write(tmp_path / "a.txt", "1,1,0,0,5,5,0.9,-1,-1,0\n")
    with pytest.raises(ParseError, match="-1,-1,-1"):
        parse_results(bad_tail)
    bad_len = write(tmp_path / "b.txt", "1,1,0,0,5,5,0.9\n")
    with pytest.raises(ParseError, match="expected 10"):
        parse_results(bad_len)
    dup = write(tmp_path / "c.txt",
                "1,1,0,0,5,5,0.9,-1,-1,-1\n1,1,9,9,5,5,0.9,-1,-1,-1\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_results(dup)


# ------------------------------------------------------------------- meta

def test_meta_round_trip(tmp_path):
    meta = SequenceMeta(name="demo", frame_count=40, width=320.0,
                        height=240.0, embedding_dim=4)
    path = tmp_path / "meta.txt"
    write_meta(meta, path)
    assert parse_meta(path) == meta


def test_meta_errors(tmp_path):
    missing = write(tmp_path / "a.txt", "name = x\nframe_count = 3\n")
    with pytest.raises(ParseError, match="missing keys.*'width'"):
        parse_meta(missing)
    unknown = write(
        tmp_path / "b.txt",
        "name = x\nframe_count = 3\nwidth = 1\nheight = 1\n"
        "embedding_dim = 2\nfps = 30\n")
    with pytest.raises(ParseError, match="unknown key 'fps'"):
        parse_meta(unknown)


@pytest.mark.parametrize("key, value", [
    ("frame_count", 0), ("frame_count", -4), ("width", 0.0), ("height", -1.0),
    ("width", float("inf")), ("height", float("nan")), ("embedding_dim", 0),
])
def test_meta_ranges_checked(tmp_path, key, value):
    fields = dict(name="x", frame_count=3, width=64.0, height=48.0, embedding_dim=2)
    fields[key] = value
    with pytest.raises(ValueError, match=key):
        SequenceMeta(**fields)
    with pytest.raises(ValueError, match=key):
        Sequence(**fields, detections=())
    path = write(tmp_path / "meta.txt",
                 "".join(f"{k} = {v}\n" for k, v in fields.items()))
    with pytest.raises(ParseError, match=re.escape(path) + f".*{key}"):
        parse_meta(path)


# --------------------------------------------------------------- sequence

def test_sequence_directory_round_trip(tmp_path):
    spec = synth.ScenarioSpec(name="roundtrip", identities=2, frames=20,
                              embedding_dim=4, false_positive_rate=0.2, seed=3)
    gt, dets = synth.generate(spec)
    meta = SequenceMeta(name=spec.name, frame_count=spec.frames,
                        width=640.0, height=480.0, embedding_dim=4)
    directory = tmp_path / "seq"
    write_sequence(directory, meta, dets, gt)
    seq = load_sequence(directory)
    assert seq.name == "roundtrip"
    assert seq.frame_count == 20
    assert seq.embedding_dim == 4
    assert len(seq.detections) == len(dets)
    assert len(seq.gt) == len(gt)


def test_sequence_frame_bounds_checked(tmp_path):
    directory = tmp_path / "seq"
    directory.mkdir()
    write(directory / "meta.txt",
          "name = x\nframe_count = 2\nwidth = 100\nheight = 100\n"
          "embedding_dim = 2\n")
    write(directory / "det.txt", "5,-1,0,0,5,5,0.9,1,0\n")
    with pytest.raises(ParseError, match="outside"):
        load_sequence(directory)


# ----------------------------------------------------------------- report

def test_report_formatting():
    rep = EvalReport(hota=0.68, mota=0.98, idf1=0.98, det_re=0.9,
                     det_pr=0.95, det_a=0.87, ass_a=0.55,
                     fn_count=3, fp_count=1, idsw_count=2, frag_count=0)
    text = format_report(rep)
    assert "hota = 0.68000" in text
    assert "mota = 0.98000" in text
    assert "fn = 3" in text
    assert "frag = 0" in text
    assert text.endswith("\n")


def test_overlay_format():
    results = [
        frame_result(1, (1, BoundingBox(1, 2, 3, 4), 0.9)),
        frame_result(2),
    ]
    text = format_overlay(results)
    lines = text.splitlines()
    assert lines[0] == "frame 1: id 1 (1.00, 2.00, 3.00, 4.00)"
    assert lines[1] == "frame 2: -"
