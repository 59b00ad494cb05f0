import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mttsort import synth
from mttsort.metrics import EvalReport, GtEntry
from mttsort.model import BoundingBox, Detection
from mttsort.seqio import (
    ParseError, Sequence, SequenceMeta, format_report,
    load_sequence, parse_detections, parse_gt, parse_meta, parse_results,
    write_detections, write_gt, write_meta, write_results, write_sequence,
)
from mttsort.tracker import FrameResult
from oracles import (bits, parse_detections_oracle, parse_gt_oracle, parse_results_oracle,
                     write_results_oracle)


def write(path, text):
    path.write_text(text)
    return str(path)


# -------------------------------------------------------------- detections

def test_parse_detection_row(tmp_path):
    path = write(tmp_path / "det.txt", "1,-1,10,20,30,40,0.9,1,0\n")
    (det,) = parse_detections(path, expected_dim=2, frame_count=3)
    assert det.frame == 1
    assert det.box == BoundingBox(10, 20, 30, 40)
    assert det.confidence == 0.9
    assert det.embedding.tolist() == [1.0, 0.0]


def test_embedding_normalized_on_load(tmp_path):
    path = write(tmp_path / "det.txt", "1,-1,10,20,30,40,0.9,3,4\n")
    (det,) = parse_detections(path, expected_dim=2, frame_count=3)
    assert det.embedding.tolist() == [0.6, 0.8]


def test_embedding_scale_invariance(tmp_path):
    a = write(tmp_path / "a.txt", "1,-1,10,20,30,40,0.9,0.3,0.4\n")
    b = write(tmp_path / "b.txt", "1,-1,10,20,30,40,0.9,2.1,2.8\n")
    (det_a,), (det_b,) = (parse_detections(a, expected_dim=2, frame_count=3),
                          parse_detections(b, expected_dim=2, frame_count=3))
    assert np.allclose(det_a.embedding, det_b.embedding, atol=1e-12)


@pytest.mark.parametrize("embedding, want", [
    ("1e200,1e200", [2 ** -0.5, 2 ** -0.5]),  # the plain norm overflows
    ("1e200,0", [1.0, 0.0]),
    ("3e-10,4e-10", [0.6, 0.8]),  # nonzero, with a plain norm under 1e-9
])
def test_embedding_of_any_positive_scale_loads_as_its_direction(tmp_path, embedding, want):
    path = write(tmp_path / "det.txt", f"1,-1,10,20,30,40,0.9,{embedding}\n")
    (det,) = parse_detections(path, expected_dim=2, frame_count=3)
    assert np.allclose(det.embedding, want, rtol=0, atol=1e-15)
    assert np.linalg.norm(det.embedding) == pytest.approx(1.0, abs=1e-15)


def test_all_zero_embedding_names_file_and_line(tmp_path):
    path = write(tmp_path / "det.txt", "1,-1,10,20,30,40,0.9,1,0\n2,-1,10,20,30,40,0.9,0,0\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: embedding has zero norm")):
        parse_detections(path, expected_dim=2, frame_count=3)


def test_short_row_errors_with_line_number(tmp_path):
    path = write(tmp_path / "det.txt",
                 "1,-1,10,20,30,40,0.9,1,0\n1,-1,10,20,30,40\n")
    with pytest.raises(ParseError, match=":2:"):
        parse_detections(path, expected_dim=2, frame_count=3)


def test_dimension_mismatch_vs_meta(tmp_path):
    path = write(tmp_path / "det.txt", "1,-1,10,20,30,40,0.9,1,0\n")
    with pytest.raises(ParseError, match="dimension"):
        parse_detections(path, expected_dim=3, frame_count=3)


def test_inconsistent_dimensions_between_rows(tmp_path):
    path = write(tmp_path / "det.txt",
                 "1,-1,10,20,30,40,0.9,1,0\n2,-1,10,20,30,40,0.9,1,0,0\n")
    with pytest.raises(ParseError, match=":2:"):
        parse_detections(path, expected_dim=2, frame_count=3)


def test_id_field_must_be_minus_one(tmp_path):
    path = write(tmp_path / "det.txt", "1,7,10,20,30,40,0.9,1,0\n")
    with pytest.raises(ParseError, match="-1"):
        parse_detections(path, expected_dim=2, frame_count=3)


def test_bad_confidence_rejected(tmp_path):
    path = write(tmp_path / "det.txt", "1,-1,10,20,30,40,1.7,1,0\n")
    with pytest.raises(ParseError, match=":1:"):
        parse_detections(path, expected_dim=2, frame_count=3)


@pytest.mark.parametrize("row", [
    "1,-1,10,10,inf,40,0.9,1,0",
    "2,-1,10,10,20,40,0.9,nan,1",
])
def test_non_finite_detection_fields_name_file_and_line(tmp_path, row):
    path = write(tmp_path / "det.txt", f"1,-1,10,20,30,40,0.9,1,0\n{row}\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:2:") + ".*finite"):
        parse_detections(path, expected_dim=2, frame_count=3)


@pytest.mark.parametrize("box,message", [
    pytest.param("10,10,1e-200,1e200", "aspect", id="10,10,1e-200,1e200"),
    pytest.param("1.5e308,10,1e308,5", "area", id="1.5e308,10,1e308,5"),
    pytest.param("1.5e308,10,1e308,1e-10", "edges", id="1.5e308,10,1e308,1e-10"),
])
def test_detection_without_a_finite_center_form_names_file_and_line(tmp_path, box, message):
    # A valid box whose aspect underflows to 0, then boxes whose center
    # overflows. The center lies between the left and right edges, so the
    # right edge overflows too, and BoundingBox rejects such a box: for its
    # area (1e308 * 5) or, with a finite area, for its edge.
    path = write(tmp_path / "det.txt", f"1,-1,10,20,30,40,0.9,1,0\n1,-1,{box},0.9,1,0\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:2:") + ".*" + message):
        parse_detections(path, expected_dim=2, frame_count=3)


def test_rows_sorted_by_frame(tmp_path):
    path = write(tmp_path / "det.txt",
                 "3,-1,1,1,5,5,0.9,1,0\n1,-1,2,2,5,5,0.9,1,0\n")
    dets = parse_detections(path, expected_dim=2, frame_count=3)
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
    parsed = parse_detections(path, expected_dim=2, frame_count=3)
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
    parsed = parse_gt(path, frame_count=2)
    assert [(e.frame, e.identity) for e in parsed] == [(1, 2), (2, 1)]

    bad = write(tmp_path / "bad.txt", "1,1,0,0,5,5\n1,1,2,2,5,5\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_gt(bad, frame_count=2)


def test_non_finite_gt_box_names_file_and_line(tmp_path):
    path = write(tmp_path / "gt.txt", "1,1,0,0,5,5\n2,1,0,0,inf,5\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:2:") + ".*finite"):
        parse_gt(path, frame_count=2)


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


@pytest.mark.parametrize("side, text", [(0.004, "0.01"), (0.005, "0.01"),
                                        (12.345, "12.35")])
def test_writers_print_sides_that_read_back(tmp_path, side, text):
    # A side below 0.005 would print as 0.00, which no reader accepts.
    box = BoundingBox(1.5, 2.25, side, side)
    fields = f"1.50,2.25,{text},{text}"
    det, gt, out = tmp_path / "det.txt", tmp_path / "gt.txt", tmp_path / "out.txt"
    write_detections([Detection(1, box, 0.5, np.array([1.0, 0.0]))], det)
    write_gt([GtEntry(1, 7, box)], gt)
    write_results([frame_result(1, (7, box, 0.5))], out)
    assert det.read_text() == f"1,-1,{fields},0.5000,1,0\n"
    assert gt.read_text() == f"1,7,{fields}\n"
    assert out.read_text() == f"1,7,{fields},0.50,-1,-1,-1\n"
    want = BoundingBox(1.5, 2.25, float(text), float(text))
    assert parse_detections(det, expected_dim=2, frame_count=3)[0].box == want
    assert parse_gt(gt, frame_count=2)[0].box == want
    assert parse_results(out)[0].records[0][1] == want


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


@settings(deadline=None, max_examples=300)
@given(st.text(st.characters(exclude_categories=["Cs"]), max_size=12))
@example("a # b")
@example(" a")
@example("a\t")
@example("a\nb")
@example("a\rb")
@example("a\x1cb")
@example("")
@example("a = b")
def test_meta_name_reads_back_or_is_refused(tmp_path_factory, name):
    # A name that would not read back raises before meta.txt is opened; a
    # printable one without '#' or surrounding spaces is written.
    meta = SequenceMeta(name=name, frame_count=3, width=64.0, height=48.0,
                        embedding_dim=2)
    path = tmp_path_factory.mktemp("meta") / "meta.txt"
    try:
        write_meta(meta, path)
    except ValueError as exc:
        assert repr(name) in str(exc)
        assert not path.exists()
        assert "#" in name or name != name.strip() or not name.isprintable()
    else:
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


def test_loaded_detections_iterate_as_parse_detections_returns(tmp_path):
    spec = synth.ScenarioSpec(name="table", identities=3, frames=12, embedding_dim=3,
                              false_positive_rate=1.0, seed=5)
    gt, dets = synth.generate(spec)
    directory = tmp_path / "seq"
    write_sequence(directory, SequenceMeta("table", 12, 640.0, 480.0, 3),
                   dets[::-1], gt)  # frames in descending order in the file
    parsed = parse_detections(directory / "det.txt", expected_dim=3, frame_count=12)
    assert bits(list(load_sequence(directory).detections)) == bits(parsed)
    assert [d.frame for d in parsed] == sorted(d.frame for d in dets)


def test_a_detection_frame_past_int64_is_rejected_at_its_line(tmp_path):
    path = write(tmp_path / "det.txt", f"1,-1,0,0,5,5,0.9,1,0\n{2 ** 63},-1,0,0,5,5,0.9,1,0\n")
    with pytest.raises(ParseError, match=re.escape(
            f"{path}:2: frame {2 ** 63} outside [1, {2 ** 63 - 1}]")):
        parse_detections(path, expected_dim=2, frame_count=2 ** 70)
    path = write(tmp_path / "det.txt", f"{2 ** 63 - 1},-1,0,0,5,5,0.9,1,0\n")
    (det,) = parse_detections(path, expected_dim=2, frame_count=2 ** 70)
    assert (det.frame, type(det.frame)) == (2 ** 63 - 1, int)


def test_sequence_frame_bounds_checked(tmp_path):
    directory = tmp_path / "seq"
    directory.mkdir()
    write(directory / "meta.txt",
          "name = x\nframe_count = 2\nwidth = 100\nheight = 100\n"
          "embedding_dim = 2\n")
    det = write(directory / "det.txt", "5,-1,0,0,5,5,0.9,1,0\n")
    with pytest.raises(ParseError, match=re.escape(f"{det}:1: frame 5 outside [1, 2]")):
        load_sequence(directory)
    write(directory / "det.txt", "2,-1,0,0,5,5,0.9,1,0\n")
    gt = write(directory / "gt.txt", "1,1,0,0,5,5\n0,1,0,0,5,5\n")
    with pytest.raises(ParseError, match=re.escape(f"{gt}:2: frame 0 outside [1, 2]")):
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


# ------------------------------------------- bulk parsing against the oracles

def outcome(parse, *args):
    try:
        return "parsed", bits(parse(*args))
    except ParseError as exc:
        return "error", str(exc)


PADS = st.sampled_from(["", "", " ", "\t", "  "])


@st.composite
def float_text(draw, value):
    form = draw(st.sampled_from(["{!r}", "{!r}", "{:.17g}", "{:e}", "{:+.12g}"]))
    return draw(PADS) + form.format(value) + draw(PADS)


@st.composite
def int_text(draw, value):
    form = draw(st.sampled_from(["{:d}", "{:d}", "{:+d}", "{:03d}"]))
    return draw(PADS) + form.format(value) + draw(PADS)


coordinates = st.floats(-1e4, 1e4)
sides = st.floats(1e-3, 1e4)
confidences = st.floats(0.0, 1.0)


@st.composite
def box_texts(draw):
    values = [draw(coordinates), draw(coordinates), draw(sides), draw(sides)]
    return [draw(float_text(v)) for v in values]


@st.composite
def detection_row(draw, dim, frame_count):
    # Scales whose plain norm overflows or falls below 1e-9 take the rescale.
    scale = draw(st.sampled_from([1.0, 1.0, 1e-12, 1e-200, 1e-310, 1e200, 1e300]))
    embedding = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
                     .filter(lambda values: any(v * scale for v in values)))
    return [draw(int_text(draw(st.integers(1, frame_count)))),
            draw(st.sampled_from(["-1", "-1", "-1.0", "-1e0", "-01", " -1 "])),
            *draw(box_texts()), draw(float_text(draw(confidences))),
            *[draw(float_text(v * scale)) for v in embedding]]


@st.composite
def gt_row(draw, frame_count):
    identity = draw(st.one_of(st.integers(-3, 6), st.just(2 ** 70)))
    return [draw(int_text(draw(st.integers(1, frame_count)))),
            draw(int_text(identity)), *draw(box_texts())]


@st.composite
def result_row(draw, frame_count):
    tail = draw(st.sampled_from([["-1", "-1", "-1"], [" -1", "-1 ", "\t-1"]]))
    return [*draw(gt_row(frame_count)), draw(float_text(draw(confidences))), *tail]


NOT_NUMBERS = ["x", "1_0", "١", "", "0x10", "1.0.0", "--1", "1e"]


@st.composite
def sides_without_an_area(draw):
    """Two positive finite sides whose product underflows to 0 (each at
    most 2**-7, the product at most 2**-1080) or overflows to inf (at
    least 2**1025)."""
    mantissas = st.floats(0.5, 1.0, exclude_max=True)
    if draw(st.booleans()):
        first = draw(st.integers(-1073, -7))
        second = draw(st.integers(-1073, -1080 - first))
    else:
        first = draw(st.integers(3, 1024))
        second = draw(st.integers(1027 - first, 1024))
    return math.ldexp(draw(mantissas), first), math.ldexp(draw(mantissas), second)


@st.composite
def corrupt(draw, rows, kind, frame_count):
    """`rows` with one row spoilt as `kind` says; the row keeps its place."""
    i = draw(st.integers(0, len(rows) - 1))
    row = list(rows[i])
    if kind == "field count":
        row = row[:-1] if draw(st.booleans()) else row + ["0"]
    elif kind == "not a number":
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(NOT_NUMBERS))
    elif kind == "not an integer":
        row[draw(st.integers(0, 1))] = draw(st.sampled_from(["1.0", "1_0", "١", "1e0"]))
    elif kind == "frame":
        row[0] = draw(st.sampled_from(["0", "-4", str(frame_count + 1),
                                       "99999999999999999999"]))
    elif kind == "sentinel":
        row[1] = draw(st.sampled_from(["7", "nan", "-1_0", "-1.5"]))
    elif kind == "non-finite":
        row[draw(st.integers(2, len(row) - 1))] = draw(st.sampled_from(["inf", "-inf", "nan"]))
    elif kind == "zero norm":
        row[7:] = [draw(st.sampled_from(["0", "-0.0", "0e5"])) for _ in row[7:]]
    elif kind == "box":
        # A gt row cut to 5 fields by an earlier "field count" has no height.
        field = draw(st.integers(4, min(5, len(row) - 1)))
        row[field] = draw(st.sampled_from(["0", "-5", "-0.0"]))
    elif kind == "area":
        row[4:6] = [draw(float_text(v)) for v in draw(sides_without_an_area())]
    elif kind == "aspect":
        row[2:6] = draw(st.sampled_from([["10", "10", "1e-200", "1e200"],
                                         ["1.5e308", "10", "1e308", "5"]]))
    elif kind == "confidence":
        row[6] = draw(st.sampled_from(["1.7", "-0.1", "nan", "1.0000001"]))
    elif kind == "duplicate":
        row[:2] = rows[draw(st.integers(0, len(rows) - 1))][:2]
    elif kind == "tail":
        row[7:] = draw(st.sampled_from([["-1", "-1", "0"], ["-1.0", "-1", "-1"],
                                        ["-1", "-1", ""]]))
    return rows[:i] + [row] + rows[i + 1:]


@st.composite
def file_text(draw, rows):
    """`rows` as a file: blank and whitespace lines between them, LF or
    CRLF line ends, and maybe no newline at the end."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t", " \t "]), max_size=1))
        lines.append(draw(PADS) + ",".join(row))
    text = newline.join(lines)
    return text + newline if draw(st.booleans()) else text


@st.composite
def spoilt_rows(draw, rows, kinds, frame_count):
    """`rows`, mostly with one or two of them spoilt in one of `kinds`."""
    if rows:
        for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
            rows = draw(corrupt(rows, draw(st.sampled_from(kinds)), frame_count))
    return rows


DETECTION_FAULTS = ["field count", "not a number", "not an integer", "frame", "sentinel",
                    "non-finite", "zero norm", "box", "area", "aspect", "confidence"]
GT_FAULTS = ["field count", "not a number", "not an integer", "frame", "non-finite",
             "box", "area", "aspect", "duplicate"]
RESULT_FAULTS = GT_FAULTS + ["confidence", "tail"]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("bulk")


@settings(deadline=None, max_examples=250)
@given(data=st.data(), frame_count=st.integers(1, 4), dim=st.integers(1, 3))
def test_detections_parse_as_the_row_by_row_oracle_does(scratch, data, frame_count, dim):
    rows = data.draw(st.lists(detection_row(dim, frame_count), max_size=5))
    rows = data.draw(spoilt_rows(rows, DETECTION_FAULTS, frame_count))
    path = scratch / "det.txt"
    path.write_bytes(data.draw(file_text(rows)).encode())
    assert (outcome(parse_detections, path, dim, frame_count)
            == outcome(parse_detections_oracle, path, dim, frame_count))


@settings(deadline=None, max_examples=250)
@given(data=st.data(), frame_count=st.integers(1, 4))
def test_gt_parses_as_the_row_by_row_oracle_does(scratch, data, frame_count):
    rows = data.draw(st.lists(gt_row(frame_count), max_size=5))
    rows = data.draw(spoilt_rows(rows, GT_FAULTS, frame_count))
    path = scratch / "gt.txt"
    path.write_bytes(data.draw(file_text(rows)).encode())
    assert outcome(parse_gt, path, frame_count) == outcome(parse_gt_oracle, path, frame_count)


@settings(deadline=None, max_examples=250)
@given(data=st.data(), frame_count=st.integers(1, 4),
       bounded=st.booleans())
def test_results_parse_as_the_row_by_row_oracle_does(scratch, data, frame_count, bounded):
    rows = data.draw(st.lists(result_row(frame_count), max_size=5))
    rows = data.draw(spoilt_rows(rows, RESULT_FAULTS, frame_count))
    path = scratch / "out.txt"
    path.write_bytes(data.draw(file_text(rows)).encode())
    limit = frame_count if bounded else None
    assert outcome(parse_results, path, limit) == outcome(parse_results_oracle, path, limit)


GOOD_ROWS = {"det": "1,-1,10,20,30,40,0.9,1,0", "gt": "1,{},10,20,30,40",
             "result": "1,{},10,20,30,40,0.9,-1,-1,-1"}
PARSERS = {"det": lambda path: parse_detections(path, 2, 1), "gt": lambda path: parse_gt(path, 1),
           "result": lambda path: parse_results(path, 1)}


@settings(deadline=None, max_examples=150)
@given(kind=st.sampled_from(sorted(GOOD_ROWS)), sides=sides_without_an_area(),
       n_rows=st.integers(1, 4), bad=st.integers(0, 3))
@example(kind="det", sides=(5e-324, 0.25), n_rows=2, bad=1)
@example(kind="result", sides=(1e300, 1e300), n_rows=1, bad=0)
def test_a_box_without_an_area_is_rejected_at_its_line(scratch, kind, sides, n_rows, bad):
    # Such rows would make IoU 0/0 or inf/inf, which is NaN.
    bad = min(bad, n_rows - 1)
    rows = [GOOD_ROWS[kind].format(k + 1).split(",") for k in range(n_rows)]
    rows[bad][4:6] = map(repr, sides)
    path = scratch / f"{kind}.txt"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(ParseError, match=re.escape(
            f"{path}:{bad + 1}: box area width * height must be positive and finite")):
        PARSERS[kind](path)


@settings(deadline=None, max_examples=300)
@given(text=st.text(st.sampled_from(list("0123456789+-.eEinfatyINFATY_x") + [
    " ", "\t", "\x0b", "\x1c", "\xa0", "\u2003", "١", "²"]), max_size=8),
    field=st.sampled_from([0, 1, 2]))
@example(text="1_0", field=2)
@example(text="\u2003+01\xa0", field=1)
@example(text="1\x1c", field=0)  # int() alone keeps this separator
def test_a_field_reads_as_the_oracle_reads_it(scratch, text, field):
    # The bulk conversion and the row checks of the error path read
    # numbers with different parsers, which must agree on every text.
    row = ["1", "7", "0", "0", "5", "5"]
    row[field] = text
    path = scratch / "gt.txt"
    path.write_text(",".join(row) + "\n", encoding="utf-8")
    assert outcome(parse_gt, path, 1) == outcome(parse_gt_oracle, path, 1)


@pytest.mark.parametrize("row, message", [
    ("1,-1,1_0,20,30,40,0.9,1,0", "field is not a number: '1_0'"),
    ("1,-1,10,20,30,40,0.9,١,0", "field is not a number: '١'"),
    ("1_0,-1,10,20,30,40,0.9,1,0", "frame is not an integer: '1_0'"),
    ("1.0,-1,10,20,30,40,0.9,1,0", "frame is not an integer: '1.0'"),
])
def test_underscores_and_non_ascii_digits_are_not_numbers(tmp_path, row, message):
    path = write(tmp_path / "det.txt", f"1,-1,10,20,30,40,0.9,1,0\n{row}\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: {message}")):
        parse_detections(path, expected_dim=2, frame_count=3)


def test_numbers_keep_the_float_grammar_otherwise(tmp_path):
    path = write(tmp_path / "det.txt",
                 " +01 , -1.0 ,\t1e1,2.5E+1, 30 ,40.,+.5,  3 ,4\r\n  \r\n\n")
    (det,) = parse_detections(path, expected_dim=2, frame_count=3)
    assert (det.frame, det.box, det.confidence) == (1, BoundingBox(10, 25, 30, 40), 0.5)
    assert det.embedding.tolist() == [0.6, 0.8]


@pytest.mark.parametrize("frame", [0, -4])
def test_result_frames_below_one_are_rejected_at_their_line(tmp_path, frame):
    path = write(tmp_path / "out.txt",
                 f"1,1,0,0,5,5,0.9,-1,-1,-1\n{frame},2,0,0,5,5,0.9,-1,-1,-1\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: frame {frame} is below 1")):
        parse_results(path)
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: frame {frame} outside [1, 300]")):
        parse_results(path, frame_count=300)


def test_result_frames_past_the_end_are_rejected_given_the_frame_count(tmp_path):
    path = write(tmp_path / "out.txt",
                 "1,1,0,0,5,5,0.9,-1,-1,-1\n99999,1,0,0,5,5,0.9,-1,-1,-1\n")
    assert [r.frame for r in parse_results(path)] == [1, 99999]
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: frame 99999 outside [1, 300]")):
        parse_results(path, frame_count=300)


def test_ids_beyond_int64_load_as_python_ints(tmp_path):
    big = 2 ** 70
    gt = write(tmp_path / "gt.txt", f"1,{big},0,0,5,5\n1,{big + 1},9,9,5,5\n")
    assert [(e.identity, type(e.identity)) for e in parse_gt(gt, frame_count=1)] == [
        (big, int), (big + 1, int)]
    out = write(tmp_path / "out.txt", f"1,{-big},0,0,5,5,0.9,-1,-1,-1\n")
    ((track_id, _, _),) = parse_results(out)[0].records
    assert (track_id, type(track_id)) == (-big, int)


def test_detection_parse_peak_memory_stays_near_what_it_returns(tmp_path):
    # 2,000 rows of 64-d embeddings; reading the file into memory before
    # converting it would cost about as much again as the detections.
    rng = np.random.default_rng(0)
    dets = [Detection(int(f), BoundingBox(*rng.uniform(1, 500, 2), *rng.uniform(5, 80, 2)),
                      float(rng.uniform()), rng.normal(size=64))
            for f in np.sort(rng.integers(1, 101, 2000))]
    path = tmp_path / "det.txt"
    write_detections(dets, path)
    parse_detections(path, expected_dim=64, frame_count=100)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        parsed = parse_detections(path, expected_dim=64, frame_count=100)
        retained, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(parsed) == 2000
    assert peak < 1.5 * retained


# ---------------------------------------------------------------- writers

@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
@example([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-300, 0.1])
def test_detection_embeddings_are_written_as_ten_significant_digits(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("emb") / "det.txt"
    embedding = np.array(values)
    write_detections([Detection(1, BoundingBox(1, 2, 3, 4), 0.5, embedding)] * 2, path)
    want = ",".join(format(v, ".10g") for v in embedding)
    assert path.read_text().splitlines() == [f"1,-1,1.00,2.00,3.00,4.00,0.5000,{want}"] * 2


# Ids below 0, at 0 and past 2**64; frames out of order and shared by
# results; records out of id order, with repeats.
result_records = st.lists(st.tuples(
    st.one_of(st.integers(-3, 3), st.integers(2 ** 64 - 1, 2 ** 64 + 2)),
    st.builds(BoundingBox, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
              st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    st.floats(0.0, 1.0)), max_size=5).map(tuple)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.builds(FrameResult, st.integers(1, 4), result_records), max_size=6))
@example([FrameResult(2, ((5, BoundingBox(0, 0, 1, 1), 0.5), (-1, BoundingBox(1, 0, 1, 1), 0.5))),
          FrameResult(1, ((2 ** 64, BoundingBox(2, 0, 1, 1), 0.5),)),
          FrameResult(2, ((0, BoundingBox(3, 0, 1, 1), 0.5), (5, BoundingBox(4, 0, 1, 1), 0.5)))])
def test_results_are_written_as_the_row_tuple_sort_writes_them(tmp_path_factory, results):
    directory = tmp_path_factory.mktemp("results")
    write_results(results, directory / "got.txt")
    write_results_oracle(results, directory / "want.txt")
    assert (directory / "got.txt").read_bytes() == (directory / "want.txt").read_bytes()


@settings(deadline=None, max_examples=200)
@given(width=st.floats(min_value=5e-324, allow_infinity=False),
       height=st.floats(min_value=5e-324, allow_infinity=False))
@example(width=1234567.0, height=640.1234)
@example(width=1e300, height=2 ** -1074)
def test_meta_sizes_read_back_exactly(tmp_path_factory, width, height):
    meta = SequenceMeta(name="x", frame_count=3, width=width, height=height, embedding_dim=2)
    path = tmp_path_factory.mktemp("meta") / "meta.txt"
    write_meta(meta, path)
    assert parse_meta(path) == meta


@pytest.mark.parametrize("width, text", [(1920.0, "1920"), (1920, "1920"), (1e6, "1e+06"),
                                         (1234567.0, "1234567.0"), (640.1234, "640.1234")])
def test_meta_sizes_keep_the_short_text_where_it_is_exact(tmp_path, width, text):
    path = tmp_path / "meta.txt"
    write_meta(SequenceMeta("x", 3, width, 480.0, 2), path)
    assert f"width = {text}\nheight = 480\n" in path.read_text()
