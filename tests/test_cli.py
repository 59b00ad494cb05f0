import os
import warnings

import pytest

from mttsort import association
from mttsort.cli import cli
from mttsort.model import load_config
from mttsort.seqio import load_sequence, parse_results


@pytest.fixture
def seq_dir(tmp_path):
    out = tmp_path / "seq"
    assert cli(["synth", "--preset", "occlusion", "--out", str(out)]) == 0
    return out


def test_synth_writes_sequence(seq_dir):
    assert (seq_dir / "meta.txt").exists()
    assert (seq_dir / "det.txt").exists()
    assert (seq_dir / "gt.txt").exists()
    seq = load_sequence(seq_dir)
    assert seq.name == "occlusion"
    assert seq.frame_count == 120


def test_synth_seed_override_changes_output(tmp_path):
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    assert cli(["synth", "--preset", "clean", "--out", str(a), "--seed", "1"]) == 0
    assert cli(["synth", "--preset", "clean", "--out", str(b), "--seed", "1"]) == 0
    assert cli(["synth", "--preset", "clean", "--out", str(c), "--seed", "2"]) == 0
    assert (a / "det.txt").read_bytes() == (b / "det.txt").read_bytes()
    assert (a / "det.txt").read_bytes() != (c / "det.txt").read_bytes()


def test_track_and_evaluate_happy_path(seq_dir, tmp_path, capsys):
    out = tmp_path / "pred.txt"
    assert cli(["track", "--seq", str(seq_dir), "--preset", "config1",
                "--out", str(out)]) == 0
    assert out.exists() and parse_results(out)

    report_file = tmp_path / "report.txt"
    assert cli(["evaluate", "--seq", str(seq_dir), "--pred", str(out),
                "--report", str(report_file)]) == 0
    printed = capsys.readouterr().out
    assert "hota = " in printed and "mota = " in printed and "idf1 = " in printed
    assert report_file.read_text() == printed


def test_evaluate_gt_against_itself(seq_dir, tmp_path, capsys):
    # turn gt into a result file through the tracker-output format
    from mttsort.seqio import load_sequence, write_results
    from mttsort.tracker import FrameResult
    gt = load_sequence(seq_dir).gt
    by_frame = {}
    for e in gt:
        by_frame.setdefault(e.frame, []).append((e.identity, e.box, 1.0))
    results = [FrameResult(frame=f, records=tuple(sorted(v, key=lambda r: r[0])))
               for f, v in sorted(by_frame.items())]
    pred = tmp_path / "gtpred.txt"
    write_results(results, pred)
    assert cli(["evaluate", "--seq", str(seq_dir), "--pred", str(pred)]) == 0
    printed = capsys.readouterr().out
    assert "hota = 1.00000" in printed
    assert "mota = 1.00000" in printed
    assert "idf1 = 1.00000" in printed


def test_track_deterministic(seq_dir, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert cli(["track", "--seq", str(seq_dir), "--preset", "config3",
                    "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_track_with_config_file(seq_dir, tmp_path):
    cfg = tmp_path / "tracker.cfg"
    cfg.write_text("max_dist = 0.35\nmax_age = 40\n# comment\n")
    out = tmp_path / "pred.txt"
    assert cli(["track", "--seq", str(seq_dir), "--config", str(cfg),
                "--out", str(out)]) == 0


def test_track_config_out_of_range_exits_2_naming_file_and_key(
        seq_dir, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("max_dist = 1.5\n")
    out = tmp_path / "pred.txt"
    assert cli(["track", "--seq", str(seq_dir), "--config", str(cfg),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "max_dist" in err
    assert not out.exists()


def test_optimize(seq_dir, tmp_path, capsys):
    ga_cfg = tmp_path / "ga.cfg"
    ga_cfg.write_text(
        "population_size = 4\nmax_generations = 2\nmutation_rate = 0.1\n"
        "crossover_rate = 0.7\ntolerance = 0.001\nseed = 1\n")
    out_a, out_b = tmp_path / "best_a.cfg", tmp_path / "best_b.cfg"
    assert cli(["optimize", "--seqs", str(seq_dir), "--ga-config", str(ga_cfg),
                "--out", str(out_a)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("generation,best,mean,std")
    assert "best score = " in printed
    best = load_config(out_a)  # comments and history must not break parsing
    assert 0.1 <= best.max_dist <= 0.9
    assert cli(["optimize", "--seqs", str(seq_dir), "--ga-config", str(ga_cfg),
                "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_usage_errors_exit_1(tmp_path):
    assert cli([]) == 1
    assert cli(["track"]) == 1  # missing required args
    assert cli(["track", "--seq", "x", "--preset", "config1",
                "--config", "y", "--out", "z"]) == 1  # mutually exclusive
    assert cli(["frobnicate"]) == 1


def test_data_errors_exit_2(tmp_path, seq_dir, capsys):
    missing = tmp_path / "nope"
    out = tmp_path / "o.txt"
    assert cli(["track", "--seq", str(missing), "--preset", "config1",
                "--out", str(out)]) == 2
    assert cli(["track", "--seq", str(seq_dir), "--preset", "config99",
                "--out", str(out)]) == 2
    assert cli(["synth", "--preset", "bogus", "--out", str(out)]) == 2
    # evaluate without ground truth
    bare = tmp_path / "bare"
    assert cli(["synth", "--preset", "clean", "--out", str(bare)]) == 0
    os.remove(bare / "gt.txt")
    pred = tmp_path / "p.txt"
    assert cli(["track", "--seq", str(bare), "--preset", "config1",
                "--out", str(pred)]) == 0
    assert cli(["evaluate", "--seq", str(bare), "--pred", str(pred)]) == 2
    err = capsys.readouterr().err
    assert "gt.txt" in err


def test_evaluate_rejects_result_frames_outside_the_sequence(seq_dir, tmp_path, capsys):
    # Before frames were checked, these rows counted as false positives.
    pred = tmp_path / "pred.txt"
    pred.write_text("1,1,0,0,5,5,0.9,-1,-1,-1\n121,1,0,0,5,5,0.9,-1,-1,-1\n")
    assert cli(["evaluate", "--seq", str(seq_dir), "--pred", str(pred)]) == 2
    assert f"{pred}:2: frame 121 outside [1, 120]" in capsys.readouterr().err


@pytest.mark.parametrize("command, gt", [
    pytest.param("optimize", "empty", id="optimize"),
    pytest.param("evaluate", "empty", id="evaluate"),
    pytest.param("optimize", "missing", id="optimize-missing"),
    pytest.param("evaluate", "missing", id="evaluate-missing"),
])
def test_empty_ground_truth_exits_2(tmp_path, seq_dir, capsys, command, gt):
    if gt == "empty":
        (seq_dir / "gt.txt").write_text("")
    else:
        (seq_dir / "gt.txt").unlink()
    pred, out = tmp_path / "p.txt", tmp_path / "best.cfg"
    assert cli(["track", "--seq", str(seq_dir), "--preset", "config1",
                "--out", str(pred)]) == 0
    ga_cfg = tmp_path / "ga.cfg"
    ga_cfg.write_text("population_size = 2\nmax_generations = 1\n")
    if command == "optimize":
        argv = ["optimize", "--seqs", str(seq_dir), "--ga-config", str(ga_cfg),
                "--out", str(out)]
    else:
        argv = ["evaluate", "--seq", str(seq_dir), "--pred", str(pred),
                "--report", str(out)]
    assert cli(argv) == 2
    assert str(seq_dir) in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero():
    assert cli(["--help"]) == 0


def test_synth_spec_with_nan_exits_2_naming_file_and_key(tmp_path, capsys):
    spec = tmp_path / "scene.txt"
    spec.write_text("identities = 2\nframes = 10\nmotion_noise_sigma = nan\n")
    out = tmp_path / "scene"
    assert cli(["synth", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(spec) in err and "'motion_noise_sigma'" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("false_positive_rate", "1e30"),
    ("motion_noise_sigma", "1e308"),
    ("embedding_noise_sigma", "1e308"),
])
def test_synth_spec_past_its_cap_exits_2_naming_file_and_key(tmp_path, capsys,
                                                             key, value):
    spec = tmp_path / "scene.txt"
    spec.write_text(f"identities = 2\nframes = 10\n{key} = {value}\n")
    out = tmp_path / "scene"
    assert cli(["synth", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{spec}: {key} " in err
    assert not out.exists()


def test_track_rejects_out_of_range_meta(seq_dir, tmp_path, capsys):
    (seq_dir / "meta.txt").write_text(
        "name = bad\nframe_count = -4\nwidth = 640\nheight = -1\n"
        "embedding_dim = 0\n")
    out = tmp_path / "pred.txt"
    assert cli(["track", "--seq", str(seq_dir), "--preset", "config1",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(seq_dir / "meta.txt") in err and "frame_count" in err
    assert not out.exists()


def test_track_then_evaluate_a_box_below_the_written_precision(tmp_path, capsys):
    # The track of a 0.004 px wide box is that thin too; its result rows
    # must read back, so that evaluate scores them.
    seq, pred = tmp_path / "thin", tmp_path / "pred.txt"
    seq.mkdir()
    (seq / "meta.txt").write_text(
        "name = thin\nframe_count = 6\nwidth = 64\nheight = 48\nembedding_dim = 2\n")
    (seq / "det.txt").write_text(
        "".join(f"{f},-1,10,10,0.004,10,0.9,1,0\n" for f in range(1, 7)))
    (seq / "gt.txt").write_text("".join(f"{f},1,10,10,0.004,10\n" for f in range(1, 7)))
    assert cli(["track", "--seq", str(seq), "--preset", "config1",
                "--out", str(pred)]) == 0
    assert pred.read_text().splitlines()[0] == "3,1,10.00,10.00,0.01,10.00,0.90,-1,-1,-1"
    assert cli(["evaluate", "--seq", str(seq), "--pred", str(pred)]) == 0
    assert "hota = " in capsys.readouterr().out


def test_track_a_box_whose_filter_noise_underflows(tmp_path):
    # Height 1e-300 and aspect 1e290: a box of area 1e-310, but (h / 20)²
    # underflows to 0 in the new track's variances and its innovation
    # variances, so its state is outside the filter's domain. The track is
    # deleted at its first predict, with no traceback and no warning.
    seq, pred = tmp_path / "tiny", tmp_path / "pred.txt"
    seq.mkdir()
    (seq / "meta.txt").write_text(
        "name = tiny\nframe_count = 6\nwidth = 64\nheight = 48\nembedding_dim = 2\n")
    (seq / "det.txt").write_text(
        "".join(f"{f},-1,0,0,1e-10,1e-300,0.9,1,0\n" for f in range(1, 7)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["track", "--seq", str(seq), "--preset", "config1",
                    "--out", str(pred)]) == 0
    assert parse_results(pred, frame_count=6) == []


def test_track_a_nan_iou_cost_beside_a_finite_one(tmp_path):
    # Two boxes 2**53 px down, 5e307 and 5e306 wide: an IoU of the wider
    # one overflows to NaN (with numpy warnings), so config5's IoU stage
    # solves a cost matrix with a NaN beside finite costs. The NaN entry
    # is infeasible, like INFEASIBLE, and the scene tracks.
    seq, pred = tmp_path / "huge", tmp_path / "pred.txt"
    seq.mkdir()
    (seq / "meta.txt").write_text(
        "name = huge\nframe_count = 3\nwidth = 64\nheight = 48\nembedding_dim = 2\n")
    (seq / "det.txt").write_text("".join(
        f"{f},-1,0,9007199254740992,5e307,3,0.9,1,0\n"
        f"{f},-1,0,9007199254740992,5e306,3,0.9,0,1\n" for f in range(1, 4)))
    with pytest.warns(RuntimeWarning):
        assert cli(["track", "--seq", str(seq), "--preset", "config5",
                    "--out", str(pred)]) == 0
    # Both tracks are confirmed at frame 3 and read back.
    assert [(res.frame, len(res.records))
            for res in parse_results(pred, frame_count=3)] == [(3, 2)]


def test_track_rejects_a_detection_box_without_an_area(tmp_path, capsys):
    # 5e-324 * 0.25 underflows to 0. Accepted, such boxes make NaN IoU
    # costs, which never match: this stream would track to an empty result
    # file with only a numpy warning.
    seq, pred = tmp_path / "flat", tmp_path / "pred.txt"
    seq.mkdir()
    (seq / "meta.txt").write_text(
        "name = flat\nframe_count = 4\nwidth = 64\nheight = 48\nembedding_dim = 2\n")
    (seq / "det.txt").write_text(
        "".join(f"{f},-1,10,10,5e-324,0.25,0.9,1,0\n" for f in range(1, 5)))
    assert cli(["track", "--seq", str(seq), "--preset", "config1", "--out", str(pred)]) == 2
    assert (f"{seq / 'det.txt'}:1: box area width * height must be positive and finite"
            in capsys.readouterr().err)
    assert not pred.exists()


@pytest.mark.parametrize("where", ["gt", "pred"])
def test_evaluate_rejects_a_box_without_an_area(seq_dir, tmp_path, capsys, where):
    # 1e300 * 1e300 overflows to inf. Accepted, such a box has IoU inf/inf,
    # NaN, with itself, and a prediction equal to its GT box would score
    # MOTA -1 and HOTA 0.
    pred = tmp_path / "pred.txt"
    assert cli(["track", "--seq", str(seq_dir), "--preset", "config1",
                "--out", str(pred)]) == 0
    bad = seq_dir / "gt.txt" if where == "gt" else pred
    tail = ",0.9,-1,-1,-1" if where == "pred" else ""
    bad.write_text(f"1,1,0,0,5,5{tail}\n2,7,0,0,1e300,1e300{tail}\n")
    assert cli(["evaluate", "--seq", str(seq_dir), "--pred", str(pred)]) == 2
    assert (f"{bad}:2: box area width * height must be positive and finite"
            in capsys.readouterr().err)


def test_synth_of_a_tiny_arena_then_track(tmp_path):
    # Boxes a few thousandths of a pixel wide are written as 0.01 px.
    spec, seq = tmp_path / "tiny.txt", tmp_path / "tiny"
    spec.write_text("arena_width = 0.05\narena_height = 0.05\nidentities = 1\nframes = 3\n")
    assert cli(["synth", "--spec", str(spec), "--out", str(seq)]) == 0
    assert len(load_sequence(seq).detections) == 3
    assert cli(["track", "--seq", str(seq), "--preset", "config1",
                "--out", str(tmp_path / "pred.txt")]) == 0


def test_program_fault_propagates_out_of_cli(seq_dir, tmp_path, monkeypatch):
    # A ValueError from inside the tracker is a bug, not a data error: it
    # keeps its traceback instead of becoming exit 2.
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(association, "iou_cost", broken)
    with pytest.raises(ValueError, match="broadcast"):
        cli(["track", "--seq", str(seq_dir), "--preset", "config1",
             "--out", str(tmp_path / "pred.txt")])


def test_negative_seeds_exit_2(tmp_path, capsys):
    assert cli(["synth", "--preset", "clean", "--seed", "-1",
                "--out", str(tmp_path / "scene")]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    ga_cfg = tmp_path / "ga.cfg"
    ga_cfg.write_text("seed = -3\n")
    assert cli(["optimize", "--seqs", str(tmp_path), "--ga-config", str(ga_cfg),
                "--out", str(tmp_path / "best.cfg")]) == 2
