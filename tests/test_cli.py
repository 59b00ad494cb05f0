import os

import pytest

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
    from mttsort.seqio import parse_gt, write_results
    from mttsort.tracker import FrameResult
    gt = parse_gt(seq_dir / "gt.txt")
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


@pytest.mark.parametrize("command", ["optimize", "evaluate"])
def test_empty_ground_truth_exits_2(tmp_path, seq_dir, capsys, command):
    (seq_dir / "gt.txt").write_text("")
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
