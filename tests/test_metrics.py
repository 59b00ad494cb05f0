import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mttsort import metrics, synth
from mttsort.association import iou_matrix
from mttsort.metrics import (
    EvalReport, GtEntry, _clear_sequence, _frame_overlaps, average_reports,
    clear_match, evaluate, hota, idf1, score,
)
from mttsort.model import BoundingBox

from oracles import assa_oracle, clear_oracle, idf1_oracle, random_micro_scenario

BOX = BoundingBox(10, 10, 20, 40)
FAR = BoundingBox(200, 200, 20, 40)


def track_entries(identity, frames, box=BOX):
    return [GtEntry(f, identity, box) for f in frames]


def report(**overrides):
    values = dict(hota=0.0, mota=0.0, idf1=0.0, det_re=0.0, det_pr=0.0,
                  det_a=0.0, ass_a=0.0, fn_count=0, fp_count=0,
                  idsw_count=0, frag_count=0)
    values.update(overrides)
    return EvalReport(**values)


# ------------------------------------------------------------- clear_match

def clear_frame(gt_frame, pred_frame, prior):
    """clear_match on one frame given as (identity, box) lists."""
    ious = iou_matrix([b for _, b in gt_frame], [b for _, b in pred_frame])
    return clear_match([g for g, _ in gt_frame], [p for p, _ in pred_frame],
                       ious, prior)


def test_clear_match_identical():
    frame = [(1, BOX), (2, FAR)]
    matches, fn, fp, idsw = clear_frame(frame, frame, {})
    assert matches == [(1, 1), (2, 2)]
    assert (fn, fp, idsw) == (0, 0, 0)


def test_clear_match_empty_predictions():
    gt_frame = [(1, BOX), (2, FAR), (3, BoundingBox(400, 50, 20, 40))]
    matches, fn, fp, idsw = clear_frame(gt_frame, [], {})
    assert matches == [] and fn == 3 and fp == 0 and idsw == 0


def test_clear_match_prior_has_priority():
    # prior correspondence is kept even though pred 8 overlaps slightly more
    gt_frame = [(1, BoundingBox(0, 0, 10, 10))]
    pred_frame = [(7, BoundingBox(1, 0, 10, 10)), (8, BoundingBox(0, 0, 10, 10))]
    matches, _, fp, idsw = clear_frame(gt_frame, pred_frame, {1: 7})
    assert matches == [(1, 7)]
    assert fp == 1 and idsw == 0


def test_swap_counts_two_id_switches():
    box_a, box_b = BOX, FAR
    gt = track_entries(1, range(1, 7), box_a) + track_entries(2, range(1, 7), box_b)
    pred = []
    for f in range(1, 7):
        if f <= 3:
            pred += [GtEntry(f, 11, box_a), GtEntry(f, 12, box_b)]
        else:  # predicted ids swap at frame 4
            pred += [GtEntry(f, 12, box_a), GtEntry(f, 11, box_b)]
    rep = evaluate(gt, pred)
    assert (rep.fn_count, rep.fp_count, rep.idsw_count) == (0, 0, 2)
    assert rep.mota == 1.0 - 2 / 12


# ------------------------------------------------------------------- mota

def test_mota_perfect():
    gt = track_entries(1, range(1, 11))
    assert evaluate(gt, gt).mota == 1.0


def test_mota_one_miss():
    gt = track_entries(1, range(1, 11))
    pred = track_entries(9, [f for f in range(1, 11) if f != 4])
    assert evaluate(gt, pred).mota == 0.9


def test_mota_no_predictions():
    gt = track_entries(1, range(1, 11))
    assert evaluate(gt, []).mota == 0.0


def test_mota_requires_gt():
    with pytest.raises(ValueError):
        evaluate([], track_entries(1, [1]))


def test_mota_decreases_with_injected_false_positives():
    gt = track_entries(1, range(1, 11))
    values = []
    fp_boxes = []
    for k in range(5):
        pred = gt + fp_boxes
        values.append(evaluate(gt, pred).mota)
        fp_boxes = fp_boxes + [GtEntry(k + 1, 50 + k, FAR)]
    assert values == sorted(values, reverse=True)
    assert values[0] == 1.0 and values[-1] < 1.0


# ------------------------------------------------------------------- idf1

def test_idf1_perfect_and_empty():
    gt = track_entries(1, range(1, 11))
    assert evaluate(gt, gt).idf1 == 1.0
    assert evaluate(gt, []).idf1 == 0.0


def test_idf1_split_track():
    gt = track_entries(1, range(1, 11))
    pred = track_entries(101, range(1, 6)) + track_entries(102, range(6, 11))
    assert evaluate(gt, pred).idf1 == 0.5


# ------------------------------------------------------------------- hota

def test_hota_perfect():
    gt = track_entries(1, range(1, 11))
    rep = evaluate(gt, gt)
    assert (rep.hota, rep.det_a, rep.ass_a, rep.det_re, rep.det_pr) == \
        (1.0, 1.0, 1.0, 1.0, 1.0)


def test_hota_split_track():
    gt = track_entries(1, range(1, 11))
    pred = track_entries(101, range(1, 6)) + track_entries(102, range(6, 11))
    rep = evaluate(gt, pred)
    assert rep.det_a == 1.0
    assert rep.ass_a == pytest.approx(0.5, abs=1e-12)
    assert rep.hota == pytest.approx(math.sqrt(0.5), abs=1e-9)


def test_hota_solves_a_frame_once_while_its_mask_is_unchanged(monkeypatch):
    # Identities never overlap, so each frame's mask IoU >= alpha is the
    # same diagonal at all 19 levels: one solve per frame, not 19.
    gt = [GtEntry(f, i, BoundingBox(100 * i + f, 50, 20, 40))
          for f in range(1, 6) for i in range(1, 4)]
    solve = metrics.solve_assignment
    calls = []

    def counting(cost):
        calls.append(cost.shape)
        return solve(cost)

    per_frame = _frame_overlaps(gt, gt)
    monkeypatch.setattr(metrics, "solve_assignment", counting)
    assert hota(gt, gt, per_frame) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert calls == [(3, 3)] * 5


def test_evaluate_builds_one_overlap_table(monkeypatch):
    # GT on frames 1-4 and predictions on frames 3-6: one iou_matrix call
    # for each of the six frames, shared by CLEAR, IDF1 and HOTA.
    gt = track_entries(1, range(1, 5)) + track_entries(2, range(1, 5), FAR)
    pred = track_entries(11, range(3, 7))
    kernel = metrics.iou_matrix
    calls = []

    def counting(boxes_a, boxes_b):
        calls.append((len(boxes_a), len(boxes_b)))
        return kernel(boxes_a, boxes_b)

    monkeypatch.setattr(metrics, "iou_matrix", counting)
    rep = evaluate(gt, pred)
    assert calls == [(2, 0), (2, 0), (2, 1), (2, 1), (0, 1), (0, 1)]
    assert (rep.fn_count, rep.fp_count, rep.idsw_count) == (6, 2, 0)


def test_hota_no_predictions():
    gt = track_entries(1, range(1, 11))
    rep = evaluate(gt, [])
    assert rep.hota == 0.0 and rep.det_a == 0.0 and rep.det_re == 0.0


# ---------------------------------------------------------- fragmentation

def test_fragmentation_cases():
    gt = track_entries(1, range(1, 21))
    assert evaluate(gt, gt).frag_count == 0
    one_gap = track_entries(5, [f for f in range(1, 21) if f not in (8, 9, 10)])
    assert evaluate(gt, one_gap).frag_count == 1
    two_gaps = track_entries(
        5, [f for f in range(1, 21) if f not in (5, 6, 12)])
    assert evaluate(gt, two_gaps).frag_count == 2


# ---------------------------------------------------------------- scoring

def test_score_examples():
    assert score(report(hota=0.68, mota=0.98, idf1=0.98)) == pytest.approx(2.64)
    assert score(report()) == 0.0
    assert score(report(hota=1.0, mota=1.0, idf1=1.0)) == 3.0


def test_average_reports():
    a = report(mota=0.8, fn_count=3)
    b = report(mota=1.0, fn_count=2)
    avg = average_reports([a, b])
    assert avg.mota == pytest.approx(0.9)
    assert avg.fn_count == 5
    assert average_reports([a]) == a
    assert average_reports([b, a]) == average_reports([a, b])
    with pytest.raises(ValueError):
        average_reports([])


# -------------------------------------------------------------- properties

@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 31 - 1))
def test_gt_vs_itself_is_perfect(seed):
    rng = np.random.default_rng(seed)
    spec = synth.ScenarioSpec(
        identities=int(rng.integers(1, 4)), frames=int(rng.integers(5, 30)),
        motion_noise_sigma=2.0, miss_rate=0.1, false_positive_rate=0.2,
        embedding_noise_sigma=0.3, seed=seed)
    gt, _ = synth.generate(spec)
    rep = evaluate(gt, gt)
    assert rep.mota == 1.0
    assert rep.idf1 == 1.0
    assert rep.hota == 1.0
    assert (rep.fn_count, rep.fp_count, rep.idsw_count, rep.frag_count) == (0, 0, 0, 0)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_idf1_hota_invariant_to_pred_relabeling(seed):
    rng = np.random.default_rng(seed)
    gt, pred = random_micro_scenario(rng)
    pred_ids = sorted({e.identity for e in pred})
    shuffled = list(pred_ids)
    rng.shuffle(shuffled)
    mapping = dict(zip(pred_ids, shuffled))
    relabeled = [GtEntry(e.frame, mapping[e.identity], e.box) for e in pred]
    rep, rep_relabeled = evaluate(gt, pred), evaluate(gt, relabeled)
    assert rep_relabeled.idf1 == rep.idf1
    assert (rep_relabeled.hota, rep_relabeled.det_a, rep_relabeled.ass_a,
            rep_relabeled.det_re, rep_relabeled.det_pr) == \
        (rep.hota, rep.det_a, rep.ass_a, rep.det_re, rep.det_pr)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2 ** 31 - 1))
def test_micro_scenarios_match_brute_force_oracles(seed):
    rng = np.random.default_rng(seed)
    gt, pred = random_micro_scenario(rng)
    rep = evaluate(gt, pred)
    assert rep.idf1 == idf1_oracle(gt, pred)
    assert rep.ass_a == assa_oracle(gt, pred)
    assert (rep.fn_count, rep.fp_count, rep.idsw_count) == clear_oracle(gt, pred)
    # evaluate shares one overlap table between CLEAR, HOTA and IDF1
    per_frame = _frame_overlaps(gt, pred)
    assert (rep.hota, rep.det_a, rep.ass_a, rep.det_re, rep.det_pr) == \
        hota(gt, pred, per_frame)
    assert rep.idf1 == idf1(gt, pred, per_frame)
    assert (rep.fn_count, rep.fp_count, rep.idsw_count, rep.frag_count) == \
        _clear_sequence(per_frame)
