import math
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mttsort import metrics, model, synth
from mttsort.association import INFEASIBLE, iou_columns, solve_assignment
from mttsort.metrics import (
    EvalReport, GtEntry, _cells, _frame_overlaps, average_reports, clear_counts,
    clear_match, evaluate, hota, idf1, score,
)
from mttsort.model import BoundingBox, box_columns

from oracles import (
    assa_oracle, bits, clear_oracle, clear_sequence_oracle, entry_columns_oracle,
    frame_overlaps_oracle, idf1_oracle, idf1_table_oracle, random_micro_scenario,
)

BOX = BoundingBox(10, 10, 20, 40)
FAR = BoundingBox(200, 200, 20, 40)


def track_entries(identity, frames, box=BOX):
    return [GtEntry(f, identity, box) for f in frames]


def table_of(per_frame):
    """The overlap table of a per-frame (gt_ids, pred_ids, ious) list, its
    matrices laid out frame after frame as `_frame_overlaps` does."""
    rows = np.array([len(g_ids) for g_ids, _, _ in per_frame], dtype=np.int64)
    cols = np.array([len(p_ids) for _, p_ids, _ in per_frame], dtype=np.int64)
    sizes = rows * cols
    flat = np.concatenate([ious.ravel() for _, _, ious in per_frame] + [np.empty(0)])
    return metrics._Overlaps(
        [g for g_ids, _, _ in per_frame for g in g_ids],
        [p for _, p_ids, _ in per_frame for p in p_ids], rows, cols,
        np.cumsum(rows) - rows, np.cumsum(cols) - cols, np.cumsum(sizes) - sizes, flat)


def cells_of(per_frame):
    """The `_cells` table of a per-frame (gt_ids, pred_ids, ious) list."""
    return _cells(table_of(per_frame))


def frames_of(table):
    """The per-frame (gt_ids, pred_ids, ious) list of an overlap table."""
    return [view[2:] for view in table.views(np.arange(len(table.rows)))]


def report(**overrides):
    values = dict(hota=0.0, mota=0.0, idf1=0.0, det_re=0.0, det_pr=0.0,
                  det_a=0.0, ass_a=0.0, fn_count=0, fp_count=0,
                  idsw_count=0, frag_count=0)
    values.update(overrides)
    return EvalReport(**values)


# ------------------------------------------------------------- clear_match

def columns_of(boxes):
    return box_columns(np.array([(b.left, b.top, b.width, b.height) for b in boxes],
                                dtype=float).reshape(len(boxes), 4))


def clear_frame(gt_frame, pred_frame, prior):
    """clear_match on one frame given as (identity, box) lists, its
    matches as (gt_identity, pred_identity) pairs."""
    ious = iou_columns(columns_of([b for _, b in gt_frame]),
                       columns_of([b for _, b in pred_frame]))
    g_ids, p_ids = [g for g, _ in gt_frame], [p for p, _ in pred_frame]
    matches, fn, fp, idsw = clear_match(g_ids, p_ids, ious, prior)
    return [(g_ids[i], p_ids[j]) for i, j in matches], fn, fp, idsw


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


def test_clear_match_orders_kept_and_assigned_matches_by_gt_identity():
    # GT 2 keeps prediction 12 from the prior; GT 1 is assigned prediction
    # 11 and switches from 13, and GT 3's prior 12 is taken: one switch.
    gt_frame = [(1, BOX), (2, FAR), (3, BoundingBox(400, 50, 20, 40))]
    pred_frame = [(11, BOX), (12, FAR)]
    matches, fn, fp, idsw = clear_frame(gt_frame, pred_frame, {1: 13, 2: 12, 3: 12})
    assert matches == [(1, 11), (2, 12)]
    assert (fn, fp, idsw) == (1, 0, 1)


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


# Three lanes 100 px apart hold 10 x 10 boxes; a prediction shifted by
# 0, 1, 3 or 5 px overlaps its lane's GT with IoU 1, 9/11, 7/13 or 1/3,
# so two predictions in one lane contest its GT when both shifts are <= 3.
LANE_SHIFTS = [0, 1, 3, 5]


def lane_box(lane, shift=0):
    return BoundingBox(100 * lane + shift, 0, 10, 10)


@st.composite
def clear_scenes(draw):
    """GT and predicted entries over up to 8 frames: GT identity k + 1
    stays in lane k, predictions 11-14 move between lanes, so frames are
    contested or not, GT-only or prediction-only, and identities switch
    both inside runs of uncontested frames and across contested ones."""
    gt, pred = [], []
    for f in range(1, draw(st.integers(1, 8)) + 1):
        for lane in draw(st.lists(st.integers(0, 2), unique=True, max_size=3)):
            gt.append(GtEntry(f, lane + 1, lane_box(lane)))
        pids = draw(st.permutations([11, 12, 13, 14]))
        for pid in pids[:draw(st.integers(0, 4))]:
            lane, shift = draw(st.integers(0, 2)), draw(st.sampled_from(LANE_SHIFTS))
            pred.append(GtEntry(f, pid, lane_box(lane, shift)))
    return gt, pred


def lanes(frames):
    """GT and predicted entries from per-frame ([gt lanes], [(pid, lane,
    shift)]) lists, frames numbered from 1."""
    gt = [GtEntry(f, lane + 1, lane_box(lane))
          for f, (gt_lanes, _) in enumerate(frames, 1) for lane in gt_lanes]
    pred = [GtEntry(f, pid, lane_box(lane, shift))
            for f, (_, preds) in enumerate(frames, 1) for pid, lane, shift in preds]
    return gt, pred


# GT 1 switches from 11 to 13 in an uncontested run (frames 1-2), and
# back to 11 in frame 7; frame 3 is GT-only and frame 4 prediction-only;
# frame 5 is contested, where the prior keeps 13 though 11 overlaps more.
# GT 1 and 2 are unmatched in frame 3 and matched again in frame 5, and
# GT 2 again in frames 6 and 7: three fragmentations. GT 3 is unmatched
# in frame 1 before its first match, which is no fragmentation.
MIXED_SCENE = lanes([
    ([0, 1, 2], [(11, 0, 0), (12, 1, 0)]),
    ([0, 1, 2], [(13, 0, 0), (12, 1, 1), (14, 2, 0)]),
    ([0, 1], []),
    ([], [(11, 0, 0)]),
    ([0, 1], [(13, 0, 1), (11, 0, 0), (12, 1, 0)]),
    ([0, 1], [(13, 0, 0), (12, 2, 0)]),
    ([0, 1], [(11, 0, 0), (12, 1, 3)]),
])


@settings(deadline=None, max_examples=300)
@given(clear_scenes())
@example(MIXED_SCENE)
def test_clear_counts_equal_the_oracles_on_mixed_scenes(scene):
    gt, pred = scene
    table = _frame_overlaps(gt, pred)
    counts = clear_counts(_cells(table))
    assert counts == clear_oracle(gt, pred)
    assert counts == clear_sequence_oracle(frames_of(table))


def test_clear_walks_only_the_contested_frames(monkeypatch):
    gt, pred = MIXED_SCENE
    match, walked = metrics.clear_match, []

    def recording(g_ids, p_ids, ious, prior):
        walked.append((g_ids, p_ids, dict(prior)))
        return match(g_ids, p_ids, ious, prior)

    monkeypatch.setattr(metrics, "clear_match", recording)
    rep = evaluate(gt, pred)
    # Frame 5 alone, with the matches of frames 1-4 in its prior.
    assert walked == [([1, 2], [11, 12, 13], {1: 13, 2: 12, 3: 14})]
    assert (rep.fn_count, rep.fp_count, rep.idsw_count, rep.frag_count) == (4, 3, 2, 3)


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


def test_evaluate_rejects_a_prediction_identity_repeated_in_a_frame():
    # Scored as it was, the second box counted as neither a match nor a
    # false positive in CLEAR (MOTA 1.0, fp 0) but halved HOTA's DetPr.
    gt = [GtEntry(1, 1, BoundingBox(0, 0, 10, 10))]
    pred = [GtEntry(1, 7, BoundingBox(0, 0, 10, 10)),
            GtEntry(1, 7, BoundingBox(100, 100, 10, 10))]
    with pytest.raises(ValueError,
                       match=r"^predictions: identity 7 appears twice in frame 1$"):
        evaluate(gt, pred)


def test_evaluate_rejects_a_ground_truth_identity_repeated_in_a_frame():
    # Scored as it was: MOTA 1.0 and fn 0, but DetRe 0.5.
    gt = [GtEntry(2, 3, BOX), GtEntry(1, 1, BoundingBox(0, 0, 10, 10)),
          GtEntry(1, 1, BoundingBox(100, 100, 10, 10))]
    pred = [GtEntry(1, 1, BoundingBox(0, 0, 10, 10))]
    with pytest.raises(ValueError,
                       match=r"^ground truth: identity 1 appears twice in frame 1$"):
        evaluate(gt, pred)


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


def test_idf1_over_300_identities():
    # GT identity k co-occurs with predicted identity 5000 + 7k mod 300 on
    # frames 1 and 2 and with the next GT's partner on frame 3; frame 4
    # holds half the GT and no predictions. The best mapping keeps the
    # frame 1-2 partners: IDTP 600 of 1,050 GT and 900 predicted boxes.
    gt_ids = [2 ** 64 + k for k in range(300)]
    pred_ids = list(range(5000, 5300))
    per_frame = []
    for shift in (0, 0, 1):
        ious = np.zeros((300, 300))
        for k in range(300):
            ious[k, 7 * ((k + shift) % 300) % 300] = 1.0
        per_frame.append((gt_ids, pred_ids, ious))
    per_frame.append((gt_ids[:150], [], np.zeros((150, 0))))
    assert idf1(cells_of(per_frame)) == 2 * 600 / (2 * 600 + 300 + 450)


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


def recorded_solves(monkeypatch):
    """Record the cost matrix of every `solve_matchings` call HOTA makes."""
    solve = metrics.solve_matchings
    costs = []

    def recording(cost):
        costs.append(cost)
        return solve(cost)

    monkeypatch.setattr(metrics, "solve_matchings", recording)
    return costs


def test_hota_solves_no_one_to_one_frame(monkeypatch):
    # Identities never overlap, so each frame's mask IoU >= alpha is the
    # same diagonal at all 19 levels: a one-to-one mask is its own
    # matching, and no frame is solved.
    gt = [GtEntry(f, i, BoundingBox(100 * i + f, 50, 20, 40))
          for f in range(1, 6) for i in range(1, 4)]
    cells = _cells(_frame_overlaps(gt, gt))
    calls = recorded_solves(monkeypatch)
    assert hota(cells) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert calls == []


def assert_solved_at(costs, ious, levels):
    """Each of `costs` is the mask of `ious` at the matching level."""
    assert len(costs) == len(levels)
    for cost, k in zip(costs, levels):
        expected = np.where(ious >= metrics.ALPHAS[k], 1.0 - ious, INFEASIBLE)
        assert np.array_equal(cost, expected)


def test_hota_solves_a_contested_frame_once_per_matching_span(monkeypatch):
    # Frame 1 is contested: GT 1 overlaps both predictions, so the levels
    # alpha <= 0.33 are contested. But each GT row's best cell lies in its
    # own column, and the rest of the row costs far more than the tie
    # window above it: the rows certify the frame, whose matching at each
    # contested level is those best cells, read off with no solve. Frame 2
    # is one-to-one.
    ious = np.array([[0.87, 0.33], [0.0, 0.62]])
    per_frame = [([1, 2], [11, 12], ious), ([1, 2], [11, 12], np.eye(2))]
    costs = recorded_solves(monkeypatch)
    assert hota(cells_of(per_frame)) == hota_solving_every_level(per_frame)
    assert costs == []


def test_hota_solves_a_frame_whose_bests_share_a_prediction_once_per_matching_span(
        monkeypatch):
    # Both GT rows have their best cell in prediction 11's column, and that
    # column's bests hold GT 1's row twice over, so neither side certifies
    # frame 1: it is walked. Its matching (0, 1), (1, 0) holds up to IoU
    # 0.32 (alpha 0.30), and one more solve at alpha 0.35 matches (0, 0)
    # up to the frame's conflict value 0.62 (alpha 0.60). Frame 2 is
    # one-to-one and is not solved.
    ious = np.array([[0.9, 0.32], [0.62, 0.0]])
    per_frame = [([1, 2], [11, 12], ious), ([1, 2], [11, 12], np.eye(2))]
    costs = recorded_solves(monkeypatch)
    assert hota(cells_of(per_frame)) == hota_solving_every_level(per_frame)
    levels = [0, 6]
    assert [metrics.ALPHAS[k] for k in levels] == pytest.approx([0.05, 0.35])
    assert_solved_at(costs, ious, levels)


def test_hota_keeps_a_matching_when_only_a_neighbour_overlap_drops(monkeypatch):
    # Neighbours 8 px apart overlap with IoU 20/180, which the mask loses at
    # alpha 0.15, while the matched pairs (IoU 1) hold at every level. Each
    # frame's rows certify it, so no frame is solved.
    gt = [GtEntry(f, i, BoundingBox(8 * i + 30 * f, 0, 10, 10))
          for f in range(1, 6) for i in range(1, 3)]
    table = _frame_overlaps(gt, gt)
    assert frames_of(table)[0][2][0, 1] == pytest.approx(1 / 9)
    calls = recorded_solves(monkeypatch)
    assert hota(_cells(table)) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert calls == []


@pytest.mark.parametrize("gap, levels", [(2.5, [0, 14]), (3.5, [])])
def test_hota_walks_a_near_tie_inside_three_tie_windows(monkeypatch, gap, levels):
    # GT 1's runner-up cell is `gap` tie windows (1e-9 here, as the best
    # costs sum to 0.45) above its best, and prediction 12's column holds
    # GT 1's row as its best too, so only the rows could certify frame 1.
    # Inside 3 windows they do not: the frame is walked, solved at alpha
    # 0.05 for the matching (0, 0), (1, 1), which holds while the
    # neighbour cell 0.12 drops at alpha 0.15, up to IoU 0.72 (alpha 0.70),
    # and once more at alpha 0.75. Outside them it is read off.
    t = 1e-9
    ious = np.array([[0.83, 0.83 - gap * t], [0.12, 0.72]])
    per_frame = [([1, 2], [11, 12], ious), ([1, 2], [12, 11], np.eye(2))]
    costs = recorded_solves(monkeypatch)
    assert hota(cells_of(per_frame)) == hota_solving_every_level(per_frame)
    assert [metrics.ALPHAS[k] for k in levels] == pytest.approx([0.05, 0.75][:len(levels)])
    assert_solved_at(costs, ious, levels)


@pytest.mark.parametrize("transpose", [False, True])
def test_hota_reads_a_frame_off_the_side_that_certifies_it(monkeypatch, transpose):
    # The rows certify frame 1 (bests (0, 0) and (1, 1), far apart from
    # the rest of their rows), while both column bests lie in GT 1's row.
    # Transposed, only the columns certify it. Either way the frame is
    # read off its certifying side's bests with no solve; the other side's
    # bests are not a matching. Frame 2 ties the identities across frames.
    ious = np.array([[0.9, 0.8], [0.0, 0.3]])
    if transpose:
        ious = ious.T
    per_frame = [([1, 2], [11, 12], ious), ([1, 2], [12, 11], np.eye(2))]
    costs = recorded_solves(monkeypatch)
    assert list(zip(*metrics.hota_levels(cells_of(per_frame)))) == \
        levels_solving_every_level(per_frame)
    assert costs == []


@st.composite
def pair_counts_and_scores(draw):
    """(P, L) arrays of match counts up to 2**40 and HOTA-shaped scores
    k / (n - k), 1 <= k <= n / 2; a count of 0 has score 0."""
    n_pairs, n_levels = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    counts = np.zeros((n_pairs, n_levels), dtype=np.int64)
    scores = np.zeros((n_pairs, n_levels))
    for p in range(n_pairs):
        for level in range(n_levels):
            count = draw(st.one_of(st.integers(0, 20), st.integers(0, 2 ** 40)))
            if count:
                n = draw(st.integers(2, 2 ** 41))
                k = draw(st.integers(1, n // 2))
                counts[p, level], scores[p, level] = count, k / (n - k)
    return counts, scores


@settings(deadline=None, max_examples=300)
@given(pair_counts_and_scores())
def test_product_sums_equal_the_sum_of_repeated_scores(arrays):
    # math.fsum of the repeated scores is the exact sum correctly rounded,
    # which Fraction gives without the repeats; both agree where the
    # repeats are few enough to build.
    counts, scores = arrays
    got = metrics._product_sums(counts, scores)
    for level, value in enumerate(got):
        exact = sum(Fraction(int(c)) * Fraction(float(s))
                    for c, s in zip(counts[:, level], scores[:, level]))
        assert bits(value) == bits(float(exact))
        if counts[:, level].sum() <= 10 ** 4:
            assert bits(value) == bits(math.fsum(
                np.repeat(scores[:, level], counts[:, level]).tolist()))


def levels_solving_every_level(per_frame):
    """`hota_levels` with every frame solved from scratch at every level,
    as one (hota, det_a, ass_a, det_re, det_pr) tuple per level."""
    gt_count = Counter(g for g_ids, _, _ in per_frame for g in g_ids)
    pred_count = Counter(p for _, p_ids, _ in per_frame for p in p_ids)
    levels = []
    for alpha in metrics.ALPHAS:
        tp = fn = fp = 0
        events = []
        for g_ids, p_ids, ious in per_frame:
            matches, unmatched_g, unmatched_p = solve_assignment(
                np.where(ious >= alpha, 1.0 - ious, INFEASIBLE))
            tp += len(matches)
            fn += len(unmatched_g)
            fp += len(unmatched_p)
            events.extend((g_ids[i], p_ids[j]) for i, j in matches)
        pair_count = Counter(events)
        det_a = tp / (tp + fn + fp) if tp + fn + fp else 0.0
        ass_a = math.fsum(
            pair_count[(g, p)] / (gt_count[g] + pred_count[p] - pair_count[(g, p)])
            for g, p in events) / tp if tp else 0.0
        levels.append((math.sqrt(det_a * ass_a), det_a, ass_a,
                       tp / (tp + fn) if tp + fn else 0.0,
                       tp / (tp + fp) if tp + fp else 0.0))
    return levels


def hota_solving_every_level(per_frame):
    """`hota` with every frame solved from scratch at every level."""
    levels = levels_solving_every_level(per_frame)
    return tuple(math.fsum(column) / len(levels) for column in zip(*levels))


def test_hota_resolves_when_the_minimum_cost_matching_loses_a_pair():
    # Frame 1 is a near tie (t is the tie window of its feasible total).
    # At alpha 0.05, (0, 1), (1, 0), (2, 2) costs 1.22, the cheapest;
    # (0, 0), (1, 2), (2, 1) at 1.22 + t/2 ties with it and is the lowest
    # matching in the window, while (0, 0), (1, 1), (2, 2) at 1.22 + 1.2t
    # is outside. IoU(0, 1) = 0.08 drops at alpha 0.10; the optimum rises
    # to 1.22 + t/2 and (0, 0), (1, 1), (2, 2) joins the window and wins,
    # though every pair of the old matching still holds. Frame 2 matches
    # the identities along the diagonal, so AssA tells the two apart.
    t = 1.22e-9
    cost = np.array([[0.46, 0.92, 0.85],
                     [0.0, 0.46 + 1.2 * t, 0.38],
                     [0.5, 0.38 + 0.5 * t, 0.3]])
    ious = 1.0 - cost

    def at(alpha):
        return solve_assignment(np.where(ious >= alpha, 1.0 - ious, INFEASIBLE))[0]

    assert at(0.05) == [(0, 0), (1, 2), (2, 1)]
    assert at(0.10) == [(0, 0), (1, 1), (2, 2)]
    per_frame = [([1, 2, 3], [11, 12, 13], ious), ([1, 2, 3], [11, 12, 13], np.eye(3))]
    assert hota(cells_of(per_frame)) == hota_solving_every_level(per_frame)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 31 - 1))
def test_hota_equals_solving_every_level(seed):
    # Micro scenes with exact rational IoUs, and overlap tables drawn from
    # tenths, where many matchings tie and cells drop out level by level.
    rng = np.random.default_rng(seed)
    gt, pred = random_micro_scenario(rng)
    table = _frame_overlaps(gt, pred)
    assert hota(_cells(table)) == hota_solving_every_level(frames_of(table))
    tables = []
    for _ in range(int(rng.integers(1, 5))):
        n, m = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        ious = rng.integers(0, 11, (n, m)) / 10
        tables.append((list(range(1, n + 1)), list(range(11, 11 + m)), ious))
    assert hota(cells_of(tables)) == hota_solving_every_level(tables)


# Cells at and around the levels, tenths, and any IoU in [0, 1].
IOU_VALUES = st.one_of(st.sampled_from([0.0, 1.0] + metrics.ALPHAS),
                       st.integers(0, 10).map(lambda k: k / 10),
                       st.floats(0.0, 1.0))
# Identities as a frame lists them: distinct and ascending, possibly none.
ID_LISTS = st.lists(st.sampled_from([1, 2, 3, 2 ** 64, 2 ** 64 + 1, 2 ** 70]),
                    unique=True, max_size=4).map(sorted)


@st.composite
def overlap_tables(draw):
    """Per-frame (gt_ids, pred_ids, ious) tables mixing one-to-one frames,
    frames drawn cell by cell (mostly contested) and frames with an empty
    side."""
    tables = []
    for _ in range(draw(st.integers(0, 6))):
        g_ids, p_ids = draw(ID_LISTS), draw(ID_LISTS)
        n, m = len(g_ids), len(p_ids)
        if draw(st.booleans()):
            ious = np.zeros((n, m))
            columns = draw(st.permutations(range(max(n, m))))
            for i, j in enumerate(columns[:n]):
                if j < m:
                    ious[i, j] = draw(IOU_VALUES)
        else:
            cells = draw(st.lists(IOU_VALUES, min_size=n * m, max_size=n * m))
            ious = np.array(cells, dtype=float).reshape(n, m)
        tables.append((g_ids, p_ids, ious))
    return tables


@settings(deadline=None, max_examples=200)
@given(overlap_tables())
def test_hota_levels_equal_solving_every_level(tables):
    levels = metrics.hota_levels(cells_of(tables))
    assert all(len(values) == len(metrics.ALPHAS) for values in levels)
    assert list(zip(*levels)) == levels_solving_every_level(tables)
    assert hota(cells_of(tables)) == tuple(math.fsum(values) / len(metrics.ALPHAS)
                                 for values in levels)


# A runner-up cell's distance below its row's best cell, in tie windows:
# near ties on both sides of the certificate's margin of 3.
TIE_GAPS = st.sampled_from([0.0, 0.5, 0.9, 2.5, 2.9, 3.1, 3.5, 6.0])
# Degenerate boxes' IoUs: above 1, or infinite.
ABOVE_ONE = st.sampled_from([2.85, 4.0, np.inf])


@st.composite
def certificate_frames(draw):
    """One (gt_ids, pred_ids, ious) frame built around a certificate: each
    GT row's best cell in its own column, and the row's other cells dead,
    anywhere below it, or a drawn number of tie windows below it. Some
    frames are transposed, so the columns certify them instead; some give
    two rows one best column; and some hold an IoU above 1 or infinite,
    anywhere."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if n > m:
        n, m = m, n
    best_cols = draw(st.permutations(range(m)))[:n]
    if n > 1 and draw(st.booleans()):
        best_cols[1] = best_cols[0]
    bests = [draw(st.floats(0.05, 1.0)) for _ in range(n)]
    tol = 1e-9 * max(1.0, math.fsum(1.0 - b for b in bests))
    ious = np.zeros((n, m))
    for i, (j, best) in enumerate(zip(best_cols, bests)):
        if draw(st.booleans()):
            for k in range(m):
                ious[i, k] = draw(st.one_of(
                    st.just(0.0), st.floats(0.0, best),
                    TIE_GAPS.map(lambda gap, best=best: best - gap * tol)))
        ious[i, j] = best
    if draw(st.integers(0, 3)) == 0:
        value = draw(ABOVE_ONE)
        ious[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))] = value
    g_ids, p_ids = list(range(1, n + 1)), list(range(11, m + 11))
    if draw(st.booleans()):
        return p_ids, g_ids, ious.T.copy()
    return g_ids, p_ids, ious


@st.composite
def certificate_tables(draw):
    """Tables mixing `certificate_frames` with the frames of
    `overlap_tables`."""
    frames = draw(st.lists(certificate_frames(), max_size=5))
    frames += draw(overlap_tables())
    return draw(st.permutations(frames))


@settings(deadline=None, max_examples=300)
@given(certificate_tables())
def test_hota_levels_of_certified_frames_equal_solving_every_level(tables):
    # Row-certified, column-only-certified and uncertified frames, with
    # near ties on both sides of 3 tie windows and single-cell rows, give
    # the levels of solving every frame at every level, bit for bit. An
    # infinite IoU, alone or beside live cells, is no cell: not live, and
    # an infeasible -inf cost in the solve.
    expected = levels_solving_every_level(tables)
    assert list(zip(*metrics.hota_levels(cells_of(tables)))) == expected


@settings(deadline=None, max_examples=200)
@given(overlap_tables())
@example([])
@example([([], [], np.zeros((0, 0)))])
def test_idf1_equals_the_table_oracle(tables):
    assert idf1(cells_of(tables)) == idf1_table_oracle(tables)
    if not any(g_ids or p_ids for g_ids, p_ids, _ in tables):
        assert idf1(cells_of(tables)) == 0.0


@settings(deadline=None, max_examples=100)
@given(overlap_tables(), st.data())
def test_hota_ignores_frame_order(tables, data):
    shuffled = data.draw(st.permutations(tables))
    assert hota(cells_of(shuffled)) == hota(cells_of(tables))


@settings(deadline=None, max_examples=200)
@given(overlap_tables())
@example([([1], [11], np.ones((1, 1))), ([1], [12], np.full((1, 1), np.inf))])
@example([([1], [11], np.ones((1, 1))), ([1], [11], np.full((1, 1), np.inf))])
@example([([1, 2], [11, 12], np.array([[np.inf, 0.0], [0.0, 0.7]]))])
def test_clear_counts_equal_walking_every_frame(tables):
    # Identities past int64, contested frames drawn cell by cell, and
    # infinite IoUs, which never match, whether kept from the prior or
    # assigned.
    assert clear_counts(cells_of(tables)) == clear_sequence_oracle(tables)


@pytest.mark.parametrize("gt_ids", [[1, 2], [1]], ids=["contested", "alone"])
def test_an_infinite_iou_is_no_match(gt_ids):
    # Against itself this box reads IoU inf, with a divide-by-zero warning
    # (`iou_columns` rounds its bottom edge). Were such cells live, two GT
    # rows on the one prediction would make a contested frame, and one GT
    # row a cell matched without a solve. They are not, and HOTA, IDF1 and
    # CLEAR all read the cell as no match.
    box = BoundingBox(0, 1.8014398509481988e16, 1, 2)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        rep = evaluate([GtEntry(1, g, box) for g in gt_ids], [GtEntry(1, 11, box)])
    assert (rep.hota, rep.idf1, rep.fn_count, rep.fp_count) == (0.0, 0.0, len(gt_ids), 1)


def test_evaluate_builds_one_overlap_table(monkeypatch):
    # GT on frames 1-4 and predictions on frames 3-6: frames 3 and 4 hold
    # both sides, as blocks of one shape (2 GT rows, 1 predicted row), so
    # one batched kernel call serves the six frames' table, shared by
    # CLEAR, IDF1 and HOTA. The frames with an empty side need no call.
    gt = track_entries(1, range(1, 5)) + track_entries(2, range(1, 5), FAR)
    pred = track_entries(11, range(3, 7))
    kernel = model._iou_of_fields
    calls = []

    def counting(a, b):
        ious = kernel(a, b)
        calls.append(ious.shape)
        return ious

    monkeypatch.setattr(model, "_iou_of_fields", counting)
    rep = evaluate(gt, pred)
    assert calls == [(2, 2, 1)]
    assert (rep.fn_count, rep.fp_count, rep.idsw_count) == (6, 2, 0)


# Boxes on a 5 px grid, where IoUs tie and vanish, and three from the
# iou_columns FOUND lines: against itself, the first reads inf with a
# divide-by-zero warning, the second NaN (its overlap overflows), the
# third 0 (its union overflows).
OVERLAP_BOXES = st.one_of(
    st.builds(BoundingBox, st.integers(0, 3).map(lambda k: 5 * k),
              st.integers(0, 3).map(lambda k: 5 * k),
              st.sampled_from([5, 10]), st.sampled_from([5, 10])),
    st.sampled_from([BoundingBox(0, 1.8014398509481988e16, 1, 2),
                     BoundingBox(0, 2.0 ** 53, 5e307, 3),
                     BoundingBox(0, 0, 1e300, 1e8)]))
# Frames and identities below, at and past int64.
OVERLAP_FRAMES = st.sampled_from([0, 1, 2, 3, 4, 2 ** 63 - 1, 2 ** 64, 2 ** 70])
OVERLAP_IDS = st.sampled_from([1, 2, 3, 4, 2 ** 63, 2 ** 70])


@st.composite
def overlap_sides(draw):
    """One side's entries: (frame, identity) pairs unique unless `repeats`
    is drawn, so most tables build and some raise."""
    keys = draw(st.lists(st.tuples(OVERLAP_FRAMES, OVERLAP_IDS), max_size=24))
    if draw(st.integers(0, 7)):
        keys = list(dict.fromkeys(keys))
    return [GtEntry(f, i, draw(OVERLAP_BOXES)) for f, i in keys]


def overlap_outcome(build, gt, pred):
    """What `build(gt, pred)` returns or raises, and the distinct numpy
    warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build(gt, pred)
        except ValueError as exc:
            result = str(exc)
    return result, {(w.category, str(w.message)) for w in caught}


@settings(deadline=None, max_examples=300)
@given(overlap_sides(), overlap_sides(), st.sampled_from([1, 2, 3, 4, 6, 1 << 14]))
def test_overlap_table_equals_the_per_frame_builder(gt, pred, cap):
    # A small entry cap splits the blocks of one shape over many calls.
    with mock.patch.object(model, "_OVERLAP_BATCH_ENTRIES", cap):
        got, got_warnings = overlap_outcome(_frame_overlaps, gt, pred)
    want, want_warnings = overlap_outcome(frame_overlaps_oracle, gt, pred)
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
        return
    per_frame = frames_of(got)
    assert bits(per_frame) == bits(want)
    assert bits(got.flat) == bits(np.concatenate(
        [ious.ravel() for _, _, ious in want] + [np.empty(0)]))
    assert all(ious.base is got.flat for _, _, ious in per_frame if ious.size)


def test_overlap_table_batches_each_block_shape_up_to_the_entry_cap(monkeypatch):
    # 300 frames of 8 GT x 8 predicted rows cross the cap of one call (256
    # such blocks), 10 frames of 3 x 2 fit in one, and 140 x 130 exceeds
    # it alone; calls come shape by shape, smallest first.
    cap = model._OVERLAP_BATCH_ENTRIES
    shapes = [(3, 2)] * 5 + [(8, 8)] * 300 + [(3, 2)] * 5 + [(140, 130), (0, 4), (2, 0)]
    rng = np.random.default_rng(0)

    def entry(frame, identity):
        return GtEntry(frame, identity, BoundingBox(*(5 * rng.integers(0, 4, 2)).tolist(),
                                                    *rng.choice([5, 10], 2).tolist()))

    gt = [entry(f, i) for f, (r, _) in enumerate(shapes) for i in range(r)]
    pred = [entry(f, i) for f, (_, c) in enumerate(shapes) for i in range(c)]
    kernel, seen = model._iou_of_fields, []

    def counting(a, b):
        ious = kernel(a, b)
        seen.append(ious.shape)
        return ious

    monkeypatch.setattr(model, "_iou_of_fields", counting)
    table = _frame_overlaps(gt, pred)
    monkeypatch.undo()
    assert seen == [(10, 3, 2), (256, 8, 8), (44, 8, 8), (1, 140, 130)]
    assert 256 * 64 <= cap < 257 * 64
    assert bits(frames_of(table)) == bits(frame_overlaps_oracle(gt, pred))


@pytest.mark.parametrize("gt_keys, pred_keys, message", [
    # The first frame with a repeat wins, whichever side holds it.
    ([(1, 5), (3, 7), (3, 7)], [(2, 4), (2, 4), (3, 1)],
     "predictions: identity 4 appears twice in frame 2"),
    ([(1, 5), (2, 7), (2, 7)], [(3, 4), (3, 4)],
     "ground truth: identity 7 appears twice in frame 2"),
    # In one frame, the ground truth before the predictions, and the
    # lowest repeated identity first.
    ([(2, 9), (2, 9), (2, 3), (2, 3)], [(2, 1), (2, 1)],
     "ground truth: identity 3 appears twice in frame 2"),
    ([(2 ** 70, 2 ** 64), (2 ** 70, 2 ** 64)], [(2 ** 64, 1), (2 ** 70 + 1, 8), (2 ** 70 + 1, 8)],
     f"ground truth: identity {2 ** 64} appears twice in frame {2 ** 70}"),
    # A frame key equal to the one before it only in its identity is no repeat.
    ([(1, 4), (2, 4)], [(1, 4), (3, 6), (4, 6), (4, 6)],
     "predictions: identity 6 appears twice in frame 4"),
])
def test_an_identity_repeated_in_a_frame_names_the_first_frame_and_side(
        gt_keys, pred_keys, message):
    gt = [GtEntry(f, i, BOX) for f, i in gt_keys]
    pred = [GtEntry(f, i, FAR) for f, i in pred_keys]
    for build in (_frame_overlaps, frame_overlaps_oracle, evaluate):
        with pytest.raises(ValueError) as raised:
            build(gt, pred)
        assert str(raised.value) == message


def test_identities_and_frames_beyond_int64():
    # Identities and frames are any Python integers, as the loaders accept.
    gt = [GtEntry(1, 2 ** 70, BOX), GtEntry(2, 2 ** 70, BOX), GtEntry(2, 1, FAR)]
    pred = [GtEntry(1, 2 ** 70, BOX), GtEntry(2, 2 ** 70 + 1, BOX),
            GtEntry(2 ** 64, 3, BOX)]
    assert evaluate(gt, pred) == EvalReport(
        hota=0.5, mota=0.0, idf1=1 / 3, det_re=2 / 3, det_pr=2 / 3, det_a=0.5,
        ass_a=0.5, fn_count=1, fp_count=1, idsw_count=1, frag_count=0)


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
# HOTA's per-frame matching breaks exact cost ties by the lowest column,
# that is by predicted id, so relabeling can move AssA (and HOTA) under a
# tie; on these seeds it does, and AssA still follows its definition.
@example(789)
@example(1629)
@example(2251)
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
    assert (rep_relabeled.det_a, rep_relabeled.det_re, rep_relabeled.det_pr) == \
        (rep.det_a, rep.det_re, rep.det_pr)
    assert rep.ass_a == assa_oracle(gt, pred)
    assert rep_relabeled.ass_a == assa_oracle(gt, relabeled)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2 ** 31 - 1))
def test_micro_scenarios_match_brute_force_oracles(seed):
    rng = np.random.default_rng(seed)
    gt, pred = random_micro_scenario(rng)
    rep = evaluate(gt, pred)
    assert rep.idf1 == idf1_oracle(gt, pred)
    assert rep.ass_a == assa_oracle(gt, pred)
    counts = (rep.fn_count, rep.fp_count, rep.idsw_count, rep.frag_count)
    assert counts == clear_oracle(gt, pred)
    # evaluate shares one overlap table between CLEAR, HOTA and IDF1
    table = _frame_overlaps(gt, pred)
    assert (rep.hota, rep.det_a, rep.ass_a, rep.det_re, rep.det_pr) == \
        hota(_cells(table))
    assert rep.idf1 == idf1(_cells(table))
    assert counts == clear_counts(_cells(table)) == clear_sequence_oracle(frames_of(table))


# Identities below 0, at 0 and past 2**64, so that no int64 view orders them.
identities = st.one_of(st.integers(-3, 3), st.integers(2 ** 64 - 1, 2 ** 64 + 2),
                       st.integers(-2 ** 70 - 2, -2 ** 70))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.builds(GtEntry, st.integers(1, 4), identities,
                          st.builds(BoundingBox, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                                    st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))),
                max_size=12))
def test_entry_columns_equal_the_tuple_key_sort(entries):
    frames, ids, boxes = metrics._sorted_columns(entries)
    want_frames, want_ids, want_boxes = entry_columns_oracle(entries)
    assert bits(frames) == bits(want_frames)
    assert bits(ids) == bits(want_ids)
    assert bits(boxes) == bits(want_boxes)
