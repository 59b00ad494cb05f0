import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mttsort import metrics, synth
from mttsort.association import INFEASIBLE, iou_columns, solve_assignment
from mttsort.metrics import (
    EvalReport, GtEntry, _clear_sequence, _frame_overlaps, average_reports,
    clear_match, evaluate, hota, idf1, score,
)
from mttsort.model import BoundingBox, box_columns

from oracles import (
    assa_oracle, bits, clear_oracle, entry_columns_oracle, idf1_oracle, idf1_table_oracle,
    random_micro_scenario,
)

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

def columns_of(boxes):
    return box_columns(np.array([(b.left, b.top, b.width, b.height) for b in boxes],
                                dtype=float).reshape(len(boxes), 4))


def clear_frame(gt_frame, pred_frame, prior):
    """clear_match on one frame given as (identity, box) lists."""
    ious = iou_columns(columns_of([b for _, b in gt_frame]),
                       columns_of([b for _, b in pred_frame]))
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
    assert idf1(per_frame) == 2 * 600 / (2 * 600 + 300 + 450)


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


def count_solves(monkeypatch):
    """Record the cost shape of every `solve_matchings` call HOTA makes."""
    solve = metrics.solve_matchings
    calls = []

    def counting(cost):
        calls.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(metrics, "solve_matchings", counting)
    return calls


def test_hota_solves_no_one_to_one_frame(monkeypatch):
    # Identities never overlap, so each frame's mask IoU >= alpha is the
    # same diagonal at all 19 levels: a one-to-one mask is its own
    # matching, and no frame is solved.
    gt = [GtEntry(f, i, BoundingBox(100 * i + f, 50, 20, 40))
          for f in range(1, 6) for i in range(1, 4)]
    per_frame = _frame_overlaps(gt, gt)
    calls = count_solves(monkeypatch)
    assert hota(per_frame) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert calls == []


def test_hota_solves_a_contested_frame_once_per_matching_span(monkeypatch):
    # Frame 1 is contested: GT 1 overlaps both predictions. Its matching
    # (0, 0), (1, 1) holds up to IoU 0.62, then (0, 0) alone up to 0.87,
    # then nothing: three solves, at alpha 0.05, 0.65 and 0.9 in that
    # order. Frame 2 is one-to-one and is not solved.
    ious = np.array([[0.87, 0.33], [0.0, 0.62]])
    per_frame = [([1, 2], [11, 12], ious), ([1, 2], [11, 12], np.eye(2))]
    solve = metrics.solve_matchings
    costs = []

    def recording(cost):
        costs.append(cost)
        return solve(cost)

    monkeypatch.setattr(metrics, "solve_matchings", recording)
    assert hota(per_frame) == hota_solving_every_level(per_frame)
    levels = [0, 12, 17]
    assert [metrics.ALPHAS[k] for k in levels] == pytest.approx([0.05, 0.65, 0.9])
    assert len(costs) == len(levels)
    for cost, k in zip(costs, levels):
        expected = np.where(ious >= metrics.ALPHAS[k], 1.0 - ious, INFEASIBLE)
        assert np.array_equal(cost, expected)


def test_hota_keeps_a_matching_when_only_a_neighbour_overlap_drops(monkeypatch):
    # Neighbours 8 px apart overlap with IoU 20/180: the mask loses those
    # cells at alpha 0.15, but the matched pairs (IoU 1) hold at every
    # level, so each frame is still solved once.
    gt = [GtEntry(f, i, BoundingBox(8 * i + 30 * f, 0, 10, 10))
          for f in range(1, 6) for i in range(1, 3)]
    per_frame = _frame_overlaps(gt, gt)
    assert per_frame[0][2][0, 1] == pytest.approx(1 / 9)
    calls = count_solves(monkeypatch)
    assert hota(per_frame) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert calls == [(2, 2)] * 5


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
    assert hota(per_frame) == hota_solving_every_level(per_frame)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 31 - 1))
def test_hota_equals_solving_every_level(seed):
    # Micro scenes with exact rational IoUs, and overlap tables drawn from
    # tenths, where many matchings tie and cells drop out level by level.
    rng = np.random.default_rng(seed)
    gt, pred = random_micro_scenario(rng)
    per_frame = _frame_overlaps(gt, pred)
    assert hota(per_frame) == hota_solving_every_level(per_frame)
    tables = []
    for _ in range(int(rng.integers(1, 5))):
        n, m = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        ious = rng.integers(0, 11, (n, m)) / 10
        tables.append((list(range(1, n + 1)), list(range(11, 11 + m)), ious))
    assert hota(tables) == hota_solving_every_level(tables)


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
    levels = metrics.hota_levels(tables)
    assert all(len(values) == len(metrics.ALPHAS) for values in levels)
    assert list(zip(*levels)) == levels_solving_every_level(tables)
    assert hota(tables) == tuple(math.fsum(values) / len(metrics.ALPHAS)
                                 for values in levels)


@settings(deadline=None, max_examples=200)
@given(overlap_tables())
@example([])
@example([([], [], np.zeros((0, 0)))])
def test_idf1_equals_the_table_oracle(tables):
    assert idf1(tables) == idf1_table_oracle(tables)
    if not any(g_ids or p_ids for g_ids, p_ids, _ in tables):
        assert idf1(tables) == 0.0


@settings(deadline=None, max_examples=100)
@given(overlap_tables(), st.data())
def test_hota_ignores_frame_order(tables, data):
    shuffled = data.draw(st.permutations(tables))
    assert hota(shuffled) == hota(tables)


def test_evaluate_builds_one_overlap_table(monkeypatch):
    # GT on frames 1-4 and predictions on frames 3-6: one iou_columns call
    # for each of the six frames, shared by CLEAR, IDF1 and HOTA.
    gt = track_entries(1, range(1, 5)) + track_entries(2, range(1, 5), FAR)
    pred = track_entries(11, range(3, 7))
    kernel = metrics.iou_columns
    calls = []

    def counting(a, b):
        calls.append((len(a), len(b)))
        return kernel(a, b)

    monkeypatch.setattr(metrics, "iou_columns", counting)
    rep = evaluate(gt, pred)
    assert calls == [(2, 0), (2, 0), (2, 1), (2, 1), (0, 1), (0, 1)]
    assert (rep.fn_count, rep.fp_count, rep.idsw_count) == (6, 2, 0)


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
    assert (rep.fn_count, rep.fp_count, rep.idsw_count) == clear_oracle(gt, pred)
    # evaluate shares one overlap table between CLEAR, HOTA and IDF1
    per_frame = _frame_overlaps(gt, pred)
    assert (rep.hota, rep.det_a, rep.ass_a, rep.det_re, rep.det_pr) == \
        hota(per_frame)
    assert rep.idf1 == idf1(per_frame)
    assert (rep.fn_count, rep.fp_count, rep.idsw_count, rep.frag_count) == \
        _clear_sequence(per_frame)


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
