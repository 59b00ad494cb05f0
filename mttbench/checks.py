"""Correctness checks computed apart from mttsort.

Each check either recomputes reported figures from their definitions with
numpy and scipy, or tests a property that every correct run has. A check
returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

ALPHAS = [k * 0.05 for k in range(1, 20)]
MATCH_IOU = 0.5
# Agreement required between a recomputed ratio and the reported one.
TOLERANCE = 1e-12
# Result files store coordinates with two decimals.
COORD_ROUNDING = 0.005 + 1e-9


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU between the rows of two (N, 4) left/top/width/height arrays.

    The operations follow the pairwise definition in the same order, so
    the values equal a per-pair computation bit for bit.
    """
    inter_w = (np.minimum((a[:, 0] + a[:, 2])[:, None], (b[:, 0] + b[:, 2])[None, :])
               - np.maximum(a[:, 0][:, None], b[:, 0][None, :]))
    inter_h = (np.minimum((a[:, 1] + a[:, 3])[:, None], (b[:, 1] + b[:, 3])[None, :])
               - np.maximum(a[:, 1][:, None], b[:, 1][None, :]))
    inter = inter_w * inter_h
    union = (a[:, 2] * a[:, 3])[:, None] + (b[:, 2] * b[:, 3])[None, :] - inter
    overlap = (inter_w > 0) & (inter_h > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(overlap, inter / union, 0.0)


def _frames(entries):
    """frame -> ((N, 4) boxes, their positions in `entries`)."""
    rows = defaultdict(list)
    for pos, e in enumerate(entries):
        rows[e.frame].append(pos)
    out = {}
    for frame, positions in rows.items():
        boxes = np.array([[entries[p].box.left, entries[p].box.top,
                           entries[p].box.width, entries[p].box.height]
                          for p in positions], dtype=float)
        out[frame] = (boxes, np.array(positions))
    return out


def _overlaps(gt, pred):
    """Every same-frame (gt position, pred position, IoU) with IoU > 0."""
    gt_frames, pred_frames = _frames(gt), _frames(pred)
    rows, cols, ious = [], [], []
    for frame, (gt_boxes, gt_pos) in gt_frames.items():
        if frame not in pred_frames:
            continue
        pred_boxes, pred_pos = pred_frames[frame]
        m = iou_matrix(gt_boxes, pred_boxes)
        i, j = np.nonzero(m > 0)
        rows.append(gt_pos[i])
        cols.append(pred_pos[j])
        ious.append(m[i, j])
    if not rows:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(ious)


def detection_scores(gt, pred):
    """(DetRe, DetPr, DetA) averaged over the 19 HOTA alpha levels.

    At each level the true positives are a maximum matching of the graph
    whose edges join a GT and a predicted box of one frame with
    IoU >= alpha; one block-diagonal graph covers the whole sequence.
    """
    rows, cols, ious = _overlaps(gt, pred)
    n_gt, n_pred = len(gt), len(pred)
    re, pr, a = [], [], []
    for alpha in ALPHAS:
        keep = ious >= alpha
        graph = csr_matrix((np.ones(int(keep.sum())), (rows[keep], cols[keep])),
                           shape=(n_gt, n_pred))
        tp = int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())
        re.append(tp / n_gt)
        pr.append(tp / n_pred if n_pred else 0.0)
        a.append(tp / (n_gt + n_pred - tp))
    n = len(ALPHAS)
    return math.fsum(re) / n, math.fsum(pr) / n, math.fsum(a) / n


def identity_f1(gt, pred) -> float:
    """IDF1 from IoU >= 0.5 co-occurrence counts and one maximum-weight
    assignment of GT identities to predicted identities."""
    rows, cols, ious = _overlaps(gt, pred)
    keep = ious >= MATCH_IOU
    gt_ids = np.array([e.identity for e in gt])
    pred_ids = np.array([e.identity for e in pred])
    idtp = 0
    if keep.any():
        g_lab, g_idx = np.unique(gt_ids[rows[keep]], return_inverse=True)
        p_lab, p_idx = np.unique(pred_ids[cols[keep]], return_inverse=True)
        counts = np.zeros((len(g_lab), len(p_lab)), dtype=np.int64)
        np.add.at(counts, (g_idx, p_idx), 1)
        r, c = linear_sum_assignment(counts, maximize=True)
        idtp = int(counts[r, c].sum())
    return 2 * idtp / (len(gt) + len(pred))


def report_problems(gt, pred, report) -> list[str]:
    """Recompute DetRe/DetPr/DetA and IDF1, and test fn - fp = |GT| - |pred|."""
    problems = []
    det_re, det_pr, det_a = detection_scores(gt, pred)
    for name, expected in (("det_re", det_re), ("det_pr", det_pr),
                           ("det_a", det_a), ("idf1", identity_f1(gt, pred))):
        got = getattr(report, name)
        if not abs(got - expected) <= TOLERANCE:
            problems.append(f"{name} = {got!r}, recomputed {expected!r}")
    if report.fn_count - report.fp_count != len(gt) - len(pred):
        problems.append(
            f"fn - fp = {report.fn_count - report.fp_count}, but "
            f"|GT| - |pred| = {len(gt) - len(pred)}")
    return problems


def perfect_score_problems(report) -> list[str]:
    """A sequence scored against itself has HOTA = MOTA = IDF1 = 1."""
    return [f"{name} = {getattr(report, name)!r} for GT scored against itself"
            for name in ("hota", "mota", "idf1")
            if not abs(getattr(report, name) - 1.0) <= TOLERANCE]


def unique_id_problems(results) -> list[str]:
    problems = []
    for res in results:
        ids = [tid for tid, _, _ in res.records]
        if len(ids) != len(set(ids)):
            problems.append(f"frame {res.frame}: repeated track ids {sorted(ids)}")
    return problems


def round_trip_problems(results, parsed, written: bytes, rewritten: bytes) -> list[str]:
    """Results read back from their file are the written ones: the same
    (frame, id) rows, boxes within the file's rounding, and writing the
    parsed results again gives the same bytes."""
    def rows(frame_results):
        return {(res.frame, tid): (box, conf)
                for res in frame_results for tid, box, conf in res.records}

    problems = []
    before, after = rows(results), rows(parsed)
    if before.keys() != after.keys():
        problems.append(
            f"round trip changed the rows: {len(before)} written, {len(after)} read, "
            f"{len(before.keys() ^ after.keys())} differ")
    for key in before.keys() & after.keys():
        (box_a, conf_a), (box_b, conf_b) = before[key], after[key]
        if max(abs(box_a.left - box_b.left), abs(box_a.top - box_b.top),
               abs(box_a.width - box_b.width), abs(box_a.height - box_b.height),
               abs(conf_a - conf_b)) > COORD_ROUNDING:
            problems.append(f"frame {key[0]} id {key[1]}: {box_a} read back as {box_b}")
            break
    if written != rewritten:
        problems.append("writing the parsed results again changed the file")
    return problems


def clean_count_problems(report, identities: int, n_init: int) -> list[str]:
    """On the pinned `clean` scene only the n_init - 1 frames before each
    track confirms are missed."""
    expected = {"fp_count": 0, "idsw_count": 0, "frag_count": 0,
                "fn_count": identities * (n_init - 1)}
    return [f"clean: {name} = {getattr(report, name)}, expected {value}"
            for name, value in expected.items() if getattr(report, name) != value]


def same_digest_problems(label: str, digests) -> list[str]:
    distinct = sorted(set(digests))
    if len(distinct) > 1:
        return [f"{label}: {len(distinct)} different outputs over {len(digests)} passes"]
    return []


def ga_problems(best_score: float, history, rescore: float) -> list[str]:
    """The GA's best score is the best of its history and is what the best
    config scores when evaluated again."""
    problems = []
    history_best = max(entry.best for entry in history)
    if best_score != history_best:
        problems.append(f"GA best {best_score!r} != history maximum {history_best!r}")
    if best_score != rescore:
        problems.append(f"GA best {best_score!r} != re-score of the best config {rescore!r}")
    return problems
