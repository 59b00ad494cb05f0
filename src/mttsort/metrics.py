"""Tracking evaluation: CLEAR counts (MOTA), IDF1, the HOTA family,
fragmentations, and the scalar fitness score used by the optimizer.

`evaluate` reads its `GtEntry` lists once, into one per-frame table built
from box columns: for each frame with a GT or predicted box, the GT and
the predicted identities in ascending order and their IoU matrix. CLEAR
walks that table frame by frame; IDF1 and HOTA each read it through
`_cells`, one flat table of its live cells with every identity as a dense
int64 rank. IDF1 is one `np.bincount` of rank pairs and one assignment.

HOTA solves only the frames where two cells of the loosest level's mask
share a row or a column, and each of those once per span of levels its
matching holds; every other frame's matching is its mask. The matches
accumulate as integer counts per (GT rank, predicted rank) pair and level,
which `hota_levels` reports level by level and `hota` averages.

All final ratios are built from integer event counts, and means use
math.fsum, so results are bit-reproducible and safe to compare against
enumeration oracles.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np
from scipy.optimize import linear_sum_assignment

from .association import INFEASIBLE, iou_columns, solve_assignment, solve_matchings
from .model import BoundingBox, box_columns

# Per-frame GT/prediction overlap threshold for CLEAR and identity metrics.
MATCH_IOU = 0.5

# Localization thresholds HOTA integrates over.
ALPHAS = [k * 0.05 for k in range(1, 20)]


@dataclass(frozen=True)
class GtEntry:
    """One annotated (or predicted) box: frame, trajectory identity, box."""

    frame: int
    identity: int
    box: BoundingBox


@dataclass(frozen=True)
class EvalReport:
    hota: float
    mota: float
    idf1: float
    det_re: float
    det_pr: float
    det_a: float
    ass_a: float
    fn_count: int
    fp_count: int
    idsw_count: int
    frag_count: int


def results_to_entries(results) -> list[GtEntry]:
    """Flatten tracker FrameResults into (frame, identity, box) records."""
    return [GtEntry(frame=res.frame, identity=tid, box=box)
            for res in results
            for tid, box, _ in res.records]


def clear_match(g_ids, p_ids, ious, prior_correspondence):
    """Match one frame's GT against predictions, CLEAR style.

    `g_ids` and `p_ids` are the frame's GT and predicted identities in
    ascending order and `ious` their overlap matrix, one entry of
    `_frame_overlaps`; the prior correspondence maps each GT identity to
    the predicted id it was most recently matched with. Correspondences
    still overlapping with IoU >= 0.5 are kept; the remainder is matched by
    minimum (1 - IoU) assignment subject to the same threshold.

    Returns (matches, fn, fp, idsw) where matches is a list of
    (gt_identity, pred_identity) and idsw counts matches whose predicted
    id differs from the prior one.
    """
    pred_index = {pid: j for j, pid in enumerate(p_ids)}

    matches: list[tuple[int, int]] = []
    used_preds: set[int] = set()
    remaining_gt = []
    for i, gid in enumerate(g_ids):
        pid = prior_correspondence.get(gid)
        if (pid is not None and pid in pred_index and pid not in used_preds
                and ious[i, pred_index[pid]] >= MATCH_IOU):
            matches.append((gid, pid))
            used_preds.add(pid)
        else:
            remaining_gt.append(i)
    remaining_pred = [j for j, pid in enumerate(p_ids) if pid not in used_preds]

    if remaining_gt and remaining_pred:
        overlaps = ious[np.ix_(remaining_gt, remaining_pred)]
        cost = np.where(overlaps >= MATCH_IOU, 1.0 - overlaps, INFEASIBLE)
        assigned, _, _ = solve_assignment(cost)
        matches.extend((g_ids[remaining_gt[i]], p_ids[remaining_pred[j]])
                       for i, j in assigned)

    matches.sort()
    matched_gt = {g for g, _ in matches}
    matched_pred = {p for _, p in matches}
    fn = sum(1 for gid in g_ids if gid not in matched_gt)
    fp = sum(1 for pid in p_ids if pid not in matched_pred)
    idsw = sum(1 for gid, pid in matches
               if prior_correspondence.get(gid) not in (None, pid))
    return matches, fn, fp, idsw


def _clear_sequence(per_frame):
    """Accumulate CLEAR counts and fragmentations over a whole sequence.

    `per_frame` is `_frame_overlaps(gt, pred)`.
    """
    prior: dict[int, int] = {}
    fn = fp = idsw = frag = 0
    ever_matched: set[int] = set()
    gap_open: set[int] = set()
    for g_ids, p_ids, ious in per_frame:
        matches, fn_f, fp_f, idsw_f = clear_match(g_ids, p_ids, ious, prior)
        fn += fn_f
        fp += fp_f
        idsw += idsw_f
        matched = {g for g, _ in matches}
        for gid, pid in matches:
            prior[gid] = pid
        for gid in g_ids:
            if gid in matched:
                if gid in gap_open:
                    frag += 1
                    gap_open.discard(gid)
                ever_matched.add(gid)
            elif gid in ever_matched:
                gap_open.add(gid)
    return fn, fp, idsw, frag


def _cells(per_frame):
    """The flat table of `per_frame` that IDF1 and HOTA read.

    Entries are numbered in table order (frame by frame, ids ascending).
    Returns g_rank and p_rank, each GT and predicted entry's identity as a
    dense int64 rank in order of first appearance, so identities stay any
    Python integers; g_first and p_first, each frame's first GT and first
    predicted entry; and for each live cell (IoU >= ALPHAS[0]) its iou,
    frame, entry_g and entry_p.
    """
    ranks = []
    for side in (0, 1):
        rank = {}
        ranks.append(np.array([rank.setdefault(i, len(rank))
                               for table in per_frame for i in table[side]],
                              dtype=np.int64))
    g_rank, p_rank = ranks
    rows = np.array([len(g_ids) for g_ids, _, _ in per_frame], dtype=np.int64)
    cols = np.array([len(p_ids) for _, p_ids, _ in per_frame], dtype=np.int64)
    g_first, p_first = np.cumsum(rows) - rows, np.cumsum(cols) - cols
    starts = np.cumsum(rows * cols) - rows * cols
    flat = np.concatenate([ious.ravel() for _, _, ious in per_frame] + [np.empty(0)])
    live = np.flatnonzero(flat >= ALPHAS[0])
    frame = np.searchsorted(starts, live, side="right") - 1
    local = live - starts[frame]
    entry_g = g_first[frame] + local // cols[frame]
    entry_p = p_first[frame] + local % cols[frame]
    return g_rank, p_rank, g_first, p_first, flat[live], frame, entry_g, entry_p


def idf1(per_frame) -> float:
    """Identity F1 under the best single global GT<->prediction mapping.

    A GT and a predicted trajectory co-occur on every frame where their
    boxes overlap with IoU >= 0.5; IDTP is the total co-occurrence of the
    best one-to-one mapping, and IDF1 = 2 IDTP / (|GT| + |predicted|),
    or 0.0 on a table with no entries, as `hota` gives zeros there.
    `per_frame` is `_frame_overlaps(gt, pred)`.
    """
    g_rank, p_rank, _, _, iou, _, entry_g, entry_p = _cells(per_frame)
    hit = iou >= MATCH_IOU
    idtp = 0
    if hit.any():
        n_gt, n_pred = int(g_rank.max()) + 1, int(p_rank.max()) + 1
        counts = np.bincount(g_rank[entry_g[hit]] * n_pred + p_rank[entry_p[hit]],
                             minlength=n_gt * n_pred).reshape(n_gt, n_pred)
        rows, cols = linear_sum_assignment(counts, maximize=True)
        idtp = int(counts[rows, cols].sum())
    entries = len(g_rank) + len(p_rank)
    return 2 * idtp / entries if entries else 0.0


def _sorted_columns(entries):
    """The frames and identities of `entries` sorted by (frame, identity),
    a stable sort, and the (left, top, right, bottom, area) rows of their
    boxes in that order."""
    # Two stable sorts on single-field keys order as one on (frame,
    # identity) tuples do, without a key tuple per entry.
    entries = sorted(entries, key=attrgetter("identity"))
    entries.sort(key=attrgetter("frame"))
    boxes = [e.box for e in entries]
    ltwh = np.array([[b.left for b in boxes], [b.top for b in boxes],
                     [b.width for b in boxes], [b.height for b in boxes]],
                    dtype=float).reshape(4, len(boxes)).T
    return [e.frame for e in entries], [e.identity for e in entries], box_columns(ltwh)


def _frame_overlaps(gt, pred):
    """Per-frame (gt_ids, pred_ids, iou matrix) over every frame with a GT
    or predicted box, in frame order and with ids ascending; shared by
    CLEAR, IDF1 and the HOTA sweep.

    Each side's box columns are built once, and a frame's matrix is
    `iou_columns` of the two sides' blocks of rows for that frame. An
    identity given twice in one frame of a side raises ValueError.
    """
    g_frames, g_ids, g_boxes = _sorted_columns(gt)
    p_frames, p_ids, p_boxes = _sorted_columns(pred)
    out = []
    gb = pb = 0
    for f in sorted(set(g_frames) | set(p_frames)):
        # Frames come in order, so each block starts where the last ended.
        ga, gb = gb, bisect_right(g_frames, f)
        pa, pb = pb, bisect_right(p_frames, f)
        g_block, p_block = g_ids[ga:gb], p_ids[pa:pb]
        if len(set(g_block)) < gb - ga or len(set(p_block)) < pb - pa:
            _raise_repeat(f, g_block, p_block)
        out.append((g_block, p_block, iou_columns(g_boxes[ga:gb], p_boxes[pa:pb])))
    return out


def _raise_repeat(frame, g_ids, p_ids):
    """Raise for the first repeat in one frame's sorted GT, then predicted ids."""
    for side, ids in (("ground truth", g_ids), ("predictions", p_ids)):
        for a, b in zip(ids, ids[1:]):
            if a == b:
                raise ValueError(f"{side}: identity {a} appears twice in frame {frame}")


def hota_levels(per_frame):
    """HOTA and its components at each of the 19 localization levels.

    Per level alpha: frames are matched maximizing match count then total
    IoU over pairs with IoU >= alpha. DetA = TP/(TP+FN+FP). Each matched
    pair c = (g, p) scores A(c) = TPA/(TPA+FNA+FPA), where TPA counts
    frames matching g with p and the FNA/FPA terms count the remaining
    appearances of g and of p; AssA is the mean of A over matches and
    HOTA_alpha = sqrt(DetA * AssA). `per_frame` is `_frame_overlaps(gt,
    pred)`.

    A frame is uncontested when no row and no column of its mask IoU >=
    ALPHAS[0] holds two cells. Each level's mask is a subset of that one,
    so it is one-to-one too, and `solve_matchings` reads it off as the
    matching: a cell is matched at exactly the levels alpha <= its IoU,
    with no solve. One vectorized pass over every frame's cells finds them.

    Each contested frame walks up the levels once. The levels' masks are
    nested, so a frame keeps its matching M up to its floor, the lowest
    IoU over the pairs of M and of the minimum-cost matching
    `solve_matchings` returns with it (which says why M stands while both
    are feasible), and is solved again only at the first level above that
    floor.

    Each pair's span of levels goes into a difference array of integer
    counts per (GT id, predicted id) pair and level. AssA sums one term
    per match with math.fsum, which is correctly rounded in any order.

    Returns the per-level lists (hota, det_a, ass_a, det_re, det_pr).
    """
    n_levels = len(ALPHAS)
    g_rank, p_rank, g_first, p_first, iou, frame, entry_g, entry_p = _cells(per_frame)

    shared = ((np.bincount(entry_g, minlength=len(g_rank))[entry_g] > 1)
              | (np.bincount(entry_p, minlength=len(p_rank))[entry_p] > 1))
    contested = np.zeros(len(per_frame), dtype=bool)
    contested[frame[shared]] = True
    easy = ~contested[frame]

    # Spans of contested frames, one entry in each list: GT entry,
    # predicted entry, low and high; the pair is matched at the levels
    # [low, high).
    span_g, span_p, lows, highs = [], [], [], []
    for k in np.flatnonzero(contested).tolist():
        ious = per_frame[k][2]
        g0, p0 = int(g_first[k]), int(p_first[k])
        level = 0
        while level < n_levels:
            matches, optimal = solve_matchings(
                np.where(ious >= ALPHAS[level], 1.0 - ious, INFEASIBLE))
            floor = min((ious[i, j] for i, j in matches + optimal), default=math.inf)
            top = bisect_right(ALPHAS, floor)
            for i, j in matches:
                span_g.append(g0 + i)
                span_p.append(p0 + j)
            lows += [level] * len(matches)
            highs += [top] * len(matches)
            level = top
    # An uncontested cell is matched at the levels alpha <= its IoU.
    tops = np.searchsorted(np.array(ALPHAS), iou[easy], side="right")
    span_g = np.concatenate([entry_g[easy], np.array(span_g, dtype=np.int64)])
    span_p = np.concatenate([entry_p[easy], np.array(span_p, dtype=np.int64)])
    lows = np.concatenate([np.zeros_like(tops), np.array(lows, dtype=np.int64)])
    highs = np.concatenate([tops, np.array(highs, dtype=np.int64)])

    # counts[pair, level]: the frames that match the pair at that level.
    gt_count, pred_count = np.bincount(g_rank), np.bincount(p_rank)
    n_pred = len(pred_count)
    pairs, pair_of_span = np.unique(g_rank[span_g] * n_pred + p_rank[span_p],
                                    return_inverse=True)
    stride = n_levels + 1
    bins = len(pairs) * stride
    diff = (np.bincount(pair_of_span * stride + lows, minlength=bins)
            - np.bincount(pair_of_span * stride + highs, minlength=bins))
    counts = np.cumsum(diff.reshape(len(pairs), stride), axis=1)[:, :n_levels]
    g_of_pair, p_of_pair = np.divmod(pairs, n_pred)
    appearances = gt_count[g_of_pair] + pred_count[p_of_pair]
    # int64 -> float64 is exact below 2**53, so each term equals Python's
    # int division.
    pair_scores = counts / (appearances[:, None] - counts)

    per_level = []
    for level, tp in enumerate(counts.sum(axis=0).tolist()):
        fn = len(g_rank) - tp
        fp = len(p_rank) - tp
        det_a = tp / (tp + fn + fp) if tp + fn + fp else 0.0
        det_re = tp / (tp + fn) if tp + fn else 0.0
        det_pr = tp / (tp + fp) if tp + fp else 0.0
        if tp:
            ass_a = math.fsum(np.repeat(pair_scores[:, level],
                                        counts[:, level]).tolist()) / tp
        else:
            ass_a = 0.0
        per_level.append((math.sqrt(det_a * ass_a), det_a, ass_a, det_re, det_pr))
    return tuple(list(values) for values in zip(*per_level))


def hota(per_frame):
    """HOTA and its components, the means of `hota_levels` over the 19
    localization levels.

    Returns (hota, det_a, ass_a, det_re, det_pr).
    """
    return tuple(math.fsum(values) / len(ALPHAS) for values in hota_levels(per_frame))


def evaluate(gt, pred) -> EvalReport:
    """Full evaluation of a predicted sequence against ground truth.

    MOTA is 1 - (FN + FP + IDSW) / |GT|; `frag_count` is how often a GT
    trajectory's coverage is interrupted and resumed.
    """
    if not gt:
        raise ValueError("evaluation requires at least one ground-truth box")
    per_frame = _frame_overlaps(gt, pred)
    fn, fp, idsw, frag = _clear_sequence(per_frame)
    hota_value, det_a, ass_a, det_re, det_pr = hota(per_frame)
    return EvalReport(
        hota=hota_value,
        mota=1.0 - (fn + fp + idsw) / len(gt),
        idf1=idf1(per_frame),
        det_re=det_re,
        det_pr=det_pr,
        det_a=det_a,
        ass_a=ass_a,
        fn_count=fn,
        fp_count=fp,
        idsw_count=idsw,
        frag_count=frag,
    )


def score(report: EvalReport) -> float:
    """Aggregate fitness: HOTA + MOTA + IDF1, equally weighted."""
    return report.hota + report.mota + report.idf1


def average_reports(reports) -> EvalReport:
    """Mean of the rate fields across sub-scenes; error counts are summed."""
    if not reports:
        raise ValueError("cannot average an empty list of reports")
    values = {}
    for f in fields(EvalReport):
        column = [getattr(r, f.name) for r in reports]
        if f.name.endswith("_count"):
            values[f.name] = sum(column)
        else:
            values[f.name] = math.fsum(column) / len(column)
    return EvalReport(**values)
