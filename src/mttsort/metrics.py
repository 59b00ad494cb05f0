"""Tracking evaluation: CLEAR counts (MOTA), IDF1, the HOTA family,
fragmentations, and the scalar fitness score used by the optimizer.

`evaluate` reads its `GtEntry` lists once, into one overlap table built
from box columns: for each frame with a GT or predicted box, the GT and
the predicted identities in ascending order and their IoU matrix, held as
columns over the frames and one flat array of every matrix, filled by one
batched kernel call per block shape. A frame's matrix is a view made only
where a frame is walked or solved. `_cells` turns the flat array once
into one table of its live cells with every identity as a dense int64
rank, and CLEAR, IDF1 and HOTA all read it. IDF1 is one `np.bincount` of
rank pairs and one assignment.

CLEAR walks only its contested frames, those where some GT or predicted
entry holds two cells with IoU >= 0.5. In any other frame those cells are
one-to-one, and they are the frame's matches whatever the prior
correspondence: a kept correspondence is one of them, and the rest are
forced. The prior decides only which matches are identity switches, and
those are counted over all matches at once, each against the previous
match of its GT identity.

HOTA's matching at a frame's uncontested levels, those whose mask holds
no two cells in one row or one column, is its mask. A contested frame is
read off too when one side certifies it: each of that side's entries has
its best cell (highest IoU) apart from the other entries' bests, every
other cell of the entry costs more than 3 tie windows above that best,
and no IoU exceeds 1. Its matching at each contested level is then the
best cells in the mask, alone in `solve_matchings`' tie window with a
margin for the refine's check (`hota_levels` gives the proof). Only a
frame that neither side certifies is solved, at its contested levels,
once per span of levels its matching holds. The matches accumulate as
integer counts per (GT rank, predicted rank) pair and level, which
`hota_levels` reports level by level and `hota` averages.

All final ratios are built from integer event counts, and sums use
math.fsum over exact terms, so results are bit-reproducible and safe to
compare against enumeration oracles.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, fields
from itertools import compress, islice
from operator import attrgetter, eq
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .association import _TIE_RTOL, INFEASIBLE, solve_assignment, solve_matchings
from .model import BoundingBox, block_ious, box_columns

# Per-frame GT/prediction overlap threshold for CLEAR and identity metrics.
MATCH_IOU = 0.5

# Localization thresholds HOTA integrates over.
ALPHAS = [k * 0.05 for k in range(1, 20)]
_ALPHA_ARRAY = np.array(ALPHAS)


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
    ascending order, each distinct, and `ious` their overlap matrix, one
    frame of `_frame_overlaps`; the prior correspondence maps each GT
    identity to the predicted id it was most recently matched with.
    Correspondences still overlapping with a finite IoU >= 0.5 are kept; the
    remainder is matched by minimum (1 - IoU) assignment subject to the
    same threshold. Only the cells of the prior correspondences are read
    one by one.

    Returns (matches, fn, fp, idsw) where matches is a list of (row,
    column) positions in `ious` sorted by row, that is by GT identity, and
    idsw counts matches whose predicted id differs from the prior one. A
    kept match never does, so only the assigned ones are checked.
    """
    pred_index = {pid: j for j, pid in enumerate(p_ids)}

    matches: list[tuple[int, int]] = []
    used_cols: set[int] = set()
    remaining_gt = []
    for i, gid in enumerate(g_ids):
        j = pred_index.get(prior_correspondence.get(gid))
        if j is not None and j not in used_cols and MATCH_IOU <= ious.item(i, j) < math.inf:
            matches.append((i, j))
            used_cols.add(j)
        else:
            remaining_gt.append(i)
    remaining_pred = [j for j in range(len(p_ids)) if j not in used_cols]

    idsw = 0
    if remaining_gt and remaining_pred:
        overlaps = ious[np.ix_(remaining_gt, remaining_pred)]
        cost = np.where(overlaps >= MATCH_IOU, 1.0 - overlaps, INFEASIBLE)
        assigned, _, _ = solve_assignment(cost)
        for a, b in assigned:
            i, j = remaining_gt[a], remaining_pred[b]
            matches.append((i, j))
            idsw += prior_correspondence.get(g_ids[i]) not in (None, p_ids[j])
        # The kept matches are in row order already.
        matches.sort()
    # Each identity is matched at most once.
    return matches, len(g_ids) - len(matches), len(p_ids) - len(matches), idsw


class _Overlaps(NamedTuple):
    """The overlap table (`_frame_overlaps`), as columns over its frames.

    g_ids and p_ids are every frame's GT and predicted identities, frame
    after frame and ascending within a frame, as Python integers; frame k
    holds rows[k] GT entries from g_first[k] and cols[k] predicted entries
    from p_first[k]; and flat holds each frame's IoU matrix in row-major
    order from starts[k].
    """

    g_ids: list
    p_ids: list
    rows: np.ndarray
    cols: np.ndarray
    g_first: np.ndarray
    p_first: np.ndarray
    starts: np.ndarray
    flat: np.ndarray

    def views(self, frames):
        """For each frame index of the int64 array `frames`, in order: its
        first GT and first predicted entry, its GT and predicted ids, and
        its IoU matrix, a view of `flat`."""
        g_ids, p_ids, flat = self.g_ids, self.p_ids, self.flat
        for ga, r, pa, c, s in zip(*(column[frames].tolist() for column in (
                self.g_first, self.rows, self.p_first, self.cols, self.starts))):
            yield (ga, pa, g_ids[ga:ga + r], p_ids[pa:pa + c],
                   flat[s:s + r * c].reshape(r, c))


class _Cells(NamedTuple):
    """The table CLEAR, IDF1 and HOTA read (`_cells`).

    Entries are numbered in table order (frame by frame, ids ascending).
    table is the overlap table; g_rank and p_rank each GT and predicted
    entry's identity as a dense int64 rank in order of first appearance,
    so identities stay any Python integers; and iou, frame, entry_g and
    entry_p the IoU, frame, GT entry and predicted entry of each live cell
    (ALPHAS[0] <= IoU < inf), in table order.
    """

    table: _Overlaps
    g_rank: np.ndarray
    p_rank: np.ndarray
    iou: np.ndarray
    frame: np.ndarray
    entry_g: np.ndarray
    entry_p: np.ndarray


def _cells(table: _Overlaps) -> _Cells:
    """The `_Cells` of an overlap table."""
    ranks = []
    for ids in (table.g_ids, table.p_ids):
        rank = {}
        ranks.append(np.array([rank.setdefault(i, len(rank)) for i in ids], dtype=np.int64))
    cols, starts = table.cols, table.starts
    live = np.flatnonzero((table.flat >= ALPHAS[0]) & (table.flat < np.inf))
    frame = np.searchsorted(starts, live, side="right") - 1
    local = live - starts[frame]
    entry_g = table.g_first[frame] + local // cols[frame]
    entry_p = table.p_first[frame] + local % cols[frame]
    return _Cells(table, *ranks, table.flat[live], frame, entry_g, entry_p)


def clear_counts(cells: _Cells):
    """CLEAR counts and fragmentations over a whole sequence: (fn, fp,
    idsw, frag). `cells` is the `_cells` table of the overlap table.

    A frame is contested when some GT or predicted entry holds two hit
    cells (IoU >= 0.5); the other frames' matches are their hit cells. The
    contested frames are walked in order with `clear_match`, against one
    prior correspondence that takes in every match of the frames before.

    FN and FP are the entries left unmatched. Taking each GT identity's
    entries in frame order, a match is an identity switch when the
    previous match has another predicted identity, and a fragmentation
    when it starts a run of matched entries after the first such run.
    """
    table, g_rank, p_rank = cells.table, cells.g_rank, cells.p_rank
    hit = cells.iou >= MATCH_IOU
    hit_g, hit_p, hit_frame = cells.entry_g[hit], cells.entry_p[hit], cells.frame[hit]

    contested = np.zeros(len(table.rows), dtype=bool)
    for entry, n in ((hit_g, len(g_rank)), (hit_p, len(p_rank))):
        contested[hit_frame[np.bincount(entry, minlength=n)[entry] > 1]] = True
    walked = np.flatnonzero(contested)
    # A hit cell of an uncontested frame is alone in its row and column.
    lone = ~contested[hit_frame]
    lone_g, lone_p = hit_g[lone], hit_p[lone]

    # Before each walked frame, the prior takes in the uncontested matches
    # of the frames since the one walked before it, then that frame's.
    bounds = np.searchsorted(hit_frame[lone], walked).tolist()
    g_ids, p_ids = table.g_ids, table.p_ids
    lone_ids = zip(map(g_ids.__getitem__, lone_g.tolist()),
                   map(p_ids.__getitem__, lone_p.tolist()))
    prior: dict[int, int] = {}
    walked_g, walked_p = [], []
    done = 0
    for bound, (ga, pa, frame_g, frame_p, ious) in zip(bounds, table.views(walked)):
        prior.update(islice(lone_ids, bound - done))
        done = bound
        for i, j in clear_match(frame_g, frame_p, ious, prior)[0]:
            prior[frame_g[i]] = frame_p[j]
            walked_g.append(ga + i)
            walked_p.append(pa + j)

    match = np.full(len(g_rank), -1, dtype=np.int64)
    match[lone_g] = lone_p
    match[walked_g] = walked_p
    matched = match >= 0
    n_matches = int(np.count_nonzero(matched))

    # Each GT identity's entries, in frame order.
    order = np.argsort(g_rank, kind="stable")
    ranks, is_match = g_rank[order], matched[order]
    follows_match = np.zeros(len(order), dtype=bool)
    follows_match[1:] = is_match[:-1] & (ranks[1:] == ranks[:-1])
    runs = np.count_nonzero(is_match & ~follows_match)
    frag = runs - np.count_nonzero(np.bincount(ranks[is_match]))

    in_order = order[is_match]
    match_g, match_p = g_rank[in_order], p_rank[match[in_order]]
    idsw = np.count_nonzero((match_g[1:] == match_g[:-1]) & (match_p[1:] != match_p[:-1]))
    return len(g_rank) - n_matches, len(p_rank) - n_matches, int(idsw), int(frag)


def idf1(cells: _Cells) -> float:
    """Identity F1 under the best single global GT<->prediction mapping.

    A GT and a predicted trajectory co-occur on every frame where their
    boxes overlap with IoU >= 0.5; IDTP is the total co-occurrence of the
    best one-to-one mapping, and IDF1 = 2 IDTP / (|GT| + |predicted|),
    or 0.0 on a table with no entries, as `hota` gives zeros there.
    `cells` is the `_cells` table of the overlap table.
    """
    hit = cells.iou >= MATCH_IOU
    g_rank, p_rank = cells.g_rank, cells.p_rank
    idtp = 0
    if hit.any():
        n_gt, n_pred = int(g_rank.max()) + 1, int(p_rank.max()) + 1
        counts = np.bincount(g_rank[cells.entry_g[hit]] * n_pred
                             + p_rank[cells.entry_p[hit]],
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


def _first_repeat(frames, ids):
    """The (frame, identity) of the first entry of sorted (frame,
    identity) columns that repeats the one before it, or None."""
    for i in compress(range(1, len(ids)), map(eq, ids, islice(ids, 1, None))):
        if frames[i] == frames[i - 1]:
            return frames[i], ids[i]
    return None


def _frame_overlaps(gt, pred) -> _Overlaps:
    """The overlap table of `gt` against `pred`, shared by CLEAR, IDF1 and
    the HOTA sweep: the GT and predicted ids and IoU matrix of every frame
    with a GT or predicted box, in frame order and with ids ascending, as
    the columns of an `_Overlaps`.

    Each side's entries are sorted and their box columns built once. Each
    frame with boxes on both sides is one block of `model.block_ious`,
    so its matrix is the bits of `iou_columns` of the two sides' rows for
    that frame, and the batches warn where those per-frame calls would.
    Frames and identities stay Python integers.

    An identity given twice in one frame of a side raises ValueError for
    the first such frame, the ground truth before the predictions; the
    frames before it are computed first, as a frame-by-frame pass would.
    """
    g_frames, g_ids, g_boxes = _sorted_columns(gt)
    p_frames, p_ids, p_boxes = _sorted_columns(pred)
    g_count, p_count = Counter(g_frames), Counter(p_frames)
    frames = sorted(g_count.keys() | p_count.keys())

    g_repeat, p_repeat = _first_repeat(g_frames, g_ids), _first_repeat(p_frames, p_ids)
    repeat = None
    if g_repeat and not (p_repeat and p_repeat[0] < g_repeat[0]):
        repeat = ("ground truth", *g_repeat)
    elif p_repeat:
        repeat = ("predictions", *p_repeat)
    if repeat:
        frames = frames[:bisect_left(frames, repeat[1])]

    rows = np.array([g_count[f] for f in frames], dtype=np.int64)
    cols = np.array([p_count[f] for f in frames], dtype=np.int64)
    g_first, p_first = np.cumsum(rows) - rows, np.cumsum(cols) - cols
    sizes = rows * cols
    starts = np.cumsum(sizes) - sizes
    flat = np.empty(int(sizes.sum()))
    for blocks, ious in block_ious(g_boxes, g_first, rows, p_boxes, p_first, cols):
        k, r, c = ious.shape
        flat[starts[blocks, None] + np.arange(r * c)] = ious.reshape(k, r * c)
    if repeat:
        side, frame, identity = repeat
        raise ValueError(f"{side}: identity {identity} appears twice in frame {frame}")
    return _Overlaps(g_ids, p_ids, rows, cols, g_first, p_first, starts, flat)


def _split(a):
    """Veltkamp's split of float64 `a` into hi + lo == a, each of at most
    26 significant bits."""
    scaled = 134217729.0 * a  # 2**27 + 1
    hi = scaled - (scaled - a)
    return hi, a - hi


def _product_sums(counts, scores):
    """For each column l of the (P, L) arrays, the math.fsum of counts[p, l]
    copies of scores[p, l] over the rows p, without the copies.

    Dekker's TwoProduct writes each count * score exactly as hi + lo
    (hi the rounded product, lo its error), one vectorized pass over all
    rows and columns, and each column's sum is math.fsum of its his and
    los. math.fsum is correctly rounded, and both term lists sum exactly
    to the same real, so the bits are those of the repeated sum. Exact for
    counts below 2**53 and scores in [0, 1] whose nonzero products stay
    far from underflow, as HOTA's are: k / (n - k) with 1 <= k <= n / 2.
    """
    a = counts.astype(float)
    hi = a * scores
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _split(scores)
    lo = a_lo * s_lo - (((hi - a_hi * s_hi) - a_lo * s_hi) - a_hi * s_lo)
    return [math.fsum(terms) for terms in np.concatenate([hi, lo]).T.tolist()]


def _contested_levels(cells: _Cells):
    """Which of the table's frames `hota_levels` solves, and where: (free,
    read, walked).

    free[f] counts frame f's contested levels, the levels alpha <= its
    conflict value, the largest IoU that is not the largest of its row or
    of its column. read marks the live cells read off a certificate, each
    the best cell of its certifying side's entry. walked holds, ascending,
    the frames with contested levels that neither side certifies.

    A side, say the GT rows, certifies its frame when each row's best live
    cell lies in a column of its own, every other live cell of the row
    costs (1 - IoU) more than 3 * tol above it, where tol = _TIE_RTOL *
    max(1, sum of the best cells' costs) is the tie window
    `solve_matchings` takes at the first level, and no live IoU of the
    frame exceeds 1. The rows are asked first, then the columns.
    """
    table, _, _, iou, frame, entry_g, entry_p = cells
    n_frames = len(table.rows)
    # A live IoU above 1 is a negative cost, for which the tie window can
    # grow as cells drop: such a frame is walked, and its costs are
    # clipped here only to keep them finite.
    in_range = np.bincount(frame[iou > 1.0], minlength=n_frames) == 0
    cost = 1.0 - np.minimum(iou, 1.0)

    # Sorting a side's cells by entry, then IoU, puts each entry's best
    # cell last, with the runner-up of its row or column just before it.
    free = np.zeros(n_frames, dtype=np.int64)
    bests, certified = [], []
    for entry, other in ((entry_g, entry_p), (entry_p, entry_g)):
        order = np.lexsort((iou, entry))
        below = entry[order[1:]] == entry[order[:-1]]
        shadowed = order[:-1][below]
        np.maximum.at(free, frame[shadowed],
                      np.searchsorted(_ALPHA_ARRAY, iou[shadowed], side="right"))
        last = np.ones(len(order), dtype=bool)
        last[:-1] = ~below
        best = order[last]
        runner_up = below & last[1:]
        lead, second = order[1:][runner_up], order[:-1][runner_up]
        tol = _TIE_RTOL * np.maximum(
            1.0, np.bincount(frame[best], weights=cost[best], minlength=n_frames))
        sure = in_range.copy()
        sure[frame[lead][cost[second] - cost[lead] <= 3.0 * tol[frame[lead]]]] = False
        sure[frame[best][np.bincount(other[best])[other[best]] > 1]] = False
        bests.append(best)
        certified.append(sure)

    read = np.zeros(len(iou), dtype=bool)
    (g_best, p_best), (g_sure, p_sure) = bests, certified
    read[g_best[g_sure[frame[g_best]]]] = True
    read[p_best[(p_sure & ~g_sure)[frame[p_best]]]] = True
    return free, read, np.flatnonzero((free > 0) & ~g_sure & ~p_sure)


def hota_levels(cells: _Cells):
    """HOTA and its components at each of the 19 localization levels.

    Per level alpha: frames are matched maximizing match count then total
    IoU over pairs with IoU >= alpha. DetA = TP/(TP+FN+FP). Each matched
    pair c = (g, p) scores A(c) = TPA/(TPA+FNA+FPA), where TPA counts
    frames matching g with p and the FNA/FPA terms count the remaining
    appearances of g and of p; AssA is the mean of A over matches and
    HOTA_alpha = sqrt(DetA * AssA). `cells` is the `_cells` table of the
    overlap table.

    A frame's level is contested when some row or column of its mask
    IoU >= alpha holds two cells. The masks are nested, so a frame's
    contested levels are a prefix [0, free) of the levels: free counts
    the levels alpha <= the largest second-largest live IoU of any of the
    frame's rows or columns, one vectorized pass over every frame's
    cells (`_contested_levels`). From free up, each mask is one-to-one and
    is its own matching, as `solve_matchings` would read it off: a cell is
    matched at the levels from free up to the last alpha <= its IoU, with
    no solve.

    Most contested frames are certified by one side, as
    `_contested_levels` says, and read off with no solve: at each
    contested level the matching is that side's best cells with IoU >=
    alpha, so each best cell is matched at every level alpha <= its IoU.
    Say the rows certify. The mask's nonempty rows are those whose best
    cell is in it, and those cells, in distinct columns, match every one
    of them: the maximum count. Another matching of that count moves some
    d >= 1 rows off their best cells, each by more than 3 * tol, so it
    costs more than 3 * tol * d above; it is outside the tie window, and
    even after the refine's check raises each best cell by 2 * tol it
    stays more than tol * d above. So this matching is the one
    `solve_matchings` returns, as both of its matchings. A higher level
    only drops rows and cells, and with costs in [0, 1) the total, so tol
    with it, only falls. Rounding in these sums is far below the margin.

    Any other frame with contested levels walks them once. It keeps its
    matching M up to its floor, the lowest IoU over the pairs of M and of
    the minimum-cost matching `solve_matchings` returns with it (which
    says why M stands while both are feasible), and is solved again only
    at the first level above that floor, until it reaches free.

    Each pair's span of levels goes into a difference array of integer
    counts per (GT id, predicted id) pair and level. A level's AssA sums
    each pair's count times its score, as exact products
    (`_product_sums`) with math.fsum, which is correctly rounded.

    Returns the per-level lists (hota, det_a, ass_a, det_re, det_pr).
    """
    n_levels = len(ALPHAS)
    table, g_rank, p_rank, iou, frame, entry_g, entry_p = cells
    free, read, walked = _contested_levels(cells)

    # Spans of contested levels, one entry in each list: GT entry,
    # predicted entry, low and high; the pair is matched at the levels
    # [low, high).
    span_g, span_p, lows, highs = [], [], [], []
    for stop, (g0, p0, _, _, ious) in zip(free[walked].tolist(), table.views(walked)):
        level = 0
        while level < stop:
            matches, optimal = solve_matchings(
                np.where(ious >= ALPHAS[level], 1.0 - ious, INFEASIBLE))
            # A contested level's mask holds a cell, so both are nonempty.
            rows, cols = zip(*(matches + optimal))
            top = min(bisect_right(ALPHAS, ious[rows, cols].min()), stop)
            for i, j in matches:
                span_g.append(g0 + i)
                span_p.append(p0 + j)
            lows += [level] * len(matches)
            highs += [top] * len(matches)
            level = top
    # From its frame's free level up, or from the first level when it is
    # read off a certificate, a cell is matched at the levels alpha <= its
    # IoU.
    tops = np.searchsorted(_ALPHA_ARRAY, iou, side="right")
    bottoms = free[frame]
    bottoms[read] = 0
    tail = tops > bottoms
    span_g = np.concatenate([entry_g[tail], np.array(span_g, dtype=np.int64)])
    span_p = np.concatenate([entry_p[tail], np.array(span_p, dtype=np.int64)])
    lows = np.concatenate([bottoms[tail], np.array(lows, dtype=np.int64)])
    highs = np.concatenate([tops[tail], np.array(highs, dtype=np.int64)])

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
    ass_sums = _product_sums(counts, pair_scores)

    per_level = []
    for tp, ass_sum in zip(counts.sum(axis=0).tolist(), ass_sums):
        fn = len(g_rank) - tp
        fp = len(p_rank) - tp
        det_a = tp / (tp + fn + fp) if tp + fn + fp else 0.0
        det_re = tp / (tp + fn) if tp + fn else 0.0
        det_pr = tp / (tp + fp) if tp + fp else 0.0
        ass_a = ass_sum / tp if tp else 0.0
        per_level.append((math.sqrt(det_a * ass_a), det_a, ass_a, det_re, det_pr))
    return tuple(list(values) for values in zip(*per_level))


def hota(cells: _Cells):
    """HOTA and its components, the means of `hota_levels` over the 19
    localization levels.

    Returns (hota, det_a, ass_a, det_re, det_pr).
    """
    return tuple(math.fsum(values) / len(ALPHAS) for values in hota_levels(cells))


def evaluate(gt, pred) -> EvalReport:
    """Full evaluation of a predicted sequence against ground truth.

    MOTA is 1 - (FN + FP + IDSW) / |GT|; `frag_count` is how often a GT
    trajectory's coverage is interrupted and resumed. One overlap table
    and one `_cells` table of it feed CLEAR, HOTA and IDF1.
    """
    if not gt:
        raise ValueError("evaluation requires at least one ground-truth box")
    cells = _cells(_frame_overlaps(gt, pred))
    fn, fp, idsw, frag = clear_counts(cells)
    hota_value, det_a, ass_a, det_re, det_pr = hota(cells)
    return EvalReport(
        hota=hota_value,
        mota=1.0 - (fn + fp + idsw) / len(gt),
        idf1=idf1(cells),
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
