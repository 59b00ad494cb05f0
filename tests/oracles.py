"""Independent brute-force reference computations used by the tests.

Everything here is deliberately written as literal enumeration over
definitions (permutations, full-sequence scans) rather than reusing the
library's incremental bookkeeping, so agreement is meaningful. Box inputs
in oracle comparisons use integer coordinates, which keeps every IoU an
exact small rational and makes float equality exact.
"""

import dataclasses
import itertools
import math

import numpy as np

TIE_TOL = 1e-9


def box_iou(a, b):
    ax2, ay2 = a.left + a.width, a.top + a.height
    bx2, by2 = b.left + b.width, b.top + b.height
    iw = min(ax2, bx2) - max(a.left, b.left)
    ih = min(ay2, by2) - max(a.top, b.top)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.width * a.height + b.width * b.height - inter)


def best_matching(gt_items, pred_items, alpha):
    """All-permutations matching: most pairs with IoU >= alpha, then the
    lowest total (1 - IoU), then the lexicographically smallest index set.

    Items are (identity, box) lists; returns index pairs (i, j).
    """
    n, m = len(gt_items), len(pred_items)
    if n == 0 or m == 0:
        return []
    best = None
    if n <= m:
        perms = itertools.permutations(range(m), n)

        def pairs_of(perm):
            return [(i, perm[i]) for i in range(n)]
    else:
        perms = itertools.permutations(range(n), m)

        def pairs_of(perm):
            return sorted((perm[j], j) for j in range(m))

    for perm in perms:
        kept = []
        total = 0.0
        for i, j in pairs_of(perm):
            overlap = box_iou(gt_items[i][1], pred_items[j][1])
            if overlap >= alpha:
                kept.append((i, j))
                total += 1.0 - overlap
        if best is None:
            best = (len(kept), total, kept)
            continue
        count, b_total, b_kept = best
        if len(kept) != count:
            if len(kept) > count:
                best = (len(kept), total, kept)
            continue
        tol = TIE_TOL * max(1.0, abs(b_total))
        if total < b_total - tol:
            best = (len(kept), total, kept)
        elif abs(total - b_total) <= tol and kept < b_kept:
            best = (len(kept), total, kept)
    return best[2]


def bits(value):
    """A key that two values share iff they are equal bit for bit, types
    included: floats by their hex, arrays by dtype, shape and bytes, and
    lists, tuples and dataclasses field by field."""
    if isinstance(value, float):
        return "float", value.hex()
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, tuple(bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return type(value).__name__, value


def ltwh_from_centers(centers: np.ndarray) -> np.ndarray:
    """The (left, top, width, height) rows that `BoundingBox.from_center`
    makes of (cx, cy, aspect, height) rows, unchecked (see `box_rows`): a
    state far out of range gives inf or NaN fields, not a numpy warning."""
    ltwh = np.empty((len(centers), 4))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(centers[:, 2], centers[:, 3], out=ltwh[:, 2])
        ltwh[:, 3] = centers[:, 3]
        np.subtract(centers[:, :2], ltwh[:, 2:] / 2.0, out=ltwh[:, :2])
    return ltwh


def center_box_rows_oracle(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`box_rows` of the (left, top, width, height) rows that
    `BoundingBox.from_center` makes of (cx, cy, aspect, height) rows, in
    one pass with the same operations in the same order: width is aspect
    * height, left and top are cx - width / 2 and cy - height / 2. A state
    far out of range gives inf or NaN columns and an invalid row, not a
    numpy warning."""
    n = len(centers)
    sides = np.empty((n, 2))
    boxes = np.empty((n, 5))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(centers[:, 2], centers[:, 3], out=sides[:, 0])
        sides[:, 1] = centers[:, 3]
        np.subtract(centers[:, :2], sides / 2.0, out=boxes[:, :2])
        np.add(boxes[:, :2], sides, out=boxes[:, 2:4])
        np.multiply(sides[:, 0], sides[:, 1], out=boxes[:, 4])
        valid = np.isfinite(boxes).all(axis=1) & (boxes[:, 4] > 0) & (sides[:, 1] > 0)
    return boxes, valid


def frame_overlap_oracle(boxes):
    """The `overlap` column of one frame's (n, 5) box columns, the frame
    alone: each row's largest `iou_columns` value with another row, the
    diagonal left out, the first NaN if one is NaN, -inf for a row with
    no other row."""
    from mttsort.model import iou_columns

    with np.errstate(all="ignore"):
        ious = iou_columns(boxes, boxes).tolist()
    overlap = []
    for i, row in enumerate(ious):
        others = row[:i] + row[i + 1:]
        nans = [v for v in others if math.isnan(v)]
        overlap.append(nans[0] if nans else max(others, default=-math.inf))
    return np.array(overlap, dtype=float)


def stream_columns_oracle(detections):
    """The frames and the columns of a list of detections, sorted by frame
    and then by descending confidence, both stable: the column build from
    detection objects that the tracker used before detection tables, with
    each frame's `overlap` column computed for that frame alone."""
    from mttsort.model import FrameDetections, box_columns, center_columns

    detections = tuple(detections)
    frames = np.array([d.frame for d in detections], dtype=np.int64)
    confidence = np.array([d.confidence for d in detections], dtype=float)
    order = np.argsort(-confidence, kind="stable")
    order = order[np.argsort(frames[order], kind="stable")]
    detections = tuple(detections[i] for i in order.tolist())
    n = len(detections)
    ltwh = np.array([(d.box.left, d.box.top, d.box.width, d.box.height)
                     for d in detections], dtype=float).reshape(n, 4)
    embeddings = (np.array([d.embedding for d in detections], dtype=float)
                  .reshape(n, -1) if n else np.zeros((0, 0)))
    boxes = box_columns(ltwh)
    overlap, start = [np.zeros(0)], 0
    for _, rows in itertools.groupby(frames[order].tolist()):
        size = len(list(rows))
        overlap.append(frame_overlap_oracle(boxes[start:start + size]))
        start += size
    return frames[order], FrameDetections(
        None, confidence[order], boxes, center_columns(ltwh), embeddings,
        np.concatenate(overlap))


def entry_columns_oracle(entries):
    """The frames and identities of `entries` sorted on (frame, identity)
    tuple keys, a stable sort, and the (left, top, right, bottom, area)
    rows of their boxes in that order, built from one tuple per entry."""
    from mttsort.model import box_columns

    entries = sorted(entries, key=lambda e: (e.frame, e.identity))
    ltwh = np.array([(e.box.left, e.box.top, e.box.width, e.box.height)
                     for e in entries], dtype=float).reshape(len(entries), 4)
    return [e.frame for e in entries], [e.identity for e in entries], box_columns(ltwh)


def frame_overlaps_oracle(gt, pred):
    """Per-frame (gt_ids, pred_ids, iou matrix) over every frame with a GT
    or predicted box, in frame order and with ids ascending; shared by
    CLEAR, IDF1 and the HOTA sweep.

    Each side's box columns are built once, and a frame's matrix is
    `iou_columns` of the two sides' blocks of rows for that frame. An
    identity given twice in one frame of a side raises ValueError.
    """
    from bisect import bisect_right

    from mttsort.metrics import _sorted_columns
    from mttsort.model import iou_columns

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


def write_results_oracle(results, path):
    """Write FrameResults as result rows: one (frame, id, box, confidence)
    tuple per record, sorted stably on (frame, id) tuple keys."""
    from mttsort.seqio import _box_fields

    rows = []
    for res in results:
        for track_id, box, confidence in res.records:
            rows.append((res.frame, track_id, box, confidence))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8") as fh:
        for frame, track_id, box, confidence in rows:
            fh.write(f"{frame},{track_id},{_box_fields(box)},{confidence:.2f},-1,-1,-1\n")


def _frames_sorted(entries):
    frames = {}
    for e in entries:
        frames.setdefault(e.frame, []).append((e.identity, e.box))
    for items in frames.values():
        items.sort(key=lambda item: item[0])
    return frames


def idf1_oracle(gt, pred):
    """IDF1 by enumerating every injective GT-to-prediction mapping."""
    gt_frames = _frames_sorted(gt)
    pred_frames = _frames_sorted(pred)
    cooccur = {}
    for f, gt_items in gt_frames.items():
        for gid, gbox in gt_items:
            for pid, pbox in pred_frames.get(f, []):
                if box_iou(gbox, pbox) >= 0.5:
                    cooccur[(gid, pid)] = cooccur.get((gid, pid), 0) + 1
    gt_ids = sorted({e.identity for e in gt})
    pred_ids = sorted({e.identity for e in pred})
    slots = pred_ids + [None] * len(gt_ids)
    idtp = 0
    for chosen in itertools.permutations(slots, len(gt_ids)):
        total = sum(cooccur.get((g, p), 0)
                    for g, p in zip(gt_ids, chosen) if p is not None)
        idtp = max(idtp, total)
    idfp = len(pred) - idtp
    idfn = len(gt) - idtp
    return 2 * idtp / (2 * idtp + idfp + idfn)


def injective_mappings(domain, codomain):
    """Every partial injective mapping of `domain` into `codomain`, as a
    list of (element, image) pairs; an element may stay unmapped."""
    if not domain:
        yield []
        return
    head, rest = domain[0], domain[1:]
    yield from injective_mappings(rest, codomain)
    for k, image in enumerate(codomain):
        for tail in injective_mappings(rest, codomain[:k] + codomain[k + 1:]):
            yield [(head, image)] + tail


def idf1_table_oracle(tables):
    """IDF1 of per-frame (gt_ids, pred_ids, ious) tables: co-occurrences
    counted cell by cell, then every injective GT-to-prediction mapping
    enumerated; 0.0 on a table with no entries."""
    cooccur = {}
    n_gt = n_pred = 0
    for g_ids, p_ids, ious in tables:
        n_gt += len(g_ids)
        n_pred += len(p_ids)
        for i, gid in enumerate(g_ids):
            for j, pid in enumerate(p_ids):
                if ious[i][j] >= 0.5:
                    cooccur[(gid, pid)] = cooccur.get((gid, pid), 0) + 1
    gt_ids = sorted({gid for g_ids, _, _ in tables for gid in g_ids})
    pred_ids = sorted({pid for _, p_ids, _ in tables for pid in p_ids})
    idtp = max(sum(cooccur.get(pair, 0) for pair in mapping)
               for mapping in injective_mappings(gt_ids, pred_ids))
    if not n_gt + n_pred:
        return 0.0
    idfp = n_pred - idtp
    idfn = n_gt - idtp
    return 2 * idtp / (2 * idtp + idfp + idfn)


def assa_oracle(gt, pred):
    """Mean association accuracy over the 19 alpha levels.

    For every matched pair c = (g, p) at a level, TPA/FNA/FPA are counted
    by scanning the entire sequence's match and appearance sets.
    """
    gt_frames = _frames_sorted(gt)
    pred_frames = _frames_sorted(pred)
    frames = sorted(set(gt_frames) | set(pred_frames))
    levels = []
    for k in range(1, 20):
        alpha = k * 0.05
        matched = []  # (frame, gid, pid)
        for f in frames:
            gt_items = gt_frames.get(f, [])
            pred_items = pred_frames.get(f, [])
            for i, j in best_matching(gt_items, pred_items, alpha):
                matched.append((f, gt_items[i][0], pred_items[j][0]))
        if not matched:
            levels.append(0.0)
            continue
        scores = []
        for _, gid, pid in matched:
            tpa = sum(1 for _, g, p in matched if g == gid and p == pid)
            fna = sum(1 for e in gt if e.identity == gid) - tpa
            fpa = sum(1 for e in pred if e.identity == pid) - tpa
            scores.append(tpa / (tpa + fna + fpa))
        levels.append(math.fsum(scores) / len(scores))
    return math.fsum(levels) / 19


def clear_oracle(gt, pred):
    """CLEAR counts and fragmentations (fn, fp, idsw, frag) by literal
    per-frame bookkeeping. A fragmentation is a GT identity matched again
    after a frame where it was present and unmatched, following a match."""
    gt_frames = _frames_sorted(gt)
    pred_frames = _frames_sorted(pred)
    frames = sorted(set(gt_frames) | set(pred_frames))
    prior = {}
    fn = fp = idsw = frag = 0
    # GT identities matched at least once, and those among them present
    # and unmatched since their last match.
    ever_matched, in_gap = set(), set()
    for f in frames:
        gt_items = gt_frames.get(f, [])
        pred_items = pred_frames.get(f, [])
        pred_boxes = dict(pred_items)
        matches = []
        taken = set()
        rest_gt = []
        for gid, box in gt_items:
            pid = prior.get(gid)
            if (pid is not None and pid in pred_boxes and pid not in taken
                    and box_iou(box, pred_boxes[pid]) >= 0.5):
                matches.append((gid, pid))
                taken.add(pid)
            else:
                rest_gt.append((gid, box))
        rest_pred = [(pid, box) for pid, box in pred_items if pid not in taken]
        for i, j in best_matching(rest_gt, rest_pred, 0.5):
            matches.append((rest_gt[i][0], rest_pred[j][0]))
        matched_g = {g for g, _ in matches}
        matched_p = {p for _, p in matches}
        fn += sum(1 for g, _ in gt_items if g not in matched_g)
        fp += sum(1 for p, _ in pred_items if p not in matched_p)
        for g, p in matches:
            if prior.get(g) not in (None, p):
                idsw += 1
            prior[g] = p
        for g, _ in gt_items:
            if g in matched_g:
                frag += g in in_gap
                in_gap.discard(g)
                ever_matched.add(g)
            elif g in ever_matched:
                in_gap.add(g)
    return fn, fp, idsw, frag


def clear_sequence_oracle(frames):
    """CLEAR counts and fragmentations (fn, fp, idsw, frag) of per-frame
    (gt_ids, pred_ids, ious) tables, with `metrics.clear_match` run on
    every frame in order."""
    from mttsort.metrics import clear_match

    prior = {}
    fn = fp = idsw = frag = 0
    ever_matched = set()
    gap_open = set()
    for g_ids, p_ids, ious in frames:
        matches, fn_f, fp_f, idsw_f = clear_match(g_ids, p_ids, ious, prior)
        fn += fn_f
        fp += fp_f
        idsw += idsw_f
        matched = {g_ids[i] for i, _ in matches}
        for i, j in matches:
            prior[g_ids[i]] = p_ids[j]
        for gid in g_ids:
            if gid in matched:
                if gid in gap_open:
                    frag += 1
                    gap_open.discard(gid)
                ever_matched.add(gid)
            elif gid in ever_matched:
                gap_open.add(gid)
    return fn, fp, idsw, frag


def random_micro_scenario(rng):
    """Small random GT/prediction pair with integer boxes.

    At most 4 frames and 3 identities; predictions include id switches
    mid-sequence, dropped boxes, jitter, and false positives. All
    coordinates are small integers so IoU values are exact rationals.
    """
    from mttsort.metrics import GtEntry
    from mttsort.model import BoundingBox

    n_frames = int(rng.integers(1, 5))
    n_ids = int(rng.integers(1, 4))
    switch_at = {i: int(rng.integers(1, n_frames + 2)) for i in range(1, n_ids + 1)}
    gt, pred = [], []
    for f in range(1, n_frames + 1):
        used = set()
        for i in range(1, n_ids + 1):
            if rng.random() < 0.15:
                continue
            left, top = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            w, h = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            gt.append(GtEntry(f, i, BoundingBox(left, top, w, h)))
            if rng.random() < 0.2:
                continue
            if rng.random() < 0.4:
                dl, dt = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
                dw, dh = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            else:
                dl = dt = dw = dh = 0
            pid = 10 * i + (0 if f < switch_at[i] else 1)
            if pid not in used:
                used.add(pid)
                pred.append(GtEntry(
                    f, pid, BoundingBox(left + dl, top + dt, w + dw, h + dh)))
        for _ in range(int(rng.integers(0, 2))):
            pid = int(rng.integers(90, 99))
            if pid not in used:
                used.add(pid)
                pred.append(GtEntry(f, pid, BoundingBox(
                    int(rng.integers(0, 9)), int(rng.integers(0, 9)),
                    int(rng.integers(2, 7)), int(rng.integers(2, 7)))))
    if not gt:
        gt.append(GtEntry(1, 1, BoundingBox(0, 0, 4, 4)))
    return gt, pred


def assignment_oracle(cost, infeasible):
    """Exhaustive minimum: returns (feasible_count, feasible_total)."""
    n = len(cost)
    m = len(cost[0]) if n else 0
    if n == 0 or m == 0:
        return 0, 0.0
    best_count, best_total = 0, 0.0
    if n <= m:
        perms = itertools.permutations(range(m), n)

        def pairs_of(perm):
            return [(i, perm[i]) for i in range(n)]
    else:
        perms = itertools.permutations(range(n), m)

        def pairs_of(perm):
            return [(perm[j], j) for j in range(m)]

    first = True
    for perm in perms:
        count = 0
        total = 0.0
        for i, j in pairs_of(perm):
            if cost[i][j] != infeasible:
                count += 1
                total += cost[i][j]
        if first or count > best_count or (count == best_count and total < best_total):
            best_count, best_total = count, total
            first = False
    return best_count, best_total


def lexicographic_assignment_oracle(cost, infeasible):
    """Exhaustive optimal assignment itself, not only its size and total.

    Among all one-to-one pair sets over feasible cells: the most pairs,
    then the lowest total (totals within TIE_TOL of the lowest, relative,
    count as tied), then the lexicographically smallest sorted pair list.
    """
    n = len(cost)
    m = len(cost[0]) if n else 0
    if n <= m:
        full = ([(i, perm[i]) for i in range(n)]
                for perm in itertools.permutations(range(m), n))
    else:
        full = ([(perm[j], j) for j in range(m)]
                for perm in itertools.permutations(range(n), m))
    candidates = []
    for pairs in full:
        kept = sorted((i, j) for i, j in pairs if cost[i][j] != infeasible)
        candidates.append((len(kept), math.fsum(cost[i][j] for i, j in kept), kept))
    most = max(count for count, _, _ in candidates)
    lowest = min(total for count, total, _ in candidates if count == most)
    tol = TIE_TOL * max(1.0, abs(lowest))
    return min(kept for count, total, kept in candidates
               if count == most and total <= lowest + tol)


def preprocess_oracle(detections, config):
    """`tracker.preprocess` on a list of Detection objects, as it ran before
    detections became columns: filter by min_confidence, stable-sort by
    descending confidence, build the candidates' IoU matrix with `box_iou`
    from their BoundingBox objects, and keep a box iff its IoU with every
    kept box is <= nms_max_overlap. Returns the kept Detection objects in
    order."""
    candidates = [d for d in detections if d.confidence >= config.min_confidence]
    candidates.sort(key=lambda d: -d.confidence)
    boxes = [d.box for d in candidates]
    allowed = [[box_iou(a, b) <= config.nms_max_overlap for b in boxes] for a in boxes]
    kept = []
    for k, row in enumerate(allowed):
        if all(row[j] for j in kept):
            kept.append(k)
    return [candidates[k] for k in kept]


def pooled_oracle(entries):
    """The pooled vector of a feature buffer holding `entries`, oldest
    first, computed for that buffer alone: the mean of the stacked entries
    (one reduction, then one division), divided by the root of its dot
    product with itself; the newest entry when that norm is below 1e-9."""
    mean = np.add.reduce(np.array(entries), axis=0) / len(entries)
    norm = np.sqrt(mean.dot(mean))
    if norm < 1e-9:
        return entries[-1]
    return mean / norm


def cascade_oracle(tracks, detections, config, kalman):
    """The matching cascade as a loop over the depths 1..max_age, on a
    track stack and a frame's detection columns.

    Each depth builds its own `appearance_cost` matrix for the tracks last
    updated that many frames ago against the detections still unmatched,
    and solves it by enumeration; the loop stops once no detection is left.
    Returns what `matching_cascade` returns.
    """
    from mttsort.association import INFEASIBLE, appearance_cost

    unmatched = list(range(len(detections)))
    matches = []
    for depth in range(1, config.max_age + 1):
        if not unmatched:
            break
        level = [i for i, t in enumerate(tracks.tracks) if t.time_since_update == depth]
        if not level:
            continue
        cost = appearance_cost(tracks.take(level), detections.take(unmatched),
                               kalman, config.max_dist)
        pairs = lexicographic_assignment_oracle(cost.tolist(), INFEASIBLE)
        matches += [(level[r], unmatched[c]) for r, c in pairs]
        taken = {c for _, c in pairs}
        unmatched = [j for c, j in enumerate(unmatched) if c not in taken]
    matched = {i for i, _ in matches}
    return (sorted(matches), [i for i in range(len(tracks)) if i not in matched],
            unmatched)


def initiate_oracle(measurement):
    """A new Kalman track state as DeepSORT writes it: the measurement with
    zero velocities, and a diagonal covariance from a literal list of
    standard deviations (position weight 1/20, velocity weight 1/160)."""
    import numpy as np

    measurement = np.asarray(measurement, dtype=float)
    h = measurement[3]
    wp, wv = 1.0 / 20, 1.0 / 160
    std = [2 * wp * h, 2 * wp * h, 1e-2, 2 * wp * h,
           10 * wv * h, 10 * wv * h, 1e-5, 10 * wv * h]
    return np.concatenate([measurement, np.zeros(4)]), np.diag(np.square(std))


# ----------------------------------------------------- dense Kalman filter
#
# `mttsort.kalman.KalmanModel` as it was while it stored each covariance as
# a dense 8x8 matrix: the textbook filter through matmuls, a Cholesky factor
# and `np.linalg.solve`. The block filter must equal its predict and update
# bit for bit, on the covariances `dense` expands.

_POSITION_WEIGHT = 1.0 / 20
_VELOCITY_WEIGHT = 1.0 / 160
_MOTION_RELATIVE = np.array([_POSITION_WEIGHT, _POSITION_WEIGHT, 0, _POSITION_WEIGHT,
                             _VELOCITY_WEIGHT, _VELOCITY_WEIGHT, 0, _VELOCITY_WEIGHT])
_INITIAL_RELATIVE = _MOTION_RELATIVE * np.repeat([2, 10], 4)
_STATE_FIXED = np.array([0, 0, 1e-2, 0, 0, 0, 1e-5, 0])
_INNOVATION_RELATIVE = np.array([_POSITION_WEIGHT, _POSITION_WEIGHT, 0, _POSITION_WEIGHT])
_INNOVATION_FIXED = np.array([0, 0, 1e-1, 0])


class DenseKalmanModel:
    """Kalman initiation/prediction/update/gating for track states.

    `initiate` takes one `(4,)` measurement or a stack of N, `(N, 4)`, and
    `predict`, `project`, `update` and `gating_distance` take one state, an
    `(8,)` mean with an `(8, 8)` covariance, or a stack of N states, `(N, 8)`
    means with `(N, 8, 8)` covariances, through the same code: every
    product is a matmul or an elementwise operation on the stack, so each
    row of a stacked call equals the call on that row alone bit for bit.

    The noise is fixed: the motion and innovation standard deviations are
    the current box height times 1/20 for the position-like components and
    1/160 for the velocity components, and a new track's are twice and ten
    times those.
    """

    _motion_mat = np.eye(8) + np.eye(8, k=4)  # dt = 1
    _update_mat = np.eye(4, 8)

    def initiate(self, measurement):
        """Create new track states from unassociated measurements.

        Velocities start at zero; the diagonal covariance expresses high
        uncertainty about them.
        """
        measurement = np.asarray(measurement, dtype=float)
        valid = (measurement[..., 2] > 0) & (measurement[..., 3] > 0)
        if not valid.all():
            _, _, a, h = measurement[~valid][0] if valid.ndim else measurement
            raise ValueError(
                f"invalid measurement: aspect and height must be positive, "
                f"got a={a}, h={h}"
            )
        mean = np.concatenate(
            [measurement, np.zeros(measurement.shape[:-1] + (4,))], axis=-1)
        covariance = _diagonal_noise(
            measurement[..., 3], _INITIAL_RELATIVE, _STATE_FIXED)
        return mean, covariance

    def predict(self, mean, covariance):
        """Run the prediction step: x' = F x, P' = F P F^T + Q."""
        mean = np.asarray(mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        motion_cov = _diagonal_noise(mean[..., 3], _MOTION_RELATIVE, _STATE_FIXED)
        new_mean = np.matmul(self._motion_mat, mean[..., None])[..., 0]
        new_covariance = (
            self._motion_mat @ covariance @ self._motion_mat.T + motion_cov
        )
        return new_mean, new_covariance

    def project(self, mean, covariance):
        """Project the state distribution into measurement space."""
        mean = np.asarray(mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        innovation_cov = _diagonal_noise(
            mean[..., 3], _INNOVATION_RELATIVE, _INNOVATION_FIXED)
        projected_mean = np.matmul(self._update_mat, mean[..., None])[..., 0]
        projected_cov = (
            self._update_mat @ covariance @ self._update_mat.T + innovation_cov
        )
        return projected_mean, projected_cov

    def update(self, mean, covariance, measurement):
        """Run the correction step against (cx, cy, a, h) measurements, one
        `(4,)` row per state.

        Raises ValueError if any innovation covariance of the stack cannot
        be factorized.
        """
        mean = np.asarray(mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        measurement = np.asarray(measurement, dtype=float)
        projected_mean, projected_cov = self.project(mean, covariance)
        chol = _cholesky(projected_cov)
        kalman_gain = _t(np.linalg.solve(
            _t(chol), np.linalg.solve(chol, _t(covariance @ self._update_mat.T))))
        innovation = measurement - projected_mean
        new_mean = mean + np.matmul(kalman_gain, innovation[..., None])[..., 0]
        new_covariance = covariance - kalman_gain @ projected_cov @ _t(kalman_gain)
        # Keep the covariance exactly symmetric; the subtraction above
        # accumulates asymmetry at round-off scale over long sequences.
        new_covariance = 0.5 * (new_covariance + _t(new_covariance))
        return new_mean, new_covariance

    def gating_distance(self, mean, covariance, measurements):
        """Squared Mahalanobis distance of measurements from each state.

        `measurements` is an Mx4 array; the result has length M for one
        state and shape (N, M) for a stack of N. Compare against
        CHI2_GATE_4DOF to decide feasibility. Raises ValueError if any
        projected covariance of the stack is not positive definite.
        """
        measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
        projected_mean, projected_cov = self.project(mean, covariance)
        chol = _cholesky(projected_cov)
        d = measurements - projected_mean[..., None, :]
        z = np.linalg.solve(chol, _t(d))
        return np.sum(z * z, axis=-2)


def _t(stack):
    """Transpose the last two axes: each matrix of a stack, or one matrix."""
    return np.swapaxes(stack, -1, -2)


def _diagonal_noise(height, relative, fixed):
    """Diagonal noise covariances, stacked like `height`, with standard
    deviations `relative * height + fixed`. Each component has a nonzero
    entry in only one of the two, and adding an exact zero leaves a value
    unchanged."""
    std = height[..., None] * relative + fixed
    k = std.shape[-1]
    covariance = np.zeros(std.shape + (k,))
    # Every (k + 1)-th entry of a fresh k*k block is its diagonal.
    covariance.reshape(std.shape[:-1] + (k * k,))[..., ::k + 1] = np.square(std)
    return covariance


def _cholesky(projected_cov):
    """Lower Cholesky factor of a projected covariance; ValueError if it is
    not positive definite."""
    try:
        return np.linalg.cholesky(projected_cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"projected covariance is not positive definite: {exc}") from exc


dense_kalman_oracle = DenseKalmanModel()


def dense(covariance):
    """The dense 8x8 covariances of `(3, 4)` blocks, stacked like them:
    rows p, c and v go to entries (i, i), (i, i + 4) and (i + 4, i), and
    (i + 4, i + 4) of coordinate i; every other entry is +0.0."""
    covariance = np.asarray(covariance, dtype=float)
    out = np.zeros(covariance.shape[:-2] + (8, 8))
    i = np.arange(4)
    out[..., i, i] = covariance[..., 0, :]
    out[..., i, i + 4] = out[..., i + 4, i] = covariance[..., 1, :]
    out[..., i + 4, i + 4] = covariance[..., 2, :]
    return out


def domain_rows_oracle(mean, covariance):
    """Per state of a stack of `(8,)` means and `(3, 4)` covariance blocks:
    whether the dense filter's projected covariance H P H^T + R has a
    positive, finite diagonal, the innovation variances its update and gate
    divide by. Overflow and NaN give no warning."""
    with np.errstate(all="ignore"):
        _, projected = dense_kalman_oracle.project(mean, dense(covariance))
        diagonal = np.diagonal(projected, axis1=-2, axis2=-1)
        return ((diagonal > 0) & np.isfinite(diagonal)).all(axis=-1)


# ------------------------------------------------------- row-by-row parsers
#
# The sequence-file parsers as they read one row and one field at a time,
# before `seqio` converted each file in bulk. Two changes in the file
# contract are made here too: a number in the `float()`/`int()` grammar
# that has an underscore or a non-ASCII digit is not a number, and a result
# frame below 1 (or above `frame_count`, where given) is an error.

def _rows(path, n_fields=None):
    """Yield (lineno, fields) for each non-blank line of a comma-separated
    file, fields stripped; with `n_fields` given, a row with another field
    count is a ParseError."""
    from mttsort.seqio import ParseError

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if n_fields is not None and len(fields) != n_fields:
                raise ParseError(
                    f"{path}:{lineno}: expected {n_fields} comma-separated "
                    f"fields, got {len(fields)}"
                )
            yield lineno, fields


def _box(numbers, path, lineno):
    from mttsort.model import BoundingBox
    from mttsort.seqio import ParseError

    try:
        return BoundingBox(*numbers)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from None


def _parse_number(kind, noun, text, path, lineno, what):
    from mttsort.seqio import ParseError

    try:
        if "_" in text or not text.isascii():
            raise ValueError(text)
        return kind(text)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: {what} is not {noun}: {text!r}") from None


def _parse_float(text, path, lineno, what):
    return _parse_number(float, "a number", text, path, lineno, what)


def _parse_int(text, path, lineno, what):
    return _parse_number(int, "an integer", text, path, lineno, what)


def _parse_frame(text, path, lineno, frame_count):
    from mttsort.seqio import ParseError

    frame = _parse_int(text, path, lineno, "frame")
    if frame_count is None:
        if frame < 1:
            raise ParseError(f"{path}:{lineno}: frame {frame} is below 1")
    elif not 1 <= frame <= frame_count:
        raise ParseError(f"{path}:{lineno}: frame {frame} outside [1, {frame_count}]")
    return frame


def _unit_embedding(values, path, lineno):
    """`values` divided by their L2 norm; first by their largest magnitude
    where that norm overflows or is below 1e-9, so only an all-zero row
    has no direction."""
    import numpy as np

    from mttsort.seqio import ParseError

    embedding = np.array(values)
    if not np.isfinite(embedding).all():
        raise ParseError(f"{path}:{lineno}: embedding values must be finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(embedding)
    if not 1e-9 <= norm < np.inf:
        scale = np.abs(embedding).max()
        if scale == 0:
            raise ParseError(f"{path}:{lineno}: embedding has zero norm")
        embedding = embedding / scale
        norm = np.linalg.norm(embedding)
    return embedding / norm


def parse_detections_oracle(path, expected_dim, frame_count):
    from mttsort.model import Detection
    from mttsort.seqio import ParseError

    detections = []
    for lineno, fields in _rows(path):
        if len(fields) < 8:
            raise ParseError(
                f"{path}:{lineno}: detection rows need at least 8 fields "
                f"(frame,-1,left,top,width,height,conf,embedding...), got "
                f"{len(fields)}"
            )
        if len(fields) != 7 + expected_dim:
            raise ParseError(
                f"{path}:{lineno}: expected embedding dimension {expected_dim}, "
                f"row has {len(fields) - 7} embedding fields"
            )
        frame = _parse_frame(fields[0], path, lineno, frame_count)
        sentinel = _parse_float(fields[1], path, lineno, "id field")
        if sentinel != -1:
            raise ParseError(
                f"{path}:{lineno}: detection id field must be -1, got "
                f"{fields[1]!r}"
            )
        numbers = [_parse_float(f, path, lineno, "field") for f in fields[2:]]
        embedding = _unit_embedding(numbers[5:], path, lineno)
        box = _box(numbers[:4], path, lineno)
        center = (box.left + box.width / 2.0, box.top + box.height / 2.0,
                  box.width / box.height)
        if not (center[2] > 0 and all(map(math.isfinite, center))):
            raise ParseError(
                f"{path}:{lineno}: box center and aspect (cx, cy, width/height) "
                f"must be finite with a positive aspect, got {center}")
        try:
            detections.append(Detection(
                frame=frame,
                box=box,
                confidence=numbers[4],
                embedding=embedding,
            ))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    detections.sort(key=lambda d: d.frame)
    return detections


def parse_gt_oracle(path, frame_count):
    from mttsort.metrics import GtEntry
    from mttsort.seqio import ParseError

    entries = []
    seen = set()
    for lineno, fields in _rows(path, n_fields=6):
        frame = _parse_frame(fields[0], path, lineno, frame_count)
        identity = _parse_int(fields[1], path, lineno, "identity")
        if (frame, identity) in seen:
            raise ParseError(
                f"{path}:{lineno}: duplicate (frame, identity) "
                f"({frame}, {identity})"
            )
        seen.add((frame, identity))
        numbers = [_parse_float(f, path, lineno, "field") for f in fields[2:]]
        entries.append(GtEntry(frame, identity, _box(numbers, path, lineno)))
    entries.sort(key=lambda e: (e.frame, e.identity))
    return entries


def parse_results_oracle(path, frame_count=None):
    from mttsort.seqio import ParseError
    from mttsort.tracker import FrameResult

    by_frame = {}
    seen = set()
    for lineno, fields in _rows(path, n_fields=10):
        if fields[7:] != ["-1", "-1", "-1"]:
            raise ParseError(
                f"{path}:{lineno}: result rows must end with -1,-1,-1")
        frame = _parse_frame(fields[0], path, lineno, frame_count)
        track_id = _parse_int(fields[1], path, lineno, "track id")
        numbers = [_parse_float(f, path, lineno, "field") for f in fields[2:7]]
        box = _box(numbers[:4], path, lineno)
        confidence = numbers[4]
        if not (0.0 <= confidence <= 1.0):
            raise ParseError(
                f"{path}:{lineno}: confidence must be within [0, 1], "
                f"got {confidence}"
            )
        if (frame, track_id) in seen:
            raise ParseError(
                f"{path}:{lineno}: duplicate track id {track_id} in "
                f"frame {frame}"
            )
        seen.add((frame, track_id))
        by_frame.setdefault(frame, []).append((track_id, box, confidence))
    results = []
    for frame in sorted(by_frame):
        records = sorted(by_frame[frame], key=lambda r: r[0])
        results.append(FrameResult(frame=frame, records=tuple(records)))
    return results
