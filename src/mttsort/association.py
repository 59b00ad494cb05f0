"""Cost construction and matching.

Appearance costs are cosine distances between a detection embedding and a
track's pooled buffer feature; motion feasibility is enforced with a
chi-square Mahalanobis gate; spatial matching uses IoU cost. Infeasible
cost entries are marked with the INFEASIBLE sentinel and are never selected
by the assignment solver.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from .kalman import CHI2_GATE_4DOF

INFEASIBLE = np.inf

# Relative tolerance for treating two assignment totals as tied. Distinct
# sums of real-world costs differ by far more than this; exact ties (equal
# IoU, duplicated embeddings) are caught reliably.
_TIE_RTOL = 1e-9

# Largest matrix solved by exhaustive enumeration; larger ones go through
# scipy plus a lexicographic refinement pass.
_ENUM_LIMIT = 5


class FeatureBuffer:
    """FIFO buffer of the most recent appearance embeddings of one track.

    Pushing onto a full buffer evicts the oldest entry, so the buffer acts
    as a temporal sliding window over the object's appearance. The
    average-pooled vector over the window is what enters association.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple:
        return tuple(self._entries)

    def push(self, feature) -> None:
        """Append `feature`, evicting the oldest entry when full."""
        feature = np.asarray(feature, dtype=float)
        if feature.ndim != 1:
            raise ValueError("feature must be a 1-d vector")
        if self._entries and feature.shape != self._entries[0].shape:
            raise ValueError(
                f"feature dimension {feature.shape[0]} does not match "
                f"buffered dimension {self._entries[0].shape[0]}"
            )
        self._entries.append(feature)
        if len(self._entries) > self.capacity:
            self._entries.pop(0)

    def pooled(self) -> np.ndarray:
        """Average-pool the buffered features and renormalize to unit norm.

        If the entries cancel to a (numerically) zero mean, the newest
        entry is returned instead so the result is always a valid unit
        vector.
        """
        if not self._entries:
            raise ValueError("cannot pool an empty feature buffer")
        mean = np.mean(self._entries, axis=0)
        norm = np.linalg.norm(mean)
        if norm < 1e-9:
            return self._entries[-1].copy()
        return mean / norm

    def clear(self) -> None:
        self._entries.clear()


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """Intersection-over-union of every box in `boxes_a` with every box in
    `boxes_b`, as a (len(boxes_a), len(boxes_b)) array in [0, 1].

    Each entry is inter / (area_a + area_b - inter) in that order, so
    iou_matrix(b, a) is exactly iou_matrix(a, b).T.
    """
    n, m = len(boxes_a), len(boxes_b)
    if n == 0 or m == 0:
        return np.zeros((n, m))
    # Rows left, top, right, bottom, area; boxes_a runs down, boxes_b across.
    a = np.array([(x.left, x.top, x.right, x.bottom, x.area)
                  for x in boxes_a]).T[:, :, None]
    b = np.array([(x.left, x.top, x.right, x.bottom, x.area)
                  for x in boxes_b]).T[:, None, :]
    # Overlap width and height, zero where the boxes are apart.
    extent = np.maximum(np.minimum(a[2:4], b[2:4]) - np.maximum(a[:2], b[:2]), 0.0)
    inter = extent[0] * extent[1]
    return inter / (a[4] + b[4] - inter)


def appearance_cost(tracks, detections, kalman, max_dist: float) -> np.ndarray:
    """Gated cosine-cost matrix between track buffers and detections.

    cost[i, j] = 1 - <pooled(track_i), embedding_j>, clamped to [0, 2].
    Entries above `max_dist` or failing the Mahalanobis gate are
    INFEASIBLE.
    """
    cost = np.zeros((len(tracks), len(detections)))
    if cost.size == 0:
        return cost
    embeddings = np.stack([det.embedding for det in detections])
    measurements = np.stack([det.box.to_center() for det in detections])
    for i, track in enumerate(tracks):
        pooled = track.features.pooled()
        cost[i, :] = np.clip(1.0 - embeddings @ pooled, 0.0, 2.0)
        gate = kalman.gating_distance(track.mean, track.covariance, measurements)
        cost[i, gate > CHI2_GATE_4DOF] = INFEASIBLE
    cost[cost > max_dist] = INFEASIBLE
    return cost


def iou_cost(tracks, detections, max_iou_distance: float) -> np.ndarray:
    """IoU-cost matrix between predicted track boxes and detection boxes."""
    cost = 1.0 - iou_matrix([t.to_box() for t in tracks],
                            [d.box for d in detections])
    cost[cost > max_iou_distance] = INFEASIBLE
    return cost


def _enumerate_assignment(cost: np.ndarray):
    """Exhaustive optimal assignment for small matrices.

    Maximizes the number of feasible pairs, then minimizes their total
    cost, then picks the lexicographically smallest pair set. Near-equal
    totals (within _TIE_RTOL) are treated as ties so the index rule, not
    round-off, decides.
    """
    n, m = cost.shape
    rows = cost.tolist()
    best = None  # (count, total, pairs)
    if n <= m:
        candidates = itertools.permutations(range(m), n)

        def make_pairs(perm):
            return [(i, perm[i]) for i in range(n)]
    else:
        candidates = itertools.permutations(range(n), m)

        def make_pairs(perm):
            return sorted((perm[j], j) for j in range(m))

    for perm in candidates:
        pairs = make_pairs(perm)
        feasible = [(i, j) for i, j in pairs if rows[i][j] != INFEASIBLE]
        count = len(feasible)
        total = sum(rows[i][j] for i, j in feasible)
        if best is None:
            best = (count, total, feasible)
            continue
        b_count, b_total, b_pairs = best
        if count != b_count:
            if count > b_count:
                best = (count, total, feasible)
            continue
        tol = _TIE_RTOL * max(1.0, abs(b_total))
        if total < b_total - tol:
            best = (count, total, feasible)
        elif abs(total - b_total) <= tol and feasible < b_pairs:
            best = (count, total, feasible)
    return best[2] if best else []


def _masked(cost: np.ndarray) -> np.ndarray:
    """Replace INFEASIBLE entries by a finite penalty dominating any
    feasible total, so a full linear_sum_assignment solve maximizes the
    feasible pair count first and minimizes feasible cost second.
    """
    finite = cost[cost != INFEASIBLE]
    max_cost = float(finite.max()) if finite.size else 0.0
    penalty = (max_cost + 1.0) * (min(cost.shape) + 1)
    masked = cost.copy()
    masked[masked == INFEASIBLE] = penalty
    return masked


def _refine_lexicographic(cost: np.ndarray, masked: np.ndarray, optimum: float,
                          rows, cols):
    """Find the lexicographically smallest optimal assignment.

    Fixes rows in ascending order, testing candidate columns in ascending
    order and keeping a candidate only when an optimal completion still
    exists (checked with a reduced solve).

    `rows, cols` is an optimal assignment of `masked`, carried along as the
    incumbent. A row whose incumbent column is feasible tests only the
    columns left of it: the incumbent already completes that column
    optimally, so it is accepted without a solve. A candidate that passes
    its reduced solve makes that solve's assignment the incumbent of the
    rows still free.
    """
    n, m = cost.shape
    # Ties are judged against the feasible total, as in _enumerate_assignment:
    # the INFEASIBLE penalties in `optimum` must not widen the window.
    incumbent_cost = cost[rows, cols]
    feasible_total = float(incumbent_cost[incumbent_cost != INFEASIBLE].sum())
    tol = _TIE_RTOL * max(1.0, abs(feasible_total))
    incumbent = dict(zip(rows.tolist(), cols.tolist()))
    fixed: list[tuple[int, int]] = []
    fixed_total = 0.0
    free_rows = list(range(n))
    free_cols = list(range(m))

    for i in range(n):
        chosen = incumbent.get(i)
        if chosen is not None and cost[i, chosen] == INFEASIBLE:
            chosen = None
        limit = m if chosen is None else chosen
        rows_left = [r for r in free_rows if r != i]
        for j in free_cols:
            if j >= limit:
                break
            if cost[i, j] == INFEASIBLE:
                continue
            cols_left = [c for c in free_cols if c != j]
            rest, r, c = 0.0, (), ()
            if rows_left and cols_left:
                sub = masked[np.ix_(rows_left, cols_left)]
                r, c = linear_sum_assignment(sub)
                rest = float(sub[r, c].sum())
            if fixed_total + masked[i, j] + rest <= optimum + tol:
                chosen = j
                incumbent = {rows_left[a]: cols_left[b] for a, b in zip(r, c)}
                break
        if chosen is not None:
            fixed.append((i, chosen))
            fixed_total += masked[i, chosen]
            free_rows.remove(i)
            free_cols.remove(chosen)
    return fixed


def solve_assignment(cost: np.ndarray):
    """Minimum-cost one-to-one assignment over feasible entries.

    Returns ``(matches, unmatched_rows, unmatched_cols)``. The matching
    has maximum feasible cardinality and, among those, minimum total cost;
    ties resolve to the lowest (row, column) indices. Matches are sorted
    by row index.
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n == 0 or m == 0 or not np.isfinite(cost).any():
        return [], list(range(n)), list(range(m))

    if max(n, m) <= _ENUM_LIMIT:
        matches = _enumerate_assignment(cost)
    else:
        masked = _masked(cost)
        rows, cols = linear_sum_assignment(masked)
        optimum = float(masked[rows, cols].sum())
        matches = _refine_lexicographic(cost, masked, optimum, rows, cols)

    matches = sorted(matches)
    matched_rows = {i for i, _ in matches}
    matched_cols = {j for _, j in matches}
    unmatched_rows = [i for i in range(n) if i not in matched_rows]
    unmatched_cols = [j for j in range(m) if j not in matched_cols]
    return matches, unmatched_rows, unmatched_cols


def matching_cascade(tracks, detections, config, kalman):
    """Appearance matching that prioritizes recently updated tracks.

    Iterates over time-since-update depths 1..max_age; at each depth the
    tracks last updated that many frames ago compete for the detections
    still unmatched. All `tracks` must be confirmed.

    Returns ``(matches, unmatched_tracks, unmatched_detections)`` with
    indices into the input lists.
    """
    unmatched_dets = list(range(len(detections)))
    matches: list[tuple[int, int]] = []
    for depth in range(config.max_age):
        if not unmatched_dets:
            break
        level = [i for i, t in enumerate(tracks)
                 if t.time_since_update == depth + 1]
        if not level:
            continue
        cost = appearance_cost(
            [tracks[i] for i in level],
            [detections[j] for j in unmatched_dets],
            kalman, config.max_dist)
        level_matches, _, level_unmatched = solve_assignment(cost)
        matches.extend(
            (level[r], unmatched_dets[c]) for r, c in level_matches)
        unmatched_dets = [unmatched_dets[c] for c in level_unmatched]
    matched_tracks = {t for t, _ in matches}
    unmatched_tracks = [i for i in range(len(tracks)) if i not in matched_tracks]
    return sorted(matches), unmatched_tracks, unmatched_dets
