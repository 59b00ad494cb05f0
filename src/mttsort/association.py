"""Cost construction and matching.

Appearance costs are cosine distances between a detection embedding and a
track's pooled buffer feature; motion feasibility is enforced with a
chi-square Mahalanobis gate; spatial matching uses IoU cost. Infeasible
cost entries are marked with the INFEASIBLE sentinel. The assignment solver
reads every cost matrix by one rule: an entry is feasible if and only if it
is finite, so INFEASIBLE, NaN and -inf are never matched.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .kalman import CHI2_GATE_4DOF
from .model import iou_columns

INFEASIBLE = np.inf

# Relative tolerance for treating two assignment totals as tied. Distinct
# sums of real-world costs differ by far more than this; exact ties (equal
# IoU, duplicated embeddings) are caught reliably.
_TIE_RTOL = 1e-9


class FeatureBuffer:
    """FIFO buffer of the most recent appearance embeddings of one track.

    Pushing onto a full buffer evicts the oldest entry, so the buffer acts
    as a temporal sliding window over the object's appearance. The
    average-pooled vector over the window is what enters association; it
    is kept until the next `push`, which is why entries and the pooled
    vector are read-only arrays.

    `pool` refreshes the pooled vectors of many buffers at once: a frame's
    stale buffers (those pushed since their last pooling) are pooled
    together, one stack per entry count, and `pooled` is the one-buffer
    call of the same code.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: list[np.ndarray] = []
        self._pooled: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple:
        return tuple(self._entries)

    def push(self, feature) -> None:
        """Append `feature`, evicting the oldest entry when full."""
        feature = np.array(feature, dtype=float)
        if feature.ndim != 1:
            raise ValueError("feature must be a 1-d vector")
        if self._entries and feature.shape != self._entries[0].shape:
            raise ValueError(
                f"feature dimension {feature.shape[0]} does not match "
                f"buffered dimension {self._entries[0].shape[0]}"
            )
        feature.flags.writeable = False
        self._entries.append(feature)
        if len(self._entries) > self.capacity:
            self._entries.pop(0)
        self._pooled = None

    def pooled(self) -> np.ndarray:
        """Average-pool the buffered features and renormalize to unit norm.

        If the entries cancel to a (numerically) zero mean, the newest
        entry is returned instead so the result is always a valid unit
        vector.
        """
        if self._pooled is None:
            FeatureBuffer.pool([self])
        return self._pooled

    @staticmethod
    def pool(buffers) -> list[np.ndarray]:
        """The `pooled` vector of each of `buffers`, in order.

        The stale buffers are pooled together, one (k, L, D) stack for the
        k buffers holding L entries, so nothing is zero-padded. Each mean is
        `np.add.reduce` down the stack's entry axis divided by L, which adds
        a buffer's entries oldest first, as a sum over the buffer alone
        does. Its norm is the root of one BLAS dot of the mean with itself,
        which a stacked (1, D) @ (D, 1) matmul makes per row. So a buffer
        pools to the same bits whichever buffers share the call. A mean
        whose norm is below 1e-9 gives the buffer's newest entry, and every
        vector is read-only.
        """
        stale: dict[int, list] = {}
        for buffer in buffers:
            if buffer._pooled is None:
                if not buffer._entries:
                    raise ValueError("cannot pool an empty feature buffer")
                stale.setdefault(len(buffer._entries), []).append(buffer)
        for count, group in stale.items():
            mean = np.add.reduce(np.array([b._entries for b in group]), axis=1) / count
            norms = np.sqrt(np.matmul(mean[:, None, :], mean[:, :, None])[:, 0])
            newest = [norm < 1e-9 for norm in norms[:, 0].tolist()]
            if True in newest:
                # These rows take their newest entry below.
                norms[norms < 1e-9] = 1.0
            mean /= norms
            mean.flags.writeable = False
            for buffer, row, fallback in zip(group, mean, newest):
                buffer._pooled = buffer._entries[-1] if fallback else row
        return [buffer._pooled for buffer in buffers]


def appearance_cost(tracks, detections, kalman, max_dist: float) -> np.ndarray:
    """Gated cosine-cost matrix between the rows of a track stack and the
    rows of a frame's detection columns.

    cost[i, j] = 1 - <pooled(track_i), embedding_j>, clamped to [0, 2].
    Entries above `max_dist` or failing the Mahalanobis gate are
    INFEASIBLE. The gate runs once over the stacked track states, all in
    the filter's domain (`kalman.in_domain`; predict deletes the rest).

    Each entry depends only on its own pair. numpy's matmul makes one BLAS
    dot for each (1, D) @ (D, 1) item of the stacked product below, so a
    cosine is the same bits whichever other rows share the call; so is a
    gate distance, which is elementwise.
    """
    if not len(tracks) or not len(detections):
        return np.zeros((len(tracks), len(detections)))
    pooled = np.array(FeatureBuffer.pool([track.features for track in tracks.tracks]))
    # One BLAS dot per pair: a stacked (1, D) @ (D, 1) matmul.
    similarity = np.matmul(detections.embeddings[None, :, None, :],
                           pooled[:, None, :, None])[..., 0, 0]
    cost = np.minimum(np.maximum(1.0 - similarity, 0.0), 2.0)
    gate = kalman.gating_distance(tracks.mean, tracks.covariance,
                                  detections.measurements)
    cost[gate > CHI2_GATE_4DOF] = INFEASIBLE
    cost[cost > max_dist] = INFEASIBLE
    return cost


def iou_cost(track_boxes, detection_boxes, max_iou_distance: float) -> np.ndarray:
    """IoU-cost matrix between tracks' predicted boxes and detection boxes,
    both given as box-column rows (`model.iou_columns`); entries above
    `max_iou_distance` are INFEASIBLE."""
    if not len(track_boxes) or not len(detection_boxes):
        return np.zeros((len(track_boxes), len(detection_boxes)))
    cost = 1.0 - iou_columns(track_boxes, detection_boxes)
    cost[cost > max_iou_distance] = INFEASIBLE
    return cost


def _refine_lexicographic(cost: np.ndarray, feasible: np.ndarray):
    """Lexicographically smallest optimal assignment of `cost`, and the
    feasible pairs of the first solve, a minimum-cost matching of maximum
    cardinality. `feasible` is the mask of the finite entries.

    Infeasible entries are replaced by a finite penalty dominating any
    feasible total, negative costs included, so one full
    linear_sum_assignment solve of the masked matrix maximizes the feasible
    pair count first and minimizes feasible cost second. Its assignment is
    the incumbent.

    One more solve checks whether the incumbent is alone in the tie window:
    a copy of the masked matrix with each feasible incumbent cell raised by
    2 * tol. Any other feasible pair set in the window has the same count
    and drops at least one incumbent cell, so on the copy it totals at
    least tol below the incumbent. When the copy's optimum is not below
    the incumbent's raised total by more than tol / 2, no such set exists
    and the incumbent's feasible pairs are the answer.

    Otherwise the refine fixes rows in ascending order, testing candidate
    columns in ascending order and keeping a candidate only when an
    optimal completion still exists (checked with a reduced solve). A row
    whose incumbent column is feasible tests only the columns left of it:
    the incumbent already completes that column optimally, so it is
    accepted without a solve. A candidate that passes its reduced solve
    makes that solve's assignment the incumbent of the rows still free.
    """
    n, m = cost.shape
    values = cost[feasible]
    hi, lo = float(values.max()), float(values.min())
    # Equal to (hi + 1) * (min(n, m) + 1) when no cost is negative.
    penalty = (hi + 1.0 - 2.0 * min(lo, 0.0)) * (min(n, m) + 1)
    masked = cost.copy()
    masked[~feasible] = penalty
    rows, cols = linear_sum_assignment(masked)
    optimum = float(masked[rows, cols].sum())
    # Ties are judged against the feasible total: the penalties in
    # `optimum` must not widen the window.
    kept = feasible[rows, cols]
    kr, kc = rows[kept], cols[kept]
    feasible_total = float(cost[kr, kc].sum())
    tol = _TIE_RTOL * max(1.0, abs(feasible_total))
    optimal = list(zip(kr.tolist(), kc.tolist()))
    raised = masked.copy()
    raised[kr, kc] += 2.0 * tol
    r, c = linear_sum_assignment(raised)
    if float(raised[r, c].sum()) >= float(raised[rows, cols].sum()) - tol / 2:
        return optimal, optimal
    incumbent = dict(zip(rows.tolist(), cols.tolist()))
    fixed: list[tuple[int, int]] = []
    fixed_total = 0.0
    free_rows = list(range(n))
    free_cols = list(range(m))

    for i in range(n):
        chosen = incumbent.get(i)
        if chosen is not None and not feasible[i, chosen]:
            chosen = None
        limit = m if chosen is None else chosen
        rows_left = [r for r in free_rows if r != i]
        for j in free_cols:
            if j >= limit:
                break
            if not feasible[i, j]:
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
    return fixed, optimal


def solve_matchings(cost: np.ndarray):
    """The matching `solve_assignment` returns, plus a minimum-cost matching
    of maximum cardinality that certifies it.

    Returns ``(matches, optimal)``, both lists of (row, column) sorted by
    row. An entry is feasible if and only if it is finite: INFEASIBLE, NaN
    and -inf are never matched. `matches` has maximum feasible cardinality
    and, among those, minimum total cost; totals within _TIE_RTOL of each
    other tie, and ties resolve to the lowest (row, column) indices.
    `optimal` has the same cardinality and the minimum total: the feasible
    pairs of the refine's first scipy solve, or `matches` itself when the
    matrix is forced.

    When no two feasible entries share a row or a column, the only such
    matching is all of them, read off the mask without a solve; an empty
    matrix, or one with no finite entry, reads off as no match. Any other
    matrix goes through `_refine_lexicographic`: one scipy solve, one more
    that checks whether that solution is alone in the tie window, and the
    row-by-row refine only when it is not.

    Raising entries to INFEASIBLE outside `matches` and `optimal` keeps
    `matches`: `optimal` still attains the maximum cardinality and the
    minimum total, so the tie window can only shrink, and `matches` is
    still in it and still its lowest member.
    """
    cost = np.asarray(cost, dtype=float)
    feasible = np.isfinite(cost)
    rows, cols = (index.tolist() for index in np.nonzero(feasible))
    if len(set(rows)) == len(rows) and len(set(cols)) == len(cols):
        matches = list(zip(rows, cols))
        return matches, matches
    return _refine_lexicographic(cost, feasible)


def solve_assignment(cost: np.ndarray):
    """Minimum-cost one-to-one assignment over feasible entries.

    Returns ``(matches, unmatched_rows, unmatched_cols)``, where `matches`
    is the first matching of `solve_matchings` (sorted by row index).
    """
    matches, _ = solve_matchings(cost)
    n, m = np.shape(cost)
    matched_rows = {i for i, _ in matches}
    matched_cols = {j for _, j in matches}
    unmatched_rows = [i for i in range(n) if i not in matched_rows]
    unmatched_cols = [j for j in range(m) if j not in matched_cols]
    return matches, unmatched_rows, unmatched_cols


def matching_cascade(tracks, detections, config, kalman):
    """Appearance matching that prioritizes recently updated tracks.

    `tracks` is a track stack and `detections` a frame's detection
    columns. Every row of `tracks` must be a confirmed track whose time
    since update, its depth, is within 1..max_age, as the tracker's keep
    rule leaves them after a predict. One gated cost matrix covers every
    row. Only the depths holding a row with a feasible entry are visited,
    in ascending order; at each, the tracks last updated that many frames
    ago compete, on their rows of that matrix, for the detections still
    unmatched. A depth whose block has no feasible entry left is skipped
    without a solve; the first depth visited always has one, since every
    detection is still unmatched.

    Returns ``(matches, unmatched_tracks, unmatched_detections)`` with
    row indices into `tracks` and `detections`.
    """
    n_dets = len(detections)
    unmatched_dets = list(range(n_dets))
    matches: list[tuple[int, int]] = []
    if len(tracks) and unmatched_dets:
        full = appearance_cost(tracks, detections, kalman, config.max_dist)
        live = np.isfinite(full).any(axis=1).tolist()
        levels: dict[int, list[int]] = {}
        live_depths = set()
        for row, track in enumerate(tracks.tracks):
            depth = track.time_since_update
            levels.setdefault(depth, []).append(row)
            if live[row]:
                live_depths.add(depth)
        for depth in sorted(live_depths):
            if not unmatched_dets:
                break
            level = levels[depth]
            if len(unmatched_dets) == n_dets:
                # The first depth visited: its live row has a feasible
                # entry among all the detections.
                block = full if len(level) == len(tracks) else full[level]
            else:
                block = full[level][:, unmatched_dets]
                # A block with no feasible entry matches nothing.
                if not np.isfinite(block).any():
                    continue
            level_matches, _, level_unmatched = solve_assignment(block)
            matches.extend((level[r], unmatched_dets[c]) for r, c in level_matches)
            unmatched_dets = [unmatched_dets[c] for c in level_unmatched]
    matched_tracks = {t for t, _ in matches}
    unmatched_tracks = [i for i in range(len(tracks)) if i not in matched_tracks]
    return sorted(matches), unmatched_tracks, unmatched_dets
