import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mttsort import association
from mttsort.association import (
    FeatureBuffer, INFEASIBLE, appearance_cost, iou_columns, iou_cost,
    matching_cascade, solve_assignment, solve_matchings,
)
from mttsort.kalman import KalmanModel
from mttsort.model import (BoundingBox, Detection, FrameDetections, TrackerConfig,
                           box_columns)
from mttsort.tracker import Track, TrackStack

from oracles import (
    assignment_oracle, box_iou, cascade_oracle, lexicographic_assignment_oracle,
    pooled_oracle,
)


def unit(*values):
    v = np.array(values, dtype=float)
    return v / np.linalg.norm(v)


def make_track(box, embedding, time_since_update=1, buffer_size=5,
               track_id=1, kalman=None):
    """A one-row track stack started from `box`, with `embedding` in its
    feature buffer."""
    kalman = kalman or KalmanModel()
    mean, cov = kalman.initiate(box.to_center())
    track = Track(track_id=track_id, features=FeatureBuffer(buffer_size),
                  time_since_update=time_since_update)
    track.features.push(embedding)
    return TrackStack([track], mean[None], cov[None])


def stack_of(*rows):
    """The rows of one-row track stacks, in order, as one stack."""
    return TrackStack([row.tracks[0] for row in rows],
                      np.concatenate([np.zeros((0, 8))] + [row.mean for row in rows]),
                      np.concatenate([np.zeros((0, 3, 4))]
                                     + [row.covariance for row in rows]))


def make_detection(box, embedding, frame=1, confidence=0.9):
    return Detection(frame=frame, box=box, confidence=confidence,
                     embedding=embedding)


# ---------------------------------------------------------------- buffer

def test_push_full_buffer_evicts_oldest():
    fb = FeatureBuffer(5)
    feats = [unit(1, i) for i in range(6)]
    for f in feats[:5]:
        fb.push(f)
    fb.push(feats[5])
    assert len(fb) == 5
    for got, want in zip(fb.entries, feats[1:]):
        assert np.array_equal(got, want)


def test_push_onto_empty():
    fb = FeatureBuffer(5)
    fb.push(unit(1, 0))
    assert len(fb) == 1


def test_seven_pushes_keep_last_five():
    fb = FeatureBuffer(5)
    feats = [unit(1, i) for i in range(7)]
    for f in feats:
        fb.push(f)
    assert [tuple(e) for e in fb.entries] == [tuple(f) for f in feats[2:]]


def test_push_dimension_mismatch():
    fb = FeatureBuffer(5)
    fb.push(unit(1, 0))
    with pytest.raises(ValueError):
        fb.push(unit(1, 0, 0))


@given(st.integers(1, 8), st.integers(0, 30))
def test_buffer_never_exceeds_capacity(capacity, pushes):
    fb = FeatureBuffer(capacity)
    for i in range(pushes):
        fb.push(unit(1, i))
        assert len(fb) <= capacity


def test_pooled_singleton():
    fb = FeatureBuffer(5)
    fb.push(np.array([1.0, 0.0]))
    assert fb.pooled().tolist() == [1.0, 0.0]


def test_pooled_two_orthogonal():
    fb = FeatureBuffer(5)
    fb.push(np.array([1.0, 0.0]))
    fb.push(np.array([0.0, 1.0]))
    assert np.allclose(fb.pooled(), [math.sqrt(0.5)] * 2)


def test_pooled_antipodal_falls_back_to_newest():
    fb = FeatureBuffer(5)
    fb.push(np.array([1.0, 0.0]))
    fb.push(np.array([-1.0, 0.0]))
    assert fb.pooled().tolist() == [-1.0, 0.0]


def test_pooled_empty_errors():
    with pytest.raises(ValueError):
        FeatureBuffer(5).pooled()


@given(st.permutations(list(range(5))))
def test_pooled_invariant_to_buffer_order(order):
    feats = [unit(1, i, i * i) for i in range(5)]
    fb_a, fb_b = FeatureBuffer(5), FeatureBuffer(5)
    for f in feats:
        fb_a.push(f)
    for i in order:
        fb_b.push(feats[i])
    assert np.allclose(fb_a.pooled(), fb_b.pooled(), atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.lists(
    st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]), min_size=3, max_size=3),
    max_size=25))
def test_pooled_cache_equals_fresh_pooling(capacity, pushes):
    # Each push is a 3-vector; opposite pushes can cancel to the zero-mean
    # fallback. `pooled` is read twice after each push, and a pushed array
    # is overwritten once pushed; the cached vector must equal a fresh
    # buffer's bit for bit.
    fb = FeatureBuffer(capacity)
    with pytest.raises(ValueError):
        fb.pooled()
    for push in pushes:
        feature = np.array(push)
        fb.push(feature)
        feature[:] = 7.0
        fresh = FeatureBuffer(capacity)
        for entry in fb.entries:
            fresh.push(entry)
        want = fresh.pooled()
        for _ in range(2):
            got = fb.pooled()
            assert np.array_equal(got, want)
            assert not got.flags.writeable


@st.composite
def mixed_buffers(draw):
    """Up to 10 buffers of one dimension D (4-128), capacity 1-7, each
    left by its own run of pushes, antipodal pushes (the newest entry
    negated, so pairs cancel to the zero-mean fallback) and poolings; a
    buffer pooled since its last push is cached, the others are stale.
    None is empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(4, 128))
    buffers = []
    for _ in range(draw(st.integers(0, 10))):
        buffer = FeatureBuffer(draw(st.integers(1, 7)))
        ops = draw(st.lists(st.sampled_from(["push", "antipodal", "pool"]),
                            max_size=12))
        for op in ops:
            if op == "pool":
                if len(buffer):
                    buffer.pooled()
            elif op == "antipodal" and len(buffer):
                buffer.push(-buffer.entries[-1])
            else:
                buffer.push(rng.normal(size=dim))
        if not len(buffer):
            buffer.push(rng.normal(size=dim))
        buffers.append(buffer)
    return buffers


@settings(deadline=None, max_examples=200)
@given(mixed_buffers())
def test_pool_equals_the_per_buffer_oracle_bit_for_bit(buffers):
    want = [pooled_oracle(list(buffer.entries)) for buffer in buffers]
    got = FeatureBuffer.pool(buffers)
    assert len(got) == len(buffers)
    for buffer, vector, expected in zip(buffers, got, want):
        assert vector.shape == expected.shape
        assert vector.tobytes() == expected.tobytes()
        assert not vector.flags.writeable
        assert buffer.pooled() is vector


def test_pool_of_an_empty_buffer_errors():
    full = FeatureBuffer(2)
    full.push(unit(1, 0))
    assert FeatureBuffer.pool([]) == []
    with pytest.raises(ValueError, match="empty"):
        FeatureBuffer.pool([full, FeatureBuffer(2)])


# ------------------------------------------------------------------- iou

def columns_of(boxes):
    """The (left, top, right, bottom, area) rows of a list of boxes."""
    return box_columns(np.array([(b.left, b.top, b.width, b.height) for b in boxes],
                                dtype=float).reshape(len(boxes), 4))


def iou(a, b):
    """One box against one box, through a 1x1 matrix."""
    matrix = iou_columns(columns_of([a]), columns_of([b]))
    assert matrix.shape == (1, 1)
    return matrix[0, 0]


def test_iou_examples():
    a = BoundingBox(0, 0, 2, 2)
    assert iou(a, a) == 1.0
    assert iou(a, BoundingBox(10, 10, 2, 2)) == 0.0
    assert iou(a, BoundingBox(1, 1, 2, 2)) == pytest.approx(1 / 7)


@given(
    st.tuples(st.integers(0, 20), st.integers(0, 20),
              st.integers(1, 10), st.integers(1, 10)),
    st.tuples(st.integers(0, 20), st.integers(0, 20),
              st.integers(1, 10), st.integers(1, 10)),
)
def test_iou_symmetric_and_bounded(raw_a, raw_b):
    a, b = BoundingBox(*raw_a), BoundingBox(*raw_b)
    assert iou(a, b) == iou(b, a)
    assert 0.0 <= iou(a, b) <= 1.0


coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
extent = st.floats(1e-3, 40.0, allow_nan=False, allow_infinity=False)
float_boxes = st.lists(st.builds(BoundingBox, coord, coord, extent, extent),
                       max_size=5)


@given(float_boxes, float_boxes)
def test_iou_columns_equals_scalar_oracle_bit_for_bit(boxes_a, boxes_b):
    matrix = iou_columns(columns_of(boxes_a), columns_of(boxes_b))
    assert matrix.shape == (len(boxes_a), len(boxes_b))
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            assert matrix[i, j] == box_iou(a, b)
    assert np.array_equal(iou_columns(columns_of(boxes_b), columns_of(boxes_a)), matrix.T)


def valid_box(fields):
    try:
        return BoundingBox(*fields)
    except ValueError:
        return None


pixel_origin = st.integers(-10 ** 4, 10 ** 4).map(float)
any_side = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
valid_boxes = st.tuples(pixel_origin, pixel_origin, any_side, any_side).map(
    valid_box).filter(lambda box: box is not None)


@settings(deadline=None, max_examples=300)
@given(st.lists(valid_boxes, min_size=1, max_size=5))
@example([BoundingBox(0.0, 0.0, 5e-324, 1e300), BoundingBox(3.0, 0.0, 1e300, 1e-300),
          BoundingBox(-1.0, 2.0, 1.7976931348623157e308, 1.0)])
def test_iou_columns_of_valid_boxes_is_never_nan(boxes):
    # Every box against itself and the others, with sides over the whole
    # float range, so that areas sit next to 0 and next to inf. Two areas
    # that sum past the largest float overflow the union, which makes that
    # IoU 0. A side of a few ulps of its origin has a rounded edge that can
    # make the overlap larger than the box, and the IoU above 1, negative
    # or infinite. Origins are pixel-sized integers: far from 0, that
    # rounding can overflow the overlap of a box near the largest area
    # and make the IoU NaN, as for (0, 2**53, 4.49e307, 3). CHANGES.md
    # records both as found, not mended.
    columns = columns_of(boxes)
    with np.errstate(over="ignore", divide="ignore"):
        matrix = iou_columns(columns, columns)
    assert not np.isnan(matrix).any()


# ------------------------------------------------------- appearance cost

@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 12),
       st.sampled_from([8, 64, 128]), st.data())
def test_appearance_cost_entries_depend_only_on_their_own_pair(seed, n_tracks, n_dets,
                                                               dim, data):
    # Random unit embeddings and pooled buffers of 1-4 entries; the boxes
    # sit near one spot so most pairs pass the gate, and max_dist 2 keeps
    # every cosine. Each entry must equal the one-pair call and the call
    # over any subset of the detections, as a fancy-indexed copy and as a
    # slice, bit for bit.
    rng = np.random.default_rng(seed)
    kalman = KalmanModel()

    def box():
        return BoundingBox(100 + rng.uniform(0, 20), 100 + rng.uniform(0, 20), 40, 80)

    rows = []
    for k in range(n_tracks):
        row = make_track(box(), unit(*rng.normal(size=dim)),
                         buffer_size=int(rng.integers(1, 5)), track_id=k + 1, kalman=kalman)
        for _ in range(int(rng.integers(0, 4))):
            row.tracks[0].features.push(unit(*rng.normal(size=dim)))
        rows.append(row)
    tracks = stack_of(*rows)
    dets = FrameDetections.of([make_detection(box(), unit(*rng.normal(size=dim)))
                               for _ in range(n_dets)])
    cost = appearance_cost(tracks, dets, kalman, max_dist=2.0)
    for i in range(n_tracks):
        for j in range(n_dets):
            single = appearance_cost(tracks.take([i]), dets.take([j]), kalman, max_dist=2.0)
            assert single.tobytes() == cost[i, j:j + 1].tobytes()
    subset = data.draw(st.lists(st.integers(0, n_dets - 1), min_size=1, max_size=n_dets,
                                unique=True))
    assert (appearance_cost(tracks, dets.take(subset), kalman, max_dist=2.0).tobytes()
            == cost[:, subset].tobytes())
    start = data.draw(st.integers(0, n_dets - 1))
    stop = data.draw(st.integers(start + 1, n_dets))
    assert (appearance_cost(tracks, dets.take(slice(start, stop)), kalman,
                            max_dist=2.0).tobytes()
            == cost[:, start:stop].tobytes())



def test_appearance_cost_values():
    kalman = KalmanModel()
    box = BoundingBox(100, 100, 40, 80)
    e1 = unit(1, 0)
    diag = unit(1, 1)
    track = make_track(box, e1, kalman=kalman)
    same = make_detection(box, e1)
    ortho = make_detection(box, unit(0, 1))

    cost = appearance_cost(track, FrameDetections.of([same, ortho]),
                           kalman, max_dist=1.0)
    assert cost[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert cost[0, 1] == pytest.approx(1.0, abs=1e-12)

    track_diag = make_track(box, diag, kalman=kalman)
    cost = appearance_cost(track_diag, FrameDetections.of([same]),
                           kalman, max_dist=1.0)
    assert cost[0, 0] == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-9)


def test_appearance_cost_max_dist_gate():
    kalman = KalmanModel()
    box = BoundingBox(100, 100, 40, 80)
    track = make_track(box, unit(1, 0), kalman=kalman)
    ortho = make_detection(box, unit(0, 1))
    cost = appearance_cost(track, FrameDetections.of([ortho]),
                           kalman, max_dist=0.2)
    assert cost[0, 0] == INFEASIBLE


def test_appearance_cost_mahalanobis_gate():
    kalman = KalmanModel()
    e1 = unit(1, 0)
    track = make_track(BoundingBox(100, 100, 40, 80), e1, kalman=kalman)
    far = make_detection(BoundingBox(500, 400, 40, 80), e1)
    cost = appearance_cost(track, FrameDetections.of([far]),
                           kalman, max_dist=1.0)
    assert cost[0, 0] == INFEASIBLE


def test_buffer_size_one_is_single_frame_cosine():
    kalman = KalmanModel()
    box = BoundingBox(50, 60, 30, 60)
    rng = np.random.default_rng(0)
    track = make_track(box, unit(*rng.normal(size=4)), buffer_size=1,
                       kalman=kalman)
    features = track.tracks[0].features
    features.push(unit(*rng.normal(size=4)))  # newest overwrites
    newest = features.entries[-1]
    det = make_detection(box, unit(*rng.normal(size=4)))
    cost = appearance_cost(track, FrameDetections.of([det]),
                           kalman, max_dist=2.0)
    assert cost[0, 0] == pytest.approx(
        1.0 - float(newest @ det.embedding), abs=1e-12)


# --------------------------------------------------------------- iou cost

def test_iou_cost_thresholds():
    box = BoundingBox(0, 0, 10, 10)
    disjoint = BoundingBox(100, 100, 10, 10)
    cost = iou_cost(columns_of([box]), columns_of([box, disjoint]),
                    max_iou_distance=0.7)
    assert cost[0, 0] == 0.0
    assert cost[0, 1] == INFEASIBLE

    # overlap of exactly 0.5 against threshold 0.3 is infeasible
    half = BoundingBox(0, 0, 10, 5)
    cost = iou_cost(columns_of([box]), columns_of([half]), max_iou_distance=0.3)
    assert cost[0, 0] == INFEASIBLE

    # An empty side gives an empty matrix of the other side's length.
    assert iou_cost(columns_of([]), columns_of([box, half]), 0.7).shape == (0, 2)
    assert iou_cost(columns_of([box]), columns_of([]), 0.7).shape == (1, 0)


# ------------------------------------------------------------- assignment

def test_assignment_worked_example():
    matches, ur, uc = solve_assignment(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert matches == [(0, 0), (1, 1)]
    assert ur == [] and uc == []


def test_assignment_single_cell():
    matches, ur, uc = solve_assignment(np.array([[0.4]]))
    assert matches == [(0, 0)]


def test_assignment_all_infeasible():
    cost = np.full((3, 2), INFEASIBLE)
    matches, ur, uc = solve_assignment(cost)
    assert matches == [] and ur == [0, 1, 2] and uc == [0, 1]


def test_assignment_empty():
    matches, ur, uc = solve_assignment(np.zeros((0, 3)))
    assert matches == [] and ur == [] and uc == [0, 1, 2]


def test_assignment_tie_breaks_lexicographically():
    matches, _, _ = solve_assignment(np.ones((2, 2)))
    assert matches == [(0, 0), (1, 1)]
    matches, _, _ = solve_assignment(np.ones((3, 3)))
    assert matches == [(0, 0), (1, 1), (2, 2)]


def test_assignment_prefers_cardinality_over_cost():
    # Matching both rows costs 10.1; matching only row 0 would cost 0.1.
    cost = np.array([[0.1, INFEASIBLE], [INFEASIBLE, 10.0]])
    matches, _, _ = solve_assignment(cost)
    assert matches == [(0, 0), (1, 1)]


@settings(deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 7), st.integers(1, 7))
def test_assignment_is_valid_partial_matching(seed, n, m):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0, 1, (n, m))
    cost[rng.uniform(size=(n, m)) < 0.3] = INFEASIBLE
    matches, ur, uc = solve_assignment(cost)
    rows = [i for i, _ in matches]
    cols = [j for _, j in matches]
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)
    assert sorted(rows + ur) == list(range(n))
    assert sorted(cols + uc) == list(range(m))
    assert all(cost[i, j] != INFEASIBLE for i, j in matches)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 6))
def test_assignment_total_matches_brute_force(seed, n, m):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0, 1, (n, m))
    cost[rng.uniform(size=(n, m)) < 0.25] = INFEASIBLE
    matches, _, _ = solve_assignment(cost)
    want_count, want_total = assignment_oracle(cost.tolist(), INFEASIBLE)
    assert len(matches) == want_count
    assert sum(cost[i, j] for i, j in matches) == pytest.approx(want_total, abs=1e-12)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 31 - 1))
def test_small_tie_heavy_assignments_match_lexicographic_oracle(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    cost = np.round(rng.uniform(0, 1, (n, m)), 2)  # rounding provokes ties
    cost[rng.uniform(size=(n, m)) < 0.2] = INFEASIBLE
    matches, _, _ = solve_assignment(cost)
    assert matches == lexicographic_assignment_oracle(cost.tolist(), INFEASIBLE)


def counted_solves(cost):
    """`solve_assignment(cost)`'s matches and its number of scipy calls."""
    calls = []
    solve = association.linear_sum_assignment

    def counted(*args):
        calls.append(args)
        return solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(association, "linear_sum_assignment", counted)
        matches, _, _ = solve_assignment(cost)
    return matches, len(calls)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 7), st.integers(1, 7))
def test_forced_assignments_are_read_off_without_a_solve(seed, n, m):
    # A random partial permutation, INFEASIBLE elsewhere: no two feasible
    # entries share a row or a column, so the one optimal matching is all
    # of them and scipy is never called.
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, min(n, m) + 1))
    cost = np.full((n, m), INFEASIBLE)
    cost[rng.permutation(n)[:size], rng.permutation(m)[:size]] = np.round(
        rng.uniform(0, 1, size), 2)
    matches, solves = counted_solves(cost)
    assert matches == lexicographic_assignment_oracle(cost.tolist(), INFEASIBLE)
    assert solves == 0


@pytest.mark.parametrize("infeasible_rows", [0, 2])
def test_refined_tie_window_ignores_unmatched_rows(infeasible_rows):
    # Rows 0-1 differ by 1e-8, more than the tie tolerance of the feasible
    # total (1.2e-9), so the cheaper (0, 1), (1, 0) wins. All-INFEASIBLE
    # rows add penalties to the masked optimum; they must not widen the
    # tie window.
    cost = np.full((4 + infeasible_rows, 6), INFEASIBLE)
    cost[0, :2] = [0.5 + 1e-8, 0.5]
    cost[1, :2] = [0.5, 0.5]
    cost[2, 2] = cost[3, 3] = 0.1
    matches, _, _ = solve_assignment(cost)
    assert matches == lexicographic_assignment_oracle(cost.tolist(), INFEASIBLE)
    assert matches == [(0, 1), (1, 0), (2, 2), (3, 3)]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 31 - 1))
def test_refined_scipy_path_matches_lexicographic_oracle(seed):
    # Up to 7x7, with n != m in most draws; one-decimal costs make many
    # optimal assignments tie, so the index rule decides.
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(6, 8)), int(rng.integers(1, 8))
    if rng.random() < 0.5:
        n, m = m, n
    cost = np.round(rng.uniform(0, 1, (n, m)), 1)
    cost[rng.uniform(size=(n, m)) < 0.3] = INFEASIBLE
    matches, _, _ = solve_assignment(cost)
    assert matches == lexicographic_assignment_oracle(cost.tolist(), INFEASIBLE)


def test_negative_costs_keep_the_most_pairs():
    matches, _, _ = solve_assignment(np.array([[-5.0, -5.0], [-5.0, INFEASIBLE]]))
    assert matches == [(0, 1), (1, 0)]


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.5, 1.0, 5.0, 100.0]))
def test_costs_shifted_below_zero_match_lexicographic_oracle(seed, shift):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    cost = np.round(rng.uniform(0, 1, (n, m)), 1) - shift
    cost[rng.uniform(size=(n, m)) < 0.3] = INFEASIBLE
    matches, _, _ = solve_assignment(cost)
    assert matches == lexicographic_assignment_oracle(cost.tolist(), INFEASIBLE)


def near_tie(shape, gap):
    """A matrix whose lexicographically first optimal matching costs `gap`
    tie tolerances (1e-9 of the cheaper total, 1 or 2 here) more than the
    cheaper one scipy finds. In "row" it drops one cell of the cheaper
    matching, in "swap" two, and "penalty" adds a row with no feasible
    cell."""
    if shape == "row":
        return np.array([[1.0 + gap * 1e-9, 1.0]])
    if shape == "swap":
        return np.array([[1.0 + gap * 2e-9, 1.0], [1.0, 1.0]])
    return np.array([[1.0 + gap * 1e-9, 1.0, INFEASIBLE],
                     [INFEASIBLE, INFEASIBLE, INFEASIBLE]])


@pytest.mark.parametrize("shape", ["row", "swap", "penalty"])
@pytest.mark.parametrize("gap", [0.5, 0.9, 1.1, 1.9])
def test_near_ties_around_the_tolerance_match_lexicographic_oracle(shape, gap):
    cost = near_tie(shape, gap)
    matches, _, _ = solve_assignment(cost)
    assert matches == lexicographic_assignment_oracle(cost.tolist(), INFEASIBLE)
    assert (matches[0] == (0, 0)) == (gap < 1)


def test_a_unique_optimum_takes_two_solves():
    # The check confirms the first solve's matching without the row loop,
    # which would test column 0 for row 0 with a reduced solve.
    cost = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 0.7], [0.3, 0.9, 2.0]])
    matches, solves = counted_solves(cost)
    assert matches == lexicographic_assignment_oracle(cost.tolist(), INFEASIBLE)
    assert solves == 2


def test_an_exact_tie_goes_through_the_row_loop():
    # Rows 0 and 1 tie between columns 1 and 2; whichever scipy returns,
    # the row loop tests column 0 for rows 0 and 1 with a reduced solve.
    cost = np.array([[9.0, 1.0, 1.0], [9.0, 1.0, 1.0], [0.0, 9.0, 1.0]])
    matches, solves = counted_solves(cost)
    assert matches == lexicographic_assignment_oracle(cost.tolist(), INFEASIBLE)
    assert matches == [(0, 1), (1, 2), (2, 0)]
    assert solves > 2



@pytest.mark.parametrize("cost", [
    [[math.nan, INFEASIBLE], [INFEASIBLE, -math.inf]],
    [[math.nan, math.nan]],
    [[-math.inf, -math.inf], [math.nan, INFEASIBLE]],
], ids=["isolated", "one-row", "shared-row"])
def test_no_finite_entry_matches_nothing(cost):
    # Every entry that is not INFEASIBLE is NaN or -inf. The isolated ones
    # share no row or column; the forced read-off takes only finite
    # entries, so it reads off no matching, with no separate exit.
    n, m = np.shape(cost)
    assert solve_matchings(np.array(cost)) == ([], [])
    assert solve_assignment(np.array(cost)) == ([], list(range(n)), list(range(m)))


# Tenths from -0.2 to 1, where totals tie, and the three non-finite costs.
COST_ENTRIES = st.one_of(st.integers(-2, 10).map(lambda k: k / 10),
                         st.sampled_from([INFEASIBLE, math.nan, -math.inf]))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(COST_ENTRIES, min_size=m, max_size=m), min_size=1, max_size=6)))
@example([[math.nan, 0.5]])
@example([[0.2, INFEASIBLE], [INFEASIBLE, math.nan]])
def test_nan_and_minus_inf_costs_solve_as_infeasible(cost):
    # An entry is feasible iff it is finite: a NaN or -inf entry, alone in
    # its row and column or beside finite ones, reads as INFEASIBLE on the
    # forced path and in the refine alike.
    cost = np.array(cost)
    as_infeasible = np.where(np.isfinite(cost), cost, INFEASIBLE)
    assert solve_matchings(cost) == solve_matchings(as_infeasible)

# ----------------------------------------------------------------- cascade

def test_cascade_prefers_fresher_track():
    kalman = KalmanModel()
    box = BoundingBox(100, 100, 40, 80)
    e1 = unit(1, 0)
    fresh = make_track(box, e1, time_since_update=1, track_id=1, kalman=kalman)
    stale = make_track(box, e1, time_since_update=5, track_id=2, kalman=kalman)
    det = make_detection(box, e1)
    config = TrackerConfig()
    matches, unmatched_tracks, unmatched_dets = matching_cascade(
        stack_of(stale, fresh), FrameDetections.of([det]), config, kalman)
    assert matches == [(1, 0)]  # index of `fresh` in the input list
    assert unmatched_tracks == [0]
    assert unmatched_dets == []


def test_cascade_matches_both_when_unambiguous():
    kalman = KalmanModel()
    config = TrackerConfig()
    box_a = BoundingBox(50, 50, 40, 80)
    box_b = BoundingBox(300, 200, 40, 80)
    e_a, e_b = unit(1, 0), unit(0, 1)
    tracks = [make_track(box_a, e_a, track_id=1, kalman=kalman),
              make_track(box_b, e_b, track_id=2, kalman=kalman)]
    dets = [make_detection(box_b, e_b), make_detection(box_a, e_a)]
    matches, unmatched_tracks, unmatched_dets = matching_cascade(
        stack_of(*tracks), FrameDetections.of(dets), config, kalman)
    assert matches == [(0, 1), (1, 0)]
    assert unmatched_tracks == [] and unmatched_dets == []


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 20), st.integers(0, 6),
       st.sampled_from([3, 10, 30]), st.booleans())
def test_cascade_matches_per_depth_oracle(seed, n_tracks, n_dets, max_age, axes):
    # Depths 1..max_age (the cascade's precondition), boxes near a few
    # shared spots so the gate passes some pairs and rejects others.
    # Tracks at the two far spots match nothing, so with many lingering
    # depths, dead depths sit between live ones. Embeddings are either unit
    # axes, where each cosine has one nonzero term and equal costs tie, or
    # random unit vectors near one of three random directions; a cosine
    # depends only on its own pair, so the oracle's per-depth calls see
    # the same entries. Detections scale theirs by 0.5-1.
    rng = np.random.default_rng(seed)
    kalman = KalmanModel()
    config = TrackerConfig(max_age=max_age, max_dist=float(rng.choice([0.3, 0.6, 1.0])))

    def box(spots):
        # Detections take the first three spots, 40 px apart; tracks also
        # the last two, far from every detection.
        spot = (0, 40, 80, 600, 900)[int(rng.integers(0, spots))]
        return BoundingBox(spot + int(rng.integers(0, 9)), int(rng.integers(0, 9)), 20, 40)

    directions = np.eye(3) if axes else rng.normal(size=(3, 8))

    def embedding():
        direction = directions[rng.integers(3)]
        return direction if axes else unit(*(direction + 0.3 * rng.normal(size=8)))

    tracks = [make_track(box(5), embedding(),
                         time_since_update=int(rng.integers(1, config.max_age + 1)),
                         track_id=k + 1, kalman=kalman)
              for k in range(n_tracks)]
    dets = [make_detection(box(3), rng.choice([0.5, 0.75, 1.0]) * embedding())
            for _ in range(n_dets)]
    tracks, dets = stack_of(*tracks), FrameDetections.of(dets)
    solve, blocks = association.solve_assignment, []

    def recording(cost):
        blocks.append(cost)
        return solve(cost)

    association.solve_assignment = recording
    try:
        got = matching_cascade(tracks, dets, config, kalman)
    finally:
        association.solve_assignment = solve
    assert got == cascade_oracle(tracks, dets, config, kalman)
    # Each solve is of a visited depth whose block still has a feasible entry.
    assert all(np.isfinite(block).any() for block in blocks)


@pytest.mark.parametrize("depths", [(1, 2), (2, 1)])
def test_cascade_skips_a_level_without_feasible_entries(monkeypatch, depths):
    # Track 0 sits on detection 0; track 1 and detection 1 are far from
    # each other and from everything else, so the gate rejects every pair
    # of track 1 or detection 1. Only the level holding track 0, shallower
    # or deeper, needs a solve.
    kalman, config, e1 = KalmanModel(), TrackerConfig(), unit(1, 0)
    near, far = BoundingBox(100, 100, 40, 80), BoundingBox(900, 700, 40, 80)
    tracks = stack_of(
        make_track(near, e1, time_since_update=depths[0], kalman=kalman),
        make_track(BoundingBox(500, 100, 40, 80), e1, time_since_update=depths[1],
                   track_id=2, kalman=kalman))
    dets = FrameDetections.of([make_detection(near, e1), make_detection(far, e1)])
    solve, blocks = association.solve_assignment, []

    def counting(cost):
        blocks.append(np.shape(cost))
        return solve(cost)

    monkeypatch.setattr(association, "solve_assignment", counting)
    got = matching_cascade(tracks, dets, config, kalman)
    assert got == cascade_oracle(tracks, dets, config, kalman)
    assert got[0] == [(0, 0)]
    assert blocks == [(1, 2)]


def test_cascade_no_detections():
    kalman = KalmanModel()
    tracks = [make_track(BoundingBox(0, 0, 10, 10), unit(1, 0), kalman=kalman)]
    matches, unmatched_tracks, unmatched_dets = matching_cascade(
        stack_of(*tracks), FrameDetections.of([]), TrackerConfig(), kalman)
    assert matches == [] and unmatched_tracks == [0] and unmatched_dets == []
