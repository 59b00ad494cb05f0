import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mttsort.kalman import CHI2_GATE_4DOF, KalmanModel, in_domain

from oracles import dense, dense_kalman_oracle, domain_rows_oracle, initiate_oracle


@pytest.fixture
def kf():
    return KalmanModel()


def random_state(rng, h_scale=50.0):
    """A random mean with positive height and a random positive definite
    covariance: one 2x2 block a a^T + 1e-3 I per measured coordinate."""
    mean = rng.normal(0, 100, 8)
    mean[2] = rng.uniform(0.3, 2.0)
    mean[3] = rng.uniform(10, h_scale + 10)
    a = rng.normal(0, 1, (4, 2, 2))
    block = a @ np.swapaxes(a, -1, -2) + 1e-3 * np.eye(2)
    covariance = np.stack([block[:, 0, 0], block[:, 0, 1], block[:, 1, 1]])
    return mean, covariance


def textbook_predict(kf, mean, covariance):
    """Dense-formula oracle built from explicit matrices, on the dense
    covariance."""
    covariance = dense(covariance)
    f = np.eye(8)
    f[:4, 4:] = np.eye(4)
    wp, wv = 1 / 20, 1 / 160
    h = mean[3]
    q = np.diag(np.square(
        [wp * h, wp * h, 1e-2, wp * h, wv * h, wv * h, 1e-5, wv * h]))
    return f @ mean, f @ covariance @ f.T + q


def textbook_update(kf, mean, covariance, z):
    covariance = dense(covariance)
    h_mat = np.eye(4, 8)
    wp = 1 / 20
    h = mean[3]
    r = np.diag(np.square([wp * h, wp * h, 1e-1, wp * h]))
    s = h_mat @ covariance @ h_mat.T + r
    k = covariance @ h_mat.T @ np.linalg.inv(s)
    new_mean = mean + k @ (z - h_mat @ mean)
    new_cov = covariance - k @ s @ k.T
    return new_mean, new_cov


def test_initiate_worked_example(kf):
    mean, cov = kf.initiate([10, 20, 0.5, 40])
    assert mean.tolist() == [10, 20, 0.5, 40, 0, 0, 0, 0]
    assert cov.shape == (3, 4) and cov[1].tolist() == [0, 0, 0, 0]


def test_initiate_variances_scale_with_height(kf):
    _, cov40 = kf.initiate([0, 0, 1.0, 40])
    _, cov80 = kf.initiate([0, 0, 1.0, 80])
    for idx in (0, 1, 3):  # cx, cy, h variances scale with h^2
        assert cov80[0, idx] == pytest.approx(4 * cov40[0, idx])
        assert cov80[2, idx] == pytest.approx(4 * cov40[2, idx])


@pytest.mark.parametrize("measurement", [[0, 0, -1, 40], [0, 0, 1, 0], [0, 0, 0.5, -3]])
def test_initiate_rejects_bad_measurement(kf, measurement):
    with pytest.raises(ValueError, match="aspect and height must be positive"):
        kf.initiate(measurement)
    # In a stack, the first bad row is named.
    with pytest.raises(ValueError, match=f"a={measurement[2]:.1f}, h={measurement[3]:.1f}"):
        kf.initiate([[0, 0, 1, 40], measurement, [0, 0, -9, -9]])


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
                          st.floats(1e-3, 1e2), st.floats(1e-3, 1e5)),
                min_size=1, max_size=6))
def test_stacked_initiate_rows_equal_single_calls_and_the_literal_oracle(rows):
    kf = KalmanModel()
    means, covariances = kf.initiate(np.array(rows))
    assert means.shape == (len(rows), 8) and covariances.shape == (len(rows), 3, 4)
    for i, row in enumerate(rows):
        mean, covariance = kf.initiate(row)
        want_mean, want_covariance = initiate_oracle(row)
        for got, want in ((means[i], mean), (covariances[i], covariance),
                          (mean, want_mean), (dense(covariance), want_covariance)):
            assert got.tobytes() == want.tobytes()


def test_predict_moves_position_by_velocity(kf):
    mean, cov = kf.initiate([10, 20, 0.5, 40])
    new_mean, _ = kf.predict(mean, cov)
    assert new_mean[:4].tolist() == [10, 20, 0.5, 40]

    mean[4] = 2.0
    new_mean, _ = kf.predict(mean, cov)
    assert new_mean[0] == 12
    assert new_mean[1:4].tolist() == [20, 0.5, 40]


def test_predict_covariance_matches_oracle(kf):
    rng = np.random.default_rng(3)
    for _ in range(50):
        mean, cov = random_state(rng)
        got_mean, got_cov = kf.predict(mean, cov)
        want_mean, want_cov = textbook_predict(kf, mean, cov)
        assert np.allclose(got_mean, want_mean, atol=1e-9)
        assert np.allclose(dense(got_cov), want_cov, atol=1e-9)


def test_update_with_projected_mean_is_noop_on_position(kf):
    mean, cov = kf.initiate([10, 20, 0.5, 40])
    mean, cov = kf.predict(mean, cov)
    new_mean, _ = kf.update(mean, cov, mean[:4])
    assert np.allclose(new_mean[:4], mean[:4], atol=1e-12)


def test_update_contracts_uncertainty(kf):
    rng = np.random.default_rng(4)
    for _ in range(20):
        mean, cov = random_state(rng)
        _, new_cov = kf.update(mean, cov, mean[:4] + rng.normal(0, 1, 4))
        assert np.trace(dense(new_cov)) <= np.trace(dense(cov)) + 1e-9


def test_update_matches_oracle(kf):
    rng = np.random.default_rng(5)
    for _ in range(100):
        mean, cov = random_state(rng)
        z = mean[:4] + rng.normal(0, 5, 4)
        z[2] = abs(z[2]) + 0.1
        z[3] = abs(z[3]) + 1
        got_mean, got_cov = kf.update(mean, cov, z)
        want_mean, want_cov = textbook_update(kf, mean, cov, z)
        assert np.allclose(got_mean, want_mean, atol=1e-9)
        assert np.allclose(dense(got_cov), want_cov, atol=1e-9)


def test_gating_distance_zero_at_projected_mean(kf):
    mean, cov = kf.initiate([10, 20, 0.5, 40])
    dist = kf.gating_distance(mean, cov, [mean[:4]])
    assert dist[0] == pytest.approx(0, abs=1e-12)


def test_gating_distance_permutation_invariant(kf):
    rng = np.random.default_rng(6)
    mean, cov = random_state(rng)
    measurements = rng.normal(0, 50, (5, 4))
    base = kf.gating_distance(mean, cov, measurements)
    perm = [3, 0, 4, 1, 2]
    shuffled = kf.gating_distance(mean, cov, measurements[perm])
    assert np.allclose(shuffled, base[perm])


def test_gating_distance_matches_solve_oracle(kf):
    rng = np.random.default_rng(7)
    for _ in range(30):
        mean, cov = random_state(rng)
        measurements = rng.normal(0, 50, (4, 4))
        got = kf.gating_distance(mean, cov, measurements)
        h_mat, wp, h = np.eye(4, 8), 1 / 20, mean[3]
        r = np.diag(np.square([wp * h, wp * h, 1e-1, wp * h]))
        proj_mean, proj_cov = h_mat @ mean, h_mat @ dense(cov) @ h_mat.T + r
        for row, z in zip(got, measurements):
            d = z - proj_mean
            want = d @ np.linalg.solve(proj_cov, d)
            assert row == pytest.approx(want, abs=1e-8)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_stacked_calls_equal_row_by_row_calls(n, m, seed):
    kf = KalmanModel()
    rng = np.random.default_rng(seed)
    states = [random_state(rng) for _ in range(n)]
    means = np.stack([mean for mean, _ in states])
    covariances = np.stack([cov for _, cov in states])
    z = means[:, :4] + rng.normal(0, 5, (n, 4))
    measurements = rng.normal(0, 100, (m, 4))

    predicted = kf.predict(means, covariances)
    updated = kf.update(means, covariances, z)
    gate = kf.gating_distance(means, covariances, measurements)
    assert gate.shape == (n, m)
    for i in range(n):
        for stacked, single in ((predicted, kf.predict(means[i], covariances[i])),
                                (updated, kf.update(means[i], covariances[i], z[i]))):
            assert np.array_equal(stacked[0][i], single[0])
            assert np.array_equal(stacked[1][i], single[1])
        assert np.array_equal(
            gate[i], kf.gating_distance(means[i], covariances[i], measurements))


def test_state_outside_the_domain_raises_value_error(kf):
    # A negative, NaN or infinite position variance makes that innovation
    # variance negative, NaN or infinite, so the state is outside the
    # domain and both steps fail in their shared check, for one state and
    # for a stack that holds it. (The dense filter's Cholesky
    # factorization let a NaN through.)
    for variance in (-1e6, np.nan, np.inf):
        mean, covariance = kf.initiate([10, 20, 0.5, 40])
        covariance[0, 1] = variance
        assert in_domain([mean[3]], [covariance[0].tolist()]) == [False]
        with pytest.raises(ValueError, match="innovation variance is not positive and finite"):
            kf.update(mean, covariance, mean[:4])
        with pytest.raises(ValueError):
            kf.gating_distance(mean, covariance, [mean[:4]])
        means, covariances = kf.initiate([[10, 20, 0.5, 40]] * 3)
        covariances[1] = covariance
        with pytest.raises(ValueError):
            kf.update(means, covariances, means[:, :4])
        with pytest.raises(ValueError):
            kf.gating_distance(means, covariances, means[:, :4])


# Heights and position variances: ordinary values, zeros, values whose
# noise underflows or overflows, NaN and infinities.
domain_fields = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-170, 1.0, -1.0, 1e154, 2.68e155,
                     1e300, 1.7e308, np.inf, -np.inf, np.nan]),
    st.floats(-1e4, 1e4), st.floats())


@settings(deadline=None, max_examples=500)
@given(st.lists(st.tuples(domain_fields, st.tuples(*[domain_fields] * 4)),
                min_size=1, max_size=6))
def test_in_domain_is_the_dense_filters_rule_and_the_update_raise(states):
    # `in_domain` of each (height, position-variance row) equals the dense
    # filter's rule, with no warning; the update and the gate of the stack
    # raise ValueError exactly when a state is outside the domain.
    mean = np.zeros((len(states), 8))
    mean[:, 3] = [height for height, _ in states]
    covariance = np.zeros((len(states), 3, 4))
    covariance[:, 0] = [p for _, p in states]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = in_domain([height for height, _ in states], [p for _, p in states])
    assert inside == domain_rows_oracle(mean, covariance).tolist()
    kf = KalmanModel()
    with np.errstate(all="ignore"):
        for step in (lambda: kf.update(mean, covariance, mean[:, :4]),
                     lambda: kf.gating_distance(mean, covariance, mean[:, :4])):
            if all(inside):
                step()
            else:
                with pytest.raises(ValueError, match="not positive and finite"):
                    step()


def test_gate_threshold_constant():
    assert CHI2_GATE_4DOF == 9.4877


def test_long_run_stays_symmetric_psd(kf):
    rng = np.random.default_rng(8)
    mean, cov = kf.initiate([100, 100, 0.7, 60])
    for _ in range(1000):
        mean, cov = kf.predict(mean, cov)
        z = mean[:4] + rng.normal(0, 2, 4)
        z[2] = max(z[2], 0.1)
        z[3] = max(z[3], 1.0)
        mean, cov = kf.update(mean, cov, z)
        assert np.linalg.eigvalsh(dense(cov)).min() >= -1e-9


def test_noiseless_tracking_error_shrinks(kf):
    # Constant-velocity ground truth; the filter has to learn the velocity.
    velocity = np.array([3.0, -2.0, 0.0, 0.0])
    gt = np.array([50.0, 80.0, 0.8, 40.0])
    mean, cov = kf.initiate(gt)
    errors = []
    for _ in range(10):
        gt = gt + velocity
        mean, cov = kf.predict(mean, cov)
        mean, cov = kf.update(mean, cov, gt)
        errors.append(np.linalg.norm(mean[:2] - gt[:2]))
    # Bounded well under the box scale; once the velocity estimate settles
    # (frame 2) the error decreases monotonically.
    assert max(errors) < 1.0
    assert errors[-1] < 0.3 * errors[0]
    assert all(b <= a + 1e-9 for a, b in zip(errors[1:], errors[2:]))


@st.composite
def block_states(draw):
    """A stack of 1 to 30 states with heights in [1e-3, 1e5], a random
    positive definite 2x2 block per coordinate (scaled by the height, or
    by 1 for the aspect) and measurements near each state."""
    heights = np.array(draw(st.lists(st.floats(1e-3, 1e5), min_size=1, max_size=30)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = len(heights)
    scale = np.where(np.arange(4) == 2, 1.0, heights[:, None])
    mean = np.concatenate([rng.normal(0, 1, (n, 4)), rng.normal(0, 0.1, (n, 4))], axis=1)
    mean *= np.tile(scale, 2)
    mean[:, 2] = rng.uniform(0.1, 3.0, n)
    mean[:, 3] = heights
    # Lower-triangular factors with positive diagonals, so a a^T is
    # positive definite.
    diagonal = np.exp(rng.uniform(-3, 1, (2, n, 4))) * scale
    lower = rng.normal(0, 1, (n, 4)) * scale
    covariance = np.stack([diagonal[0] ** 2, diagonal[0] * lower,
                           lower ** 2 + diagonal[1] ** 2], axis=1)
    measurement = mean[:, :4] + rng.normal(0, 1, (n, 4)) * scale
    return mean, covariance, measurement


@settings(deadline=None, max_examples=300)
@given(block_states())
def test_block_filter_equals_the_dense_oracle_bit_for_bit(state):
    # The dense filter through matmuls, Cholesky and solves rounds each
    # entry once, as the block formulas do; and it keeps every off-block
    # entry an exact +0.0, so its output is the expansion of a block.
    mean, covariance, measurement = state
    kf = KalmanModel()
    for got, want in ((kf.predict(mean, covariance),
                       dense_kalman_oracle.predict(mean, dense(covariance))),
                      (kf.update(mean, covariance, measurement),
                       dense_kalman_oracle.update(mean, dense(covariance), measurement))):
        assert got[0].tobytes() == want[0].tobytes()
        assert dense(got[1]).tobytes() == want[1].tobytes()


@settings(deadline=None, max_examples=300)
@given(block_states(), st.integers(1, 8), st.data())
def test_gate_entries_depend_only_on_their_own_pair(state, m, data):
    mean, covariance, _ = state
    rng = np.random.default_rng(m)
    rows = rng.integers(0, len(mean), m)
    measurements = mean[rows, :4] + rng.normal(0, 3, (m, 4)) * mean[rows, 3:4]
    kf = KalmanModel()
    gate = kf.gating_distance(mean, covariance, measurements)
    assert gate.shape == (len(mean), m)
    for i in range(len(mean)):
        for j in range(m):
            single = kf.gating_distance(mean[i], covariance[i], measurements[j])
            assert single.tobytes() == gate[i, j:j + 1].tobytes()
    subset = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    assert (kf.gating_distance(mean, covariance, measurements[subset]).tobytes()
            == gate[:, subset].tobytes())
