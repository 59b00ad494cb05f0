"""Constant-velocity Kalman filter over bounding-box state.

The 8-dimensional state

    cx, cy, a, h, vcx, vcy, va, vh

holds the box center (cx, cy), aspect ratio a, height h, and their
velocities. Motion follows a constant-velocity model with dt = 1; the box
observation (cx, cy, a, h) is a direct linear measurement of the state.
Process and measurement noise are scaled relative to the current box
height, which keeps the filter usable across object scales.

The motion, observation and noise matrices are block-diagonal, with each
measured coordinate coupled only to its own velocity, so the filter runs
as four 2-state filters. A covariance is stored as its 2x2 blocks: a
`(3, 4)` array of rows p (position variance), c (position-velocity
covariance) and v (velocity variance), one column per coordinate.
"""

from __future__ import annotations

from math import inf

import numpy as np

# 0.95 quantile of the chi-square distribution with 4 degrees of freedom.
# Squared Mahalanobis distances above this make an association infeasible.
CHI2_GATE_4DOF = 9.4877

_POSITION_WEIGHT = 1.0 / 20
_VELOCITY_WEIGHT = 1.0 / 160
# Per-coordinate standard deviations are relative * height + fixed: of the
# motion (predict) and of a new track's state (initiate, twice the motion's
# position and ten times its velocity terms), laid out as a covariance whose
# c row is zero, and of the innovation (update and gate).
_MOTION_RELATIVE = np.array([[_POSITION_WEIGHT, _POSITION_WEIGHT, 0, _POSITION_WEIGHT],
                             [0, 0, 0, 0],
                             [_VELOCITY_WEIGHT, _VELOCITY_WEIGHT, 0, _VELOCITY_WEIGHT]])
_INITIAL_RELATIVE = _MOTION_RELATIVE * [[2], [0], [10]]
_STATE_FIXED = np.array([[0, 0, 1e-2, 0], [0, 0, 0, 0], [0, 0, 1e-5, 0]])
_INNOVATION_RELATIVE = _MOTION_RELATIVE[0]
_INNOVATION_FIXED = np.array([0, 0, 1e-1, 0])
# Rows of the flattened outer product (kp, kv) s (kp, kv) that are the p, c
# and v terms of K S K^T, and of its transpose.
_TERMS, _TRANSPOSED_TERMS = np.array([0, 1, 3]), np.array([0, 2, 3])
# The innovation's (relative, fixed) pairs as Python floats.
_INNOVATION_NOISE = tuple(zip(_INNOVATION_RELATIVE.tolist(), _INNOVATION_FIXED.tolist()))


class KalmanModel:
    """Kalman initiation/prediction/update/gating for track states.

    `initiate` takes one `(4,)` measurement or a stack of N, `(N, 4)`, and
    `predict`, `update` and `gating_distance` take one state, an `(8,)`
    mean with a `(3, 4)` covariance, or a stack of N states, `(N, 8)` means
    with `(N, 3, 4)` covariances, through the same elementwise code: each
    row of a stacked call equals the call on that row alone bit for bit,
    and each gate entry depends only on its own state and measurement.

    The results equal the dense 8x8 filter (matrix products, a Cholesky
    factor and two linear solves) bit for bit: its model is block-diagonal,
    so each dense entry has at most two nonzero terms and is rounded once,
    and its solve against the diagonal factor multiplies by `1 / sqrt(s)`.

    The noise is fixed: the motion and innovation standard deviations are
    the current box height times 1/20 for the position-like components and
    1/160 for the velocity components, and a new track's are twice and ten
    times those.
    """

    def initiate(self, measurement) -> tuple[np.ndarray, np.ndarray]:
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
        covariance = _variance(
            measurement[..., 3, None, None], _INITIAL_RELATIVE, _STATE_FIXED)
        return mean, covariance

    def predict(self, mean, covariance) -> tuple[np.ndarray, np.ndarray]:
        """Run the prediction step: x' = F x, P' = F P F^T + Q, that is
        p' = ((p + c) + (c + v)) + q_p, c' = c + v and v' = v + q_v."""
        mean = np.asarray(mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        new_covariance = covariance.copy()
        new_covariance[..., :2, :] += covariance[..., 1:, :]
        new_covariance[..., 0, :] += new_covariance[..., 1, :]
        new_covariance += _variance(
            mean[..., 3, None, None], _MOTION_RELATIVE, _STATE_FIXED)
        new_mean = mean.copy()
        new_mean[..., :4] += mean[..., 4:]
        return new_mean, new_covariance

    def update(self, mean, covariance, measurement) -> tuple[np.ndarray, np.ndarray]:
        """Run the correction step against (cx, cy, a, h) measurements, one
        `(4,)` row per state: gains kp = (p r) r and kv = (c r) r with
        r = 1 / sqrt(s), and P' = 0.5 (X + X^T) with X = P - K S K^T.

        Raises ValueError if a state of the stack is outside the filter's
        domain (`in_domain`).
        """
        mean = np.asarray(mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        measurement = np.asarray(measurement, dtype=float)
        s, r = _innovation(mean, covariance)
        gain = covariance[..., :2, :] * r[..., None, :] * r[..., None, :]
        innovation = measurement - mean[..., :4]
        new_mean = mean + (gain * innovation[..., None, :]).reshape(mean.shape)
        outer = ((gain * s[..., None, :])[..., :, None, :]
                 * gain[..., None, :, :]).reshape(covariance.shape[:-2] + (4, 4))
        # The dense filter's 0.5 (X + X^T): c' averages X's two off-diagonal
        # entries, which round differently.
        new_covariance = 0.5 * ((covariance - outer.take(_TERMS, axis=-2))
                                + (covariance - outer.take(_TRANSPOSED_TERMS, axis=-2)))
        return new_mean, new_covariance

    def gating_distance(self, mean, covariance, measurements) -> np.ndarray:
        """Squared Mahalanobis distance of measurements from each state,
        ((z0² + z1²) + z2²) + z3² with z = (measurement - mean[:4]) r.

        `measurements` is an Mx4 array; the result has length M for one
        state and shape (N, M) for a stack of N. Compare against
        CHI2_GATE_4DOF to decide feasibility. Raises ValueError if a state
        of the stack is outside the filter's domain (`in_domain`).
        """
        measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
        mean = np.asarray(mean, dtype=float)
        _, r = _innovation(mean, np.asarray(covariance, dtype=float))
        z = (measurements.T - mean[..., :4, None]) * r[..., :, None]
        z *= z
        return z[..., 0, :] + z[..., 1, :] + z[..., 2, :] + z[..., 3, :]


def _variance(height, relative, fixed) -> np.ndarray:
    """Noise variances (relative * height + fixed)², stacked like `height`."""
    return np.square(height * relative + fixed)


def in_domain(heights, position_variances) -> list:
    """Per state, whether it is in the filter's domain, as its update and
    gate need: every innovation variance s = p + R² positive and finite.
    Takes the box heights h and covariance p rows as Python floats, with
    `_innovation`'s IEEE operations and no warning on overflow."""
    (r0, f0), (r1, f1), (r2, f2), (r3, f3) = _INNOVATION_NOISE
    inside = []
    for h, (p0, p1, p2, p3) in zip(heights, position_variances):
        sd0, sd1, sd2, sd3 = h * r0 + f0, h * r1 + f1, h * r2 + f2, h * r3 + f3
        inside.append(0.0 < p0 + sd0 * sd0 < inf and 0.0 < p1 + sd1 * sd1 < inf
                      and 0.0 < p2 + sd2 * sd2 < inf and 0.0 < p3 + sd3 * sd3 < inf)
    return inside


def _innovation(mean, covariance) -> tuple[np.ndarray, np.ndarray]:
    """Innovation variances s = p + R² and 1 / sqrt(s); ValueError unless
    every state is in the domain (`in_domain`'s test, elementwise)."""
    s = covariance[..., 0, :] + _variance(
        mean[..., 3, None], _INNOVATION_RELATIVE, _INNOVATION_FIXED)
    if not ((0.0 < s) & (s < inf)).all():
        raise ValueError(f"innovation variance is not positive and finite: {s}")
    return s, 1.0 / np.sqrt(s)
