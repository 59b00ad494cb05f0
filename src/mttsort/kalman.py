"""Constant-velocity Kalman filter over bounding-box state.

The 8-dimensional state

    cx, cy, a, h, vcx, vcy, va, vh

holds the box center (cx, cy), aspect ratio a, height h, and their
velocities. Motion follows a constant-velocity model with dt = 1; the box
observation (cx, cy, a, h) is a direct linear measurement of the state.
Process and measurement noise are scaled relative to the current box
height, which keeps the filter usable across object scales.
"""

from __future__ import annotations

import numpy as np

# 0.95 quantile of the chi-square distribution with 4 degrees of freedom.
# Squared Mahalanobis distances above this make an association infeasible.
CHI2_GATE_4DOF = 9.4877

_POSITION_WEIGHT = 1.0 / 20
_VELOCITY_WEIGHT = 1.0 / 160
# Per-component standard deviations are relative * height + fixed: of the
# motion (predict) and of a new track's state (initiate, twice the motion's
# position and ten times its velocity terms) over the 8 state components,
# and of the innovation (project) over the 4 measured ones.
_MOTION_RELATIVE = np.array([_POSITION_WEIGHT, _POSITION_WEIGHT, 0, _POSITION_WEIGHT,
                             _VELOCITY_WEIGHT, _VELOCITY_WEIGHT, 0, _VELOCITY_WEIGHT])
_INITIAL_RELATIVE = _MOTION_RELATIVE * np.repeat([2, 10], 4)
_STATE_FIXED = np.array([0, 0, 1e-2, 0, 0, 0, 1e-5, 0])
_INNOVATION_RELATIVE = np.array([_POSITION_WEIGHT, _POSITION_WEIGHT, 0, _POSITION_WEIGHT])
_INNOVATION_FIXED = np.array([0, 0, 1e-1, 0])


class NumericalError(RuntimeError):
    """Raised when a filter step fails numerically (singular innovation)."""


class KalmanModel:
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
        covariance = _diagonal_noise(
            measurement[..., 3], _INITIAL_RELATIVE, _STATE_FIXED)
        return mean, covariance

    def predict(self, mean, covariance) -> tuple[np.ndarray, np.ndarray]:
        """Run the prediction step: x' = F x, P' = F P F^T + Q."""
        mean = np.asarray(mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        motion_cov = _diagonal_noise(mean[..., 3], _MOTION_RELATIVE, _STATE_FIXED)
        new_mean = np.matmul(self._motion_mat, mean[..., None])[..., 0]
        new_covariance = (
            self._motion_mat @ covariance @ self._motion_mat.T + motion_cov
        )
        return new_mean, new_covariance

    def project(self, mean, covariance) -> tuple[np.ndarray, np.ndarray]:
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

    def update(self, mean, covariance, measurement) -> tuple[np.ndarray, np.ndarray]:
        """Run the correction step against (cx, cy, a, h) measurements, one
        `(4,)` row per state.

        Raises NumericalError if any innovation covariance of the stack
        cannot be factorized; callers are expected to keep the predicted
        state of that track.
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

    def gating_distance(self, mean, covariance, measurements) -> np.ndarray:
        """Squared Mahalanobis distance of measurements from each state.

        `measurements` is an Mx4 array; the result has length M for one
        state and shape (N, M) for a stack of N. Compare against
        CHI2_GATE_4DOF to decide feasibility. Raises NumericalError if any
        projected covariance of the stack is not positive definite.
        """
        measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
        projected_mean, projected_cov = self.project(mean, covariance)
        chol = _cholesky(projected_cov)
        d = measurements - projected_mean[..., None, :]
        z = np.linalg.solve(chol, _t(d))
        return np.sum(z * z, axis=-2)


def _t(stack) -> np.ndarray:
    """Transpose the last two axes: each matrix of a stack, or one matrix."""
    return np.swapaxes(stack, -1, -2)


def _diagonal_noise(height, relative, fixed) -> np.ndarray:
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


def _cholesky(projected_cov) -> np.ndarray:
    """Lower Cholesky factor of a projected covariance; NumericalError if
    it is not positive definite."""
    try:
        return np.linalg.cholesky(projected_cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"projected covariance is not positive definite: {exc}") from exc
