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


class NumericalError(RuntimeError):
    """Raised when a filter step fails numerically (singular innovation)."""


class KalmanModel:
    """Kalman prediction/update/gating for one track state.

    The noise standard deviations are the current box height times
    `position_noise_weight` for the position-like state components and
    times `velocity_noise_weight` for the velocity components.
    """

    position_noise_weight = 1.0 / 20
    velocity_noise_weight = 1.0 / 160
    _motion_mat = np.eye(8) + np.eye(8, k=4)  # dt = 1
    _update_mat = np.eye(4, 8)

    def initiate(self, measurement) -> tuple[np.ndarray, np.ndarray]:
        """Create a new track state from an unassociated measurement.

        Velocities start at zero; the diagonal covariance expresses high
        uncertainty about them.
        """
        measurement = np.asarray(measurement, dtype=float)
        cx, cy, a, h = measurement
        if not (h > 0 and a > 0):
            raise ValueError(
                f"invalid measurement: aspect and height must be positive, "
                f"got a={a}, h={h}"
            )
        mean = np.concatenate([measurement, np.zeros(4)])
        wp, wv = self.position_noise_weight, self.velocity_noise_weight
        std = [
            2 * wp * h, 2 * wp * h, 1e-2, 2 * wp * h,
            10 * wv * h, 10 * wv * h, 1e-5, 10 * wv * h,
        ]
        covariance = np.diag(np.square(std))
        return mean, covariance

    def predict(self, mean, covariance) -> tuple[np.ndarray, np.ndarray]:
        """Run the prediction step: x' = F x, P' = F P F^T + Q."""
        mean = np.asarray(mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        wp, wv = self.position_noise_weight, self.velocity_noise_weight
        h = mean[3]
        std = [
            wp * h, wp * h, 1e-2, wp * h,
            wv * h, wv * h, 1e-5, wv * h,
        ]
        motion_cov = np.diag(np.square(std))
        new_mean = self._motion_mat @ mean
        new_covariance = (
            self._motion_mat @ covariance @ self._motion_mat.T + motion_cov
        )
        return new_mean, new_covariance

    def project(self, mean, covariance) -> tuple[np.ndarray, np.ndarray]:
        """Project the state distribution into measurement space."""
        wp = self.position_noise_weight
        h = mean[3]
        std = [wp * h, wp * h, 1e-1, wp * h]
        innovation_cov = np.diag(np.square(std))
        projected_mean = self._update_mat @ mean
        projected_cov = (
            self._update_mat @ covariance @ self._update_mat.T + innovation_cov
        )
        return projected_mean, projected_cov

    def update(self, mean, covariance, measurement) -> tuple[np.ndarray, np.ndarray]:
        """Run the correction step against a (cx, cy, a, h) measurement.

        Raises NumericalError if the innovation covariance cannot be
        factorized; callers are expected to keep the predicted state in
        that case.
        """
        mean = np.asarray(mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        measurement = np.asarray(measurement, dtype=float)
        projected_mean, projected_cov = self.project(mean, covariance)
        chol = _cholesky(projected_cov)
        kalman_gain = np.linalg.solve(
            chol.T, np.linalg.solve(chol, (covariance @ self._update_mat.T).T)).T
        innovation = measurement - projected_mean
        new_mean = mean + kalman_gain @ innovation
        new_covariance = covariance - kalman_gain @ projected_cov @ kalman_gain.T
        # Keep the covariance exactly symmetric; the subtraction above
        # accumulates asymmetry at round-off scale over long sequences.
        new_covariance = 0.5 * (new_covariance + new_covariance.T)
        return new_mean, new_covariance

    def gating_distance(self, mean, covariance, measurements) -> np.ndarray:
        """Squared Mahalanobis distance of measurements from the state.

        `measurements` is an Nx4 array; the result has length N. Compare
        against CHI2_GATE_4DOF to decide feasibility.
        """
        measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
        projected_mean, projected_cov = self.project(mean, covariance)
        chol = _cholesky(projected_cov)
        d = measurements - projected_mean
        z = np.linalg.solve(chol, d.T)
        return np.sum(z * z, axis=0)


def _cholesky(projected_cov) -> np.ndarray:
    """Lower Cholesky factor of a projected covariance; NumericalError if
    it is not positive definite."""
    try:
        return np.linalg.cholesky(projected_cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"projected covariance is not positive definite: {exc}") from exc
