"""Constant turn-rate motion model of the receiver state.

The state is [x, y, z, heading, bias]: the receiver moves in the horizontal
plane at a fixed speed and turn rate; height and clock bias stay constant.
The filter's EK prediction and the ground-truth simulator share this model.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import wrap_angle


def _is_covariance_5x5(matrix: np.ndarray) -> bool:
    """Finite, exactly symmetric and positive semi-definite up to eigenvalue
    rounding (1e-12 of the largest magnitude)."""
    if (matrix.shape != (5, 5) or not np.isfinite(matrix).all()
            or not np.array_equal(matrix, matrix.T)):
        return False
    eig = np.linalg.eigvalsh(matrix)
    return eig[0] >= -1e-12 * np.abs(eig).max()


def sensor_transition(state: np.ndarray, speed: float, turn_rate: float,
                      dt: float) -> np.ndarray:
    """Constant turn-rate transition of [x, y, z, heading, bias]."""
    x, y, z, heading, bias = state
    w = turn_rate
    if abs(w) < 1e-9:
        dx = speed * dt * math.cos(heading)
        dy = speed * dt * math.sin(heading)
    else:
        ratio = speed / w
        dx = ratio * (math.sin(heading + w * dt) - math.sin(heading))
        dy = ratio * (-math.cos(heading + w * dt) + math.cos(heading))
    return np.array([x + dx, y + dy, z, wrap_angle(heading + w * dt), bias])


def sensor_transition_jacobian(state: np.ndarray, speed: float,
                               turn_rate: float, dt: float) -> np.ndarray:
    """Jacobian of :func:`sensor_transition` with respect to the state."""
    heading = state[3]
    w = turn_rate
    F = np.eye(5)
    if abs(w) < 1e-9:
        F[0, 3] = -speed * dt * math.sin(heading)
        F[1, 3] = speed * dt * math.cos(heading)
    else:
        ratio = speed / w
        F[0, 3] = ratio * (math.cos(heading + w * dt) - math.cos(heading))
        F[1, 3] = ratio * (math.sin(heading + w * dt) - math.sin(heading))
    return F
