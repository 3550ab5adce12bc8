"""Constant-velocity Kalman filter over [cx, cy, area, aspect] box states.

The state is the 4-vector measurement plus its per-frame rates, giving an
8-dimensional mean and covariance. Noise magnitudes follow the usual
height-proportional convention: position slots scale with box height,
the area slot with height squared, and the dimensionless aspect slot gets
small fixed standard deviations.

Every function works on a stack of beliefs: a :class:`KalmanState` holds
means of shape ``(..., 8)`` and covariances of shape ``(..., 8, 8)``, and one
call filters every belief in the stack. A single belief is the stack with no
leading axis. The transition ``F = [[I, I], [0, I]]`` and the observation
``H = [I, 0]`` only add and select blocks, so predict is written as slice
additions and update reads ``P Hᵀ`` and ``H P Hᵀ`` as sub-blocks of ``P``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATE_DIM = 8
MEAS_DIM = 4

_ASPECT_STD_PROCESS = 1e-2
_ASPECT_STD_MEASURE = 1e-1
_ASPECT_STD_VELOCITY = 1e-5
_MIN_HEIGHT = 1e-3


class NumericsError(RuntimeError):
    """Raised when a filter update hits a degenerate (singular) innovation."""


@dataclass(frozen=True)
class KalmanState:
    """Gaussian beliefs over box states: means ``(..., 8)``, covariances ``(..., 8, 8)``."""

    mean: np.ndarray
    covariance: np.ndarray

    def projected(self) -> np.ndarray:
        """Measurement-space view of the mean (first four components)."""
        return self.mean[..., :MEAS_DIM].copy()


def _measurement_height(z4: np.ndarray) -> np.ndarray:
    area = np.maximum(z4[..., 2], _MIN_HEIGHT)
    aspect = np.maximum(z4[..., 3], _MIN_HEIGHT)
    return np.maximum(np.sqrt(area / aspect), _MIN_HEIGHT)


def _diagonal(std: np.ndarray) -> np.ndarray:
    """``(..., k, k)`` diagonal matrices with variances ``std**2``."""
    k = std.shape[-1]
    out = np.zeros(std.shape[:-1] + (k * k,))
    out[..., :: k + 1] = std * std
    return out.reshape(std.shape + (k,))


def _noise_std(height: np.ndarray, weights: tuple, aspect_std: tuple) -> np.ndarray:
    """Per-slot standard deviations ``weight * height`` over [cx, cy, area, aspect]
    slots (and their rates): the area slots scale with height squared, the
    aspect slots take the fixed ``aspect_std``."""
    height = np.asarray(height, dtype=np.float64)
    std = height[..., None] * np.asarray(weights)
    std[..., 2::4] *= height[..., None]
    std[..., 3::4] = aspect_std
    return std


class MotionModel:
    """Transition matrix plus height-scaled noise generators.

    ``pos_weight`` and ``vel_weight`` set the per-frame standard deviation of
    position/size and velocity noise as fractions of the box height. The
    noise generators take a height per belief and return one diagonal
    matrix each.
    """

    def __init__(self, pos_weight: float = 1.0 / 20.0, vel_weight: float = 1.0 / 160.0):
        self.pos_weight = pos_weight
        self.vel_weight = vel_weight
        f = np.eye(STATE_DIM)
        for i in range(MEAS_DIM):
            f[i, MEAS_DIM + i] = 1.0
        self.transition = f

    def process_noise(self, height: np.ndarray) -> np.ndarray:
        wp, wv = self.pos_weight, self.vel_weight
        return _diagonal(_noise_std(height, (wp, wp, wp, 0.0, wv, wv, wv, 0.0),
                                    (_ASPECT_STD_PROCESS, _ASPECT_STD_VELOCITY)))

    def measurement_noise(self, height: np.ndarray) -> np.ndarray:
        wp = self.pos_weight
        return _diagonal(_noise_std(height, (wp, wp, wp, 0.0), (_ASPECT_STD_MEASURE,)))

    def initial_covariance(self, z4: np.ndarray) -> np.ndarray:
        wp, wv = self.pos_weight, self.vel_weight
        weights = (2 * wp, 2 * wp, 2 * wp, 0.0, 10 * wv, 10 * wv, 10 * wv, 0.0)
        return _diagonal(_noise_std(_measurement_height(z4), weights,
                                    (_ASPECT_STD_PROCESS, _ASPECT_STD_VELOCITY)))


def _symmetrized(p: np.ndarray) -> np.ndarray:
    return (p + np.swapaxes(p, -1, -2)) / 2.0


def initiate(z: np.ndarray, model: MotionModel) -> KalmanState:
    """Bootstrap beliefs from first measurements: zero velocity, diagonal covariance."""
    z = np.asarray(z, dtype=np.float64)
    mean = np.zeros(z.shape[:-1] + (STATE_DIM,))
    mean[..., :MEAS_DIM] = z
    return KalmanState(mean=mean, covariance=model.initial_covariance(z))


def predict(state: KalmanState, model: MotionModel) -> KalmanState:
    """Advance every belief one frame under the constant-velocity model.

    ``F P Fᵀ`` is formed as two slice additions: the velocity rows are added
    to the position rows, then the velocity columns to the position columns.
    Each entry is then the same sum of two terms that the matrix product
    forms, so no rounding is added.
    """
    prior = state.mean
    height = _measurement_height(prior[..., :MEAS_DIM])
    mean = prior.copy()
    mean[..., :MEAS_DIM] += prior[..., MEAS_DIM:]
    cov = state.covariance.copy()
    cov[..., :MEAS_DIM, :] += state.covariance[..., MEAS_DIM:, :]
    cov[..., :, :MEAS_DIM] += cov[..., :, MEAS_DIM:]
    return KalmanState(mean=mean, covariance=_symmetrized(cov + model.process_noise(height)))


def gain_matrix(state: KalmanState, model: MotionModel, noise_scale: float = 1.0) -> np.ndarray:
    """The Kalman gains ``K = P Hᵀ S⁻¹`` that :func:`update` applies, ``(..., 8, 4)``.

    ``S = P[:4, :4] + R`` is the innovation covariance, with the measurement
    noise ``R`` evaluated at the prior mean's height and scaled by
    ``noise_scale``. ``S⁻¹`` comes from its Cholesky factor ``L`` as
    ``L⁻ᵀ L⁻¹``. Raises :class:`NumericsError` unless every ``S`` in the
    stack is positive definite.
    """
    p = state.covariance
    height = _measurement_height(state.mean[..., :MEAS_DIM])
    s = p[..., :MEAS_DIM, :MEAS_DIM] + model.measurement_noise(height) * noise_scale
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(s))
    except np.linalg.LinAlgError as exc:
        raise NumericsError("singular innovation covariance") from exc
    return p[..., :, :MEAS_DIM] @ (np.swapaxes(chol_inv, -1, -2) @ chol_inv)


def update(
    state: KalmanState,
    z: np.ndarray,
    model: MotionModel,
    noise_scale: float = 1.0,
) -> KalmanState:
    """Fold one measurement per belief into the stack.

    ``noise_scale`` inflates the measurement covariance; soft self-updates
    (virtual proposals of unmatched tracks) pass a value > 1 so the pseudo
    observation carries little weight.

    Raises :class:`NumericsError` when an innovation covariance is singular.
    The measurement noise is evaluated at the prior mean's height, never at
    the measurement itself, so that equal priors always yield equal gains.
    """
    z = np.asarray(z, dtype=np.float64)
    gain = gain_matrix(state, model, noise_scale)
    p = state.covariance
    innovation = z - state.mean[..., :MEAS_DIM]
    mean = state.mean + (gain @ innovation[..., None])[..., 0]
    cov = _symmetrized(p - gain @ p[..., :MEAS_DIM, :])
    return KalmanState(mean=mean, covariance=cov)


class VelocityBuffer:
    """Rings of the last ``capacity`` velocity 4-vectors recorded per belief.

    ``ring`` is ``(n, capacity, 4)`` and ``count`` ``(n,)`` holds how many
    velocities each belief has recorded; record ``k`` sits in slot
    ``k % capacity``. ``VelocityBuffer(capacity)`` is the ring of one belief
    (n = 1). A buffer built from existing arrays writes into them, so a
    tracker can keep its rings as columns of its own state.
    """

    def __init__(self, capacity: int = 5, ring: np.ndarray | None = None,
                 count: np.ndarray | None = None):
        if ring is None:
            if capacity < 1:
                raise ValueError("velocity buffer capacity must be >= 1")
            ring = np.zeros((1, capacity, MEAS_DIM))
            count = np.zeros(1, dtype=np.int64)
        self.ring = ring
        self.count = count

    @property
    def capacity(self) -> int:
        return self.ring.shape[-2]

    def __getitem__(self, rows) -> "VelocityBuffer":
        """Copy of the rings of ``rows``."""
        return VelocityBuffer(ring=self.ring[rows], count=self.count[rows])

    def __len__(self) -> int:
        """Entries held by a one-belief buffer."""
        (held,) = np.minimum(self.count, self.capacity)
        return int(held)

    def _oldest_first(self) -> np.ndarray:
        """``(n, capacity, 4)``: each ring's slots reordered from the oldest entry."""
        cap = self.capacity
        start = np.where(self.count >= cap, self.count % cap, 0)
        slots = (start[:, None] + np.arange(cap)) % cap
        return np.take_along_axis(self.ring, slots[..., None], axis=1)

    def entries(self) -> list[np.ndarray]:
        """Held velocities of a one-belief buffer, oldest first."""
        return list(self._oldest_first()[0, : len(self)].copy())

    def record(self, state: KalmanState, rows=None) -> None:
        """Store each belief's current velocity in the ring of its row.

        ``state`` holds one belief per entry of ``rows`` (all rows when
        None); a full ring evicts its oldest entry.
        """
        if rows is None:
            rows = np.arange(len(self.count))
        velocity = state.mean.reshape(-1, STATE_DIM)[:, MEAS_DIM:]
        self.ring[rows, self.count[rows] % self.capacity] = velocity
        self.count[rows] += 1

    def recall(self, mode: str = "oldest") -> tuple[np.ndarray, np.ndarray]:
        """Per ring, the oldest (or the mean) held velocity, and whether any is held."""
        ordered = self._oldest_first()
        held = np.minimum(self.count, self.capacity)
        if mode == "oldest":
            recalled = ordered[:, 0]
        elif mode == "mean":
            used = np.arange(self.capacity) < held[:, None]
            total = np.where(used[..., None], ordered, 0.0).sum(axis=1)
            recalled = total / np.maximum(held, 1)[:, None]
        else:
            raise ValueError(f"unknown rollback mode {mode!r}")
        return recalled, held > 0


def rollback_velocity(
    state: KalmanState,
    buffer: VelocityBuffer,
    mode: str = "oldest",
    freeze_size_velocity: bool = False,
) -> tuple[KalmanState, np.ndarray]:
    """Replace each mean's velocity components with a buffered (pre-noise) entry.

    ``buffer`` holds one ring per belief of ``state``. Position, size, and
    covariance are left untouched. Returns the new state plus, per belief, a
    flag telling whether any history was available; a belief with an empty
    ring keeps its velocity, and a stack without any history is returned
    as is.
    """
    recalled, held = buffer.recall(mode)
    flags = held.reshape(state.mean.shape[:-1])
    if not held.any():
        return state, flags
    mean = state.mean.copy()
    velocity = mean.reshape(-1, STATE_DIM)[:, MEAS_DIM:]
    velocity[held] = recalled[held]
    if freeze_size_velocity:
        velocity[held, 2:] = 0.0
    return KalmanState(mean=mean, covariance=state.covariance), flags
