"""Constant-velocity Kalman filter over [cx, cy, area, aspect] box states.

The state is the 4-vector measurement plus its per-frame rates, giving an
8-dimensional mean. Noise magnitudes follow the usual height-proportional
convention: position slots scale with box height, the area slot with height
squared, and the dimensionless aspect slot gets small fixed standard
deviations.

No slot is ever coupled to another. The transition ``F = [[I, I], [0, I]]``
adds each rate to its own slot, the observation ``H = [I, 0]`` selects the
slots, and the process noise, measurement noise and initial covariance are
all diagonal. Every product and sum of such matrices keeps the same zero
pattern, so each covariance the filter can reach is four independent 2×2
``[slot, rate]`` blocks, and the 8-state filter is exactly four 2-state
filters run side by side. A :class:`KalmanState` therefore stores the
covariance as ``blocks`` of shape ``(..., 3, 4)``: per slot, var(slot),
cov(slot, rate) and var(rate). Each filter step is elementwise arithmetic
on those rows, written to perform the same float operations, in the same
order, as the dense 8×8 algebra with ``S⁻¹`` taken from a Cholesky factor
(that algebra is kept as the reference in the tests). The dense
``(..., 8, 8)`` covariance is available as a read-only view.

Every function works on a stack of beliefs; one call filters every belief in
the stack. A single belief is the stack with no leading axis.

Velocity rollback reads rings that the caller keeps: ``(n, L, 4)``
velocities and an ``(n,)`` count of records per ring. Only this module knows
their layout. :func:`record_velocity` writes one slot per row and
:func:`rollback_velocity` reads one; both take the rows they touch, so a
tracker can keep the rings as columns of its own table.
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
_SLOTS = np.arange(MEAS_DIM)
_RATES = _SLOTS + MEAS_DIM


class NumericsError(RuntimeError):
    """Raised when a filter update hits a degenerate (singular) innovation."""


@dataclass(frozen=True)
class KalmanState:
    """Gaussian beliefs over box states.

    ``mean`` is ``(..., 8)``. ``blocks`` is ``(..., 3, 4)``: row 0 holds the
    variance of each measured slot, row 1 its covariance with its own rate,
    row 2 the variance of the rate.
    """

    mean: np.ndarray
    blocks: np.ndarray

    @classmethod
    def from_dense(cls, mean, covariance) -> "KalmanState":
        """Beliefs from ``(..., 8, 8)`` covariances, which must be four symmetric
        2×2 ``[slot, rate]`` blocks with zeros everywhere else."""
        covariance = np.asarray(covariance, dtype=np.float64)
        blocks = np.stack([covariance[..., _SLOTS, _SLOTS],
                           covariance[..., _SLOTS, _RATES],
                           covariance[..., _RATES, _RATES]], axis=-2)
        state = cls(np.asarray(mean, dtype=np.float64), blocks)
        if not np.array_equal(state.covariance, covariance):
            raise ValueError("covariance is not four symmetric 2x2 [slot, rate] blocks")
        return state

    @property
    def covariance(self) -> np.ndarray:
        """Read-only dense ``(..., 8, 8)`` covariances."""
        pp, pv, vv = self.blocks[..., 0, :], self.blocks[..., 1, :], self.blocks[..., 2, :]
        dense = np.zeros(self.blocks.shape[:-2] + (STATE_DIM, STATE_DIM))
        dense[..., _SLOTS, _SLOTS] = pp
        dense[..., _SLOTS, _RATES] = dense[..., _RATES, _SLOTS] = pv
        dense[..., _RATES, _RATES] = vv
        dense.flags.writeable = False
        return dense

    def projected(self) -> np.ndarray:
        """Measurement-space view of the mean (first four components)."""
        return self.mean[..., :MEAS_DIM].copy()


def _measurement_height(z4: np.ndarray) -> np.ndarray:
    area = np.maximum(z4[..., 2], _MIN_HEIGHT)
    aspect = np.maximum(z4[..., 3], _MIN_HEIGHT)
    return np.maximum(np.sqrt(area / aspect), _MIN_HEIGHT)


def _noise_var(height: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-slot variances of standard deviations ``weight * height`` over
    [cx, cy, area, aspect] slots (and their rates): the area slots scale with
    height squared, and the aspect slots take their weight as a fixed
    standard deviation."""
    height = np.asarray(height, dtype=np.float64)
    std = height[..., None] * weights
    std[..., 2::4] *= height[..., None]
    std[..., 3::4] = weights[3::4]
    return std * std


class MotionModel:
    """Transition matrix plus height-scaled noise generators.

    ``pos_weight`` and ``vel_weight`` set the per-frame standard deviation of
    position/size and velocity noise as fractions of the box height. The
    noise generators take a height per belief and return the diagonal of one
    (diagonal) noise covariance each: 8 variances for the state, 4 for the
    measurement.
    """

    def __init__(self, pos_weight: float = 1.0 / 20.0, vel_weight: float = 1.0 / 160.0):
        self.pos_weight = wp = pos_weight
        self.vel_weight = wv = vel_weight
        f = np.eye(STATE_DIM)
        for i in range(MEAS_DIM):
            f[i, MEAS_DIM + i] = 1.0
        self.transition = f
        self._process = np.array([wp, wp, wp, _ASPECT_STD_PROCESS, wv, wv, wv, _ASPECT_STD_VELOCITY])
        self._measurement = np.array([wp, wp, wp, _ASPECT_STD_MEASURE])
        self._initial = np.array([2 * wp, 2 * wp, 2 * wp, _ASPECT_STD_PROCESS,
                                  10 * wv, 10 * wv, 10 * wv, _ASPECT_STD_VELOCITY])

    def process_noise(self, height: np.ndarray) -> np.ndarray:
        return _noise_var(height, self._process)

    def measurement_noise(self, height: np.ndarray) -> np.ndarray:
        return _noise_var(height, self._measurement)

    def initial_covariance(self, z4: np.ndarray) -> np.ndarray:
        return _noise_var(_measurement_height(z4), self._initial)


def initiate(z: np.ndarray, model: MotionModel) -> KalmanState:
    """Bootstrap beliefs from first measurements: zero velocity, diagonal covariance."""
    z = np.asarray(z, dtype=np.float64)
    mean = np.zeros(z.shape[:-1] + (STATE_DIM,))
    mean[..., :MEAS_DIM] = z
    var = model.initial_covariance(z)
    blocks = np.zeros(z.shape[:-1] + (3, MEAS_DIM))
    blocks[..., 0, :] = var[..., :MEAS_DIM]
    blocks[..., 2, :] = var[..., MEAS_DIM:]
    return KalmanState(mean=mean, blocks=blocks)


def predict(state: KalmanState, model: MotionModel) -> KalmanState:
    """Advance every belief one frame under the constant-velocity model.

    Per slot, ``F P Fᵀ + Q`` is ``((pp + pv) + (pv + vv)) + q``, ``pv + vv``
    and ``vv + q``: the sums the dense row-then-column additions form, in
    their order.
    """
    prior = state.mean
    height = _measurement_height(prior[..., :MEAS_DIM])
    mean = prior.copy()
    mean[..., :MEAS_DIM] += prior[..., MEAS_DIM:]
    pp, pv, vv = state.blocks[..., 0, :], state.blocks[..., 1, :], state.blocks[..., 2, :]
    q = model.process_noise(height)
    blocks = np.empty_like(state.blocks)
    blocks[..., 0, :] = ((pp + pv) + (pv + vv)) + q[..., :MEAS_DIM]
    blocks[..., 1, :] = pv + vv
    blocks[..., 2, :] = vv + q[..., MEAS_DIM:]
    return KalmanState(mean=mean, blocks=blocks)


def _gains(state: KalmanState, model: MotionModel, noise_scale: float) -> np.ndarray:
    """Per-slot gains ``(..., 2, 4)``: row 0 for the slot, row 1 for its rate.

    The innovation variance is ``s = pp + r``, and ``S⁻¹`` is ``(1/√s)²``, the
    inverse Cholesky factor squared; the gains are ``pp·S⁻¹`` and ``pv·S⁻¹``.
    """
    height = _measurement_height(state.mean[..., :MEAS_DIM])
    s = state.blocks[..., 0, :] + model.measurement_noise(height) * noise_scale
    if not (s > 0.0).all():
        raise NumericsError("singular innovation covariance")
    root = 1.0 / np.sqrt(s)
    return state.blocks[..., :2, :] * (root * root)[..., None, :]


def gain_matrix(state: KalmanState, model: MotionModel, noise_scale: float = 1.0) -> np.ndarray:
    """The Kalman gains ``K = P Hᵀ S⁻¹`` that :func:`update` applies, dense ``(..., 8, 4)``.

    ``S = P[:4, :4] + R`` is the innovation covariance, with the measurement
    noise ``R`` evaluated at the prior mean's height and scaled by
    ``noise_scale``. Raises :class:`NumericsError` unless every ``S`` in the
    stack is positive definite.
    """
    k = _gains(state, model, noise_scale)
    gain = np.zeros(k.shape[:-2] + (STATE_DIM, MEAS_DIM))
    gain[..., _SLOTS, _SLOTS] = k[..., 0, :]
    gain[..., _RATES, _SLOTS] = k[..., 1, :]
    return gain


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

    Raises :class:`NumericsError` when an innovation variance is not
    positive (or is NaN). The measurement noise is evaluated at the prior
    mean's height, never at the measurement itself, so that equal priors
    always yield equal gains.

    With gains ``kp`` (slot) and ``kv`` (rate), the blocks become
    ``pp - kp·pp``, ``((pv - kp·pv) + (pv - kv·pp)) / 2`` and ``vv - kv·pv``:
    ``P - K H P`` symmetrized, as the dense algebra rounds it.
    """
    k = _gains(state, model, noise_scale)
    b = state.blocks
    innovation = np.asarray(z, dtype=np.float64) - state.mean[..., :MEAS_DIM]
    mean = state.mean + (k * innovation[..., None, :]).reshape(state.mean.shape)
    blocks = np.empty_like(b)
    blocks[..., ::2, :] = b[..., ::2, :] - k * b[..., :2, :]  # pp - kp·pp, vv - kv·pv
    cross = b[..., 1:2, :] - k * b[..., 1::-1, :]  # pv - kp·pv, pv - kv·pp
    blocks[..., 1, :] = (cross[..., 0, :] + cross[..., 1, :]) / 2.0
    return KalmanState(mean=mean, blocks=blocks)


def record_velocity(ring: np.ndarray, count: np.ndarray, rows: np.ndarray, mean: np.ndarray) -> None:
    """Store the velocity of each belief in ``mean`` in the ring of its entry of ``rows``.

    ``ring`` is ``(n, L, 4)`` and ``count`` ``(n,)`` holds how many
    velocities each ring has recorded; record ``k`` sits in slot ``k % L``,
    so a full ring overwrites its oldest entry.
    """
    ring[rows, count[rows] % ring.shape[-2]] = mean.reshape(-1, STATE_DIM)[:, MEAS_DIM:]
    count[rows] += 1


def rollback_velocity(state: KalmanState, ring: np.ndarray, count: np.ndarray,
                      rows: np.ndarray) -> KalmanState:
    """Replace each mean's velocity components with the oldest entry held in its ring.

    The oldest entry predates any detector noise just before the loss.
    ``state`` holds one belief per entry of ``rows``, which index the rings
    of :func:`record_velocity`. A ring holds its oldest entry in slot 0 until
    it is full, then in the slot the next record overwrites. A belief whose
    ring is empty keeps its velocity. Position, size and covariance are left
    untouched.
    """
    n = count[rows]
    held = n > 0
    rows, n, cap = rows[held], n[held], ring.shape[-2]
    mean = state.mean.copy()
    mean.reshape(-1, STATE_DIM)[held, MEAS_DIM:] = ring[rows, np.where(n >= cap, n % cap, 0)]
    return KalmanState(mean=mean, blocks=state.blocks)
