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
filters run side by side. A :class:`KalmanState` therefore stores a stack of
beliefs as one ``(5, ..., 4)`` array of parts: the slots (position, size),
their rates, var(slot), cov(slot, rate) and var(rate), each part one
contiguous ``(..., 4)`` array. Each filter step is elementwise arithmetic on
those parts, written to perform the same float operations, in the same
order, as the dense 8×8 algebra with ``S⁻¹`` taken from a Cholesky factor
(that algebra is kept as the reference in the tests). The ``(..., 8)`` mean
and the dense ``(..., 8, 8)`` covariance are available as copies.

Every function works on a stack of beliefs; one call filters every belief in
the stack. A single belief is the stack with no row axis. :func:`predict`
advances a stack in place, so a tracker keeps its beliefs as one stack and
advances them all with one call; :func:`update` and
:func:`rollback_velocity` take the rows they touch.

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
# Floor of the area and aspect slots, and of the height, where a state is
# read as a box or a noise scale. At the square root of the smallest normal
# float, sqrt(area * aspect) of floored slots stays positive, while boxes keep
# their size down to about 1e-77 px a side.
SIZE_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))
_SLOTS = np.arange(MEAS_DIM)
_RATES = _SLOTS + MEAS_DIM


class NumericsError(RuntimeError):
    """Raised when a filter update hits a degenerate (singular) innovation."""


@dataclass(frozen=True)
class KalmanState:
    """Gaussian beliefs over box states.

    ``parts`` is ``(5, ..., 4)``: ``parts[0]`` holds the measured slots,
    ``parts[1]`` their rates, ``parts[2]`` the variance of each slot,
    ``parts[3]`` its covariance with its own rate and ``parts[4]`` the
    variance of the rate. Indexing a state with rows gives the state of
    those rows.
    """

    parts: np.ndarray

    def __getitem__(self, rows) -> "KalmanState":
        # numpy lays a selection along a later axis out with that axis
        # outermost; copy it back so that each part stays contiguous.
        return KalmanState(np.ascontiguousarray(self.parts[:, rows]))

    @property
    def mean(self) -> np.ndarray:
        """``(..., 8)`` means: the slots, then their rates."""
        return np.concatenate([self.parts[0], self.parts[1]], axis=-1)

    @property
    def covariance(self) -> np.ndarray:
        """Read-only dense ``(..., 8, 8)`` covariances."""
        pp, pv, vv = self.parts[2:]
        dense = np.zeros(pp.shape[:-1] + (STATE_DIM, STATE_DIM))
        dense[..., _SLOTS, _SLOTS] = pp
        dense[..., _SLOTS, _RATES] = dense[..., _RATES, _SLOTS] = pv
        dense[..., _RATES, _RATES] = vv
        dense.flags.writeable = False
        return dense


def _measurement_height(z4: np.ndarray) -> np.ndarray:
    area = np.maximum(z4[..., 2], SIZE_FLOOR)
    aspect = np.maximum(z4[..., 3], SIZE_FLOOR)
    return np.maximum(np.sqrt(area / aspect), SIZE_FLOOR)


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
    var = model.initial_covariance(z)
    parts = np.zeros((5,) + z.shape)
    parts[0] = z
    parts[2] = var[..., :MEAS_DIM]
    parts[4] = var[..., MEAS_DIM:]
    return KalmanState(parts)


def predict(state: KalmanState, model: MotionModel) -> KalmanState:
    """Advance every belief of ``state`` one frame, in place; returns ``state``.

    Per slot, ``F P Fᵀ + Q`` is ``((pp + pv) + (pv + vv)) + q``, ``pv + vv``
    and ``vv + q``: the sums the dense row-then-column additions form, in
    their order.
    """
    pos, vel, pp, pv, vv = state.parts
    q = model.process_noise(_measurement_height(pos))
    pos += vel
    pp += pv
    pv += vv  # now pv + vv, which pp takes next
    pp += pv
    pp += q[..., :MEAS_DIM]
    vv += q[..., MEAS_DIM:]
    return state


def _gains(pos: np.ndarray, pp: np.ndarray, pv: np.ndarray, model: MotionModel,
           noise_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot gains ``kp`` (slot) and ``kv`` (rate), each ``(..., 4)``.

    The innovation variance is ``s = pp + r``, and ``S⁻¹`` is ``(1/√s)²``, the
    inverse Cholesky factor squared; the gains are ``pp·S⁻¹`` and ``pv·S⁻¹``.
    """
    s = pp + model.measurement_noise(_measurement_height(pos)) * noise_scale
    if not (s > 0.0).all():
        raise NumericsError("singular innovation covariance")
    inverse = 1.0 / np.sqrt(s)
    inverse *= inverse
    return pp * inverse, pv * inverse


def gain_matrix(state: KalmanState, model: MotionModel, noise_scale: float = 1.0) -> np.ndarray:
    """The Kalman gains ``K = P Hᵀ S⁻¹`` that :func:`update` applies, dense ``(..., 8, 4)``.

    ``S = P[:4, :4] + R`` is the innovation covariance, with the measurement
    noise ``R`` evaluated at the prior mean's height and scaled by
    ``noise_scale``. Raises :class:`NumericsError` unless every ``S`` in the
    stack is positive definite.
    """
    pos, _, pp, pv, _ = state.parts
    kp, kv = _gains(pos, pp, pv, model, noise_scale)
    gain = np.zeros(kp.shape[:-1] + (STATE_DIM, MEAS_DIM))
    gain[..., _SLOTS, _SLOTS] = kp
    gain[..., _RATES, _SLOTS] = kv
    return gain


def update(
    state: KalmanState,
    z: np.ndarray,
    model: MotionModel,
    noise_scale: float = 1.0,
    rows: np.ndarray | None = None,
) -> KalmanState:
    """Fold one measurement per belief into the stack; returns the posteriors.

    Without ``rows``, every belief of ``state`` takes one measurement and
    ``state`` is left as it is. With ``rows``, the beliefs of those rows take
    one measurement each, and their posteriors are also written back into
    ``state``: one gather and one scatter of the parts.

    ``noise_scale`` inflates the measurement covariance; soft self-updates
    (virtual proposals of unmatched tracks) pass a value > 1 so the pseudo
    observation carries little weight.

    Raises :class:`NumericsError` when an innovation variance is not
    positive (or is NaN). The measurement noise is evaluated at the prior
    mean's height, never at the measurement itself, so that equal priors
    always yield equal gains.

    With gains ``kp`` (slot) and ``kv`` (rate), the variances become
    ``pp - kp·pp``, ``((pv - kp·pv) + (pv - kv·pp)) / 2`` and ``vv - kv·pv``:
    ``P - K H P`` symmetrized, as the dense algebra rounds it.
    """
    prior = state.parts if rows is None else state.parts.take(rows, axis=1)
    pos, vel, pp, pv, vv = prior
    kp, kv = _gains(pos, pp, pv, model, noise_scale)
    innovation = np.asarray(z, dtype=np.float64) - pos
    post = np.empty_like(prior)
    pos_post, vel_post, pp_post, pv_post, vv_post = post
    np.multiply(kp, innovation, out=pos_post)
    pos_post += pos
    np.multiply(kv, innovation, out=vel_post)
    vel_post += vel
    np.subtract(pp, kp * pp, out=pp_post)
    np.subtract(pv, kp * pv, out=pv_post)
    pv_post += pv - kv * pp
    pv_post /= 2.0
    np.subtract(vv, kv * pv, out=vv_post)
    if rows is not None:
        state.parts[:, rows] = post
    return KalmanState(post)


def record_velocity(ring: np.ndarray, count: np.ndarray, rows: np.ndarray, velocity: np.ndarray) -> None:
    """Store each ``(m, 4)`` velocity in the ring of its entry of ``rows``.

    ``ring`` is ``(n, L, 4)`` and ``count`` ``(n,)`` holds how many
    velocities each ring has recorded; record ``k`` sits in slot ``k % L``,
    so a full ring overwrites its oldest entry.
    """
    ring[rows, count[rows] % ring.shape[-2]] = velocity
    count[rows] += 1


def rollback_velocity(state: KalmanState, ring: np.ndarray, count: np.ndarray,
                      rows: np.ndarray) -> None:
    """Replace the velocity of each belief of ``rows`` with the oldest entry held in its ring, in place.

    The oldest entry predates any detector noise just before the loss.
    ``rows`` index both the stack ``state`` and the rings of
    :func:`record_velocity`. A ring holds its oldest entry in slot 0 until
    it is full, then in the slot the next record overwrites. A belief whose
    ring is empty keeps its velocity. Position, size and covariance are left
    untouched.
    """
    n = count[rows]
    held = n > 0
    rows, n, cap = rows[held], n[held], ring.shape[-2]
    state.parts[1, rows] = ring[rows, np.where(n >= cap, n % cap, 0)]
