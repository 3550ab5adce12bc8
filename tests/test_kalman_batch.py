"""The filter on a stack of beliefs equals the same calls made one belief at a time.

Predict is elementwise arithmetic, so a stacked row must equal its N = 1 call
bit for bit. Update solves each row's innovation system through LAPACK and
BLAS, whose kernels may differ with the stack size on some platforms, so it
is held to ``atol=1e-9``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from meshsort import kalman as K

MODEL = K.MotionModel()


@st.composite
def stacks(draw):
    n = draw(st.integers(0, 12))
    unit = st.floats(-1.0, 1.0)
    raw = draw(arrays(np.float64, (n, 8), elements=unit))
    mean = raw * [500, 300, 2000, 1, 5, 5, 20, 0.01] + [600, 400, 3000, 1.5, 0, 0, 0, 0]
    factor = draw(arrays(np.float64, (n, 8, 8), elements=unit))
    cov = factor @ factor.swapaxes(1, 2) * 10.0 + np.eye(8)
    z = mean[:, :4] + draw(arrays(np.float64, (n, 4), elements=unit)) * [3, 3, 50, 0.05]
    return K.KalmanState(mean, cov), z


@settings(max_examples=60, deadline=None)
@given(stack=stacks(), noise_scale=st.sampled_from([1.0, 10.0]))
def test_stack_equals_rows(stack, noise_scale):
    state, z = stack
    predicted = K.predict(state, MODEL)
    updated = K.update(state, z, MODEL, noise_scale=noise_scale)
    gains = K.gain_matrix(state, MODEL, noise_scale)
    assert predicted.mean.shape == state.mean.shape
    assert updated.covariance.shape == state.covariance.shape
    for i in range(len(z)):
        row = K.KalmanState(state.mean[i], state.covariance[i])
        one = K.predict(row, MODEL)
        np.testing.assert_array_equal(predicted.mean[i], one.mean)
        np.testing.assert_array_equal(predicted.covariance[i], one.covariance)
        one = K.update(row, z[i], MODEL, noise_scale=noise_scale)
        np.testing.assert_allclose(updated.mean[i], one.mean, rtol=0, atol=1e-9)
        np.testing.assert_allclose(updated.covariance[i], one.covariance, rtol=0, atol=1e-9)
        np.testing.assert_allclose(gains[i], K.gain_matrix(row, MODEL, noise_scale),
                                   rtol=0, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(stack=stacks())
def test_update_applies_gain_matrix(stack):
    # One gain: the posterior mean moves by gain_matrix @ innovation.
    state, z = stack
    gains = K.gain_matrix(state, MODEL)
    moved = K.update(state, z, MODEL).mean - state.mean
    expected = np.einsum("nij,nj->ni", gains, z - state.mean[:, :4])
    np.testing.assert_allclose(moved, expected, rtol=0, atol=1e-9)


def test_one_singular_row_raises():
    # Zero position noise and a zero covariance leave that row's innovation
    # covariance singular; the healthy rows do not hide it.
    model = K.MotionModel(pos_weight=0.0, vel_weight=0.0)
    mean = np.tile([5.0, 5, 100, 1, 0, 0, 0, 0], (3, 1))
    cov = np.stack([np.eye(8), np.zeros((8, 8)), np.eye(8)])
    with pytest.raises(K.NumericsError):
        K.update(K.KalmanState(mean, cov), mean[:, :4], model)


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(st.integers(0, 2), max_size=12),
    capacity=st.integers(1, 4),
    mode=st.sampled_from(["oldest", "mean"]),
    freeze=st.booleans(),
)
def test_stacked_rings_equal_single_rings(records, capacity, mode, freeze):
    # Three rings filled row by row in a stack against three one-belief
    # buffers fed the same velocities, then rolled back together.
    stack = K.VelocityBuffer(ring=np.zeros((3, capacity, 4)), count=np.zeros(3, dtype=np.int64))
    singles = [K.VelocityBuffer(capacity) for _ in range(3)]
    for k, row in enumerate(records):
        mean = np.r_[np.zeros(4), np.arange(4) + 10.0 * k + row]
        stack.record(K.KalmanState(mean[None], np.eye(8)[None]), np.array([row]))
        singles[row].record(K.KalmanState(mean, np.eye(8)))
    state = K.KalmanState(np.tile(np.r_[1.0, 2, 3, 4, 9, 9, 9, 9], (3, 1)), np.tile(np.eye(8), (3, 1, 1)))
    rolled, held = K.rollback_velocity(state, stack, mode, freeze)
    for row, single in enumerate(singles):
        one, ok = K.rollback_velocity(K.KalmanState(state.mean[row], state.covariance[row]),
                                      single, mode, freeze)
        assert bool(held[row]) == bool(ok) == (len(single) > 0)
        np.testing.assert_array_equal(rolled.mean[row], one.mean)
