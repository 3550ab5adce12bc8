"""The block filter on a stack of beliefs against the dense 8×8 filter and against itself.

Every filter step is elementwise arithmetic on the covariance blocks, so a
stacked row must equal its N = 1 call bit for bit, and the block filter must
equal the general dense filter in ``oracles`` bit for bit on any
block-structured input.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from meshsort import kalman as K

from oracles import reference_kalman_gain, reference_kalman_predict, reference_kalman_update

MODEL = K.MotionModel()
EYE_BLOCKS = K.KalmanState.from_dense(np.zeros(8), np.eye(8)).blocks

# The entries of an 8×8 covariance that belong to a [slot, rate] block.
_SLOT = np.arange(8) % 4
IN_BLOCKS = _SLOT[:, None] == _SLOT[None, :]

unit = st.floats(-1.0, 1.0)


def _means(draw, n):
    raw = draw(arrays(np.float64, (n, 8), elements=unit))
    return raw * [500, 300, 2000, 1, 5, 5, 20, 0.01] + [600, 400, 3000, 1.5, 0, 0, 0, 0]


def _measurements(draw, mean):
    n = len(mean)
    return mean[:, :4] + draw(arrays(np.float64, (n, 4), elements=unit)) * [3, 3, 50, 0.05]


@st.composite
def stacks(draw):
    """0-12 beliefs, each covariance four positive definite 2×2 blocks ``10 A Aᵀ + I``."""
    n = draw(st.integers(0, 12))
    mean = _means(draw, n)
    a, b, c, d = np.moveaxis(draw(arrays(np.float64, (n, 4, 4), elements=unit)), -1, 0)
    blocks = np.stack([(a * a + b * b) * 10.0 + 1.0,
                       (a * c + b * d) * 10.0,
                       (c * c + d * d) * 10.0 + 1.0], axis=1)
    return K.KalmanState(mean, blocks), _measurements(draw, mean)


def _assert_state_equal(state, mean, cov):
    assert np.array_equal(state.mean, mean)
    assert np.array_equal(state.covariance, cov)


@settings(max_examples=60, deadline=None)
@given(stack=stacks(), noise_scale=st.sampled_from([1.0, 10.0]))
def test_block_filter_equals_dense_oracle(stack, noise_scale):
    state, z = stack
    dense = state.covariance
    predicted = K.predict(state, MODEL)
    _assert_state_equal(predicted, *reference_kalman_predict(state.mean, dense, MODEL))
    for prior in (state, predicted):
        cov = prior.covariance
        updated = K.update(prior, z, MODEL, noise_scale=noise_scale)
        _assert_state_equal(updated, *reference_kalman_update(prior.mean, cov, z, MODEL, noise_scale))
        assert np.array_equal(K.gain_matrix(prior, MODEL, noise_scale),
                              reference_kalman_gain(prior.mean, cov, MODEL, noise_scale))


@settings(max_examples=60, deadline=None)
@given(stack=stacks(), noise_scale=st.sampled_from([1.0, 10.0]))
def test_stack_equals_rows(stack, noise_scale):
    state, z = stack
    predicted = K.predict(state, MODEL)
    updated = K.update(state, z, MODEL, noise_scale=noise_scale)
    gains = K.gain_matrix(state, MODEL, noise_scale)
    assert predicted.mean.shape == state.mean.shape
    assert updated.blocks.shape == state.blocks.shape
    for i in range(len(z)):
        row = K.KalmanState(state.mean[i], state.blocks[i])
        one = K.predict(row, MODEL)
        _assert_state_equal(one, predicted.mean[i], predicted.covariance[i])
        one = K.update(row, z[i], MODEL, noise_scale=noise_scale)
        _assert_state_equal(one, updated.mean[i], updated.covariance[i])
        assert np.array_equal(gains[i], K.gain_matrix(row, MODEL, noise_scale))


@settings(max_examples=30, deadline=None)
@given(stack=stacks())
def test_update_applies_gain_matrix(stack):
    # One gain: the posterior mean moves by gain_matrix @ innovation.
    state, z = stack
    gains = K.gain_matrix(state, MODEL)
    moved = K.update(state, z, MODEL).mean - state.mean
    expected = np.einsum("nij,nj->ni", gains, z - state.mean[:, :4])
    np.testing.assert_allclose(moved, expected, rtol=0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 6),
    ops=st.lists(st.sampled_from(["predict", "update", "pseudo_update", "rollback"]), max_size=25),
)
def test_any_step_sequence_keeps_symmetric_blocks(data, n, ops):
    # The dense filter run through the same steps stays block-structured and
    # exactly symmetric, and equal to the block filter's dense view.
    mean = _means(data.draw, n)
    state = K.initiate(mean[:, :4], MODEL)
    dense = (state.mean, state.covariance)
    buffer = K.VelocityBuffer(ring=np.zeros((n, 3, 4)), count=np.zeros(n, dtype=np.int64))
    for op in ops:
        if op == "predict":
            state = K.predict(state, MODEL)
            dense = reference_kalman_predict(*dense, MODEL)
        elif op == "rollback":
            state, _ = K.rollback_velocity(state, buffer)
            dense = (state.mean, dense[1])
        else:
            z = _measurements(data.draw, state.mean) if op == "update" else state.projected()
            scale = 1.0 if op == "update" else 10.0
            state = K.update(state, z, MODEL, noise_scale=scale)
            dense = reference_kalman_update(*dense, z, MODEL, scale)
        buffer.record(state)
        cov = state.covariance
        assert np.array_equal(cov, np.swapaxes(cov, -1, -2))
        assert not cov[:, ~IN_BLOCKS].any()
        _assert_state_equal(state, *dense)


def test_dense_input_outside_the_blocks_rejected():
    cov = np.eye(8)
    cov[0, 1] = cov[1, 0] = 0.5
    with pytest.raises(ValueError, match="blocks"):
        K.KalmanState.from_dense(np.zeros(8), cov)
    cov = np.eye(8)
    cov[0, 4] = 0.5
    with pytest.raises(ValueError, match="blocks"):
        K.KalmanState.from_dense(np.zeros(8), cov)


def test_one_singular_row_raises():
    # Zero position noise and a zero covariance leave that row's innovation
    # covariance singular; the healthy rows do not hide it.
    model = K.MotionModel(pos_weight=0.0, vel_weight=0.0)
    mean = np.tile([5.0, 5, 100, 1, 0, 0, 0, 0], (3, 1))
    blocks = np.stack([EYE_BLOCKS, np.zeros((3, 4)), EYE_BLOCKS])
    with pytest.raises(K.NumericsError):
        K.update(K.KalmanState(mean, blocks), mean[:, :4], model)


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
        stack.record(K.KalmanState(mean[None], EYE_BLOCKS[None]), np.array([row]))
        singles[row].record(K.KalmanState(mean, EYE_BLOCKS))
    state = K.KalmanState(np.tile(np.r_[1.0, 2, 3, 4, 9, 9, 9, 9], (3, 1)), np.tile(EYE_BLOCKS, (3, 1, 1)))
    rolled, held = K.rollback_velocity(state, stack, mode, freeze)
    for row, single in enumerate(singles):
        one, ok = K.rollback_velocity(K.KalmanState(state.mean[row], state.blocks[row]),
                                      single, mode, freeze)
        assert bool(held[row]) == bool(ok) == (len(single) > 0)
        np.testing.assert_array_equal(rolled.mean[row], one.mean)
