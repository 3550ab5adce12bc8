"""The block filter on a stack of beliefs against the dense 8×8 filter and against itself.

Every filter step is elementwise arithmetic on the parts of the beliefs, so
a stacked row must equal its N = 1 call bit for bit, a tracker table's
in-place steps must equal the same steps on a separate stack, and the block
filter must equal the general dense filter in ``oracles`` bit for bit on any
block-structured input.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from meshsort import kalman as K
from meshsort.tracks import TrackTable

from oracles import (
    ReferenceVelocityBuffer,
    from_dense,
    reference_kalman_gain,
    reference_kalman_predict,
    reference_kalman_update,
    reference_rollback_velocity,
)

MODEL = K.MotionModel()
# The variance parts, (3, 4), of an identity covariance.
EYE_BLOCKS = from_dense(np.zeros(8), np.eye(8)).parts[2:]

# The entries of an 8×8 covariance that belong to a [slot, rate] block.
_SLOT = np.arange(8) % 4
IN_BLOCKS = _SLOT[:, None] == _SLOT[None, :]

unit = st.floats(-1.0, 1.0)


def state_of(mean, blocks):
    """Beliefs from ``(n, 8)`` means and ``(3, n, 4)`` variance parts."""
    return K.KalmanState(np.concatenate([mean[None, :, :4], mean[None, :, 4:], blocks]))


def copy(state):
    """A separate stack of the same beliefs: predict advances its argument in place."""
    return K.KalmanState(state.parts.copy())


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
                       (c * c + d * d) * 10.0 + 1.0])
    return state_of(mean, blocks), _measurements(draw, mean)


def _assert_state_equal(state, mean, cov):
    assert np.array_equal(state.mean, mean)
    assert np.array_equal(state.covariance, cov)


@settings(max_examples=60, deadline=None)
@given(stack=stacks(), noise_scale=st.sampled_from([1.0, 10.0]))
def test_block_filter_equals_dense_oracle(stack, noise_scale):
    state, z = stack
    dense = state.covariance
    predicted = K.predict(copy(state), MODEL)
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
    predicted = K.predict(copy(state), MODEL)
    updated = K.update(state, z, MODEL, noise_scale=noise_scale)
    gains = K.gain_matrix(state, MODEL, noise_scale)
    assert predicted.mean.shape == state.mean.shape
    assert updated.parts.shape == state.parts.shape
    for i in range(len(z)):
        row = K.KalmanState(state.parts[:, i].copy())
        one = K.predict(copy(row), MODEL)
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
    rows, ring, count = np.arange(n), np.zeros((n, 3, 4)), np.zeros(n, dtype=np.int64)
    for op in ops:
        if op == "predict":
            state = K.predict(state, MODEL)
            dense = reference_kalman_predict(*dense, MODEL)
        elif op == "rollback":
            K.rollback_velocity(state, ring, count, rows)
            dense = (state.mean, dense[1])
        else:
            z = _measurements(data.draw, state.mean) if op == "update" else state.parts[0]
            scale = 1.0 if op == "update" else 10.0
            state = K.update(state, z, MODEL, noise_scale=scale)
            dense = reference_kalman_update(*dense, z, MODEL, scale)
        K.record_velocity(ring, count, rows, state.parts[1])
        cov = state.covariance
        assert np.array_equal(cov, np.swapaxes(cov, -1, -2))
        assert not cov[:, ~IN_BLOCKS].any()
        _assert_state_equal(state, *dense)


def test_dense_input_outside_the_blocks_rejected():
    cov = np.eye(8)
    cov[0, 1] = cov[1, 0] = 0.5
    with pytest.raises(ValueError, match="blocks"):
        from_dense(np.zeros(8), cov)
    cov = np.eye(8)
    cov[0, 4] = 0.5
    with pytest.raises(ValueError, match="blocks"):
        from_dense(np.zeros(8), cov)


def test_one_singular_row_raises():
    # Zero position noise and a zero covariance leave that row's innovation
    # covariance singular; the healthy rows do not hide it.
    model = K.MotionModel(pos_weight=0.0, vel_weight=0.0)
    mean = np.tile([5.0, 5, 100, 1, 0, 0, 0, 0], (3, 1))
    blocks = np.stack([EYE_BLOCKS, np.zeros((3, 4)), EYE_BLOCKS], axis=1)
    with pytest.raises(K.NumericsError):
        K.update(state_of(mean, blocks), mean[:, :4], model)


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(st.integers(0, 2), max_size=12),
    capacity=st.integers(1, 4),
)
def test_stacked_rings_equal_single_rings(records, capacity):
    # Three rings filled row by row in a stack against three one-row rings
    # fed the same velocities, then rolled back together and one by one.
    stack, stack_count = np.zeros((3, capacity, 4)), np.zeros(3, dtype=np.int64)
    singles = [(np.zeros((1, capacity, 4)), np.zeros(1, dtype=np.int64)) for _ in range(3)]
    one = np.array([0])
    for k, row in enumerate(records):
        velocity = np.arange(4) + 10.0 * k + row
        K.record_velocity(stack, stack_count, np.array([row]), velocity[None])
        K.record_velocity(*singles[row], one, velocity)
    state = state_of(np.tile(np.r_[1.0, 2, 3, 4, 9, 9, 9, 9], (3, 1)), np.tile(EYE_BLOCKS[:, None], (1, 3, 1)))
    rolled = copy(state)
    K.rollback_velocity(rolled, stack, stack_count, np.arange(3))
    for row, (ring, count) in enumerate(singles):
        single = state[[row]]
        K.rollback_velocity(single, ring, count, one)
        np.testing.assert_array_equal(rolled.mean[row], single.mean[0])
        if row not in records:
            np.testing.assert_array_equal(single.mean[0], state.mean[row])


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 5),
    n=st.integers(1, 4),
    ops=st.lists(
        st.tuples(st.booleans(), st.lists(st.integers(0, 3), unique=True, max_size=4),
                  st.floats(-50.0, 50.0, allow_nan=False)),
        max_size=30,
    ),
)
def test_ring_functions_equal_the_reference_buffer(capacity, n, ops):
    # Random interleavings of records and rollbacks on row subsets. Every row
    # starts with its own nonzero velocity, so a rolled-back row that was
    # never recorded shows whether it kept it.
    mean = np.zeros((n, 8))
    mean[:, 4:] = 100.0 + np.arange(4 * n).reshape(n, 4)
    blocks = np.tile(EYE_BLOCKS[:, None], (1, n, 1))
    ring, count = np.zeros((n, capacity, 4)), np.zeros(n, dtype=np.int64)
    reference = ReferenceVelocityBuffer(ring=np.zeros((n, capacity, 4)), count=np.zeros(n, dtype=np.int64))
    for is_record, subset, velocity in ops:
        rows = np.array([r for r in subset if r < n], dtype=np.int64)
        if is_record:
            mean[rows, 4:] = velocity + np.arange(len(rows))[:, None] + np.arange(4) / 8.0
            K.record_velocity(ring, count, rows, mean[rows, 4:])
            reference.record(mean[rows], rows)
        else:
            rolled = state_of(mean, blocks)
            K.rollback_velocity(rolled, ring, count, rows)
            expected, _ = reference_rollback_velocity(mean[rows], reference[rows])
            assert rolled.mean[rows].tobytes() == expected.tobytes()
            for i, row in enumerate(rows):
                single = state_of(mean, blocks)
                K.rollback_velocity(single, ring, count, rows[i:i + 1])
                assert single.mean[row].tobytes() == expected[i].tobytes()
            mean[rows] = rolled.mean[rows]
    np.testing.assert_array_equal(count, reference.count)


@settings(max_examples=60, deadline=None)
@given(stack=stacks(), data=st.data(), noise_scale=st.sampled_from([1.0, 10.0]))
def test_table_steps_equal_steps_on_a_separate_stack(stack, data, noise_scale):
    # A tracker predicts its whole table in place and updates row subsets of
    # it; each must equal predict and update on the same beliefs held apart.
    state, z = stack
    n = len(z)
    table = TrackTable.blank(n, 1)
    table.kf = copy(state)
    K.predict(table.kf, MODEL)
    predicted = K.predict(copy(state), MODEL)
    assert table.kf.parts.tobytes() == predicted.parts.tobytes()
    for i in range(n):
        alone = K.predict(K.KalmanState(state.parts[:, i].copy()), MODEL)
        assert table.kf.parts[:, i].tobytes() == alone.parts.tobytes()

    rows = np.array(sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))), dtype=np.intp)
    before = table.kf.parts.copy()
    post = K.update(table.kf, z[rows], MODEL, noise_scale=noise_scale, rows=rows)
    apart = K.update(K.KalmanState(before[:, rows]), z[rows], MODEL, noise_scale=noise_scale)
    assert post.parts.tobytes() == apart.parts.tobytes()
    assert table.kf.parts[:, rows].tobytes() == apart.parts.tobytes()
    others = np.setdiff1d(np.arange(n), rows)
    assert table.kf.parts[:, others].tobytes() == before[:, others].tobytes()
