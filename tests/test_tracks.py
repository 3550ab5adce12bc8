import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshsort import kalman as K
from meshsort.config import TrackerConfig
from meshsort.geometry import BoundingBox, ltwh_to_ltrb
from meshsort.mesh import MeshGrid
from meshsort.tracks import (
    TrackStatus,
    TrackTable,
    infer_occlusion,
    new_track,
    on_matched,
    on_missed,
    state_box,
)

from oracles import bottom_middle

# Each test drives a one-row table through the array API; ROW selects it and
# t.view(0) reads it back as a per-track view.
ROW = np.array([0])


def cfg(**kw):
    base = dict(frame_width=1920.0, frame_height=1080.0)
    base.update(kw)
    c = TrackerConfig(**base)
    c.validate()
    return c


def grid():
    return MeshGrid(4, 4, (1920.0, 1080.0), log_events=True)


def box(l=100, t=100, w=20, h=40):
    return BoundingBox(l, t, w, h)


def ltwh(*boxes):
    return np.array([b.as_ltwh() for b in boxes], dtype=np.float64)


def spawn(tid, b, c, model):
    t = TrackTable.blank(0, c.vel_buffer_len)
    new_track(t, [tid], ltwh(b), [0.9], c, model)
    return t


def make_tracked(c, b=None, model=None):
    model = model or K.MotionModel()
    t = spawn(1, b or box(), c, model)
    t.status[0] = TrackStatus.TRACKED
    t.hits[0] = c.min_hits
    return t, model


def match(t, b, conf, c, model, g):
    on_matched(t, ROW, ltwh(b), np.array([conf]), c, model, g)


def miss(t, c, model, g, frequent):
    g.state = np.zeros((g.cols, g.rows), dtype=bool)
    for cell in frequent:
        g.state[cell] = True
    on_missed(t, ROW, state_box(t.kf.parts[0]), c, model, g)


def predict(t, model):
    K.predict(t.kf, model)


def set_velocity(t, v):
    t.kf.parts[1, 0] = v


def predicted_box(t):
    return BoundingBox(*state_box(t.kf.parts[0])[0])


def test_state_box_of_negative_size_slots_keeps_a_positive_size():
    # Coasting can drive the area and aspect slots below 0; the box read from
    # them must keep a positive width and height, or an IoU would be 0 / 0.
    pos = np.array([[100.0, 50.0, -4.0, -0.5], [100.0, 50.0, -4.0, 0.5], [100.0, 50.0, 400.0, -0.5]])
    sizes = state_box(pos)[:, 2:]
    assert (sizes > 0).all() and np.isfinite(sizes).all()


class TestOnMatched:
    def test_tracked_stays_tracked(self):
        c = cfg()
        t, model = make_tracked(c)
        match(t, box(102), 0.8, c, model, grid())
        assert t.view(0).status is TrackStatus.TRACKED
        assert t.view(0).lost_count == 0
        assert t.view(0).confidence == 0.8

    def test_lost_match_emits_one_refound(self):
        c = cfg()
        t, model = make_tracked(c)
        g = grid()
        t.status[0] = TrackStatus.LOST
        t.predicts_since_match[0] = 4
        match(t, box(102), 0.8, c, model, g)
        assert t.view(0).status is TrackStatus.TRACKED
        assert [kind for kind, _ in g.events] == ["refound"]
        cell = g.cell_of(bottom_middle(box(102)))
        assert g.counts[cell] == -1

    def test_maintained_match_emits_no_event(self):
        # A maintained track never entered the lost pool, so finding it again
        # must not decrement anything.
        c = cfg()
        t, model = make_tracked(c)
        t.status[0] = TrackStatus.LOST_MAINTAINED
        t.lm_count[0] = 2
        g = grid()
        match(t, box(102), 0.8, c, model, g)
        assert t.view(0).status is TrackStatus.TRACKED
        assert g.events == []
        assert t.view(0).lm_count == 0

    def test_tentative_confirms_at_min_hits(self):
        c = cfg(min_hits=3)
        model = K.MotionModel()
        t = spawn(1, box(), c, model)
        assert t.view(0).status is TrackStatus.TENTATIVE and t.view(0).hits == 1
        match(t, box(101), 0.9, c, model, grid())
        assert t.view(0).status is TrackStatus.TENTATIVE and t.view(0).hits == 2
        match(t, box(102), 0.9, c, model, grid())
        assert t.view(0).status is TrackStatus.TRACKED

    def test_min_hits_one_confirms_at_birth(self):
        c = cfg(min_hits=1)
        t = spawn(1, box(), c, K.MotionModel())
        assert t.view(0).status is TrackStatus.TRACKED

    def test_velocity_recorded_on_real_update(self):
        c = cfg()
        t, model = make_tracked(c)
        assert t.vel_count.tolist() == [0]
        match(t, box(104), 0.9, c, model, grid())
        assert t.vel_count.tolist() == [1]


class TestOnMissed:
    def test_first_miss_outside_frequent_maintains(self):
        c = cfg(lost_maintain_frames=3)
        t, model = make_tracked(c)
        miss(t, c, model, grid(), frozenset())
        assert t.view(0).status is TrackStatus.LOST_MAINTAINED
        assert t.view(0).lm_count == 1

    def test_miss_inside_frequent_goes_lost_with_event(self):
        c = cfg(lost_maintain_frames=3)
        t, model = make_tracked(c)
        g = grid()
        frequent = frozenset({g.cell_of(bottom_middle(t.view(0).last_box))})
        miss(t, c, model, g, frequent)
        assert t.view(0).status is TrackStatus.LOST
        assert [kind for kind, _ in g.events] == ["lost"]
        assert g.cell_of(bottom_middle(t.view(0).last_box)) in frequent

    def test_budget_exhaustion_transitions_to_lost(self):
        c = cfg(lost_maintain_frames=2)
        t, model = make_tracked(c)
        g = grid()
        miss(t, c, model, g, frozenset())
        miss(t, c, model, g, frozenset())
        assert t.view(0).status is TrackStatus.LOST_MAINTAINED
        miss(t, c, model, g, frozenset())
        assert t.view(0).status is TrackStatus.LOST
        assert [kind for kind, _ in g.events] == ["lost"]

    def test_frequent_cell_removal_after_reduced_age(self):
        c = cfg(lost_maintain_frames=3, max_age=30, location_age_reduction=8)
        t, model = make_tracked(c)
        g = grid()
        frequent = frozenset({g.cell_of(bottom_middle(t.view(0).last_box))})
        for k in range(22):
            assert t.view(0).status is not TrackStatus.REMOVED
            miss(t, c, model, g, frequent)
        assert t.view(0).status is TrackStatus.REMOVED
        assert t.view(0).lost_count == 22

    def test_normal_cell_removal_after_max_age(self):
        c = cfg(lost_maintain_frames=0, enable_lost_maintain=False, max_age=30)
        t, model = make_tracked(c)
        g = grid()
        for k in range(29):
            miss(t, c, model, g, frozenset())
            assert t.view(0).status is TrackStatus.LOST
        miss(t, c, model, g, frozenset())
        assert t.view(0).status is TrackStatus.REMOVED

    @pytest.mark.parametrize("lost_in_frequent, age", [(True, 22), (False, 30)])
    def test_age_follows_the_loss_cell_not_the_prediction(self, lost_in_frequent, age):
        # The prediction runs 100 px a frame along the top row of cells, out
        # of the cell the track was lost in; only that cell sets the age.
        c = cfg(lost_maintain_frames=0, enable_lost_maintain=False,
                enable_velocity_rollback=False, max_age=30, location_age_reduction=8)
        t, model = make_tracked(c)
        g = grid()
        loss_cell = g.cell_of(bottom_middle(t.view(0).last_box))
        top_row = {(i, loss_cell[1]) for i in range(g.cols)}
        frequent = {loss_cell} if lost_in_frequent else top_row - {loss_cell}
        set_velocity(t, [100.0, 0, 0, 0])
        for misses in range(1, 31):
            predict(t, model)
            miss(t, c, model, g, frequent)
            if t.view(0).status is TrackStatus.REMOVED:
                break
        assert misses == age
        assert g.cell_of(bottom_middle(predicted_box(t))) != loss_cell

    def test_lost_count_is_the_misses_after_maintaining(self):
        c = cfg(lost_maintain_frames=2)
        t, model = make_tracked(c)
        g = grid()
        for _ in range(5):
            miss(t, c, model, g, frozenset())
        view = t.view(0)
        assert view.status is TrackStatus.LOST
        assert (view.lm_count, view.lost_count, view.predicts_since_match) == (2, 3, 5)

    def test_zero_budget_skips_maintain(self):
        c = cfg(lost_maintain_frames=0)
        t, model = make_tracked(c)
        miss(t, c, model, grid(), frozenset())
        assert t.view(0).status is TrackStatus.LOST

    def test_tentative_missed_once_removed(self):
        c = cfg(min_hits=3)
        t = spawn(1, box(), c, K.MotionModel())
        miss(t, c, K.MotionModel(), grid(), frozenset())
        assert t.view(0).status is TrackStatus.REMOVED

    def test_rollback_fires_on_lost_transition(self):
        c = cfg(lost_maintain_frames=0, enable_lost_maintain=False)
        t, model = make_tracked(c)
        # Seed the buffer with a distinctive old velocity, then change it.
        set_velocity(t, [7.0, 0, 0, 0])
        K.record_velocity(t.vel_ring, t.vel_count, ROW, t.kf.parts[1, ROW])
        set_velocity(t, [99.0, 0, 0, 0])
        miss(t, c, model, grid(), frozenset())
        assert t.view(0).kf.mean[4] == 7.0

    def test_rollback_respects_toggle(self):
        c = cfg(lost_maintain_frames=0, enable_lost_maintain=False,
                enable_velocity_rollback=False)
        t, model = make_tracked(c)
        K.record_velocity(t.vel_ring, t.vel_count, ROW, t.kf.parts[1, ROW])
        set_velocity(t, [99.0, 0, 0, 0])
        miss(t, c, model, grid(), frozenset())
        assert t.view(0).kf.mean[4] == 99.0

    def test_track_lost_before_any_match_keeps_its_velocity(self):
        # With min_hits = 1 a track is confirmed at birth, so it can be lost
        # before a match has recorded any velocity.
        c = cfg(min_hits=1, enable_lost_maintain=False)
        model = K.MotionModel()
        t = spawn(1, box(), c, model)
        set_velocity(t, [3.0, -2.0, 0, 0])
        miss(t, c, model, grid(), frozenset())
        assert t.view(0).status is TrackStatus.LOST
        assert t.vel_count.tolist() == [0]
        np.testing.assert_array_equal(t.view(0).kf.mean[4:], [3.0, -2.0, 0, 0])


class TestLostMaintainStep:
    def test_three_maintained_frames_follow_pure_prediction(self):
        c = cfg()
        model = K.MotionModel()
        t, _ = make_tracked(c, model=model)
        set_velocity(t, [4.0, 2.0, 0, 0])
        reference = t.view(0).kf
        for _ in range(3):
            reference = K.predict(reference, model)
            predict(t, model)
            miss(t, c, model, grid(), frozenset())
            assert t.view(0).status is TrackStatus.LOST_MAINTAINED
            np.testing.assert_allclose(t.view(0).kf.mean, reference.mean, atol=1e-6)

    def test_lm_count_increments_once_per_miss(self):
        c = cfg()
        t, model = make_tracked(c)
        for k in range(1, 4):
            miss(t, c, model, grid(), frozenset())
            assert t.view(0).lm_count == k

    def test_covariance_stays_psd(self):
        c = cfg()
        t, model = make_tracked(c)
        for _ in range(3):
            predict(t, model)
            miss(t, c, model, grid(), frozenset())
            cov = t.view(0).kf.covariance
            assert np.max(np.abs(cov - cov.T)) <= 1e-9
            assert np.min(np.linalg.eigvalsh(cov)) >= -1e-9

    def test_virtual_box_set_for_matching(self):
        c = cfg()
        t, model = make_tracked(c)
        set_velocity(t, [10.0, 0, 0, 0])
        before = t.view(0).last_box
        predict(t, model)
        miss(t, c, model, grid(), frozenset())
        assert t.view(0).last_box.left == pytest.approx(before.left + 10.0, abs=1e-6)


def _mk(status, b, tid):
    return status, b, tid


def occluded(rows, occlusion_iou):
    """Ids that infer_occlusion flags in one table of (status, box, id) rows."""
    c = cfg()
    t = TrackTable.blank(0, c.vel_buffer_len)
    new_track(t, [tid for _, _, tid in rows], ltwh(*[b for _, b, _ in rows]),
              [0.9] * len(rows), c, K.MotionModel())
    t.status[:] = [status for status, _, _ in rows]
    flagged = infer_occlusion(ltwh_to_ltrb(state_box(t.kf.parts[0])), t.status, occlusion_iou)
    return set(t.ids[flagged].tolist())


class TestInferOcclusion:
    def test_fully_overlapped_lost_track_flagged(self):
        lost = _mk(TrackStatus.LOST, box(100, 100), 1)
        tracked = _mk(TrackStatus.TRACKED, box(100, 100), 2)
        assert occluded([lost, tracked], 0.3) == {1}

    def test_isolated_lost_track_not_flagged(self):
        lost = _mk(TrackStatus.LOST, box(100, 100), 1)
        tracked = _mk(TrackStatus.TRACKED, box(800, 400), 2)
        assert occluded([lost, tracked], 0.3) == set()

    def test_lost_lost_overlap_does_not_count(self):
        a = _mk(TrackStatus.LOST, box(100, 100), 1)
        b = _mk(TrackStatus.LOST, box(100, 100), 2)
        assert occluded([a, b], 0.3) == set()

    def test_maintained_tracks_also_flagged(self):
        lm = _mk(TrackStatus.LOST_MAINTAINED, box(100, 100), 1)
        tracked = _mk(TrackStatus.TRACKED, box(105, 100), 2)
        assert occluded([lm, tracked], 0.3) == {1}


ALLOWED_EDGES = {
    (TrackStatus.TENTATIVE, TrackStatus.TENTATIVE),
    (TrackStatus.TENTATIVE, TrackStatus.TRACKED),
    (TrackStatus.TENTATIVE, TrackStatus.REMOVED),
    (TrackStatus.TRACKED, TrackStatus.TRACKED),
    (TrackStatus.TRACKED, TrackStatus.LOST_MAINTAINED),
    (TrackStatus.TRACKED, TrackStatus.LOST),
    (TrackStatus.LOST_MAINTAINED, TrackStatus.TRACKED),
    (TrackStatus.LOST_MAINTAINED, TrackStatus.LOST_MAINTAINED),
    (TrackStatus.LOST_MAINTAINED, TrackStatus.LOST),
    (TrackStatus.LOST, TrackStatus.TRACKED),
    (TrackStatus.LOST, TrackStatus.LOST),
    (TrackStatus.LOST, TrackStatus.REMOVED),
}


class TestTransitionGraph:
    @settings(max_examples=80, deadline=None)
    @given(
        outcomes=st.lists(st.booleans(), min_size=1, max_size=60),
        l=st.integers(0, 4),
        min_hits=st.integers(1, 3),
        frequent=st.booleans(),
    )
    def test_only_allowed_edges(self, outcomes, l, min_hits, frequent):
        c = cfg(lost_maintain_frames=l, enable_lost_maintain=l > 0,
                min_hits=min_hits, max_age=10, location_age_reduction=4)
        model = K.MotionModel()
        t = spawn(1, box(), c, model)
        g = grid()
        cells = frozenset({g.cell_of(bottom_middle(t.view(0).last_box))}) if frequent else frozenset()
        prev = t.view(0).status
        for matched in outcomes:
            if t.view(0).status is TrackStatus.REMOVED:
                break
            predict(t, model)
            if matched:
                match(t, predicted_box(t), 0.9, c, model, g)
            else:
                miss(t, c, model, g, cells)
            assert (prev, t.view(0).status) in ALLOWED_EDGES, (prev, t.view(0).status)
            prev = t.view(0).status
