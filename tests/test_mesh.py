import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshsort.geometry import Point2
from meshsort.mesh import LossThreshold, MeshGrid

from oracles import recount_mesh_events


def grid44():
    return MeshGrid(4, 4, (1920.0, 1080.0), log_events=True)


class TestCellOf:
    def test_center_of_hd_frame(self):
        assert grid44().cell_of(Point2(960, 540)) == (2, 2)

    def test_origin(self):
        assert grid44().cell_of(Point2(0, 0)) == (0, 0)

    def test_far_corner_clamps(self):
        assert grid44().cell_of(Point2(1920, 1080)) == (3, 3)

    def test_out_of_frame_clamps(self):
        g = grid44()
        assert g.cell_of(Point2(-50, 2000)) == (0, 3)
        assert g.cell_of(Point2(99999, -1)) == (3, 0)

    def test_non_finite_point_rejected(self):
        g = grid44()
        for p in (Point2(float("nan"), 10), Point2(10, float("inf"))):
            with pytest.raises(ValueError):
                g.cell_of(p)

    def test_vector_lookup(self):
        xs = np.array([-50.0, 0.0, 479.9, 480.0, 960.0, 1920.0, 99999.0])
        ys = np.array([2000.0, 0.0, 269.9, 270.0, 540.0, 1080.0, -1.0])
        i, j = grid44().cells_of(xs, ys)
        assert list(zip(i.tolist(), j.tolist())) == [
            (0, 3), (0, 0), (0, 0), (1, 1), (2, 2), (3, 3), (3, 0)
        ]


class TestRecording:
    def test_single_lost(self):
        g = grid44()
        g.record_lost(Point2(100, 100))
        assert g.counts[0, 0] == 1
        assert g.counts.sum() == 1

    def test_losses_minus_refinds(self):
        g = grid44()
        p = Point2(100, 100)
        for _ in range(5):
            g.record_lost(p)
        for _ in range(2):
            g.record_refound(p)
        assert g.counts[0, 0] == 3

    def test_cells_independent(self):
        g = grid44()
        g.record_lost(Point2(100, 100))
        g.record_lost(Point2(1900, 1000))
        assert g.counts[0, 0] == 1 and g.counts[3, 3] == 1

    def test_counts_may_go_negative(self):
        g = grid44()
        g.record_refound(Point2(100, 100))
        assert g.counts[0, 0] == -1

    @settings(max_examples=50)
    @given(
        events=st.lists(
            st.tuples(
                st.booleans(),
                st.floats(0, 1919.9),
                st.floats(0, 1079.9),
            ),
            max_size=300,
        )
    )
    def test_replay_matches_recount(self, events):
        g = grid44()
        for is_lost, x, y in events:
            if is_lost:
                g.record_lost(Point2(x, y))
            else:
                g.record_refound(Point2(x, y))
        np.testing.assert_array_equal(g.counts, recount_mesh_events(g.events, 4, 4))


class TestThreshold:
    def test_linear_in_time(self):
        fn = LossThreshold(0.02)
        assert fn.value(0, 100) == pytest.approx(2.0)

    def test_frequent_cells_threshold_zero(self):
        fn = LossThreshold(0.02)
        for t in (1, 10, 10000):
            assert fn.value(1, t) == 0.0

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            LossThreshold(0.02).value(0, 0)


class TestIdentify:
    def test_all_zero_counts_stay_out(self):
        g = grid44()
        assert g.identify(LossThreshold(0.02), 1) == frozenset()

    def test_count_above_line_enters(self):
        g = grid44()
        p = Point2(100, 100)
        for _ in range(3):
            g.record_lost(p)
        # h(0, 100) = 2, so a count of 3 crosses it
        assert g.identify(LossThreshold(0.02), 100) == {(0, 0)}

    def test_refinds_drive_cell_back_out(self):
        g = grid44()
        p = Point2(100, 100)
        for _ in range(3):
            g.record_lost(p)
        fn = LossThreshold(0.02)
        assert g.identify(fn, 100) == {(0, 0)}
        for _ in range(3):
            g.record_refound(p)
        # h(1, t) = 0 and 0 > 0 is false -> removed
        assert g.identify(fn, 101) == frozenset()

    def test_positive_count_keeps_frequent_cell(self):
        g = grid44()
        p = Point2(100, 100)
        for _ in range(3):
            g.record_lost(p)
        fn = LossThreshold(0.02)
        g.identify(fn, 100)
        g.record_refound(p)
        # count 2 is below the fresh line (20) but above the frequent line (0)
        assert g.identify(fn, 1000) == {(0, 0)}

    def test_idempotent_at_fixed_counts_and_time(self):
        g = grid44()
        for k in range(4):
            for _ in range(k + 1):
                g.record_lost(Point2(480 * k + 10, 100))
        fn = LossThreshold(0.02)
        first = g.identify(fn, 120)
        second = g.identify(fn, 120)
        assert first == second

    def test_membership_monotone_in_count(self):
        g = grid44()
        fn = LossThreshold(0.02)
        p = Point2(100, 100)
        for _ in range(5):
            g.record_lost(p)
        g.identify(fn, 100)
        assert (0, 0) in g.frequent
        g.record_lost(p)
        assert (0, 0) in g.identify(fn, 100)

    def test_zero_slope_flags_any_positive_count(self):
        g = grid44()
        g.record_lost(Point2(100, 100))
        g.record_lost(Point2(1000, 600))
        assert g.identify(LossThreshold(0.0), 50) == {(0, 0), (2, 2)}


class TestSnapshot:
    """The grid's text snapshot, ``MeshGrid.to_text``."""

    def test_fresh_grid_all_zero(self):
        assert grid44().to_text(1) == "mesh 4 4 frame 1\n" + "0 0 0 0\n" * 4 + "frequent:\n"

    def test_scenario_counts(self):
        g = grid44()
        p = Point2(100, 100)
        for _ in range(5):
            g.record_lost(p)
        for _ in range(2):
            g.record_refound(p)
        assert g.to_text(42) == "mesh 4 4 frame 42\n3 0 0 0\n" + "0 0 0 0\n" * 3 + "frequent:\n"

    def test_text_layout(self):
        g = MeshGrid(3, 2, (300.0, 200.0))
        for _ in range(5):
            g.record_lost(Point2(250, 150))  # cell (2, 1)
        for _ in range(2):
            g.record_refound(Point2(250, 150))
        g.record_lost(Point2(10, 10))  # cell (0, 0)
        g.identify(LossThreshold(0.0), 1)
        assert g.to_text(7) == "mesh 3 2 frame 7\n1 0 0\n0 0 3\nfrequent: (0,0) (2,1)\n"
