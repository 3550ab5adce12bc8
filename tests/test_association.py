import numpy as np
import pytest

from meshsort.association import assign, biou_cost, iou_cost, two_stage_associate
from meshsort.geometry import BoundingBox, boxes_to_ltrb

from oracles import brute_force_assignment


def box(l, t, w, h):
    return BoundingBox(l, t, w, h)


def ltrb(boxes):
    return boxes_to_ltrb(boxes)


class TestCostMatrices:
    def test_identical_pair_costs_zero(self):
        c = iou_cost(ltrb([box(0, 0, 10, 10)]), ltrb([box(0, 0, 10, 10)]))
        assert c[0, 0] == pytest.approx(0.0)

    def test_disjoint_pair_costs_one(self):
        c = iou_cost(ltrb([box(0, 0, 10, 10)]), ltrb([box(100, 100, 10, 10)]))
        assert c[0, 0] == pytest.approx(1.0)

    def test_third_overlap(self):
        c = iou_cost(ltrb([box(0, 0, 10, 10)]), ltrb([box(5, 0, 10, 10)]))
        assert c[0, 0] == pytest.approx(2 / 3)

    def test_biou_zero_scale_equals_iou(self):
        tracks = [box(0, 0, 10, 10), box(50, 50, 20, 10)]
        dets = [box(5, 0, 10, 10), box(100, 100, 5, 5)]
        np.testing.assert_allclose(biou_cost(ltrb(tracks), ltrb(dets), 0.0),
                                   iou_cost(ltrb(tracks), ltrb(dets)))

    def test_biou_bridges_gap(self):
        c_plain = iou_cost(ltrb([box(0, 0, 10, 10)]), ltrb([box(12, 0, 10, 10)]))
        c_buf = biou_cost(ltrb([box(0, 0, 10, 10)]), ltrb([box(12, 0, 10, 10)]), 0.3)
        assert c_plain[0, 0] == 1.0
        assert c_buf[0, 0] == pytest.approx(1 - 1 / 7)


class TestAssign:
    def test_diagonal_preferred(self):
        res = assign(np.array([[0.1, 0.9], [0.9, 0.1]]), gate=0.8)
        assert res.matches == [(0, 0), (1, 1)]
        assert res.unmatched_rows == [] and res.unmatched_cols == []

    def test_single_cell(self):
        res = assign(np.array([[0.2]]), gate=0.8)
        assert res.matches == [(0, 0)]

    def test_everything_gated_out(self):
        res = assign(np.full((2, 3), 0.95), gate=0.8)
        assert res.matches == []
        assert res.unmatched_rows == [0, 1]
        assert res.unmatched_cols == [0, 1, 2]

    def test_empty_matrix(self):
        res = assign(np.zeros((0, 3)), gate=0.5)
        assert res.matches == [] and res.unmatched_cols == [0, 1, 2]

    def test_rectangular_prefers_cheaper_row(self):
        res = assign(np.array([[0.3], [0.25]]), gate=0.8)
        assert res.matches == [(1, 0)]
        assert res.unmatched_rows == [0]

    def test_tie_break_lowest_row_lowest_col(self):
        cost = np.array([[0.2, 0.2], [0.2, 0.2]])
        res = assign(cost, gate=0.8)
        assert res.matches == [(0, 0), (1, 1)]

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            rows = rng.integers(1, 7)
            cols = rng.integers(1, 7)
            cost = rng.uniform(0, 1, size=(rows, cols))
            gate = rng.uniform(0.3, 0.9)
            res = assign(cost, gate)
            total = sum(cost[r, c] for r, c in res.matches)
            oracle_total, oracle_n, _ = brute_force_assignment(cost, gate)
            assert len(res.matches) == oracle_n
            assert total == pytest.approx(oracle_total, abs=1e-9)

    def test_total_cost_invariant_under_permutation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cost = rng.uniform(0, 1, size=(5, 6))
            gate = 0.85
            base = sum(cost[r, c] for r, c in assign(cost, gate).matches)
            pr = rng.permutation(5)
            pc = rng.permutation(6)
            shuffled = cost[np.ix_(pr, pc)]
            permuted = sum(shuffled[r, c] for r, c in assign(shuffled, gate).matches)
            assert permuted == pytest.approx(base, abs=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            assign(np.array([[np.inf]]), gate=0.5)


class TestTwoStage:
    def test_high_conf_matches_stage_one(self):
        res = two_stage_associate(
            ltrb([box(0, 0, 10, 10)]), ltrb([]), ltrb([box(1, 0, 10, 10)]), [0.9]
        )
        assert res.matches == [(0, 0)]
        assert res.stage_one_matches == [(0, 0)]
        assert res.stage_two_matches == []

    def test_mid_conf_matches_stage_two_only(self):
        res = two_stage_associate(
            ltrb([box(0, 0, 10, 10)]), ltrb([]), ltrb([box(1, 0, 10, 10)]), [0.4]
        )
        assert res.matches == [(0, 0)]
        assert res.stage_one_matches == []
        assert res.stage_two_matches == [(0, 0)]

    def test_below_low_conf_ignored(self):
        res = two_stage_associate(
            ltrb([box(0, 0, 10, 10)]), ltrb([]), ltrb([box(1, 0, 10, 10)]), [0.05]
        )
        assert res.matches == []
        # The same detection at conf_low matches: only its confidence kept it out.
        res = two_stage_associate(
            ltrb([box(0, 0, 10, 10)]), ltrb([]), ltrb([box(1, 0, 10, 10)]), [0.1]
        )
        assert res.matches == [(0, 0)]

    def test_lost_pool_excluded_from_stage_two(self):
        # The lost proposal overlaps the mid-confidence detection, but only
        # stage one is open to it.
        res = two_stage_associate(
            ltrb([]), ltrb([box(0, 0, 10, 10)]), ltrb([box(1, 0, 10, 10)]), [0.4]
        )
        assert res.matches == []
        assert res.stage_one_matches == [] and res.stage_two_matches == []

    def test_lost_pool_matches_high_conf(self):
        res = two_stage_associate(
            ltrb([]), ltrb([box(0, 0, 10, 10)]), ltrb([box(1, 0, 10, 10)]), [0.9]
        )
        assert res.matches == [(0, 0)]

    def test_stage_one_leftover_reaches_stage_two(self):
        # Two high-conf detections on one track: the leftover may still be
        # claimed by the other (stage-one-unmatched) track via buffered IoU.
        tracks = [box(0, 0, 10, 10), box(13, 0, 10, 10)]
        dets = [box(0, 0, 10, 10), box(12, 0, 10, 10)]
        res = two_stage_associate(ltrb(tracks), ltrb([]), ltrb(dets), [0.9, 0.9])
        assert (0, 0) in res.matches
        assert (1, 1) in res.matches

    def test_no_double_matching(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            tracks = [
                box(rng.uniform(0, 400), rng.uniform(0, 300), 20, 40)
                for _ in range(rng.integers(0, 6))
            ]
            lost = [
                box(rng.uniform(0, 400), rng.uniform(0, 300), 20, 40)
                for _ in range(rng.integers(0, 3))
            ]
            dets = [
                box(rng.uniform(0, 400), rng.uniform(0, 300), 20, 40)
                for _ in range(rng.integers(0, 6))
            ]
            scores = [float(rng.uniform(0, 1)) for _ in dets]
            res = two_stage_associate(ltrb(tracks), ltrb(lost), ltrb(dets), scores)
            rows = [r for r, _ in res.matches]
            cols = [c for _, c in res.matches]
            assert len(rows) == len(set(rows))
            assert len(cols) == len(set(cols))
            assert all(0 <= r < len(tracks) + len(lost) for r in rows)
            assert all(scores[c] >= 0.1 for c in cols)
            assert all(r < len(tracks) for r, _ in res.stage_two_matches)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            two_stage_associate(ltrb([]), ltrb([]), ltrb([]), [], conf_high=0.1, conf_low=0.5)
