import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from meshsort import association
from meshsort.association import assign, biou_cost, iou_cost, two_stage_associate
from meshsort.geometry import BoundingBox, boxes_to_ltrb

from oracles import _ref_canonicalize_ties, brute_force_assignment, reference_assign, reference_two_stage_associate


def box(l, t, w, h):
    return BoundingBox(l, t, w, h)


def ltrb(boxes):
    return boxes_to_ltrb(boxes)


def cascade(tracks, lost, dets, scores, **kw):
    """The cascade over active ``tracks`` then ``lost`` proposals, as the tracker stacks them."""
    return two_stage_associate(ltrb(tracks + lost), len(tracks), ltrb(dets), scores, **kw)


def pairs(matches):
    """An ``(n, 2)`` integer match array as a list of ``(row, col)`` tuples."""
    assert matches.ndim == 2 and matches.shape[1] == 2
    assert np.issubdtype(matches.dtype, np.integer)
    return [tuple(p) for p in matches.tolist()]


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
        assert pairs(res.matches) == [(0, 0), (1, 1)]

    def test_single_cell(self):
        res = assign(np.array([[0.2]]), gate=0.8)
        assert pairs(res.matches) == [(0, 0)]

    def test_everything_gated_out(self):
        res = assign(np.full((2, 3), 0.95), gate=0.8)
        assert pairs(res.matches) == []

    def test_empty_matrix(self):
        for shape in ((0, 3), (3, 0), (0, 0)):
            assert pairs(assign(np.zeros(shape), gate=0.5).matches) == []

    def test_rectangular_prefers_cheaper_row(self):
        res = assign(np.array([[0.3], [0.25]]), gate=0.8)
        assert pairs(res.matches) == [(1, 0)]

    def test_tie_break_lowest_row_lowest_col(self):
        cost = np.array([[0.2, 0.2], [0.2, 0.2]])
        res = assign(cost, gate=0.8)
        assert pairs(res.matches) == [(0, 0), (1, 1)]

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

    @pytest.mark.parametrize("cost, solves, expected", [
        # Each row and each column holds at most one entry within the gate.
        ([[0.1, 0.9, 0.95], [0.9, 0.9, 0.3], [0.85, 0.9, 0.9]], 0, [(0, 0), (1, 2)]),
        ([[0.9, 0.2], [0.9, 0.9]], 0, [(0, 1)]),
        # Row 0 holds two admissible entries, so the solver runs.
        ([[0.1, 0.2], [0.9, 0.3]], 1, [(0, 0), (1, 1)]),
        # Column 0 holds two.
        ([[0.2, 0.9], [0.1, 0.9]], 1, [(1, 0)]),
    ])
    def test_solver_runs_only_on_contested_entries(self, monkeypatch, cost, solves, expected):
        calls = []

        def counting(masked):
            calls.append(masked.shape)
            return linear_sum_assignment(masked)

        monkeypatch.setattr(association, "linear_sum_assignment", counting)
        res = assign(np.array(cost), gate=0.8)
        assert pairs(res.matches) == expected
        assert len(calls) == solves


class TestTwoStage:
    def test_high_conf_matches_stage_one(self):
        res = cascade([box(0, 0, 10, 10)], [], [box(1, 0, 10, 10)], [0.9])
        assert pairs(res.matches) == [(0, 0)]
        assert pairs(res.stage_one_matches) == [(0, 0)]
        assert pairs(res.stage_two_matches) == []

    def test_mid_conf_matches_stage_two_only(self):
        res = cascade([box(0, 0, 10, 10)], [], [box(1, 0, 10, 10)], [0.4])
        assert pairs(res.matches) == [(0, 0)]
        assert pairs(res.stage_one_matches) == []
        assert pairs(res.stage_two_matches) == [(0, 0)]

    def test_below_low_conf_ignored(self):
        res = cascade([box(0, 0, 10, 10)], [], [box(1, 0, 10, 10)], [0.05])
        assert pairs(res.matches) == []
        # The same detection at conf_low matches: only its confidence kept it out.
        res = cascade([box(0, 0, 10, 10)], [], [box(1, 0, 10, 10)], [0.1])
        assert pairs(res.matches) == [(0, 0)]

    def test_lost_pool_excluded_from_stage_two(self):
        # The lost proposal overlaps the mid-confidence detection, but only
        # stage one is open to it.
        res = cascade([], [box(0, 0, 10, 10)], [box(1, 0, 10, 10)], [0.4])
        assert pairs(res.matches) == []
        assert pairs(res.stage_one_matches) == [] and pairs(res.stage_two_matches) == []

    def test_lost_pool_matches_high_conf(self):
        res = cascade([], [box(0, 0, 10, 10)], [box(1, 0, 10, 10)], [0.9])
        assert pairs(res.matches) == [(0, 0)]

    def test_stage_one_leftover_reaches_stage_two(self):
        # Two high-conf detections on one track: the leftover may still be
        # claimed by the other (stage-one-unmatched) track via buffered IoU.
        tracks = [box(0, 0, 10, 10), box(13, 0, 10, 10)]
        dets = [box(0, 0, 10, 10), box(12, 0, 10, 10)]
        res = cascade(tracks, [], dets, [0.9, 0.9])
        assert (0, 0) in pairs(res.matches)
        assert (1, 1) in pairs(res.matches)

    def test_matches_in_row_order_across_stages(self):
        # Row 1 matches in stage one, row 0 only in stage two; the merged
        # array still lists row 0 first.
        tracks = [box(0, 0, 10, 10), box(100, 0, 10, 10)]
        dets = [box(100, 0, 10, 10), box(1, 0, 10, 10)]
        res = cascade(tracks, [], dets, [0.9, 0.4])
        assert pairs(res.stage_one_matches) == [(1, 0)]
        assert pairs(res.stage_two_matches) == [(0, 1)]
        assert pairs(res.matches) == [(0, 1), (1, 0)]

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
            res = cascade(tracks, lost, dets, scores)
            rows = [r for r, _ in pairs(res.matches)]
            cols = [c for _, c in pairs(res.matches)]
            assert len(rows) == len(set(rows))
            assert len(cols) == len(set(cols))
            assert all(0 <= r < len(tracks) + len(lost) for r in rows)
            assert all(scores[c] >= 0.1 for c in cols)
            assert all(r < len(tracks) for r, _ in pairs(res.stage_two_matches))

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            cascade([], [], [], [], conf_high=0.1, conf_low=0.5)


_B0, _B1, _FAR = box(0, 0, 10, 10), box(1, 0, 10, 10), box(100, 0, 10, 10)


@pytest.mark.parametrize("tracks, lost, dets, scores, shapes", [
    # The only active row matches in stage one; a mid detection is left.
    ([_B0], [box(200, 0, 10, 10)], [_B0, _FAR], [0.9, 0.4], [(2, 1)]),
    ([], [_B0], [_B1], [0.4], [(1, 0)]),
    # The only detection matches row 0 in stage one; row 1 is left.
    ([_B0, _FAR], [], [_B0], [0.9], [(2, 1)]),
    ([_B0], [], [_B0], [0.05], [(1, 0)]),
    ([_B0, _FAR], [], [_B0, box(101, 0, 10, 10)], [0.9, 0.4], [(2, 1), (1, 1)]),
], ids=["no-free-active-row", "no-active-row", "no-free-detection",
        "no-detection-above-conf-low", "both-left"])
def test_stage_two_runs_only_with_rows_and_detections_left(monkeypatch, tracks, lost, dets,
                                                           scores, shapes):
    seen = []

    def counting(cost, gate):
        seen.append(cost.shape)
        return assign(cost, gate)

    monkeypatch.setattr(association, "assign", counting)
    cascade(tracks, lost, dets, scores)
    assert seen == shapes


# Boxes on a 5 px grid with three sizes, so identical boxes and exact cost ties
# occur; scores include the default conf_low (0.1) and conf_high (0.6) exactly.
_grid_box = st.builds(
    lambda l, t, w, h: (5.0 * l, 5.0 * t, w, h),
    st.integers(0, 8), st.integers(0, 8),
    st.sampled_from([10.0, 15.0, 20.0]), st.sampled_from([10.0, 20.0]),
)
_score = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.6, 0.9, 1.0]),
                   st.floats(0.0, 1.0, allow_nan=False))


def _ltrb(boxes):
    return np.array([(l, t, l + w, t + h) for l, t, w, h in boxes], dtype=np.float64).reshape(-1, 4)


class TestMatchesReference:
    """The array cascade against the list-based one it replaced, pair for pair."""

    @settings(max_examples=400, deadline=None)
    @given(
        active=st.lists(_grid_box, max_size=8),
        lost=st.lists(_grid_box, max_size=4),
        dets=st.lists(st.tuples(_grid_box, _score), max_size=8),
        buffer_scale=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_cascade(self, active, lost, dets, buffer_scale):
        det_boxes = _ltrb([b for b, _ in dets])
        scores = [s for _, s in dets]
        res = two_stage_associate(_ltrb(active + lost), len(active), det_boxes, scores,
                                  buffer_scale=buffer_scale)
        ref_all, ref_one, ref_two = reference_two_stage_associate(
            _ltrb(active), _ltrb(lost), det_boxes, scores, buffer_scale=buffer_scale)
        assert pairs(res.stage_one_matches) == ref_one
        assert pairs(res.stage_two_matches) == ref_two
        assert pairs(res.matches) == ref_all

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(0, 6), cols=st.integers(0, 6),
        levels=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9, 1.0]), min_size=36, max_size=36),
        gate=st.sampled_from([0.5, 0.8, 1.0]),
    )
    def test_assign(self, rows, cols, levels, gate):
        # Costs from a few levels, so equal-cost optima are common.
        cost = np.array(levels[:rows * cols], dtype=np.float64).reshape(rows, cols)
        matches = pairs(assign(cost, gate).matches)
        ref_matches, ref_rows, ref_cols = reference_assign(cost, gate)
        assert matches == ref_matches
        # The leftovers the list-based result named are the rows and columns
        # the array leaves out.
        assert [r for r in range(rows) if r not in {m[0] for m in matches}] == ref_rows
        assert [c for c in range(cols) if c not in {m[1] for m in matches}] == ref_cols

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(0, 6), extra=st.integers(0, 2),
        levels=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=48, max_size=48),
        gate=st.sampled_from([0.5, 0.75, 1.0]),
        order=st.permutations(range(8)),
    )
    # A pass that restarted from the first pair after each swap would end at
    # the identity here, not at the pairs a full row-major pass reaches.
    @example(n=4, extra=0, gate=1.0, order=[3, 2, 0, 1, 4, 5, 6, 7],
             levels=[0.5, 0.0, 0.0, 0.25, 0.25, 0.25, 1.0, 0.25, 0.75, 0.75, 0.25, 0.25,
                     0.75, 0.0, 0.75, 1.0] + [0.0] * 32)
    def test_canonicalize_ties(self, n, extra, levels, gate, order):
        # Rows 0..n-1 hold a permutation of the columns rather than an
        # optimum, so the swap passes have ties to settle.
        cols = n + extra
        cost = np.array(levels[:n * cols], dtype=np.float64).reshape(n, cols)
        matches = np.array(list(enumerate(c for c in order if c < cols))[:n], dtype=np.intp).reshape(-1, 2)
        ref = pairs(matches)
        association._canonicalize_ties(cost, gate, matches)
        _ref_canonicalize_ties(cost, gate, ref)
        assert pairs(matches) == ref
