import math
import warnings

import numpy as np
import pytest

from meshsort.geometry import BoundingBox
from meshsort.metrics import (
    HOTA_ALPHAS,
    MetricsError,
    TrajectorySet,
    clear_mot,
    evaluate,
    hota,
    idf1,
)

from oracles import brute_force_idf1, enumerate_hota_alpha


def box(l, t=100.0, w=20.0, h=40.0):
    return BoundingBox(l, t, w, h)


def traj(frames_boxes):
    return dict(frames_boxes)


def straight(id_, start, end, x0=100.0, step=0.0, y=100.0):
    return {f: box(x0 + step * (f - start), y) for f in range(start, end + 1)}


class TestMatchFrame:
    """CLEAR's per-frame matching, read through :func:`clear_mot`'s counts."""

    def test_identical_sets_all_match(self):
        gt = {1: {1: box(0)}, 2: {1: box(100)}}
        res = {7: {1: box(0)}, 8: {1: box(100)}}
        assert clear_mot(gt, res) == (1.0, 0, 0, 0, 0, 2, 0, 2)

    def test_empty_result_no_pairs(self):
        _, fp, fn, _, _, _, _, total = clear_mot({1: {1: box(0)}}, {})
        assert (fp, fn, total) == (0, 1, 1)

    def test_two_results_on_one_gt_gives_single_pair(self):
        _, fp, fn, _, _, _, _, _ = clear_mot({1: {1: box(0)}}, {1: {1: box(1)}, 2: {1: box(2)}})
        assert (fp, fn) == (1, 0)

    def test_carry_keeps_previous_pair(self):
        # Frame 1 pairs gt 1 with result 2 and gt 2 with result 1. At frame 2
        # both pairs still clear 0.3, but the assignment alone would pair gt 1
        # with result 1 (IoU 17/23) and gt 2 with result 2 (18/22).
        gt = {1: {1: box(0), 2: box(0)}, 2: {1: box(100), 2: box(6)}}
        res = {1: {1: box(100), 2: box(3)}, 2: {1: box(0), 2: box(4)}}
        assert clear_mot(gt, res, 0.3)[1:4] == (0, 0, 0)  # fp, fn, idsw
        # A frame without results in between drops the carry: both ids switch.
        gt = {1: {1: box(0), 2: box(0), 3: box(0)}, 2: {1: box(100), 2: box(6), 3: box(6)}}
        res = {1: {1: box(100), 3: box(3)}, 2: {1: box(0), 3: box(4)}}
        assert clear_mot(gt, res, 0.3)[1:4] == (0, 2, 2)


class TestClearMot:
    def test_perfect_tracking(self):
        gt = {1: straight(1, 1, 10), 2: straight(2, 1, 10, x0=500)}
        res = {7: straight(7, 1, 10), 8: straight(8, 1, 10, x0=500)}
        mota, fp, fn, idsw, fm, mt, ml, total = clear_mot(gt, res)
        assert (mota, fp, fn, idsw, fm) == (1.0, 0, 0, 0, 0)
        assert mt == 2 and ml == 0 and total == 20

    def test_known_error_budget(self):
        # 10 gt frames; misses at 9..10, one spurious box, one id change.
        gt = {1: straight(1, 1, 10)}
        res = {
            1: straight(1, 1, 4),
            2: straight(2, 5, 8),
            3: {5: box(800.0)},
        }
        mota, fp, fn, idsw, fm, mt, ml, total = clear_mot(gt, res)
        assert total == 10
        assert fn == 2 and fp == 1 and idsw == 1
        assert mota == pytest.approx(0.6)
        assert fm == 0  # coverage run 1..8 is contiguous
        assert mt == 1  # 8/10 >= 0.8

    def test_fragmentation_and_mostly_tracked_boundary(self):
        # covered 1-5 and 8-10 of 10 -> one interruption, 8/10 coverage
        gt = {1: straight(1, 1, 10)}
        res = {1: {**straight(1, 1, 5), **straight(1, 8, 10)}}
        _, _, _, _, fm, mt, ml, _ = clear_mot(gt, res)
        assert fm == 1
        assert mt == 1 and ml == 0

    def test_mostly_lost_boundary(self):
        gt = {1: straight(1, 1, 10)}
        res = {1: straight(1, 1, 2)}
        _, _, _, _, _, mt, ml, _ = clear_mot(gt, res)
        assert ml == 1 and mt == 0

    def test_empty_gt_rejected(self):
        with pytest.raises(MetricsError):
            clear_mot({}, {1: straight(1, 1, 3)})

    def test_internal_consistency(self):
        gt = {1: straight(1, 1, 10), 2: straight(2, 3, 9, x0=400)}
        res = {
            5: {**straight(5, 1, 6), **{f: box(800.0) for f in range(7, 9)}},
            6: straight(6, 5, 9, x0=400),
        }
        mota, fp, fn, idsw, _, _, _, total = clear_mot(gt, res)
        assert mota == pytest.approx(1.0 - (fp + fn + idsw) / total)

    def test_pure_fp_never_raises_mota(self):
        gt = {1: straight(1, 1, 10)}
        res = {1: straight(1, 1, 10)}
        base = clear_mot(gt, res)[0]
        res_fp = {1: straight(1, 1, 10), 2: {5: box(900.0)}}
        assert clear_mot(gt, res_fp)[0] <= base


class TestIdf1:
    def test_perfect(self):
        gt = {1: straight(1, 1, 10)}
        res = {9: straight(9, 1, 10)}
        assert idf1(gt, res) == pytest.approx(1.0)

    def test_split_track_halves_score(self):
        gt = {1: straight(1, 1, 10)}
        res = {1: straight(1, 1, 5), 2: straight(2, 6, 10)}
        assert idf1(gt, res) == pytest.approx(0.5)

    def test_relabeling_invariance(self):
        gt = {1: straight(1, 1, 8), 2: straight(2, 1, 8, x0=400)}
        res = {1: straight(1, 1, 8), 2: straight(2, 1, 8, x0=400)}
        relabeled = {10: res[2], 20: res[1]}
        assert idf1(gt, res) == pytest.approx(idf1(gt, relabeled))

    def test_matches_brute_force_on_small_instances(self):
        gt = {
            1: straight(1, 1, 5),
            2: straight(2, 2, 6, x0=400),
        }
        res = {
            1: {**straight(1, 1, 3), **straight(1, 4, 5, x0=400)},
            2: straight(2, 4, 6, x0=400.0 + 2),
            3: straight(3, 4, 5),
        }
        assert idf1(gt, res) == pytest.approx(brute_force_idf1(gt, res, 0.5), abs=1e-12)


class TestHota:
    def test_perfect(self):
        gt = {1: straight(1, 1, 6), 2: straight(2, 1, 6, x0=500)}
        res = {3: straight(3, 1, 6), 4: straight(4, 1, 6, x0=500)}
        b = hota(gt, res)
        assert b.value == pytest.approx(1.0)
        assert b.det_a == pytest.approx(1.0)
        assert b.ass_a == pytest.approx(1.0)

    def test_empty_result_scores_zero(self):
        gt = {1: straight(1, 1, 6)}
        b = hota(gt, {})
        assert (b.value, b.det_a, b.ass_a) == (0.0, 0.0, 0.0)

    def test_midpoint_swap_matches_enumeration(self):
        # Two disjoint targets, result ids swap halves at frame 3.
        gt = {1: straight(1, 1, 4), 2: straight(2, 1, 4, x0=600)}
        res = {
            1: {**straight(1, 1, 2), **straight(1, 3, 4, x0=600)},
            2: {**straight(2, 1, 2, x0=600), **straight(2, 3, 4)},
        }
        b = hota(gt, res)
        for alpha in HOTA_ALPHAS:
            expected = enumerate_hota_alpha(gt, res, alpha)
            assert b.per_alpha[alpha] == pytest.approx(expected, abs=1e-9)
            assert b.det_per_alpha[alpha] == pytest.approx(1.0)
            assert b.ass_per_alpha[alpha] == pytest.approx(1 / 3, abs=1e-9)
        # every match keeps one third of its identity evidence
        assert b.value == pytest.approx(math.sqrt(1 / 3), abs=1e-9)
        assert b.det_a == pytest.approx(1.0)
        assert b.ass_a == pytest.approx(1 / 3, abs=1e-9)

    def test_relabeling_invariance(self):
        gt = {1: straight(1, 1, 5), 2: straight(2, 1, 5, x0=300)}
        res = {
            1: {**straight(1, 1, 3), **straight(1, 4, 5, x0=300)},
            2: {**straight(2, 1, 3, x0=300), **straight(2, 4, 5)},
        }
        relabeled = {5: res[1], 9: res[2]}
        assert hota(gt, res).value == pytest.approx(hota(gt, relabeled).value, abs=1e-12)


class TestEvaluate:
    def test_report_fields_and_serialization(self):
        gt = {1: straight(1, 1, 10)}
        res = {1: straight(1, 1, 10)}
        report = evaluate(gt, res)
        assert report.mota == pytest.approx(1.0)
        assert report.idf1 == pytest.approx(1.0)
        assert report.hota == pytest.approx(1.0)
        kv = report.to_kv()
        assert "MOTA=1.000000" in kv
        assert all("=" in line for line in kv.strip().splitlines())
        table = report.to_table()
        assert "MOTA" in table and "\n" in table

    def test_metric_invariance_under_global_relabel(self):
        gt = {1: straight(1, 1, 8), 2: straight(2, 1, 8, x0=400)}
        res = {
            3: {**straight(3, 1, 4), **straight(3, 5, 8, x0=400)},
            4: {**straight(4, 1, 4, x0=400), **straight(4, 5, 8)},
        }
        relabeled = {77: res[3], 12: res[4]}
        a = evaluate(gt, res)
        b = evaluate(gt, relabeled)
        assert a.mota == pytest.approx(b.mota)
        assert a.idf1 == pytest.approx(b.idf1)
        assert a.hota == pytest.approx(b.hota)
        assert (a.fp, a.fn, a.idsw, a.fm) == (b.fp, b.fn, b.idsw, b.fm)


class TestBadInMemoryBoxes:
    """The evaluator rejects a box that the result file reader would reject, naming its side, id and frame."""

    @staticmethod
    def _set(width, height):
        return TrajectorySet.from_rows(np.array([1, 1]), np.array([1, 2]),
                                       np.array([[10, 20, width, height], [50, 60, 10, 10]], dtype=np.float64))

    @pytest.mark.parametrize("width,height", [(0.5, 5e-324), (math.nan, 10), (-3, 10)],
                             ids=["degenerate", "nan", "negative"])
    def test_ground_truth(self, width, height):
        # These once warned and failed inside the IoU and assignment code, or scored MOTA 0.
        ts = self._set(width, height)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MetricsError, match=r"^ground truth id 1 at frame 1: box \[10.0, 20.0, "):
                evaluate(ts, ts)

    def test_result(self):
        with pytest.raises(MetricsError, match=r"^result id 1 at frame 1: .* within 1e\+07 px"):
            evaluate(self._set(10, 10), self._set(10, 2e7))


class TestThresholdValidation:
    """Each entry point rejects an overlap threshold outside (0, 1) itself."""

    BAD = (0.0, 1.0, 1.5, -0.2, float("nan"))

    @pytest.mark.parametrize("thr", BAD)
    @pytest.mark.parametrize("fn", (clear_mot, idf1, evaluate), ids=lambda f: f.__name__)
    def test_rejected(self, fn, thr):
        gt = {1: straight(1, 1, 4)}
        res = {2: straight(2, 1, 4)}
        with pytest.raises(MetricsError, match="iou threshold"):
            fn(gt, res, thr)

    @pytest.mark.parametrize("fn", (clear_mot, idf1, evaluate), ids=lambda f: f.__name__)
    def test_rejected_with_empty_result(self, fn):
        with pytest.raises(MetricsError, match="iou threshold"):
            fn({1: straight(1, 1, 4)}, {}, 1.5)
