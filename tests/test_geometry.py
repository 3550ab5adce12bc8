import numpy as np
import pytest
from hypothesis import given, strategies as st

from meshsort.association import biou_cost
from meshsort.geometry import (
    BoundingBox,
    bottom_middle,
    boxes_to_ltrb,
    expand_ltrb,
    iou,
    iou_matrix,
    ltwh_to_measurement,
    measurement_to_ltwh,
)


def box(l, t, w, h):
    return BoundingBox(l, t, w, h)


finite_boxes = st.builds(
    BoundingBox,
    left=st.floats(-1e4, 1e4),
    top=st.floats(-1e4, 1e4),
    width=st.floats(1e-3, 1e4),
    height=st.floats(1e-3, 1e4),
)


class TestBoundingBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            box(0, 0, 0, 10)
        with pytest.raises(ValueError):
            box(0, 0, 10, -1)
        with pytest.raises(ValueError):
            box(0, 0, float("nan"), 10)

    def test_derived_edges(self):
        b = box(2, 3, 10, 20)
        assert (b.right, b.bottom, b.area) == (12, 23, 200)


class TestIou:
    def test_identity(self):
        assert iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(100, 100, 10, 10)) == 0.0

    def test_half_shift(self):
        # intersection 50, union 150
        assert iou(box(0, 0, 10, 10), box(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-12)

    @given(a=finite_boxes, b=finite_boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)

    @given(a=finite_boxes)
    def test_one_only_for_identical(self, a):
        assert iou(a, a) == pytest.approx(1.0)
        shifted = BoundingBox(a.left + a.width / 2, a.top, a.width, a.height)
        assert iou(a, shifted) < 1.0


def buffered_iou(a, b, scale):
    """Buffered IoU of two boxes through the tracker's array path."""
    return 1.0 - biou_cost(boxes_to_ltrb([a]), boxes_to_ltrb([b]), scale)[0, 0]


class TestBufferedIou:
    def test_zero_scale_is_plain_iou(self):
        a, b = box(0, 0, 10, 10), box(5, 0, 10, 10)
        ltrb = boxes_to_ltrb([a, b])
        assert expand_ltrb(ltrb, 0.0) is ltrb
        assert biou_cost(ltrb[:1], ltrb[1:], 0.0)[0, 0] == 1.0 - iou(a, b)

    def test_identical_stays_one(self):
        assert buffered_iou(box(0, 0, 10, 10), box(0, 0, 10, 10), 0.5) == 1.0

    def test_gap_becomes_overlap(self):
        a, b = box(0, 0, 10, 10), box(12, 0, 10, 10)
        assert iou(a, b) == 0.0
        # both expand to width 16: spans [-3,13] and [9,25] -> 64 / 448
        assert buffered_iou(a, b, 0.3) == pytest.approx(1 / 7, abs=1e-12)
        np.testing.assert_allclose(expand_ltrb(boxes_to_ltrb([a]), 0.3), [[-3, -3, 13, 13]])

    @given(a=finite_boxes, b=finite_boxes, s=st.floats(0, 2), ds=st.floats(0, 1))
    def test_monotone_in_scale(self, a, b, s, ds):
        assert buffered_iou(a, b, s + ds) >= buffered_iou(a, b, s) - 1e-9


class TestBottomMiddle:
    @pytest.mark.parametrize(
        "b,expected",
        [
            (BoundingBox(0, 0, 10, 10), (5, 10)),
            (BoundingBox(100, 50, 20, 40), (110, 90)),
            (BoundingBox(0, 0, 0.5, 0.5), (0.25, 0.5)),
        ],
    )
    def test_examples(self, b, expected):
        assert bottom_middle(b) == expected


def measurement(b):
    return ltwh_to_measurement(np.array(b.as_ltwh(), dtype=np.float64))


class TestMeasurementConversion:
    def test_square(self):
        np.testing.assert_allclose(measurement(box(0, 0, 10, 10)), [5, 5, 100, 1])

    def test_wide(self):
        np.testing.assert_allclose(measurement(box(0, 0, 20, 10)), [10, 5, 200, 2])

    @given(b=finite_boxes)
    def test_round_trip(self, b):
        back = BoundingBox(*measurement_to_ltwh(measurement(b)).tolist())
        scale = max(abs(b.left), abs(b.top), b.width, b.height, 1.0)
        assert abs(back.left - b.left) <= 1e-9 * scale
        assert abs(back.top - b.top) <= 1e-9 * scale
        assert abs(back.width - b.width) <= 1e-9 * scale
        assert abs(back.height - b.height) <= 1e-9 * scale


class TestArrayOps:
    def test_matrix_matches_scalar(self):
        boxes_a = [box(0, 0, 10, 10), box(5, 5, 4, 8)]
        boxes_b = [box(5, 0, 10, 10), box(100, 100, 3, 3), box(0, 0, 10, 10)]
        mat = iou_matrix(boxes_to_ltrb(boxes_a), boxes_to_ltrb(boxes_b))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert mat[i, j] == pytest.approx(iou(a, b), abs=1e-12)

    def test_empty(self):
        assert iou_matrix(boxes_to_ltrb([]), boxes_to_ltrb([box(0, 0, 1, 1)])).shape == (0, 1)
