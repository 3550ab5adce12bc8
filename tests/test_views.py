"""The array-backed frames and trajectories read as the record shapes they replaced.

``Detections``, ``Records`` and ``TrajectorySet`` hold arrays and build a
``Detection``, ``OutputRecord`` or ``BoundingBox`` each time one is read. Built
from records or from arrays, they must read back the same records, with the
same types and float bits, and reject the same bad input with the same message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshsort.geometry import MAX_COORD, BoundingBox, check_box_range, degenerate
from meshsort.metrics import TrajectorySet, evaluate
from meshsort.pipeline import Detection, Detections, FrameDetections, FrameOutput, OutputRecord, Records

REALS = st.one_of(st.floats(-1e4, 1e4), st.sampled_from([-0.0, 0.0, -MAX_COORD, MAX_COORD, 5e-324]))
SIZES = st.one_of(st.floats(1e-3, 1e4), st.sampled_from([5e-324, MAX_COORD]))
BOXES = st.builds(BoundingBox, REALS, REALS, SIZES, SIZES)
# Detections also refuse degenerate boxes; result records take any box.
DET_BOXES = BOXES.filter(lambda b: not degenerate(np.array([b.as_ltwh()]))[0])
SCORES = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0]))
DETECTIONS = st.lists(st.builds(Detection, DET_BOXES, SCORES), max_size=6).map(tuple)
RECORDS = st.lists(st.builds(OutputRecord, st.integers(-5, 10**6), BOXES, st.floats(-1e7, 1e7)), max_size=6).map(tuple)


def _bits(records):
    """Each record as its field types and the bits of its reals."""
    out = []
    for rec in records:
        fields = []
        for value in rec:
            if isinstance(value, BoundingBox):
                fields.append((type(value), [(type(v), float(v).hex()) for v in value.as_ltwh()]))
            else:
                fields.append((type(value), float(value).hex() if isinstance(value, float) else value))
        out.append((type(rec), fields))
    return out


def _ltwh(boxes):
    return np.array([b.as_ltwh() for b in boxes], dtype=np.float64).reshape(-1, 4)


@settings(max_examples=150, deadline=None)
@given(dets=DETECTIONS, k=st.integers(-8, 8))
def test_detections_from_records_equal_detections_from_arrays(dets, k):
    from_records = FrameDetections(3, dets)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    from_arrays = FrameDetections(3, Detections(_ltwh(d.box for d in dets), scores))
    assert from_records == from_arrays
    assert from_records.detections == dets and len(from_records.detections) == len(dets)
    assert bool(from_records.detections) == bool(dets)
    for fd in (from_records, from_arrays):
        assert _bits(fd.detections) == _bits(Detection(BoundingBox(*map(float, d.box.as_ltwh())), float(d.score))
                                              for d in dets)
        assert isinstance(fd.detections[1:], tuple) and fd.detections[1:] == dets[1:]
        if -len(dets) <= k < len(dets):
            assert _bits([fd.detections[k]]) == _bits([list(fd.detections)[k]])
        else:
            with pytest.raises(IndexError):
                fd.detections[k]


@settings(max_examples=150, deadline=None)
@given(records=RECORDS)
def test_records_from_tuples_equal_records_from_arrays(records):
    from_tuples = FrameOutput(2, records)
    ids = np.array([r.track_id for r in records], dtype=np.int64)
    scores = np.array([r.score for r in records], dtype=np.float64)
    from_arrays = FrameOutput(2, Records(ids, _ltwh(r.box for r in records), scores))
    assert from_tuples == from_arrays
    assert from_tuples.records == records
    want = _bits(OutputRecord(r.track_id, BoundingBox(*map(float, r.box.as_ltwh())), float(r.score)) for r in records)
    for fo in (from_tuples, from_arrays):
        assert _bits(fo.records) == want
        assert isinstance(fo.records[:2], tuple) and fo.records[:2] == records[:2]


def reference_check(dets) -> None:
    """The per-detection checks frames made before they held arrays."""
    for det in dets:
        if not 0.0 <= det.score <= 1.0:
            raise ValueError(f"confidence outside [0, 1]: {det.score}")
        check_box_range(det.box)


def _message(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


BAD_SCORES = st.sampled_from([-0.0 - 1e-9, 1.0000001, -3, 2, math.nan, math.inf, -math.inf, 1e300])
BAD_REALS = st.sampled_from([math.nan, math.inf, -math.inf, 1e7 + 0.01, -1e8, 1e300])


@settings(max_examples=200, deadline=None)
@given(dets=st.lists(st.builds(Detection, DET_BOXES, SCORES), min_size=1, max_size=5), data=st.data())
def test_bad_detection_gives_the_scalar_message(dets, data):
    k = data.draw(st.integers(0, len(dets) - 1))
    fields = list(dets[k].box.as_ltwh())
    score = dets[k].score
    if data.draw(st.booleans()):
        score = data.draw(BAD_SCORES)
    else:
        fields[data.draw(st.integers(0, 3))] = data.draw(BAD_REALS)
    boxes, scores = _ltwh(d.box for d in dets), np.array([d.score for d in dets], dtype=np.float64)
    boxes[k], scores[k] = fields, score
    # A box the BoundingBox checks reject never reaches a frame built from records.
    box_error = _message(BoundingBox, *fields)
    want = box_error or _message(reference_check, dets[:k] + [Detection(BoundingBox(*fields), float(score))])
    assert want is not None
    assert _message(Detections, boxes, scores) == want
    if box_error is None:
        bad = tuple(dets[:k]) + (Detection(BoundingBox(*fields), score),) + tuple(dets[k + 1:])
        assert _message(FrameDetections, 1, bad) == _message(reference_check, bad)


def _rows(boxes):
    return st.lists(st.tuples(st.integers(-2, 30), st.integers(-4, 8), boxes), max_size=40,
                    unique_by=lambda row: row[:2])


ROWS = _rows(BOXES)
# Boxes whose area is not zero, where IoU is defined.
SCORED_ROWS = _rows(st.builds(BoundingBox, st.sampled_from([0.0, 2.5, 5, 10.25]), st.sampled_from([0.0, 3, 8.5]),
                              st.sampled_from([4.0, 6.5, 10]), st.sampled_from([4.0, 6.5, 10])))


def reference_trajectories(rows):
    """``{id: {frame: box}}`` built row by row: ids by first appearance, frames in row order."""
    trajs = {}
    for frame, tid, box in rows:
        trajs.setdefault(tid, {})[frame] = box
    return trajs


def _table(rows):
    return TrajectorySet.from_rows(np.array([r[0] for r in rows], dtype=np.int64),
                                   np.array([r[1] for r in rows], dtype=np.int64), _ltwh(r[2] for r in rows))


@settings(max_examples=150, deadline=None)
@given(rows=ROWS)
def test_trajectory_set_reads_as_the_reference_dicts(rows):
    ts = _table(rows)
    want = reference_trajectories(rows)
    assert repr({tid: dict(per) for tid, per in ts.items()}) == repr(want)
    assert repr({tid: dict(per.items()) for tid, per in ts.items()}) == repr(want)
    assert ts == want and len(ts) == len(want) and list(ts) == list(want)
    for tid, per in want.items():
        assert list(ts[tid].values()) == list(per.values()) and list(ts[tid].items()) == list(per.items())
        for frame in per:
            assert frame in ts[tid]
        assert 31 not in ts[tid] and ts[tid].get(-3) is None
    assert 9 not in ts and ts.get(-5) is None
    assert TrajectorySet.of(want) == want and TrajectorySet.of(ts) is ts


def test_trajectory_set_keeps_ids_without_rows():
    ts = TrajectorySet.of({3: {}, 1: {2: BoundingBox(0, 0, 1, 1)}})
    assert list(ts) == [3, 1] and dict(ts[3]) == {} and len(ts[1]) == 1


def test_repeated_row_is_rejected():
    box = BoundingBox(0, 0, 1, 1)
    with pytest.raises(ValueError, match="duplicate frame 4 for id 2"):
        _table([(4, 2, box), (5, 2, box), (4, 2, box)])


@settings(max_examples=60, deadline=None)
@given(gt_rows=SCORED_ROWS.filter(bool), res_rows=SCORED_ROWS, iou_thr=st.sampled_from([0.3, 0.5, 0.75]))
def test_evaluate_reads_tables_as_dicts(gt_rows, res_rows, iou_thr):
    gt, res = _table(gt_rows), _table(res_rows)
    as_dicts = [{tid: dict(per) for tid, per in t.items()} for t in (gt, res)]
    assert evaluate(gt, res, iou_thr) == evaluate(*as_dicts, iou_thr)
