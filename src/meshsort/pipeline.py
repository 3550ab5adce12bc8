"""Per-frame orchestration: predict, occlusion inference, cascade, lifecycle.

One :class:`Tracker` instance owns one sequence and is strictly
single-threaded; independent sequences run in parallel with one instance
each. The tracker keeps every live track as one row of a
:class:`~meshsort.tracks.TrackTable` and makes one batched pass per stage.
The per-frame flow is:

1. advance every live track's filter one frame (one predict, in place on
   the table's belief stack)
2. build the predicted boxes from the stack's slots as one ltrb array and
   flag lost/maintained tracks whose spot is covered by a tracked box
3. run the two-stage confidence cascade on the candidates' boxes, active rows
   first (lost proposals join stage one only); matches come back as index arrays
4. update the matched rows (one update: a gather and a scatter of the
   stack); refind events, row order
5. spawn tentative tracks from leftover confident detections
6. apply the missed-row lifecycle (one batched update for maintained rows,
   one rollback for rows entering the lost pool); loss events, row order
7. refresh the frequent-loss cells (consumed by the *next* frame's lifecycle)
8. emit the frame output as arrays: the shown rows' ids, boxes and scores

Frames are arrays: :class:`FrameDetections` holds :class:`Detections`
(``boxes`` ``(n, 4)`` ltwh and ``scores``) and :class:`FrameOutput` holds
:class:`Records` (``ids``, ``boxes`` and ``scores``). Both read as tuples of
:class:`Detection` or :class:`OutputRecord`, whose :class:`BoundingBox` is
built only when a record is read.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import kalman, tracks as _tracks
from .association import two_stage_associate
from .config import TrackerConfig
from .geometry import BoundingBox, check_box_range, degenerate, ltwh_to_ltrb, valid_boxes
from .mesh import LossThreshold, MeshGrid
from .tracks import LOST, LOST_MAINTAINED, REMOVED, TRACKED, TrackTable, TrackView


class SequencingError(ValueError):
    """Frame indices fed to a tracker must be strictly increasing."""


class Detection(NamedTuple):
    box: BoundingBox
    score: float


class OutputRecord(NamedTuple):
    track_id: int
    box: BoundingBox
    score: float


class _Records(Sequence):
    """Read-only records over column arrays, one per slot, ``boxes`` ``(n, 4)`` ltwh.

    A record is built each time it is read and is not kept. A slice is a tuple
    of records. Views of one type compare by their arrays, and a view equals
    the tuple of its records.
    """

    __slots__ = ()
    _record: type  # the NamedTuple each row reads as, its fields in slot order

    def __init__(self, *columns: np.ndarray):
        for name, column in zip(self.__slots__, columns):
            setattr(self, name, column)

    @classmethod
    def _view(cls, *columns: np.ndarray):
        """A view of columns taken from checked views, so not checked again."""
        view = object.__new__(cls)
        _Records.__init__(view, *columns)
        return view

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.__slots__]

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return map(self._record, *(
            map(BoundingBox, *column.T.tolist()) if column.ndim == 2 else column.tolist()
            for column in self._columns()
        ))

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self._view(*(column[k] for column in self._columns())))
        k = operator.index(k)
        n = len(self)
        if not -n <= k < n:
            raise IndexError(f"record {k} of {n}")
        k %= n
        (record,) = self._view(*(column[k : k + 1] for column in self._columns()))
        return record

    def __eq__(self, other):
        if type(other) is type(self):
            return all(map(np.array_equal, self._columns(), other._columns()))
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"

    @classmethod
    def concat(cls, views: Iterable["_Records"]):
        """The rows of ``views`` end to end."""
        return cls._view(*map(np.concatenate, zip(*(v._columns() for v in [cls.of(()), *views]))))


def _ltwh(boxes: Iterable[BoundingBox]) -> np.ndarray:
    return np.array([b.as_ltwh() for b in boxes], dtype=np.float64).reshape(-1, 4)


def _check_detection(det: Detection) -> None:
    if not 0.0 <= det.score <= 1.0:
        raise ValueError(f"confidence outside [0, 1]: {det.score}")
    check_box_range(det.box)
    if degenerate(np.array([det.box.as_ltwh()]))[0]:
        raise ValueError(f"degenerate box {det.box!r}: its area, extent or aspect ratio rounds to 0 or overflows")


class Detections(_Records):
    """Detections as ``boxes`` ``(n, 4)`` ltwh and ``scores`` ``(n,)``, read as :class:`Detection`.

    Each box must pass :func:`~meshsort.geometry.valid_boxes`, and each
    score lie in [0, 1].
    """

    __slots__ = ("boxes", "scores")
    _record = Detection

    def __init__(self, boxes: np.ndarray, scores: np.ndarray):
        super().__init__(boxes, scores)
        self._check(self)

    @classmethod
    def of(cls, dets: Iterable[Detection]) -> "Detections":
        dets = tuple(dets)
        view = cls._view(_ltwh(d.box for d in dets), np.array([d.score for d in dets], dtype=np.float64))
        view._check(dets)
        return view

    @classmethod
    def split(cls, boxes: np.ndarray, scores: np.ndarray, bounds: list[int]) -> list["Detections"]:
        """Views of rows ``bounds[i]:bounds[i + 1]``; the arrays are checked once, as a whole."""
        cls(boxes, scores)
        return [cls._view(boxes[lo:hi], scores[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    def _check(self, given: Sequence[Detection]) -> None:
        """Raise, for the first bad row, what :func:`_check_detection` raises for that row of ``given``."""
        boxes, scores = self.boxes, self.scores
        ok = (scores >= 0.0) & (scores <= 1.0)
        ok &= valid_boxes(boxes)
        if not ok.all():
            _check_detection(given[int(ok.argmin())])


class Records(_Records):
    """Tracker output as ``ids``, ``boxes`` ``(n, 4)`` ltwh and ``scores``, read as :class:`OutputRecord`."""

    __slots__ = ("ids", "boxes", "scores")
    _record = OutputRecord

    @classmethod
    def of(cls, records: Iterable[OutputRecord]) -> "Records":
        records = tuple(records)
        return cls(np.array([r.track_id for r in records], dtype=np.int64),
                   _ltwh(r.box for r in records), np.array([r.score for r in records], dtype=np.float64))


@dataclass(frozen=True)
class FrameDetections:
    """One frame's detections. Any sequence of :class:`Detection` given is stored as :class:`Detections`."""

    index: int
    detections: Detections

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("frame indices start at 1")
        if not isinstance(self.detections, Detections):
            object.__setattr__(self, "detections", Detections.of(self.detections))


@dataclass(frozen=True)
class FrameOutput:
    """One frame's output. Any sequence of :class:`OutputRecord` given is stored as :class:`Records`."""

    index: int
    records: Records

    def __post_init__(self):
        if not isinstance(self.records, Records):
            object.__setattr__(self, "records", Records.of(self.records))


@dataclass
class TrackerStats:
    """Cheap per-run instrumentation used by the benchmark and ablation runs."""

    predicts: int = 0
    doomed_predicts: int = 0
    spawned: int = 0
    removed: int = 0


class Tracker:
    """Streaming tracker: feed :class:`FrameDetections`, get :class:`FrameOutput`.

    Track state lives in :attr:`table`, one row per live track; :attr:`tracks`
    hands out read-only per-track views of it.
    """

    def __init__(self, cfg: TrackerConfig):
        cfg.validate()
        self.cfg = cfg
        self.model = kalman.MotionModel(cfg.pos_std_weight, cfg.vel_std_weight)
        self.grid = MeshGrid(
            cfg.mesh_cols, cfg.mesh_rows, (cfg.frame_width, cfg.frame_height)
        )
        self.threshold = LossThreshold(cfg.mesh_threshold_slope)
        self.table = TrackTable.blank(0, cfg.vel_buffer_len)
        self._next_id = 1
        self._last_frame = 0
        self._stats = TrackerStats()

    @property
    def tracks(self) -> list[TrackView]:
        """Read-only views of the live tracks, in creation order."""
        return [self.table.view(row) for row in range(len(self.table))]

    def stats(self) -> TrackerStats:
        """Snapshot of run counters; pending lost work of live tracks included."""
        out = TrackerStats(**vars(self._stats))
        status = self.table.status
        lost = (status == LOST) | (status == LOST_MAINTAINED)
        out.doomed_predicts += int(self.table.predicts_since_match[lost].sum())
        return out

    def step(self, fd: FrameDetections) -> FrameOutput:
        if fd.index <= self._last_frame:
            raise SequencingError(
                f"frame {fd.index} does not follow frame {self._last_frame}"
            )
        self._last_frame = fd.index
        cfg = self.cfg
        table = self.table

        live = len(table)
        if live:
            kalman.predict(table.kf, self.model)
            self._stats.predicts += live
        predicted_ltwh = _tracks.state_box(table.kf.parts[0])
        predicted = ltwh_to_ltrb(predicted_ltwh)

        status = table.status
        # Only lost and maintained rows can be occluded, and the table holds
        # no removed row between frames.
        free = ~_tracks.infer_occlusion(predicted, status, cfg.occlusion_iou)
        lost = status == LOST
        full_rows = (free & ~lost).nonzero()[0]
        lost_rows = (free & lost).nonzero()[0]
        candidates = np.concatenate([full_rows, lost_rows])

        det_boxes, scores = fd.detections.boxes, fd.detections.scores
        result = two_stage_associate(
            predicted[candidates],
            len(full_rows),
            ltwh_to_ltrb(det_boxes),
            scores,
            conf_high=cfg.conf_high,
            conf_low=cfg.conf_low,
            gate_first=cfg.gate_first,
            gate_second=cfg.gate_second,
            buffer_scale=cfg.buffer_scale,
        )

        matched, matched_dets = candidates[result.matches[:, 0]], result.matches[:, 1]
        if len(matched):
            _tracks.on_matched(table, matched, det_boxes[matched_dets],
                               scores[matched_dets], cfg, self.model, self.grid)

        spawn = scores >= max(cfg.init_conf, cfg.conf_low)
        spawn[matched_dets] = False
        n_new = int(spawn.sum())
        if n_new:
            ids = np.arange(self._next_id, self._next_id + n_new)
            _tracks.new_track(table, ids, det_boxes[spawn], scores[spawn], cfg, self.model)
            self._next_id += n_new
            self._stats.spawned += n_new

        hit = np.zeros(live, dtype=bool)
        hit[matched] = True
        missed = (~hit).nonzero()[0]
        if len(missed):
            _tracks.on_missed(table, missed, predicted_ltwh[missed], cfg, self.model, self.grid)
            removed = missed[table.status[missed] == REMOVED]
            if len(removed):
                self._stats.removed += len(removed)
                self._stats.doomed_predicts += int(table.predicts_since_match[removed].sum())
                table.keep(table.status != REMOVED)

        if cfg.enable_mesh:
            self.grid.identify(self.threshold, fd.index)

        return FrameOutput(index=fd.index, records=self._records())

    def _records(self) -> Records:
        table = self.table
        shown = table.status == TRACKED
        if self.cfg.emit_virtual:
            shown |= table.status == LOST_MAINTAINED
        # Rows keep creation order and ids count up, so the shown ids ascend.
        rows = shown.nonzero()[0]
        return Records(table.ids[rows], table.last_box[rows], table.confidence[rows])


def run(cfg: TrackerConfig, frames: Iterable[FrameDetections]) -> list[FrameOutput]:
    """Fold a detection sequence through a fresh tracker."""
    tracker = Tracker(cfg)
    return [tracker.step(fd) for fd in frames]

