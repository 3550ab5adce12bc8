"""Track lifecycle: confirmation, lost maintenance, location-wise ages, removal.

A freshly spotted object starts Tentative and confirms after ``min_hits``
consecutive detections. A confirmed track that misses a detection is either
kept "maintained" for a few frames (when the loss looks like an unexpected
occlusion, i.e. outside the frequent-loss cells) or parked as Lost. Lost
tracks age out after ``max_age`` frames, reduced by ``location_age_reduction``
when the loss happened inside a frequent-loss cell.

Every live track is one row of a :class:`TrackTable`, in creation order. The
functions here act on a set of rows at once, with one batched filter call
each, so a frame costs a fixed number of array operations however many
tracks it holds. The filter beliefs are one :class:`kalman.KalmanState`
stack, ``kf``, whose row axis is the table's: a frame predicts it in place
and updates row sets of it. Boxes are ``(N, 4)`` arrays; :class:`BoundingBox`
appears only in the per-track views handed out to callers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import kalman
from .config import TrackerConfig
from .geometry import BoundingBox, Point2, iou_matrix, ltwh_to_measurement, measurement_to_ltwh
from .geometry import iou  # noqa: F401  -- perfbench's tracer wraps tracks.iou by name
from .mesh import MeshGrid

# Measurement-noise inflation of a maintained track's pseudo-observation.
_LM_NOISE_SCALE = 10.0


class TrackStatus(enum.IntEnum):
    TENTATIVE = 0
    TRACKED = 1
    LOST_MAINTAINED = 2
    LOST = 3
    REMOVED = 4


# The status codes as plain ints for the per-frame array tests: each member
# lookup on an Enum class is a Python-level call.
TENTATIVE, TRACKED, LOST_MAINTAINED, LOST, REMOVED = (int(s) for s in TrackStatus)


def state_box(pos: np.ndarray) -> np.ndarray:
    """(N, 4) [left, top, width, height] boxes of filter slots (N, 4) [cx, cy, area, aspect].

    A non-positive area or aspect is raised to :data:`kalman.SIZE_FLOOR`.
    Raises :class:`kalman.NumericsError` when a box is not finite.
    """
    z = pos.copy()
    np.maximum(z[:, 2:], kalman.SIZE_FLOOR, out=z[:, 2:])
    boxes = measurement_to_ltwh(z)
    if not np.isfinite(boxes).all():
        raise kalman.NumericsError("non-finite box from the filter state")
    return boxes


def _bottom_middle(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the bottom-center points of [left, top, width, height] rows."""
    return boxes[:, 0] + boxes[:, 2] / 2.0, boxes[:, 1] + boxes[:, 3]


def _points(x: np.ndarray, y: np.ndarray) -> list[Point2]:
    return [Point2(a, b) for a, b in zip(x.tolist(), y.tolist())]


class TrackView(NamedTuple):
    """Read-only copy of one track's row."""

    track_id: int
    status: TrackStatus
    kf: kalman.KalmanState
    hits: int
    lm_count: int
    lost_count: int
    last_box: BoundingBox
    confidence: float
    predicts_since_match: int


@dataclass
class TrackTable:
    """Per-track state as arrays, one row per live track in creation order.

    ``predicts_since_match`` counts the frames missed since the last match,
    of which the first ``lm_count`` were maintained; the rest were spent
    lost. ``kf`` holds the filter beliefs as one stack (see
    :class:`kalman.KalmanState`), rows on its second axis.
    ``vel_ring``/``vel_count`` are the velocity rings (see
    :func:`kalman.record_velocity`). ``last_box`` is the
    box the track reports, as [left, top, width, height]; a lost track's
    ``last_box`` is where it was lost, since only a match writes it again.
    """

    ids: np.ndarray
    status: np.ndarray
    hits: np.ndarray
    lm_count: np.ndarray
    predicts_since_match: np.ndarray
    kf: kalman.KalmanState
    vel_ring: np.ndarray
    vel_count: np.ndarray
    last_box: np.ndarray
    confidence: np.ndarray

    @classmethod
    def blank(cls, n: int, vel_len: int) -> "TrackTable":
        """``n`` zeroed rows with velocity rings of length ``vel_len``."""
        ints = (n,), np.int64
        return cls(
            ids=np.zeros(*ints),
            status=np.zeros(n, dtype=np.int8),
            hits=np.zeros(*ints),
            lm_count=np.zeros(*ints),
            predicts_since_match=np.zeros(*ints),
            kf=kalman.KalmanState(np.zeros((5, n, kalman.MEAS_DIM))),
            vel_ring=np.zeros((n, vel_len, kalman.MEAS_DIM)),
            vel_count=np.zeros(*ints),
            last_box=np.zeros((n, 4)),
            confidence=np.zeros(n),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def extend(self, other: "TrackTable") -> None:
        for f in fields(self):
            if f.name == "kf":
                self.kf = kalman.KalmanState(np.concatenate([self.kf.parts, other.kf.parts], axis=1))
            else:
                setattr(self, f.name, np.concatenate([getattr(self, f.name), getattr(other, f.name)]))

    def keep(self, mask: np.ndarray) -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name)[mask])

    def view(self, row: int) -> TrackView:
        lm_count, missed = int(self.lm_count[row]), int(self.predicts_since_match[row])
        return TrackView(
            track_id=int(self.ids[row]),
            status=TrackStatus(int(self.status[row])),
            kf=kalman.KalmanState(self.kf.parts[:, row].copy()),
            hits=int(self.hits[row]),
            lm_count=lm_count,
            lost_count=missed - lm_count,
            last_box=BoundingBox(*self.last_box[row].tolist()),
            confidence=float(self.confidence[row]),
            predicts_since_match=missed,
        )


def new_track(table: TrackTable, ids, boxes: np.ndarray, confs, cfg: TrackerConfig,
              model: kalman.MotionModel) -> None:
    """Append one track per detection box ([left, top, width, height] rows)."""
    new = TrackTable.blank(len(boxes), cfg.vel_buffer_len)
    new.ids[:] = ids
    new.status[:] = TRACKED if cfg.min_hits <= 1 else TENTATIVE
    new.hits[:] = 1
    new.kf = kalman.initiate(ltwh_to_measurement(boxes), model)
    new.last_box[:] = boxes
    new.confidence[:] = confs
    table.extend(new)


def on_matched(
    table: TrackTable,
    rows: np.ndarray,
    det_boxes: np.ndarray,
    det_confs: np.ndarray,
    cfg: TrackerConfig,
    model: kalman.MotionModel,
    grid: MeshGrid,
) -> None:
    """Fold one real detection into each live row and restore the rows to the tracked pool.

    When the mesh feature is on, ``grid`` receives one refind event per row
    that was lost, in row order.
    """
    status = table.status[rows]
    post = kalman.update(table.kf, ltwh_to_measurement(det_boxes), model, rows=rows)
    kalman.record_velocity(table.vel_ring, table.vel_count, rows, post.parts[1])
    refound = status == LOST
    if cfg.enable_mesh and refound.any():
        # Refinds decrement at the refound location; a track lost in one cell
        # and refound in another leaves both counts shifted, which is allowed.
        for point in _points(*_bottom_middle(det_boxes[refound])):
            grid.record_refound(point)
    table.status[rows] = TRACKED
    tentative = rows[status == TENTATIVE]
    if len(tentative):
        table.hits[tentative] += 1
        table.status[tentative[table.hits[tentative] < cfg.min_hits]] = TENTATIVE
    table.lm_count[rows] = 0
    table.predicts_since_match[rows] = 0
    table.confidence[rows] = det_confs
    table.last_box[rows] = state_box(post.parts[0])


def lost_maintain_step(table: TrackTable, rows: np.ndarray, boxes: np.ndarray,
                       cfg: TrackerConfig, model: kalman.MotionModel) -> None:
    """Feed each maintained row its own predicted slots as a weak pseudo-observation.

    The zero innovation keeps the mean on its constant-velocity course while
    the inflated-noise update keeps the covariance from ballooning, so the
    virtual proposal stays matchable. The mean's position is left as it was,
    so the rows report ``boxes``, their predicted [left, top, width, height]
    boxes.
    """
    kalman.update(table.kf, table.kf.parts[0, rows], model, noise_scale=_LM_NOISE_SCALE, rows=rows)
    table.last_box[rows] = boxes


def on_missed(
    table: TrackTable,
    rows: np.ndarray,
    boxes: np.ndarray,
    cfg: TrackerConfig,
    model: kalman.MotionModel,
    grid: MeshGrid,
) -> None:
    """Advance the lifecycle of live rows that got no detection this frame.

    ``boxes`` are the rows' predicted [left, top, width, height] boxes (the
    :func:`state_box` of their slots). The frequent-loss cells are read from
    ``grid.state``, whether or not the mesh feature is on; while no cell is
    frequent, or no row could use one, no cell is looked up. Loss events reach ``grid`` only when the
    feature is on, one per row entering the lost pool, in row order. A lost
    row's removal age is reduced when the cell of its ``last_box``, where it
    was lost, is frequent.
    """
    frequent = grid.state
    any_frequent = frequent.any()
    table.predicts_since_match[rows] += 1
    status = table.status[rows]
    tentative = status == TENTATIVE
    if tentative.any():
        table.status[rows[tentative]] = REMOVED
        rows, status, boxes = rows[~tentative], status[~tentative], boxes[~tentative]

    maintain = np.zeros(len(rows), dtype=bool)
    if cfg.enable_lost_maintain:
        maintain = (status != LOST) & (table.lm_count[rows] < cfg.lost_maintain_frames)
        if any_frequent and maintain.any():
            maintain &= ~frequent[grid.cells_of(*_bottom_middle(boxes))]
    kept = rows[maintain]
    if len(kept):
        table.status[kept] = LOST_MAINTAINED
        table.lm_count[kept] += 1
        lost_maintain_step(table, kept, boxes[maintain], cfg, model)

    # First frame in the lost pool: roll the velocity back past any
    # pre-occlusion detector noise, and count the loss in its cell.
    lost = rows[~maintain]
    entering = lost[status[~maintain] != LOST]
    if len(entering):
        if cfg.enable_mesh:
            for point in _points(*_bottom_middle(table.last_box[entering])):
                grid.record_lost(point)
        if cfg.enable_velocity_rollback:
            kalman.rollback_velocity(table.kf, table.vel_ring, table.vel_count, entering)
        table.status[entering] = LOST

    # A lost row is never maintained again before a match, so its maintained
    # frames all come first.
    lost_count = table.predicts_since_match[lost] - table.lm_count[lost]
    age = cfg.max_age
    if cfg.enable_location_ages and any_frequent and len(lost):
        reduced = frequent[grid.cells_of(*_bottom_middle(table.last_box[lost]))]
        age = np.where(reduced, cfg.max_age - cfg.location_age_reduction, cfg.max_age)
    table.status[lost[lost_count >= age]] = REMOVED


def infer_occlusion(boxes: np.ndarray, status: np.ndarray, occlusion_iou: float) -> np.ndarray:
    """Mask of lost/maintained rows whose predicted box overlaps a tracked one.

    ``boxes`` are the rows' predicted [left, top, right, bottom] boxes. The
    flagged rows are withheld from matching for the frame: their spot is
    plausibly covered by the overlapping object, so any detection there
    belongs to it, not to them. Overlap between two lost tracks is ignored.
    """
    occluded = (status == LOST) | (status == LOST_MAINTAINED)
    if occluded.any():
        overlap = iou_matrix(boxes[occluded], boxes[status == TRACKED])
        occluded[occluded] = (overlap >= occlusion_iou).any(axis=1)
    return occluded
