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
tracks it holds. Boxes are ``(N, 4)`` arrays; :class:`BoundingBox` appears
only in the per-track views handed out to callers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from . import kalman
from .config import LM_OUTSIDE_FREQUENT, TrackerConfig
from .geometry import BoundingBox, Point2, iou_matrix, ltwh_to_measurement, measurement_to_ltwh
from .geometry import iou  # noqa: F401  -- perfbench's tracer wraps tracks.iou by name
from .mesh import CellId, MeshGrid

_MIN_BOX_SIZE = 1e-3
_NO_CELL = -1


class TrackStatus(enum.IntEnum):
    TENTATIVE = 0
    TRACKED = 1
    LOST_MAINTAINED = 2
    LOST = 3
    REMOVED = 4


# The status codes as plain ints for the per-frame array tests: each member
# lookup on an Enum class is a Python-level call.
TENTATIVE, TRACKED, LOST_MAINTAINED, LOST, REMOVED = (int(s) for s in TrackStatus)


def state_box(mean: np.ndarray) -> np.ndarray:
    """(N, 4) [left, top, width, height] boxes of filter means (N, 8).

    Degenerate area/aspect is clamped to a sliver. Raises
    :class:`kalman.NumericsError` when a box is not finite.
    """
    z = mean[:, : kalman.MEAS_DIM].copy()
    np.maximum(z[:, 2:], _MIN_BOX_SIZE, out=z[:, 2:])
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
    lost_cell: Optional[CellId]
    last_box: BoundingBox
    confidence: float
    predicts_since_match: int


@dataclass
class TrackTable:
    """Per-track state as arrays, one row per live track in creation order.

    ``lost_cell`` holds -1 in both columns while a track has no loss cell.
    ``cov`` holds the covariance blocks (see :class:`kalman.KalmanState`).
    ``vel_ring``/``vel_count`` are the velocity rings (see
    :class:`kalman.VelocityBuffer`). ``last_box`` is the box the track
    reports, as [left, top, width, height].
    """

    ids: np.ndarray
    status: np.ndarray
    hits: np.ndarray
    lm_count: np.ndarray
    lost_count: np.ndarray
    predicts_since_match: np.ndarray
    lost_cell: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    vel_ring: np.ndarray
    vel_count: np.ndarray
    last_box: np.ndarray
    confidence: np.ndarray

    @classmethod
    def empty(cls, vel_len: int) -> "TrackTable":
        return cls.blank(0, vel_len)

    @classmethod
    def blank(cls, n: int, vel_len: int) -> "TrackTable":
        """``n`` zeroed rows with no loss cell."""
        ints = (n,), np.int64
        return cls(
            ids=np.zeros(*ints),
            status=np.zeros(n, dtype=np.int8),
            hits=np.zeros(*ints),
            lm_count=np.zeros(*ints),
            lost_count=np.zeros(*ints),
            predicts_since_match=np.zeros(*ints),
            lost_cell=np.full((n, 2), _NO_CELL, dtype=np.int64),
            mean=np.zeros((n, kalman.STATE_DIM)),
            cov=np.zeros((n, 3, kalman.MEAS_DIM)),
            vel_ring=np.zeros((n, vel_len, kalman.MEAS_DIM)),
            vel_count=np.zeros(*ints),
            last_box=np.zeros((n, 4)),
            confidence=np.zeros(n),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def extend(self, other: "TrackTable") -> None:
        for f in fields(self):
            setattr(self, f.name, np.concatenate([getattr(self, f.name), getattr(other, f.name)]))

    def keep(self, mask: np.ndarray) -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name)[mask])

    def state(self, rows) -> kalman.KalmanState:
        return kalman.KalmanState(mean=self.mean[rows], blocks=self.cov[rows])

    def set_state(self, rows, state: kalman.KalmanState) -> None:
        self.mean[rows] = state.mean
        self.cov[rows] = state.blocks

    @property
    def velocities(self) -> kalman.VelocityBuffer:
        """Every row's velocity ring, writing into this table."""
        return kalman.VelocityBuffer(ring=self.vel_ring, count=self.vel_count)

    def view(self, row: int) -> TrackView:
        cell = self.lost_cell[row]
        return TrackView(
            track_id=int(self.ids[row]),
            status=TrackStatus(int(self.status[row])),
            kf=kalman.KalmanState(self.mean[row].copy(), self.cov[row].copy()),
            hits=int(self.hits[row]),
            lm_count=int(self.lm_count[row]),
            lost_count=int(self.lost_count[row]),
            lost_cell=None if cell[0] == _NO_CELL else (int(cell[0]), int(cell[1])),
            last_box=BoundingBox(*self.last_box[row].tolist()),
            confidence=float(self.confidence[row]),
            predicts_since_match=int(self.predicts_since_match[row]),
        )


def new_track(table: TrackTable, ids, boxes: np.ndarray, confs, cfg: TrackerConfig,
              model: kalman.MotionModel) -> None:
    """Append one track per detection box ([left, top, width, height] rows)."""
    new = TrackTable.blank(len(boxes), cfg.vel_buffer_len)
    new.ids[:] = ids
    new.status[:] = TRACKED if cfg.min_hits <= 1 else TENTATIVE
    new.hits[:] = 1
    new.set_state(slice(None), kalman.initiate(ltwh_to_measurement(boxes), model))
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
    grid: MeshGrid | None,
) -> None:
    """Fold one real detection into each live row and restore the rows to the tracked pool.

    ``grid`` receives one refind event per row that was lost, in row order;
    None records none.
    """
    status = table.status[rows]
    post = kalman.update(table.state(rows), ltwh_to_measurement(det_boxes), model)
    table.set_state(rows, post)
    table.velocities.record(post, rows)
    if grid is not None and cfg.enable_mesh:
        # Refinds decrement at the refound location; a track lost in one cell
        # and refound in another leaves both counts shifted, which is allowed.
        for point in _points(*_bottom_middle(det_boxes[status == LOST])):
            grid.record_refound(point)
    tentative = status == TENTATIVE
    hits = table.hits[rows] + tentative
    table.hits[rows] = hits
    table.status[rows] = np.where(tentative & (hits < cfg.min_hits), TENTATIVE, TRACKED)
    table.lost_count[rows] = 0
    table.lm_count[rows] = 0
    table.lost_cell[rows] = _NO_CELL
    table.predicts_since_match[rows] = 0
    table.confidence[rows] = det_confs
    table.last_box[rows] = state_box(post.mean)


def lost_maintain_step(table: TrackTable, rows: np.ndarray, cfg: TrackerConfig,
                       model: kalman.MotionModel) -> None:
    """Feed each maintained row its own projected prediction as a weak pseudo-observation.

    The zero innovation keeps the mean on its constant-velocity course while
    the inflated-noise update keeps the covariance from ballooning, so the
    virtual proposal stays matchable.
    """
    prior = table.state(rows)
    post = kalman.update(prior, prior.projected(), model, noise_scale=cfg.lm_noise_scale)
    table.set_state(rows, post)
    table.last_box[rows] = state_box(post.mean)


def _lm_eligible(cell_in_frequent: np.ndarray, cfg: TrackerConfig) -> np.ndarray:
    if cfg.lm_region_rule == LM_OUTSIDE_FREQUENT:
        return ~cell_in_frequent
    return cell_in_frequent


def _age_reduced(cell_in_frequent: np.ndarray, cfg: TrackerConfig) -> np.ndarray:
    if cfg.lm_region_rule == LM_OUTSIDE_FREQUENT:
        return cell_in_frequent
    return ~cell_in_frequent


def on_missed(
    table: TrackTable,
    rows: np.ndarray,
    boxes: np.ndarray,
    cfg: TrackerConfig,
    model: kalman.MotionModel,
    grid: MeshGrid,
    frequent: np.ndarray,
) -> None:
    """Advance the lifecycle of live rows that got no detection this frame.

    ``boxes`` are the rows' predicted [left, top, width, height] boxes (the
    :func:`state_box` of their means). ``frequent`` is the (cols, rows)
    boolean mask of frequent-loss cells. The cell lookups work whether or
    not the mesh feature is on; loss events reach ``grid`` only when it is,
    one per row entering the lost pool, in row order.
    """
    status = table.status[rows]
    tentative = status == TENTATIVE
    table.status[rows[tentative]] = REMOVED
    rows, status, boxes = rows[~tentative], status[~tentative], boxes[~tentative]

    maintain = np.zeros(len(rows), dtype=bool)
    if cfg.enable_lost_maintain:
        cell = grid.cells_of(*_bottom_middle(boxes))
        maintain = (
            (status != LOST)
            & (table.lm_count[rows] < cfg.lost_maintain_frames)
            & _lm_eligible(frequent[cell], cfg)
        )
    kept = rows[maintain]
    if len(kept):
        table.status[kept] = LOST_MAINTAINED
        table.lm_count[kept] += 1
        lost_maintain_step(table, kept, cfg, model)

    # First frame in the lost pool: remember where it happened, roll the
    # velocity back past any pre-occlusion detector noise, and count the loss
    # in its cell.
    lost = rows[~maintain]
    entering = lost[status[~maintain] != LOST]
    if len(entering):
        x, y = _bottom_middle(table.last_box[entering])
        table.lost_cell[entering] = np.stack(grid.cells_of(x, y), axis=1)
        if cfg.enable_mesh:
            for point in _points(x, y):
                grid.record_lost(point)
        if cfg.enable_velocity_rollback:
            rolled, _ = kalman.rollback_velocity(
                table.state(entering), table.velocities[entering],
                cfg.vel_rollback, cfg.freeze_size_velocity,
            )
            table.mean[entering] = rolled.mean
        table.status[entering] = LOST

    lost_count = table.lost_count[lost] + 1
    table.lost_count[lost] = lost_count
    effective_age = np.full(len(lost), cfg.max_age)
    if cfg.enable_location_ages:
        i, j = table.lost_cell[lost].T
        reduced = (i != _NO_CELL) & _age_reduced(frequent[i, j], cfg)
        effective_age[reduced] -= cfg.location_age_reduction
    table.status[lost[lost_count >= effective_age]] = REMOVED


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
