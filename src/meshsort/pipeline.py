"""Per-frame orchestration: predict, occlusion inference, cascade, lifecycle.

One :class:`Tracker` instance owns one sequence and is strictly
single-threaded; independent sequences run in parallel with one instance
each. The tracker keeps every live track as one row of a
:class:`~meshsort.tracks.TrackTable` and makes one batched pass per stage.
The per-frame flow is:

1. advance every live track's filter one frame (one batched predict)
2. build the predicted boxes as one ltrb array and flag lost/maintained
   tracks whose spot is covered by a tracked box
3. run the two-stage confidence cascade (lost proposals join stage one)
4. update the matched rows (one batched update); refind events, row order
5. spawn tentative tracks from leftover confident detections
6. apply the missed-row lifecycle (one batched update for maintained rows,
   one rollback for rows entering the lost pool); loss events, row order
7. refresh the frequent-loss cells (consumed by the *next* frame's lifecycle)
8. emit the frame output, the only place boxes become :class:`BoundingBox`
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import kalman, tracks as _tracks
from .association import two_stage_associate
from .config import TrackerConfig
from .geometry import BoundingBox, check_box_range, ltwh_to_ltrb
from .mesh import LossThreshold, MeshGrid
from .tracks import LOST, LOST_MAINTAINED, REMOVED, TENTATIVE, TRACKED, TrackTable, TrackView


class SequencingError(ValueError):
    """Frame indices fed to a tracker must be strictly increasing."""


class Detection(NamedTuple):
    box: BoundingBox
    score: float


class OutputRecord(NamedTuple):
    track_id: int
    box: BoundingBox
    score: float


@dataclass(frozen=True)
class FrameDetections:
    index: int
    detections: tuple[Detection, ...]

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("frame indices start at 1")
        for det in self.detections:
            if not 0.0 <= det.score <= 1.0:
                raise ValueError(f"confidence outside [0, 1]: {det.score}")
            check_box_range(det.box)


@dataclass(frozen=True)
class FrameOutput:
    index: int
    records: tuple[OutputRecord, ...]


@dataclass
class TrackerStats:
    """Cheap per-run instrumentation used by the benchmark and ablation runs."""

    frames: int = 0
    predicts: int = 0
    doomed_predicts: int = 0
    spawned: int = 0
    removed: int = 0


class DuplicateTrackIdError(RuntimeError):
    """Raised when one frame's output would carry the same track id twice."""


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
        self.table = TrackTable.empty(cfg.vel_buffer_len)
        self._next_id = 1
        self._last_frame = 0
        self._stats = TrackerStats()

    @property
    def tracks(self) -> list[TrackView]:
        """Read-only views of the live tracks, in creation order."""
        return [self.table.view(row) for row in range(len(self.table))]

    @property
    def frequent_cells(self):
        return self.grid.frequent

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
            table.set_state(slice(None), kalman.predict(table.state(slice(None)), self.model))
            table.predicts_since_match += 1
            self._stats.predicts += live
        predicted_ltwh = _tracks.state_box(table.mean)
        predicted = ltwh_to_ltrb(predicted_ltwh)

        status = table.status
        occluded = _tracks.infer_occlusion(predicted, status, cfg.occlusion_iou)
        full_rows = (
            (status == TRACKED)
            | (status == TENTATIVE)
            | ((status == LOST_MAINTAINED) & ~occluded)
        ).nonzero()[0]
        lost_rows = ((status == LOST) & ~occluded).nonzero()[0]
        candidates = np.concatenate([full_rows, lost_rows])

        det_boxes = np.array([d.box.as_ltwh() for d in fd.detections], dtype=np.float64)
        det_boxes = det_boxes.reshape(-1, 4)
        det_scores = [d.score for d in fd.detections]
        result = two_stage_associate(
            predicted[full_rows],
            predicted[lost_rows],
            ltwh_to_ltrb(det_boxes),
            det_scores,
            conf_high=cfg.conf_high,
            conf_low=cfg.conf_low,
            gate_first=cfg.gate_first,
            gate_second=cfg.gate_second,
            buffer_scale=cfg.buffer_scale,
        )

        pairs = np.array(result.matches, dtype=np.int64).reshape(-1, 2)
        matched, matched_dets = candidates[pairs[:, 0]], pairs[:, 1]
        scores = np.asarray(det_scores, dtype=np.float64)
        if len(matched):
            _tracks.on_matched(table, matched, det_boxes[matched_dets],
                               scores[matched_dets], cfg, self.model, self.grid)

        spawn = np.ones(len(scores), dtype=bool)
        spawn[matched_dets] = False
        spawn &= (scores >= cfg.init_conf) & (scores >= cfg.conf_low)
        n_new = int(spawn.sum())
        if n_new:
            ids = np.arange(self._next_id, self._next_id + n_new)
            _tracks.new_track(table, ids, det_boxes[spawn], scores[spawn], cfg, self.model)
            self._next_id += n_new
            self._stats.spawned += n_new

        missed = np.ones(live, dtype=bool)
        missed[matched] = False
        missed = missed.nonzero()[0]
        if len(missed):
            _tracks.on_missed(table, missed, predicted_ltwh[missed], cfg, self.model, self.grid)
            removed = missed[table.status[missed] == REMOVED]
            if len(removed):
                self._stats.removed += len(removed)
                self._stats.doomed_predicts += int(table.predicts_since_match[removed].sum())
                table.keep(table.status != REMOVED)

        if cfg.enable_mesh:
            self.grid.identify(self.threshold, fd.index)

        self._stats.frames += 1
        return FrameOutput(index=fd.index, records=self._records())

    def _records(self) -> tuple[OutputRecord, ...]:
        table = self.table
        shown = table.status == TRACKED
        if self.cfg.emit_virtual:
            shown |= table.status == LOST_MAINTAINED
        rows = shown.nonzero()[0]
        rows = rows[np.argsort(table.ids[rows], kind="stable")]
        ids = table.ids[rows]
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if repeated.size:
            raise DuplicateTrackIdError(f"track id {repeated[0]} appears twice in one frame output")
        return tuple(
            OutputRecord(track_id, BoundingBox(*box), score)
            for track_id, box, score in zip(
                ids.tolist(), table.last_box[rows].tolist(), table.confidence[rows].tolist()
            )
        )


def run(cfg: TrackerConfig, frames: Iterable[FrameDetections]) -> list[FrameOutput]:
    """Fold a detection sequence through a fresh tracker."""
    tracker = Tracker(cfg)
    return [tracker.step(fd) for fd in frames]


def make_frame(index: int, dets: Sequence[tuple[BoundingBox, float]]) -> FrameDetections:
    return FrameDetections(
        index=index, detections=tuple(Detection(b, s) for b, s in dets)
    )
