"""Cost matrices, gated minimum-cost assignment, and the two-stage cascade.

Assignment maximizes the number of admissible (within-gate) matches first and
minimizes total cost among those, which is what masking forbidden entries with
a large sentinel achieves under the Hungarian solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import expand_ltrb, iou_matrix

_FORBIDDEN = 1e6


@dataclass
class AssignmentResult:
    matches: list[tuple[int, int]]
    unmatched_rows: list[int]
    unmatched_cols: list[int]


def iou_cost(tracks: np.ndarray, dets: np.ndarray) -> np.ndarray:
    """(T, D) matrix of 1 - IoU costs between (T, 4) and (D, 4) ltrb boxes."""
    return 1.0 - iou_matrix(tracks, dets)


def biou_cost(tracks: np.ndarray, dets: np.ndarray, buffer_scale: float) -> np.ndarray:
    """(T, D) matrix of 1 - IoU costs after symmetric expansion of both sides."""
    if buffer_scale < 0.0:
        raise ValueError("buffer_scale must be non-negative")
    return 1.0 - iou_matrix(expand_ltrb(tracks, buffer_scale), expand_ltrb(dets, buffer_scale))


def _canonicalize_ties(cost: np.ndarray, gate: float, matches: list[tuple[int, int]]) -> None:
    # Among cost-preserving 2-swaps, give the lower row index the lower column
    # index, so equal-cost optima come out in a stable documented order.
    n = len(matches)
    # A swap moves two matches onto two other entries within the gate; with
    # no such entries beyond the matches themselves there is none to make.
    if n < 2 or np.count_nonzero(cost <= gate) == n:
        return
    # One vectorised test for a swap that the first pass below would make;
    # without one the pass changes nothing. pair[a, b] is cost[ra, cb].
    rows, cols = np.array(matches).T
    pair = cost[rows[:, None], cols]
    own = pair.diagonal()
    order = np.arange(n)
    swappable = (
        (order[:, None] < order)
        & (cols < cols[:, None])
        & (pair <= gate)
        & (pair.T <= gate)
        & (pair + pair.T == own[:, None] + own)
    )
    if not swappable.any():
        return
    changed = True
    while changed:
        changed = False
        for a in range(len(matches)):
            ra, ca = matches[a]
            for b in range(a + 1, len(matches)):
                rb, cb = matches[b]
                if cb >= ca:
                    continue
                if cost[ra, cb] > gate or cost[rb, ca] > gate:
                    continue
                if cost[ra, cb] + cost[rb, ca] == cost[ra, ca] + cost[rb, cb]:
                    matches[a] = (ra, cb)
                    matches[b] = (rb, ca)
                    ca, cb = cb, ca
                    changed = True


def assign(cost: np.ndarray, gate: float) -> AssignmentResult:
    """Gated minimum-cost assignment over a (rows, cols) cost matrix.

    Entries above ``gate`` are never matched. The result maximizes the number
    of admissible matches, then minimizes their total cost; ties resolve with
    the lowest row taking the lowest column.
    """
    rows, cols = cost.shape
    if rows == 0 or cols == 0:
        return AssignmentResult([], list(range(rows)), list(range(cols)))
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    masked = np.where(cost > gate, _FORBIDDEN, cost)
    rr, cc = linear_sum_assignment(masked)
    kept = cost[rr, cc] <= gate
    rr, cc = rr[kept], cc[kept]
    # Tie canonicalization swaps columns between matched rows, so the matched
    # row and column sets are final here.
    free_rows = np.ones(rows, dtype=bool)
    free_rows[rr] = False
    free_cols = np.ones(cols, dtype=bool)
    free_cols[cc] = False
    matches = list(zip(rr.tolist(), cc.tolist()))
    _canonicalize_ties(cost, gate, matches)
    matches.sort()
    return AssignmentResult(
        matches=matches,
        unmatched_rows=free_rows.nonzero()[0].tolist(),
        unmatched_cols=free_cols.nonzero()[0].tolist(),
    )


@dataclass
class TwoStageResult:
    """Matches index into the concatenation of full-pool then lost-pool tracks."""

    matches: list[tuple[int, int]]
    stage_one_matches: list[tuple[int, int]] = field(default_factory=list)
    stage_two_matches: list[tuple[int, int]] = field(default_factory=list)


def two_stage_associate(
    track_boxes: np.ndarray,
    lost_boxes: np.ndarray,
    det_boxes: np.ndarray,
    det_scores: Sequence[float],
    *,
    conf_high: float = 0.6,
    conf_low: float = 0.1,
    gate_first: float = 0.8,
    gate_second: float = 0.5,
    buffer_scale: float = 0.3,
) -> TwoStageResult:
    """Two-stage confidence cascade over one frame's detections.

    Boxes are (N, 4) ltrb arrays. Stage one matches high-confidence
    detections against the union of active tracks and lost proposals by
    plain IoU. Stage two matches the still unmatched *active* tracks (lost
    proposals only get the first stage) against mid-confidence detections
    plus stage-one leftovers using buffered IoU. Detections below
    ``conf_low`` are ignored entirely.
    """
    if not conf_low < conf_high:
        raise ValueError("conf_low must be below conf_high")
    n_tracks = len(track_boxes)
    candidates = np.concatenate([track_boxes, lost_boxes])
    scores = np.asarray(det_scores, dtype=np.float64)

    high_idx = (scores >= conf_high).nonzero()[0]
    mid_idx = ((scores >= conf_low) & (scores < conf_high)).nonzero()[0]

    stage_one = assign(iou_cost(candidates, det_boxes[high_idx]), gate_first)
    matches = [(r, int(high_idx[c])) for r, c in stage_one.matches]
    leftovers_high = high_idx[stage_one.unmatched_cols]

    second_tracks = [r for r in stage_one.unmatched_rows if r < n_tracks]
    second_dets = np.sort(np.concatenate([mid_idx, leftovers_high]))
    matches_two = []
    if second_tracks and len(second_dets):
        stage_two = assign(
            biou_cost(candidates[second_tracks], det_boxes[second_dets], buffer_scale),
            gate_second,
        )
        matches_two = [(second_tracks[r], int(second_dets[c])) for r, c in stage_two.matches]

    return TwoStageResult(
        matches=sorted(matches + matches_two),
        stage_one_matches=matches,
        stage_two_matches=matches_two,
    )
