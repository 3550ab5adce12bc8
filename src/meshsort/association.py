"""Cost matrices, gated minimum-cost assignment, and the two-stage cascade.

Assignment maximizes the number of admissible (within-gate) matches first and
minimizes total cost among those, which is what masking forbidden entries with
a large sentinel achieves under the Hungarian solver. Matches are ``(n, 2)``
integer arrays of (row, column) pairs in row order; the cascade takes the
candidates' boxes once and picks each stage's rows and detections by mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import expand_ltrb, iou_matrix

_FORBIDDEN = 1e6


@dataclass
class AssignmentResult:
    matches: np.ndarray  # (n, 2) integer (row, col) pairs in row order


def iou_cost(tracks: np.ndarray, dets: np.ndarray) -> np.ndarray:
    """(T, D) matrix of 1 - IoU costs between (T, 4) and (D, 4) ltrb boxes."""
    return 1.0 - iou_matrix(tracks, dets)


def biou_cost(tracks: np.ndarray, dets: np.ndarray, buffer_scale: float) -> np.ndarray:
    """(T, D) matrix of 1 - IoU costs after symmetric expansion of both sides."""
    if buffer_scale < 0.0:
        raise ValueError("buffer_scale must be non-negative")
    return 1.0 - iou_matrix(expand_ltrb(tracks, buffer_scale), expand_ltrb(dets, buffer_scale))


def _canonicalize_ties(cost: np.ndarray, gate: float, matches: np.ndarray) -> None:
    # Among cost-preserving 2-swaps, give the lower row index the lower column
    # index, so equal-cost optima come out in a stable documented order.
    n = len(matches)
    rows, cols = matches.T  # views: a swap writes the column in place
    # A swap moves two matches onto two other entries within the gate, in the
    # matched rows and columns; with no such entries beyond the matches
    # themselves there is none to make.
    if n < 2 or np.count_nonzero(cost[rows[:, None], cols] <= gate) == n:
        return
    # Passes over the pairs a < b of matches in row-major order swap each pair
    # that passes the test, until a pass swaps none. Columns change only at a
    # swap, so after one the test runs once over all pairs, and the first hit
    # at or after the cursor (flat index a * n + b) is the pair the pass meets next.
    later = np.arange(n)[:, None] < np.arange(n)
    cursor, swapped = 0, False
    while True:
        pair = cost[rows[:, None], cols]  # pair[a, b] is cost[ra, cb]
        own = pair.diagonal()
        swappable = later & (cols < cols[:, None]) & (pair <= gate) & (pair.T <= gate)
        swappable &= pair + pair.T == own[:, None] + own
        hits = swappable.ravel()[cursor:].nonzero()[0]
        if hits.size:
            a, b = divmod(cursor + int(hits[0]), n)
            cols[a], cols[b] = cols[b], cols[a]
            cursor, swapped = a * n + b + 1, True
        elif swapped:
            cursor, swapped = 0, False
        else:
            return


def assign(cost: np.ndarray, gate: float) -> AssignmentResult:
    """Gated minimum-cost assignment over a (rows, cols) cost matrix.

    Entries above ``gate`` are never matched. The result maximizes the number
    of admissible matches, then minimizes their total cost; ties resolve with
    the lowest row taking the lowest column. When no row and no column holds
    more than one admissible entry, those entries are the only maximum
    matching, so they are returned without solving.
    """
    if cost.size == 0:
        return AssignmentResult(np.empty((0, 2), dtype=np.intp))
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    admissible = cost <= gate
    if admissible.sum(axis=0).max() <= 1 and admissible.sum(axis=1).max() <= 1:
        return AssignmentResult(np.argwhere(admissible))
    masked = np.where(admissible, cost, _FORBIDDEN)
    rr, cc = linear_sum_assignment(masked)
    kept = cost[rr, cc] <= gate
    # linear_sum_assignment returns rows sorted, the gate filter keeps their
    # order and the ties swap only columns, so matches come out sorted by row.
    matches = np.stack([rr[kept], cc[kept]], axis=1)
    _canonicalize_ties(cost, gate, matches)
    return AssignmentResult(matches)


@dataclass
class TwoStageResult:
    """(n, 2) integer (candidate row, detection) pairs, each array in row order."""

    matches: np.ndarray
    stage_one_matches: np.ndarray
    stage_two_matches: np.ndarray


def two_stage_associate(
    boxes: np.ndarray,
    n_active: int,
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

    Boxes are (N, 4) ltrb arrays; the candidates' first ``n_active`` rows are
    active tracks and the rest lost proposals. Stage one matches
    high-confidence detections against every candidate by plain IoU. Stage
    two matches the still unmatched *active* rows (lost proposals only get
    the first stage) against the still unmatched detections of at least
    ``conf_low`` confidence using buffered IoU. Detections below
    ``conf_low`` are ignored entirely.
    """
    if not conf_low < conf_high:
        raise ValueError("conf_low must be below conf_high")
    scores = np.asarray(det_scores, dtype=np.float64)

    high = (scores >= conf_high).nonzero()[0]
    stage_one = assign(iou_cost(boxes, det_boxes[high]), gate_first).matches
    stage_one[:, 1] = high[stage_one[:, 1]]

    free_rows = np.arange(len(boxes)) < n_active
    free_rows[stage_one[:, 0]] = False
    free_dets = scores >= conf_low
    free_dets[stage_one[:, 1]] = False
    rows, dets = free_rows.nonzero()[0], free_dets.nonzero()[0]
    stage_two = np.empty((0, 2), dtype=np.intp)
    if len(rows) and len(dets):
        local = assign(biou_cost(boxes[rows], det_boxes[dets], buffer_scale), gate_second).matches
        stage_two = np.stack([rows[local[:, 0]], dets[local[:, 1]]], axis=1)

    matches = stage_one
    if len(stage_two):
        matches = np.concatenate([stage_one, stage_two])
        matches = matches[np.argsort(matches[:, 0])]
    return TwoStageResult(matches=matches, stage_one_matches=stage_one, stage_two_matches=stage_two)
