"""Independent brute-force reference implementations used to freeze expected values.

Everything here favors obviousness over speed and shares no code path with
the library functions it checks, except the two references at the end. The
reference evaluator is the per-frame, pair-loop evaluator the library's
one-sweep evaluator replaced; it shares ``iou_matrix`` with the library so
that the two can be required to agree exactly. Its HOTA assigns each frame's
shared block, as the library does; ``reference_hota_full`` keeps the earlier
whole-frame assignment, which differs from it only on exact ties. The reference
scene generator is the per-agent generator the array-backed one replaced,
kept as it was: it rebuilds every nearer agent's box for every agent and
frame, and calls the scalar union-area rule (``covered_fraction``) and size
noise (``semi_occlusion_noise``) that the batched ones replaced, both kept
here as they were. Its detector noise comes from the scalar keyed draws
(``keyed_uniform``), built from Python ints and :mod:`math`, so that the
generator's ``uint64`` array hash is checked against integer arithmetic. It
shares ``_splitmix64``, ``AgentSpec.box_at`` and ``MIN_AGENT_SIZE`` with the
library. ``NormalStream`` and ``stream_draws`` are the sequential stream
sampler and draw loop the keyed draws replaced, kept to show what they lost.
The reference Kalman filter is the general dense 8×8 filter the per-slot
block filter replaced; it shares the motion model's noise variances and the
height clamp with the library. ``from_dense`` builds the library's beliefs
from a dense covariance, rejecting one that is not four 2×2 blocks. The
reference MOT readers and writers are the per-line ones the whole-file readers and writers replaced, kept as
they were but for the whole-number check, which reads each token exactly
as a ``Decimal``; they share ``ParseError``, ``MAX_COORD`` and the public frame and
box types with the library. The reference cascade is the list-based
assignment and two-stage cascade the index-array ones replaced, kept as they
were; it shares the cost matrices and the solver with the library. The
reference velocity ring is the ``VelocityBuffer`` class and its rollback that
the two ring functions of ``meshsort.kalman`` replaced, kept as they were
but for taking ``(n, 8)`` means where they took beliefs; it shares the mean
layout with the library. ``make_frame`` builds a frame from (box, score) pairs,
and ``bottom_middle`` is the scalar form of the tracker's grid anchor.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from decimal import Decimal
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from meshsort.association import biou_cost, iou_cost
from meshsort.geometry import MAX_COORD, BoundingBox, Point2, boxes_to_ltrb, iou_matrix
from meshsort.kalman import MEAS_DIM, STATE_DIM, KalmanState, _measurement_height, _RATES, _SLOTS
from meshsort.metrics import (
    HOTA_ALPHAS,
    HotaBreakdown,
    MetricsError,
    MetricsReport,
    TrajectorySet,
)
from meshsort.motfiles import ParseError
from meshsort.pipeline import Detection, FrameDetections, FrameOutput
from meshsort.synth import _GAMMA, _MASK64, MIN_AGENT_SIZE, AgentSpec, SceneConfig, Xoshiro256StarStar, _splitmix64


def brute_force_assignment(cost: np.ndarray, gate: float):
    """Best gated assignment by exhaustive enumeration.

    Maximizes the number of matches with cost <= gate, then minimizes total
    cost among those. Returns (total_cost, n_matches, one optimal match set).
    """
    rows, cols = cost.shape
    best = (-1, math.inf, None)
    r_small = rows <= cols
    n, m = (rows, cols) if r_small else (cols, rows)
    for perm in itertools.permutations(range(m), n):
        pairs = []
        total = 0.0
        for a, b in enumerate(perm):
            r, c = (a, b) if r_small else (b, a)
            if cost[r, c] <= gate:
                pairs.append((r, c))
                total += cost[r, c]
        cardinality = len(pairs)
        if cardinality > best[0] or (cardinality == best[0] and total < best[1] - 1e-12):
            best = (cardinality, total, sorted(pairs))
    return best[1] if best[0] > 0 else 0.0, best[0], best[2] or []


_PERM_CACHE: dict = {}


def _perms(n: int, m: int) -> np.ndarray:
    key = (n, m)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = np.array(list(itertools.permutations(range(m), n)), dtype=np.intp)
    return _PERM_CACHE[key]


def brute_force_assignment_fast(cost: np.ndarray, gate: float):
    """Vectorized exhaustive variant of :func:`brute_force_assignment`.

    Returns (total_cost, n_matches); total is summed over the admissible
    entries of the best full permutation (max admissible count, then min sum).
    """
    rows, cols = cost.shape
    c = cost.T if rows > cols else cost
    n, m = c.shape
    perms = _perms(n, m)
    vals = c[np.arange(n)[None, :], perms]
    ok = vals <= gate
    card = ok.sum(axis=1)
    totals = np.where(ok, vals, 0.0).sum(axis=1)
    best_card = card.max()
    if best_card == 0:
        return 0.0, 0
    sel = totals[card == best_card]
    return float(sel.min()), int(best_card)


def recount_mesh_events(events, cols, rows):
    """Replay an event log into a fresh count matrix."""
    counts = np.zeros((cols, rows), dtype=np.int64)
    for kind, (i, j) in events:
        assert 0 <= i < cols and 0 <= j < rows
        counts[i, j] += 1 if kind == "lost" else -1
    return counts


def iou_plain(a, b):
    """(left, top, width, height) tuples."""
    ax2, ay2 = a[0] + a[2], a[1] + a[3]
    bx2, by2 = b[0] + b[2], b[1] + b[3]
    iw = min(ax2, bx2) - max(a[0], b[0])
    ih = min(ay2, by2) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def _frame_ids_boxes(trajs, frame):
    out = []
    for tid in sorted(trajs):
        box = trajs[tid].get(frame)
        if box is not None:
            out.append((tid, (box.left, box.top, box.width, box.height)))
    return out


def _all_frames(gt, res):
    frames = set()
    for trajs in (gt, res):
        for per in trajs.values():
            frames.update(per)
    return sorted(frames)


def _frame_matchings(gt_items, res_items, alpha):
    """Every injective matching over pairs with IoU >= alpha, as id-pair tuples."""
    eligible = [
        (gi, ri)
        for gi, (gid, gb) in enumerate(gt_items)
        for ri, (rid, rb) in enumerate(res_items)
        if iou_plain(gb, rb) >= alpha
    ]

    def extend(chosen, used_g, used_r, start):
        yield tuple(chosen)
        for k in range(start, len(eligible)):
            gi, ri = eligible[k]
            if gi in used_g or ri in used_r:
                continue
            chosen.append((gt_items[gi][0], res_items[ri][0]))
            yield from extend(chosen, used_g | {gi}, used_r | {ri}, k + 1)
            chosen.pop()

    return set(extend([], frozenset(), frozenset(), 0))


def enumerate_hota_alpha(gt, res, alpha):
    """Definitional single-threshold score: max over all joint per-frame matchings."""
    frames = _all_frames(gt, res)
    per_frame = [( _frame_ids_boxes(gt, f), _frame_ids_boxes(res, f)) for f in frames]
    options = [sorted(_frame_matchings(g, r, alpha)) for g, r in per_frame]
    n_gt = sum(len(g) for g, _ in per_frame)
    n_res = sum(len(r) for _, r in per_frame)
    gt_count = defaultdict(int)
    res_count = defaultdict(int)
    for g, r in per_frame:
        for gid, _ in g:
            gt_count[gid] += 1
        for rid, _ in r:
            res_count[rid] += 1

    best = 0.0
    for combo in itertools.product(*options):
        matched = [pair for frame_pairs in combo for pair in frame_pairs]
        tp = len(matched)
        denom = n_gt + n_res - tp
        if denom == 0:
            continue
        counts = defaultdict(int)
        for pair in matched:
            counts[pair] += 1
        total = 0.0
        for gid, rid in matched:
            tpa = counts[(gid, rid)]
            total += tpa / (gt_count[gid] + res_count[rid] - tpa)
        best = max(best, math.sqrt(total / denom))
    return best


def brute_force_idf1(gt, res, iou_thr):
    """IDF1 via explicit enumeration of id-to-id bijections."""
    frames = _all_frames(gt, res)
    gt_ids = sorted(gt)
    res_ids = sorted(res)
    overlap = defaultdict(int)
    n_gt = n_res = 0
    for f in frames:
        g_items = _frame_ids_boxes(gt, f)
        r_items = _frame_ids_boxes(res, f)
        n_gt += len(g_items)
        n_res += len(r_items)
        for gid, gb in g_items:
            for rid, rb in r_items:
                if iou_plain(gb, rb) >= iou_thr:
                    overlap[(gid, rid)] += 1
    best_idtp = 0
    k = min(len(gt_ids), len(res_ids))
    for g_subset in itertools.permutations(gt_ids, k):
        for r_subset in itertools.permutations(res_ids, k):
            idtp = sum(overlap.get((g, r), 0) for g, r in zip(g_subset, r_subset))
            best_idtp = max(best_idtp, idtp)
    denom = 2 * best_idtp + (n_res - best_idtp) + (n_gt - best_idtp)
    return (2 * best_idtp / denom) if denom else 0.0


# --- reference evaluator ------------------------------------------------------


def _ref_frames_of(trajs: TrajectorySet) -> list[int]:
    frames = set()
    for per_frame in trajs.values():
        frames.update(per_frame.keys())
    return sorted(frames)


def _ref_frame_boxes(trajs: TrajectorySet, frame: int) -> tuple[list[int], list[BoundingBox]]:
    ids, boxes = [], []
    for tid in sorted(trajs):
        box = trajs[tid].get(frame)
        if box is not None:
            ids.append(tid)
            boxes.append(box)
    return ids, boxes


def _ref_match_frame(
    gt_boxes: list[BoundingBox],
    res_boxes: list[BoundingBox],
    iou_thr: float,
    carry: dict[int, int] | None = None,
) -> list[tuple[int, int]]:
    """Index pairs (gt, res) matched at one frame.

    ``carry`` maps gt indices to res indices from the previous frame; those
    pairs are kept whenever they still clear the threshold, and the remainder
    is matched by maximum-overlap assignment.
    """
    if not 0.0 < iou_thr < 1.0:
        raise MetricsError("iou threshold must lie in (0, 1)")
    if not gt_boxes or not res_boxes:
        return []
    overlaps = iou_matrix(boxes_to_ltrb(gt_boxes), boxes_to_ltrb(res_boxes))
    pairs: list[tuple[int, int]] = []
    used_g, used_r = set(), set()
    if carry:
        for g, r in sorted(carry.items()):
            if g < len(gt_boxes) and r < len(res_boxes) and overlaps[g, r] >= iou_thr:
                pairs.append((g, r))
                used_g.add(g)
                used_r.add(r)
    free_g = [g for g in range(len(gt_boxes)) if g not in used_g]
    free_r = [r for r in range(len(res_boxes)) if r not in used_r]
    if free_g and free_r:
        sub = overlaps[np.ix_(free_g, free_r)]
        rows, cols = linear_sum_assignment(1.0 - sub)
        for r, c in zip(rows, cols):
            if sub[r, c] >= iou_thr:
                pairs.append((free_g[r], free_r[c]))
    return sorted(pairs)


def _ref_accumulate(gt: TrajectorySet, res: TrajectorySet, iou_thr: float):
    """Shared per-frame sweep: TP/FP/FN counts, switches, and coverage maps."""
    if not gt or not _ref_frames_of(gt):
        raise MetricsError("ground truth is empty; metrics undefined")
    frames = sorted(set(_ref_frames_of(gt)) | set(_ref_frames_of(res)))
    fp = fn = idsw = tp = 0
    gt_total = 0
    last_match: dict[int, int] = {}
    prev_pairs: dict[int, int] = {}
    covered: dict[int, set[int]] = defaultdict(set)
    pair_counts: dict[tuple[int, int], int] = defaultdict(int)
    res_total = 0

    for frame in frames:
        g_ids, g_boxes = _ref_frame_boxes(gt, frame)
        r_ids, r_boxes = _ref_frame_boxes(res, frame)
        gt_total += len(g_ids)
        res_total += len(r_ids)

        carry = {}
        for gi, gid in enumerate(g_ids):
            want = prev_pairs.get(gid)
            if want is not None and want in r_ids:
                carry[gi] = r_ids.index(want)
        pairs = _ref_match_frame(g_boxes, r_boxes, iou_thr, carry)

        tp += len(pairs)
        fn += len(g_ids) - len(pairs)
        fp += len(r_ids) - len(pairs)
        frame_pairs: dict[int, int] = {}
        for gi, ri in pairs:
            gid, rid = g_ids[gi], r_ids[ri]
            frame_pairs[gid] = rid
            if gid in last_match and last_match[gid] != rid:
                idsw += 1
            last_match[gid] = rid
            covered[gid].add(frame)
            pair_counts[(gid, rid)] += 1
        prev_pairs = frame_pairs

    return {
        "fp": fp,
        "fn": fn,
        "idsw": idsw,
        "tp": tp,
        "gt_total": gt_total,
        "res_total": res_total,
        "covered": covered,
        "pair_counts": pair_counts,
    }


def reference_clear_mot(gt: TrajectorySet, res: TrajectorySet, iou_thr: float = 0.5):
    """(MOTA, FP, FN, IDSW, FM, MT, ML, gt_total) under CLEAR conventions.

    Fragmentations count interruptions of a ground-truth trajectory's covered
    stretches; mostly-tracked/lost use the 80% / 20% coverage cutoffs.
    """
    acc = _ref_accumulate(gt, res, iou_thr)
    fm = 0
    mt = ml = 0
    for gid, per_frame in gt.items():
        frames = sorted(per_frame)
        cov = acc["covered"].get(gid, set())
        runs = 0
        in_run = False
        for f in frames:
            if f in cov and not in_run:
                runs += 1
                in_run = True
            elif f not in cov:
                in_run = False
        if runs > 1:
            fm += runs - 1
        ratio = len(cov) / len(frames) if frames else 0.0
        if ratio >= 0.8:
            mt += 1
        elif ratio <= 0.2:
            ml += 1
    mota = 1.0 - (acc["fn"] + acc["fp"] + acc["idsw"]) / acc["gt_total"]
    return mota, acc["fp"], acc["fn"], acc["idsw"], fm, mt, ml, acc["gt_total"]


def reference_idf1(gt: TrajectorySet, res: TrajectorySet, iou_thr: float = 0.5) -> float:
    """Identity F1 from the optimal global id-to-id matching.

    The match count between a ground-truth id and a result id is the number
    of frames where their boxes clear the overlap threshold; the bipartite
    matching maximizing total matched frames defines IDTP.
    """
    acc = _ref_accumulate(gt, res, iou_thr)
    # Overlap counts per id pair, independent of the per-frame correspondence.
    frames = sorted(set(_ref_frames_of(gt)) | set(_ref_frames_of(res)))
    gt_ids = sorted(gt.keys())
    res_ids = sorted(res.keys())
    counts = np.zeros((len(gt_ids), len(res_ids)), dtype=np.int64)
    g_index = {g: i for i, g in enumerate(gt_ids)}
    r_index = {r: i for i, r in enumerate(res_ids)}
    for frame in frames:
        g_ids, g_boxes = _ref_frame_boxes(gt, frame)
        r_ids, r_boxes = _ref_frame_boxes(res, frame)
        if not g_ids or not r_ids:
            continue
        overlaps = iou_matrix(boxes_to_ltrb(g_boxes), boxes_to_ltrb(r_boxes))
        hits = overlaps >= iou_thr
        for a, gid in enumerate(g_ids):
            for b, rid in enumerate(r_ids):
                if hits[a, b]:
                    counts[g_index[gid], r_index[rid]] += 1
    idtp = 0
    if counts.size:
        rows, cols = linear_sum_assignment(-counts)
        idtp = int(counts[rows, cols].sum())
    idfp = acc["res_total"] - idtp
    idfn = acc["gt_total"] - idtp
    denom = 2 * idtp + idfp + idfn
    return (2 * idtp / denom) if denom else 0.0


def _full_frame_pairs(eligible: np.ndarray, cost: np.ndarray) -> list[tuple[int, int]]:
    """The eligible cells of one assignment over the whole frame matrix."""
    rows, cols = linear_sum_assignment(cost)
    return [(r, c) for r, c in zip(rows, cols) if eligible[r, c]]


def _shared_block_pairs(eligible: np.ndarray, cost: np.ndarray) -> list[tuple[int, int]]:
    """The eligible cells of one assignment over the frame's shared block, in row order.

    An eligible cell that shares its row or column with another eligible cell
    is shared. The block is every row and column holding a shared cell, in
    ascending order; the other eligible cells are matched as they stand.
    """
    per_row = eligible.sum(axis=1)[:, None]
    per_col = eligible.sum(axis=0)[None, :]
    shared = eligible & ((per_row > 1) | (per_col > 1))
    pairs = [(int(r), int(c)) for r, c in np.argwhere(eligible & ~shared)]
    rows = np.flatnonzero(shared.any(axis=1))
    cols = np.flatnonzero(shared.any(axis=0))
    if len(rows):
        block_rows, block_cols = linear_sum_assignment(cost[np.ix_(rows, cols)])
        for r, c in zip(rows[block_rows], cols[block_cols]):
            if eligible[r, c]:
                pairs.append((int(r), int(c)))
    return sorted(pairs)


def reference_hota(gt: TrajectorySet, res: TrajectorySet) -> HotaBreakdown:
    """HOTA with its detection/association components, per threshold and averaged.

    Per threshold, detections are matched frame by frame with an assignment
    that prefers pairs whose identities co-occur often across the sequence;
    each matched pair then scores the fraction of its ids' detections that
    are matched to each other. Each frame's assignment covers only its shared
    block (:func:`_shared_block_pairs`), which fixes the outcome of exact ties.
    """
    return _reference_hota(gt, res, _shared_block_pairs)


def reference_hota_full(gt: TrajectorySet, res: TrajectorySet) -> HotaBreakdown:
    """:func:`reference_hota` with one assignment over each whole frame matrix.

    The two agree whenever the optimum is unique; they may differ only on
    exact ties, where scipy's pick depends on the matrix it is given.
    """
    return _reference_hota(gt, res, _full_frame_pairs)


def _reference_hota(gt: TrajectorySet, res: TrajectorySet, frame_pairs) -> HotaBreakdown:
    if not gt or not _ref_frames_of(gt):
        raise MetricsError("ground truth is empty; metrics undefined")
    frames = sorted(set(_ref_frames_of(gt)) | set(_ref_frames_of(res)))
    per_frame = []
    gt_count: dict[int, int] = defaultdict(int)
    res_count: dict[int, int] = defaultdict(int)
    for frame in frames:
        g_ids, g_boxes = _ref_frame_boxes(gt, frame)
        r_ids, r_boxes = _ref_frame_boxes(res, frame)
        overlaps = iou_matrix(boxes_to_ltrb(g_boxes), boxes_to_ltrb(r_boxes))
        per_frame.append((g_ids, r_ids, overlaps))
        for gid in g_ids:
            gt_count[gid] += 1
        for rid in r_ids:
            res_count[rid] += 1
    n_gt = sum(gt_count.values())
    n_res = sum(res_count.values())

    hota_alpha: dict[float, float] = {}
    det_alpha: dict[float, float] = {}
    ass_alpha: dict[float, float] = {}
    for alpha in HOTA_ALPHAS:
        potential: dict[tuple[int, int], int] = defaultdict(int)
        for g_ids, r_ids, overlaps in per_frame:
            for a, b in np.argwhere(overlaps >= alpha):
                potential[(g_ids[a], r_ids[b])] += 1
        align: dict[tuple[int, int], float] = {}
        for (gid, rid), cnt in potential.items():
            align[(gid, rid)] = cnt / (gt_count[gid] + res_count[rid] - cnt)

        matched: list[tuple[int, int]] = []
        for g_ids, r_ids, overlaps in per_frame:
            eligible = overlaps >= alpha
            if not eligible.any():
                continue
            score = np.zeros(eligible.shape)
            for a, b in np.argwhere(eligible):
                score[a, b] = align[(g_ids[a], r_ids[b])] * (1.0 + overlaps[a, b])
            for r, c in frame_pairs(eligible, np.where(eligible, -score, 1.0)):
                matched.append((g_ids[r], r_ids[c]))

        tp = len(matched)
        fn = n_gt - tp
        fp = n_res - tp
        denom = tp + fn + fp
        if denom == 0:
            hota_alpha[alpha] = det_alpha[alpha] = ass_alpha[alpha] = 0.0
            continue
        match_counts: dict[tuple[int, int], int] = defaultdict(int)
        for pair in matched:
            match_counts[pair] += 1
        gt_matched: dict[int, int] = defaultdict(int)
        res_matched: dict[int, int] = defaultdict(int)
        for (gid, rid), cnt in match_counts.items():
            gt_matched[gid] += cnt
            res_matched[rid] += cnt
        ass_sum = 0.0
        for gid, rid in matched:
            tpa = match_counts[(gid, rid)]
            fna = gt_count[gid] - tpa
            fpa = res_count[rid] - tpa
            ass_sum += tpa / (tpa + fna + fpa)
        hota_alpha[alpha] = math.sqrt(ass_sum / denom)
        det_alpha[alpha] = tp / denom
        ass_alpha[alpha] = (ass_sum / tp) if tp else 0.0

    n = len(HOTA_ALPHAS)
    return HotaBreakdown(
        value=sum(hota_alpha.values()) / n,
        det_a=sum(det_alpha.values()) / n,
        ass_a=sum(ass_alpha.values()) / n,
        per_alpha=hota_alpha,
        det_per_alpha=det_alpha,
        ass_per_alpha=ass_alpha,
    )


def reference_evaluate(gt: TrajectorySet, res: TrajectorySet, iou_thr: float = 0.5) -> MetricsReport:
    mota, fp, fn, idsw, fm, mt, ml, gt_total = reference_clear_mot(gt, res, iou_thr)
    idf1_value = reference_idf1(gt, res, iou_thr)
    breakdown = reference_hota(gt, res)
    return MetricsReport(
        mota=mota,
        idf1=idf1_value,
        hota=breakdown.value,
        det_a=breakdown.det_a,
        ass_a=breakdown.ass_a,
        fp=fp,
        fn=fn,
        idsw=idsw,
        fm=fm,
        mt=mt,
        ml=ml,
        gt_total=gt_total,
        hota_per_alpha=breakdown.per_alpha,
        det_a_per_alpha=breakdown.det_per_alpha,
        ass_a_per_alpha=breakdown.ass_per_alpha,
    )


def max_speed(agent: AgentSpec) -> float:
    """Fastest centre speed over an agent's path segments, in px per frame."""
    speed = 0.0
    for (t0, x0, y0), (t1, x1, y1) in zip(agent.waypoints, agent.waypoints[1:]):
        speed = max(speed, math.hypot(x1 - x0, y1 - y0) / (t1 - t0))
    return speed


def _ltrb(box: BoundingBox) -> tuple[float, float, float, float]:
    return box.left, box.top, box.right, box.bottom


def covered_fraction(box: BoundingBox, covers: list[BoundingBox],
                     frame_size: tuple[float, float]) -> float:
    """Fraction of the box hidden: covered by rectangles or outside the frame.

    Exact area computation over the union of covers via coordinate
    compression (cover counts per scene are small).
    """
    return _hidden(_ltrb(box), box.area, list(map(_ltrb, covers)), frame_size)


def _hidden(box: tuple, area: float, covers: list[tuple], frame_size: tuple[float, float]) -> float:
    """:func:`covered_fraction` of an ltrb box of the given area, covers also ltrb."""
    fw, fh = frame_size
    # Out-of-frame area counts as hidden.
    in_left = max(box[0], 0.0)
    in_top = max(box[1], 0.0)
    in_right = min(box[2], fw)
    in_bottom = min(box[3], fh)
    if in_right <= in_left or in_bottom <= in_top:
        return 1.0
    clipped = []
    for c in covers:
        left = max(c[0], in_left)
        top = max(c[1], in_top)
        right = min(c[2], in_right)
        bottom = min(c[3], in_bottom)
        if right > left and bottom > top:
            clipped.append((left, top, right, bottom))
    covered = 0.0
    if clipped:
        xs = sorted({v for r in clipped for v in (r[0], r[2])})
        ys = sorted({v for r in clipped for v in (r[1], r[3])})
        for x0, x1 in zip(xs, xs[1:]):
            for y0, y1 in zip(ys, ys[1:]):
                mx = (x0 + x1) / 2
                my = (y0 + y1) / 2
                if any(r[0] <= mx <= r[2] and r[1] <= my <= r[3] for r in clipped):
                    covered += (x1 - x0) * (y1 - y0)
    inside = (in_right - in_left) * (in_bottom - in_top)
    hidden = (area - inside) + covered
    return min(max(hidden / area, 0.0), 1.0)


def semi_occlusion_noise(
    z: np.ndarray,
    visibility: float,
    sigma_area: float,
    sigma_ratio: float,
    rng: NormalStream | KeyedNormals,
) -> np.ndarray:
    """Perturb the area/aspect slots of a measurement under partial cover.

    Fully visible measurements pass through unchanged; position slots are
    never touched. The multiplicative disturbance scales with how much of the
    box is hidden. A width or height that falls below ``MIN_AGENT_SIZE``
    is raised to it.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    out = np.asarray(z, dtype=np.float64).copy()
    if visibility >= 1.0:
        return out
    hidden = 1.0 - visibility
    eps_area = rng.normal() * sigma_area
    eps_ratio = rng.normal() * sigma_ratio
    out[2] = out[2] * max(1.0 + eps_area * hidden, 1e-3)
    out[3] = out[3] * max(1.0 + eps_ratio * hidden, 1e-3)
    width, height = math.sqrt(out[2] * out[3]), math.sqrt(out[2] / out[3])
    if min(width, height) < MIN_AGENT_SIZE:
        # A hair above the bound, so that the sizes decoded from area and
        # aspect again do not round below it.
        floor = MIN_AGENT_SIZE * (1.0 + 1e-9)
        width, height = max(width, floor), max(height, floor)
        out[2], out[3] = width * height, width / height
    return out


def _box_muller(u1: float, u2: float) -> tuple[float, float]:
    """Two standard normals from ``u1`` in (0, 1] and ``u2`` in [0, 1)."""
    radius = math.sqrt(-2.0 * math.log(u1))
    return radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2)


class NormalStream(Xoshiro256StarStar):
    """The xoshiro256** stream with the Box-Muller normals the generator drew before its noise was keyed."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self._spare_normal: float | None = None

    def normal(self) -> float:
        """Standard normal via the Box-Muller transform (pairs cached)."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        z, self._spare_normal = self.normal_pair()
        return z

    def normal_pair(self) -> tuple[float, float]:
        """Two standard normals from one Box-Muller transform; the cached one is left alone."""
        u1 = 1.0 - self.uniform()
        return _box_muller(u1, self.uniform())


def stream_draws(rng: NormalStream, noisy: list[bool], miss_prob: float) -> tuple[np.ndarray, np.ndarray]:
    """Walk the random stream once over the candidate detections, in order.

    A candidate draws one uniform against ``miss_prob`` when that is positive,
    and is kept unless the uniform falls below it. A kept ``noisy`` candidate
    then draws one Box-Muller pair. Returns the kept mask and the
    ``(kept noisy, 2)`` normals. A candidate's draws depend on every
    candidate before it.
    """
    missed: list[int] = []
    normals: list[tuple[float, float]] = []
    uniform, normal_pair = rng.uniform, rng.normal_pair
    draw_miss = miss_prob > 0.0
    for i, is_noisy in enumerate(noisy):
        if draw_miss and uniform() < miss_prob:
            missed.append(i)
        elif is_noisy:
            normals.append(normal_pair())
    kept = np.ones(len(noisy), dtype=bool)
    kept[missed] = False
    return kept, np.array(normals, dtype=np.float64).reshape(-1, 2)


def keyed_uniform(seed: int, frame: int, agent: int, purpose: int) -> float:
    """Draw ``purpose`` (0 miss, 1 and 2 the Box-Muller pair) of an agent's detection in a frame.

    The agent is its position in the scene's list and the frame counts from
    1. The draw is splitmix64's output at index ``agent * 2**24 + frame * 16 +
    purpose`` of the stream seeded with the splitmix64 of ``seed``, its top 53
    bits scaled to [0, 1).
    """
    _, seed_word = _splitmix64(seed & _MASK64)
    index = agent * 2**24 + frame * 16 + purpose
    _, word = _splitmix64((seed_word + index * _GAMMA) & _MASK64)
    return (word >> 11) / 2**53


def keyed_normals(seed: int, frame: int, agent: int) -> tuple[float, float]:
    """The Box-Muller pair of an agent's detection in a frame."""
    return _box_muller(1.0 - keyed_uniform(seed, frame, agent, 1), keyed_uniform(seed, frame, agent, 2))


class KeyedNormals:
    """One detection's keyed normals, handed out one at a time as :meth:`NormalStream.normal` does."""

    def __init__(self, seed: int, frame: int, agent: int):
        self._left = list(keyed_normals(seed, frame, agent))

    def normal(self) -> float:
        return self._left.pop(0)


def visibility_of(cfg: SceneConfig, agent_idx: int, frame: int) -> float:
    """Visible fraction of one agent's box; later-listed agents sit in front."""
    agent = cfg.agents[agent_idx]
    box = agent.box_at(frame)
    covers = list(cfg.occluders)
    for j, other in enumerate(cfg.agents):
        if j <= agent_idx:
            continue
        if other.spawn <= frame <= other.despawn:
            covers.append(other.box_at(frame))
    return 1.0 - covered_fraction(box, covers, (cfg.frame_width, cfg.frame_height))


def reference_generate(cfg: SceneConfig):
    """The scene generator as it was before cover came from per-frame box arrays, with keyed noise.

    Ground truth carries the exact interpolated boxes for every agent's
    lifespan. Detections exist only for sufficiently visible agents, carry
    visibility-scaled noise on the size slots, exact centers, and a
    visibility-dependent confidence.
    """
    cfg.validate()
    gt: dict[int, dict[int, BoundingBox]] = {}
    for idx, agent in enumerate(cfg.agents):
        tid = idx + 1
        gt[tid] = {
            frame: agent.box_at(frame)
            for frame in range(agent.spawn, agent.despawn + 1)
        }
    det_frames: list[FrameDetections] = []
    for frame in range(1, cfg.frames + 1):
        dets: list[Detection] = []
        for idx, agent in enumerate(cfg.agents):
            if not agent.spawn <= frame <= agent.despawn:
                continue
            vis = visibility_of(cfg, idx, frame)
            if vis < cfg.min_visibility or vis <= 0.0:
                continue
            if cfg.miss_prob > 0.0 and keyed_uniform(cfg.seed, frame, idx, 0) < cfg.miss_prob:
                continue
            box = agent.box_at(frame)
            if vis < 1.0:
                z = np.array(
                    [
                        box.left + box.width / 2,
                        box.top + box.height / 2,
                        box.area,
                        box.width / box.height,
                    ]
                )
                z = semi_occlusion_noise(z, vis, cfg.sigma_area, cfg.sigma_ratio, KeyedNormals(cfg.seed, frame, idx))
                w = math.sqrt(z[2] * z[3])
                h = math.sqrt(z[2] / z[3])
                box = BoundingBox(z[0] - w / 2, z[1] - h / 2, w, h)
            conf = min(max(cfg.conf_base - cfg.conf_penalty * (1.0 - vis), 0.05), 1.0)
            dets.append(Detection(box, conf))
        det_frames.append(FrameDetections(index=frame, detections=tuple(dets)))
    return gt, det_frames


def _dense_diagonal(var: np.ndarray) -> np.ndarray:
    """``(..., k, k)`` diagonal matrices with the given variances."""
    k = var.shape[-1]
    out = np.zeros(var.shape[:-1] + (k * k,))
    out[..., :: k + 1] = var
    return out.reshape(var.shape + (k,))


def _dense_symmetrized(p: np.ndarray) -> np.ndarray:
    return (p + np.swapaxes(p, -1, -2)) / 2.0


def reference_kalman_predict(mean: np.ndarray, cov: np.ndarray, model):
    """Dense ``F P Fᵀ + Q`` as two slice additions, symmetrized; returns (mean, cov)."""
    height = _measurement_height(mean[..., :4])
    out_mean = mean.copy()
    out_mean[..., :4] += mean[..., 4:]
    out = cov.copy()
    out[..., :4, :] += cov[..., 4:, :]
    out[..., :, :4] += out[..., :, 4:]
    return out_mean, _dense_symmetrized(out + _dense_diagonal(model.process_noise(height)))


def reference_kalman_gain(mean: np.ndarray, cov: np.ndarray, model, noise_scale: float = 1.0):
    """Dense ``K = P Hᵀ S⁻¹`` with ``S⁻¹ = L⁻ᵀ L⁻¹`` from the Cholesky factor of ``S``."""
    height = _measurement_height(mean[..., :4])
    s = cov[..., :4, :4] + _dense_diagonal(model.measurement_noise(height)) * noise_scale
    chol_inv = np.linalg.inv(np.linalg.cholesky(s))
    return cov[..., :, :4] @ (np.swapaxes(chol_inv, -1, -2) @ chol_inv)


def reference_kalman_update(mean: np.ndarray, cov: np.ndarray, z: np.ndarray, model,
                            noise_scale: float = 1.0):
    """Dense update ``m + K (z - H m)``, ``sym(P - K H P)``; returns (mean, cov)."""
    gain = reference_kalman_gain(mean, cov, model, noise_scale)
    innovation = z - mean[..., :4]
    out_mean = mean + (gain @ innovation[..., None])[..., 0]
    return out_mean, _dense_symmetrized(cov - gain @ cov[..., :4, :])


# The reference detection reader yields every frame up to the last one in the file, so
# a frame index far past any video would allocate one empty frame per index.
_REF_MAX_FRAME = 1_000_000


def _ref_rows(path, n_fields: int, whole: dict[int, str]):
    """Yield ``(lineno, fields)`` for each non-blank line of a MOT file.

    Every field must be a finite number, the fields named in ``whole`` whole
    numbers as written (not only as read into a float), the frame index
    (field 0) lie in [1, ``_REF_MAX_FRAME``], and no box field (2-5: left,
    top, width, height) exceed ``MAX_COORD`` in magnitude (a negative size is
    left to the size checks).
    """
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_fields:
                raise ParseError(path, lineno, f"expected {n_fields} fields, got {len(parts)}")
            try:
                values = list(map(float, parts))
            except ValueError:
                raise _ref_field_error(path, lineno, parts) from None
            if not all(map(math.isfinite, values)):
                raise _ref_field_error(path, lineno, parts)
            for k, name in whole.items():
                exact = Decimal(parts[k])
                if exact != exact.to_integral_value():
                    raise ParseError(path, lineno, f"bad {name} {parts[k]}")
            if not 1 <= values[0] <= _REF_MAX_FRAME:
                raise ParseError(path, lineno, f"bad frame index {parts[0]}")
            if (abs(values[2]) > MAX_COORD or abs(values[3]) > MAX_COORD
                    or values[4] > MAX_COORD or values[5] > MAX_COORD):
                field = next(p for p, v in zip(parts[2:6], values[2:6]) if abs(v) > MAX_COORD)
                raise ParseError(path, lineno, f"box field {field} beyond {MAX_COORD:g} px")
            yield lineno, values


def _ref_field_error(path, lineno: int, parts: list[str]) -> ParseError:
    """The error naming the first of a line's fields that is not a finite number."""
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            return ParseError(path, lineno, f"non-numeric field {part!r}")
        if not math.isfinite(value):
            return ParseError(path, lineno, f"non-finite field {part!r}")


def _ref_box(path, lineno: int, v: list[float]) -> BoundingBox:
    if v[4] <= 0 or v[5] <= 0:
        raise ParseError(path, lineno, "non-positive box size")
    # An area, corner-to-corner extent or aspect ratio that rounds to 0 or
    # overflows breaks IoU and the filter's aspect state.
    if (v[4] * v[5] == 0 or (v[2] + v[4] - v[2]) * (v[3] + v[5] - v[3]) == 0
            or v[4] / v[5] in (0.0, math.inf)):
        raise ParseError(path, lineno, "degenerate box")
    return BoundingBox(v[2], v[3], v[4], v[5])


def _ref_trajectories(path, rows) -> TrajectorySet:
    trajs: TrajectorySet = defaultdict(dict)
    for lineno, v in rows:
        box = _ref_box(path, lineno, v)
        frame, tid = int(v[0]), int(v[1])
        if frame in trajs[tid]:
            raise ParseError(path, lineno, f"duplicate frame {frame} for id {tid}")
        trajs[tid][frame] = box
    return dict(trajs)


def reference_parse_detections(path) -> list[FrameDetections]:
    """Read a detection file into one group per frame, from frame 1 to the last in the file.

    Frames without detection lines get an empty group, so the tracker ages
    its tracks over them. The id column is ignored; confidences must lie in
    [0, 1].
    """
    by_frame: dict[int, list[Detection]] = defaultdict(list)
    for lineno, v in _ref_rows(path, 10, {0: "frame index"}):
        box = _ref_box(path, lineno, v)
        if not 0.0 <= v[6] <= 1.0:
            raise ParseError(path, lineno, f"confidence {v[6]} outside [0, 1]")
        by_frame[int(v[0])].append(Detection(box, v[6]))
    return [
        FrameDetections(index=frame, detections=tuple(by_frame.get(frame, ())))
        for frame in range(1, max(by_frame, default=0) + 1)
    ]


def reference_parse_results(path) -> TrajectorySet:
    """Read a result file (same 10-field grammar, real ids) as trajectories."""
    return _ref_trajectories(path, _ref_rows(path, 10, {0: "frame index", 1: "id"}))


def reference_parse_ground_truth(path) -> TrajectorySet:
    """Read a ground-truth file; keeps active class-1 rows only.

    The visibility column is validated but not used for filtering.
    """
    def active():
        for lineno, v in _ref_rows(path, 9, {0: "frame index", 1: "id", 6: "flag", 7: "class"}):
            if not 0.0 <= v[8] <= 1.0:
                raise ParseError(path, lineno, f"visibility {v[8]} outside [0, 1]")
            if v[6] == 1 and v[7] == 1:
                yield lineno, v

    return _ref_trajectories(path, active())


def _ref_write(path, rows) -> None:
    """One line per ``(frame, id, box, tail)`` row, box reals at two decimals."""
    Path(path).write_text("".join([
        f"{frame},{tid},{b.left:.2f},{b.top:.2f},{b.width:.2f},{b.height:.2f},{tail}\n"
        for frame, tid, b, tail in rows
    ]), encoding="ascii")


def reference_write_results(path, outputs: Iterable[FrameOutput]) -> None:
    """One line per (frame, id), frames then ids ascending, reals at 2 decimals."""
    _ref_write(path, [
        (fo.index, rec.track_id, rec.box, f"{rec.score:.2f},-1,-1,-1")
        for fo in sorted(outputs, key=lambda fo: fo.index)
        for rec in sorted(fo.records, key=lambda r: r.track_id)
    ])


def reference_write_detections(path, frames: Iterable[FrameDetections]) -> None:
    """One line per detection, frames ascending; a frame without detections writes nothing."""
    _ref_write(path, [
        (fd.index, -1, det.box, f"{det.score:.2f},-1,-1,-1")
        for fd in sorted(frames, key=lambda fd: fd.index)
        for det in fd.detections
    ])


def reference_write_ground_truth(path, trajs: TrajectorySet) -> None:
    """One active class-1 line per (frame, id), ascending, visibility 1."""
    _ref_write(path, sorted(
        (frame, tid, box, "1,1,1.00") for tid, per_frame in trajs.items() for frame, box in per_frame.items()
    ))


def _ref_canonicalize_ties(cost: np.ndarray, gate: float, matches: list[tuple[int, int]]) -> None:
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


def reference_assign(cost: np.ndarray, gate: float):
    """Gated minimum-cost assignment: ``(matches, unmatched_rows, unmatched_cols)`` lists.

    Entries above ``gate`` are never matched. The result maximizes the number
    of admissible matches, then minimizes their total cost; ties resolve with
    the lowest row taking the lowest column.
    """
    rows, cols = cost.shape
    if rows == 0 or cols == 0:
        return [], list(range(rows)), list(range(cols))
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    masked = np.where(cost > gate, 1e6, cost)
    rr, cc = linear_sum_assignment(masked)
    kept = cost[rr, cc] <= gate
    rr, cc = rr[kept], cc[kept]
    # Tie canonicalization swaps columns between matched rows, so the matched
    # row and column sets are final here.
    free_rows = np.ones(rows, dtype=bool)
    free_rows[rr] = False
    free_cols = np.ones(cols, dtype=bool)
    free_cols[cc] = False
    # linear_sum_assignment returns rows sorted, the gate filter keeps their
    # order and the ties swap only columns, so matches come out sorted by row.
    matches = list(zip(rr.tolist(), cc.tolist()))
    _ref_canonicalize_ties(cost, gate, matches)
    return matches, free_rows.nonzero()[0].tolist(), free_cols.nonzero()[0].tolist()


def reference_two_stage_associate(
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
):
    """Two-stage confidence cascade over one frame's detections.

    Boxes are (N, 4) ltrb arrays. Stage one matches high-confidence
    detections against the union of active tracks and lost proposals by
    plain IoU. Stage two matches the still unmatched *active* tracks (lost
    proposals only get the first stage) against mid-confidence detections
    plus stage-one leftovers using buffered IoU. Detections below
    ``conf_low`` are ignored entirely. Returns ``(matches, stage one
    matches, stage two matches)`` as lists of ``(row, detection)`` tuples,
    rows indexing the full pool followed by the lost pool.
    """
    if not conf_low < conf_high:
        raise ValueError("conf_low must be below conf_high")
    n_tracks = len(track_boxes)
    candidates = np.concatenate([track_boxes, lost_boxes])
    scores = np.asarray(det_scores, dtype=np.float64)

    high_idx = (scores >= conf_high).nonzero()[0]
    high_idx = (scores >= conf_high).nonzero()[0]
    mid_idx = ((scores >= conf_low) & (scores < conf_high)).nonzero()[0]

    stage_one_matches, unmatched_rows, unmatched_cols = reference_assign(
        iou_cost(candidates, det_boxes[high_idx]), gate_first)
    matches = [(r, int(high_idx[c])) for r, c in stage_one_matches]
    leftovers_high = high_idx[unmatched_cols]

    second_tracks = [r for r in unmatched_rows if r < n_tracks]
    second_dets = np.sort(np.concatenate([mid_idx, leftovers_high]))
    matches_two = []
    if second_tracks and len(second_dets):
        stage_two_matches, _, _ = reference_assign(
            biou_cost(candidates[second_tracks], det_boxes[second_dets], buffer_scale),
            gate_second,
        )
        matches_two = [(second_tracks[r], int(second_dets[c])) for r, c in stage_two_matches]

    return sorted(matches + matches_two), matches, matches_two


class ReferenceVelocityBuffer:
    """Rings of the last ``capacity`` velocity 4-vectors recorded per belief.

    ``ring`` is ``(n, capacity, 4)`` and ``count`` ``(n,)`` holds how many
    velocities each belief has recorded; record ``k`` sits in slot
    ``k % capacity``. ``ReferenceVelocityBuffer(capacity)`` is the ring of one
    belief (n = 1). A buffer built from existing arrays writes into them.
    """

    def __init__(self, capacity: int = 5, ring: np.ndarray | None = None,
                 count: np.ndarray | None = None):
        if ring is None:
            if capacity < 1:
                raise ValueError("velocity buffer capacity must be >= 1")
            ring = np.zeros((1, capacity, MEAS_DIM))
            count = np.zeros(1, dtype=np.int64)
        self.ring = ring
        self.count = count

    @property
    def capacity(self) -> int:
        return self.ring.shape[-2]

    def __getitem__(self, rows) -> "ReferenceVelocityBuffer":
        """Copy of the rings of ``rows``."""
        return ReferenceVelocityBuffer(ring=self.ring[rows], count=self.count[rows])

    def __len__(self) -> int:
        """Entries held by a one-belief buffer."""
        (held,) = np.minimum(self.count, self.capacity)
        return int(held)

    def _oldest_first(self) -> np.ndarray:
        """``(n, capacity, 4)``: each ring's slots reordered from the oldest entry."""
        cap = self.capacity
        start = np.where(self.count >= cap, self.count % cap, 0)
        slots = (start[:, None] + np.arange(cap)) % cap
        return np.take_along_axis(self.ring, slots[..., None], axis=1)

    def entries(self) -> list[np.ndarray]:
        """Held velocities of a one-belief buffer, oldest first."""
        return list(self._oldest_first()[0, : len(self)].copy())

    def record(self, mean: np.ndarray, rows=None) -> None:
        """Store the velocity of each ``(..., 8)`` mean in the ring of its row.

        ``mean`` holds one belief per entry of ``rows`` (all rows when
        None); a full ring evicts its oldest entry.
        """
        if rows is None:
            rows = np.arange(len(self.count))
        velocity = mean.reshape(-1, STATE_DIM)[:, MEAS_DIM:]
        self.ring[rows, self.count[rows] % self.capacity] = velocity
        self.count[rows] += 1

    def recall(self) -> tuple[np.ndarray, np.ndarray]:
        """Per ring, the oldest held velocity, and whether any is held."""
        return self._oldest_first()[:, 0], self.count > 0


def reference_rollback_velocity(mean: np.ndarray,
                                buffer: ReferenceVelocityBuffer) -> tuple[np.ndarray, np.ndarray]:
    """Replace each ``(..., 8)`` mean's velocity components with its oldest buffered entry.

    ``buffer`` holds one ring per mean. Returns the new means plus, per
    mean, whether any history was available; a mean with an empty ring
    keeps its velocity, and means without any history are returned as
    they are.
    """
    recalled, held = buffer.recall()
    flags = held.reshape(mean.shape[:-1])
    if not held.any():
        return mean, flags
    mean = mean.copy()
    velocity = mean.reshape(-1, STATE_DIM)[:, MEAS_DIM:]
    velocity[held] = recalled[held]
    return mean, flags


def from_dense(mean, covariance) -> KalmanState:
    """Beliefs from ``(..., 8)`` means and ``(..., 8, 8)`` covariances, which must be
    four symmetric 2×2 ``[slot, rate]`` blocks with zeros everywhere else."""
    mean = np.asarray(mean, dtype=np.float64)
    covariance = np.asarray(covariance, dtype=np.float64)
    state = KalmanState(np.stack([mean[..., _SLOTS], mean[..., _RATES],
                                  covariance[..., _SLOTS, _SLOTS],
                                  covariance[..., _SLOTS, _RATES],
                                  covariance[..., _RATES, _RATES]]))
    if not np.array_equal(state.covariance, covariance):
        raise ValueError("covariance is not four symmetric 2x2 [slot, rate] blocks")
    return state


def make_frame(index: int, dets: Sequence[tuple[BoundingBox, float]]) -> FrameDetections:
    return FrameDetections(
        index=index, detections=tuple(Detection(b, s) for b, s in dets)
    )


def bottom_middle(b: BoundingBox) -> Point2:
    """Bottom-center point of a box, the anchor used for grid cell lookups."""
    return Point2(b.left + b.width / 2.0, b.top + b.height)
