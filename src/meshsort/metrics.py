"""Tracking evaluation: CLEAR accuracy, identity F1, and higher-order accuracy.

Trajectories are plain dicts ``{track_id: {frame: BoundingBox}}`` so that both
parsed ground-truth files and tracker outputs evaluate through the same path.
Frame-level correspondence keeps previous-frame pairs alive while they still
overlap (persistence bias), which is what makes switch and fragmentation
counts meaningful.

All three metrics read one sweep of the sequence: each frame's overlaps are
computed once and kept sparse, as the nonzero (gt, result) entries.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import BoundingBox, boxes_to_ltrb, iou_matrix

TrajectorySet = dict[int, dict[int, BoundingBox]]

HOTA_ALPHAS = tuple(round(0.05 * k, 2) for k in range(1, 20))


class MetricsError(ValueError):
    """Raised when a metric is undefined, e.g. empty ground truth."""


class HotaBreakdown(NamedTuple):
    value: float
    det_a: float
    ass_a: float
    per_alpha: dict
    det_per_alpha: dict
    ass_per_alpha: dict


@dataclass
class MetricsReport:
    mota: float
    idf1: float
    hota: float
    det_a: float
    ass_a: float
    fp: int
    fn: int
    idsw: int
    fm: int
    mt: int
    ml: int
    gt_total: int
    hota_per_alpha: dict[float, float] = field(default_factory=dict)
    det_a_per_alpha: dict[float, float] = field(default_factory=dict)
    ass_a_per_alpha: dict[float, float] = field(default_factory=dict)

    def to_kv(self) -> str:
        pairs = [
            ("MOTA", f"{self.mota:.6f}"),
            ("IDF1", f"{self.idf1:.6f}"),
            ("HOTA", f"{self.hota:.6f}"),
            ("DetA", f"{self.det_a:.6f}"),
            ("AssA", f"{self.ass_a:.6f}"),
            ("FP", str(self.fp)),
            ("FN", str(self.fn)),
            ("IDSW", str(self.idsw)),
            ("FM", str(self.fm)),
            ("MT", str(self.mt)),
            ("ML", str(self.ml)),
            ("GT", str(self.gt_total)),
        ]
        return "\n".join(f"{k}={v}" for k, v in pairs) + "\n"

    def to_table(self) -> str:
        head = f"{'MOTA':>8} {'IDF1':>8} {'HOTA':>8} {'FP':>6} {'FN':>6} {'IDSW':>5} {'FM':>5} {'MT':>4} {'ML':>4}"
        row = (
            f"{self.mota:8.4f} {self.idf1:8.4f} {self.hota:8.4f} "
            f"{self.fp:6d} {self.fn:6d} {self.idsw:5d} {self.fm:5d} {self.mt:4d} {self.ml:4d}"
        )
        return head + "\n" + row + "\n"



def _check_threshold(iou_thr: float) -> None:
    if not 0.0 < iou_thr < 1.0:
        raise MetricsError("iou threshold must lie in (0, 1)")


def _by_frame(trajs: TrajectorySet) -> tuple[list[int], dict[int, tuple[list[int], list[BoundingBox]]]]:
    """Sorted ids, and per frame the ranks (positions in the sorted ids) and boxes present."""
    ids = sorted(trajs)
    index: dict[int, tuple[list[int], list[BoundingBox]]] = {}
    for rank, tid in enumerate(ids):
        for frame, box in trajs[tid].items():
            ranks, boxes = index.setdefault(frame, ([], []))
            ranks.append(rank)
            boxes.append(box)
    return ids, index


class _Sweep(NamedTuple):
    """The per-frame overlaps of one (gt, res) pair, built once for every metric.

    ``frames`` are the frames present in either set, ascending. Boxes are
    numbered frame by frame: frame ``f``'s gt boxes are ``goff[f]:goff[f + 1]``,
    in ascending id order, and ``g_rank`` holds each one's id as its rank in
    ``gt_ids``; likewise ``roff`` and ``r_rank`` for result boxes. Frame
    ``f``'s nonzero overlaps are entries ``eoff[f]:eoff[f + 1]`` of ``g_box``,
    ``r_box`` (box numbers) and ``val``, in row-major order.
    """

    frames: list[int]
    gt_ids: list[int]
    res_ids: list[int]
    g_rank: np.ndarray
    r_rank: np.ndarray
    goff: np.ndarray
    roff: np.ndarray
    eoff: np.ndarray
    g_box: np.ndarray
    r_box: np.ndarray
    val: np.ndarray

    def overlaps(self, f: int) -> np.ndarray:
        """Frame ``f``'s dense overlap matrix; disjoint boxes overlap by exactly 0.0."""
        g0, r0 = self.goff[f], self.roff[f]
        s = slice(self.eoff[f], self.eoff[f + 1])
        dense = np.zeros((self.goff[f + 1] - g0, self.roff[f + 1] - r0))
        dense[self.g_box[s] - g0, self.r_box[s] - r0] = self.val[s]
        return dense


def _sweep(gt: TrajectorySet, res: TrajectorySet) -> _Sweep:
    gt_ids, g_index = _by_frame(gt)
    if not g_index:
        raise MetricsError("ground truth is empty; metrics undefined")
    res_ids, r_index = _by_frame(res)
    frames = sorted(g_index.keys() | r_index.keys())
    absent = ([], [])
    g_rank, r_rank, goff, roff, eoff = [], [], [0], [0], [0]
    g_box, r_box, val = [], [], []
    for frame in frames:
        g_ranks, g_boxes = g_index.pop(frame, absent)
        r_ranks, r_boxes = r_index.pop(frame, absent)
        n = 0
        if g_boxes and r_boxes:
            dense = iou_matrix(boxes_to_ltrb(g_boxes), boxes_to_ltrb(r_boxes))
            rows, cols = np.nonzero(dense)
            g_box.append(rows + goff[-1])
            r_box.append(cols + roff[-1])
            val.append(dense[rows, cols])
            n = len(rows)
        g_rank += g_ranks
        r_rank += r_ranks
        goff.append(len(g_rank))
        roff.append(len(r_rank))
        eoff.append(eoff[-1] + n)
    g_rank, r_rank, goff, roff, eoff = (np.array(x, dtype=np.intp) for x in (g_rank, r_rank, goff, roff, eoff))
    g_box, r_box = (np.concatenate(x) if x else np.zeros(0, dtype=np.intp) for x in (g_box, r_box))
    val = np.concatenate(val) if val else np.zeros(0)
    return _Sweep(frames, gt_ids, res_ids, g_rank, r_rank, goff, roff, eoff, g_box, r_box, val)


def match_frame(
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
    _check_threshold(iou_thr)
    if not gt_boxes or not res_boxes:
        return []
    return _match(iou_matrix(boxes_to_ltrb(gt_boxes), boxes_to_ltrb(res_boxes)), iou_thr, carry)


def _match(overlaps: np.ndarray, iou_thr: float, carry: dict[int, int] | None) -> list[tuple[int, int]]:
    """:func:`match_frame` on a precomputed (gt, res) overlap matrix."""
    n_g, n_r = overlaps.shape
    pairs: list[tuple[int, int]] = []
    used_g, used_r = set(), set()
    if carry:
        for g, r in sorted(carry.items()):
            if g < n_g and r < n_r and overlaps[g, r] >= iou_thr:
                pairs.append((g, r))
                used_g.add(g)
                used_r.add(r)
    free_g = [g for g in range(n_g) if g not in used_g]
    free_r = [r for r in range(n_r) if r not in used_r]
    if free_g and free_r:
        sub = overlaps[np.ix_(free_g, free_r)]
        rows, cols = linear_sum_assignment(1.0 - sub)
        for r, c in zip(rows, cols):
            if sub[r, c] >= iou_thr:
                pairs.append((free_g[r], free_r[c]))
    return sorted(pairs)


def clear_mot(gt: TrajectorySet, res: TrajectorySet, iou_thr: float = 0.5, *, sweep: _Sweep | None = None):
    """(MOTA, FP, FN, IDSW, FM, MT, ML, gt_total) under CLEAR conventions.

    Fragmentations count interruptions of a ground-truth trajectory's covered
    stretches; mostly-tracked/lost use the 80% / 20% coverage cutoffs.
    ``sweep`` is the pair's overlap sweep; ``None`` builds it.
    """
    _check_threshold(iou_thr)
    sw = _sweep(gt, res) if sweep is None else sweep
    fp = fn = idsw = gt_total = 0
    last_match: dict[int, int] = {}
    prev_pairs: dict[int, int] = {}
    covered: dict[int, set[int]] = defaultdict(set)
    for f, frame in enumerate(sw.frames):
        g = sw.g_rank[sw.goff[f] : sw.goff[f + 1]].tolist()
        r = sw.r_rank[sw.roff[f] : sw.roff[f + 1]].tolist()
        gt_total += len(g)
        pairs: list[tuple[int, int]] = []
        if g and r:
            col_of = {rk: c for c, rk in enumerate(r)}
            carry = {}
            for row, gk in enumerate(g):
                want = prev_pairs.get(gk)
                if want in col_of:
                    carry[row] = col_of[want]
            pairs = _match(sw.overlaps(f), iou_thr, carry)
        fn += len(g) - len(pairs)
        fp += len(r) - len(pairs)
        frame_pairs: dict[int, int] = {}
        for row, col in pairs:
            gk, rk = g[row], r[col]
            frame_pairs[gk] = rk
            if gk in last_match and last_match[gk] != rk:
                idsw += 1
            last_match[gk] = rk
            covered[gk].add(frame)
        prev_pairs = frame_pairs

    fm = mt = ml = 0
    for rank, tid in enumerate(sw.gt_ids):
        frames = sorted(gt[tid])
        cov = covered.get(rank, set())
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
    mota = 1.0 - (fn + fp + idsw) / gt_total
    return mota, fp, fn, idsw, fm, mt, ml, gt_total


def idf1(gt: TrajectorySet, res: TrajectorySet, iou_thr: float = 0.5, *, sweep: _Sweep | None = None) -> float:
    """Identity F1 from the optimal global id-to-id matching.

    The match count between a ground-truth id and a result id is the number
    of frames where their boxes clear the overlap threshold; the bipartite
    matching maximizing total matched frames defines IDTP. ``sweep`` is the
    pair's overlap sweep; ``None`` builds it.
    """
    _check_threshold(iou_thr)
    sw = _sweep(gt, res) if sweep is None else sweep
    n_g, n_r = len(sw.gt_ids), len(sw.res_ids)
    hit = sw.val >= iou_thr
    codes = sw.g_rank[sw.g_box[hit]] * n_r + sw.r_rank[sw.r_box[hit]]
    counts = np.bincount(codes, minlength=n_g * n_r).reshape(n_g, n_r)
    idtp = 0
    if counts.size:
        rows, cols = linear_sum_assignment(-counts)
        idtp = int(counts[rows, cols].sum())
    idfp = len(sw.r_rank) - idtp
    idfn = len(sw.g_rank) - idtp
    denom = 2 * idtp + idfp + idfn
    return (2 * idtp / denom) if denom else 0.0


def hota(gt: TrajectorySet, res: TrajectorySet, *, sweep: _Sweep | None = None) -> HotaBreakdown:
    """HOTA with its detection/association components, per threshold and averaged.

    Per threshold α, detections are matched frame by frame among the pairs
    whose overlap clears α, with an assignment that prefers pairs whose
    identities co-occur often across the sequence; each matched pair then
    scores the fraction of its ids' detections that are matched to each other.
    ``sweep`` is the pair's overlap sweep; ``None`` builds it.

    Known divergence from TrackEval (Luiten et al., arXiv 2009.07736): here
    the alignment score that steers the assignment is recomputed for each α
    from the counts of id pairs whose overlap clears α, and each α has its own
    assignment. TrackEval computes the alignment score once from the soft
    (unthresholded) similarity and thresholds one assignment per frame. The
    oracle-defined behaviour (``enumerate_hota_alpha`` in the tests) is kept.
    """
    sw = _sweep(gt, res) if sweep is None else sweep
    n_gt, n_res = len(sw.g_rank), len(sw.r_rank)
    n_g, n_r = len(sw.gt_ids), len(sw.res_ids)
    # Per entry: its id pair as one code, and gt_count + res_count of that pair.
    # Codes span n_g * n_r, the size of the id-pair count matrix idf1 builds.
    g_id, r_id = sw.g_rank[sw.g_box], sw.r_rank[sw.r_box]
    code = g_id * n_r + r_id
    total = np.bincount(sw.g_rank, minlength=n_g)[g_id] + np.bincount(sw.r_rank, minlength=n_r)[r_id]

    hota_alpha: dict[float, float] = {}
    det_alpha: dict[float, float] = {}
    ass_alpha: dict[float, float] = {}
    for alpha in HOTA_ALPHAS:
        eligible = sw.val >= alpha
        e = np.flatnonzero(eligible)
        potential = np.bincount(code[e], minlength=n_g * n_r)[code]
        align = potential / (total - potential)
        # Eligible pairs that share no box form the frame's matching as they
        # stand: each costs less than zero and every other cell costs 1, so
        # any optimal assignment contains them all. Only frames where eligible
        # pairs share a box need the assignment.
        g_e, r_e = sw.g_box[e], sw.r_box[e]
        shared = np.zeros(len(eligible), dtype=bool)
        shared[e] = (np.bincount(g_e, minlength=n_gt)[g_e] > 1) | (np.bincount(r_e, minlength=n_res)[r_e] > 1)
        shared_before = np.concatenate(([0], np.cumsum(shared)))[sw.eoff]
        matched = eligible.copy()
        for f in np.flatnonzero(np.diff(shared_before)).tolist():
            lo, g0, r0 = sw.eoff[f], sw.goff[f], sw.roff[f]
            idx = lo + np.flatnonzero(eligible[lo : sw.eoff[f + 1]])
            rows, cols = sw.g_box[idx] - g0, sw.r_box[idx] - r0
            cost = np.ones((sw.goff[f + 1] - g0, sw.roff[f + 1] - r0))
            cost[rows, cols] = -(align[idx] * (1.0 + sw.val[idx]))
            entry = np.full(cost.shape, -1, dtype=np.intp)
            entry[rows, cols] = idx
            hit = entry[linear_sum_assignment(cost)]
            matched[idx] = False
            matched[hit[hit >= 0]] = True
        m = np.flatnonzero(matched)  # frame by frame, rows ascending

        tp = len(m)
        denom = n_gt + n_res - tp
        tpa = np.bincount(code[m], minlength=n_g * n_r)[code[m]]
        # Summed in match order, one term at a time.
        ass_sum = float(np.cumsum(tpa / (total[m] - tpa))[-1]) if tp else 0.0
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


def evaluate(gt: TrajectorySet, res: TrajectorySet, iou_thr: float = 0.5) -> MetricsReport:
    _check_threshold(iou_thr)
    sweep = _sweep(gt, res)
    mota, fp, fn, idsw, fm, mt, ml, gt_total = clear_mot(gt, res, iou_thr, sweep=sweep)
    idf1_value = idf1(gt, res, iou_thr, sweep=sweep)
    breakdown = hota(gt, res, sweep=sweep)
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
