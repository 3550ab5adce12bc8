"""Tracking evaluation: CLEAR accuracy, identity F1, and higher-order accuracy.

Trajectories are a :class:`TrajectorySet`: one flat ``(frame, id, ltwh box)``
table, read as ``{track_id: {frame: BoundingBox}}``. Parsed ground-truth and
result files, generated scenes and tracker outputs all arrive as one; a plain
dict of that shape is converted once on entry, so every input takes the same
path.
Frame-level correspondence keeps previous-frame pairs alive while they still
overlap (persistence bias), which is what makes switch and fragmentation
counts meaningful.

All three metrics read one sweep of the sequence: each frame's overlaps are
computed once and kept sparse, as the nonzero (gt, result) entries. The sweep
is built from the tables' arrays: one sort by (frame, id) lays the boxes out
frame by frame. CLEAR reads each frame's entries for the carried pairs and
runs an assignment only over the boxes the carry leaves free, when one of
their entries clears the threshold. HOTA runs an assignment only over the
boxes that eligible pairs share, one block per frame.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import MAX_COORD, BoundingBox, iou_matrix, ltwh_to_ltrb, valid_boxes


class TrajectorySet(Mapping):
    """Trajectories as ``{track_id: {frame: BoundingBox}}``, read-only, over one flat table.

    Rows are grouped by id: ``ids`` holds each id once, in order of first
    appearance, and id ``ids[k]`` owns rows ``start[k]:start[k + 1]`` of
    ``frames`` and ``boxes`` (``(n, 4)`` ltwh), in input order. An id may own
    no rows. An id is looked up in an index of these row ranges, and a frame
    by binary search within its id's rows; a box is built each time it is
    read and is not kept.
    """

    __slots__ = ("ids", "start", "frames", "boxes", "_rows_of", "_by_frame", "_frame_sorted")

    def __init__(self, ids: np.ndarray, counts: np.ndarray, frames: np.ndarray, boxes: np.ndarray):
        """Rows already grouped by id: ``counts[k]`` rows for ``ids[k]``, ids distinct."""
        self.ids, self.frames, self.boxes = ids, frames, boxes
        self.start = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        bounds = self.start.tolist()
        self._rows_of = dict(zip(ids.tolist(), zip(bounds, bounds[1:])))
        owner = np.repeat(np.arange(len(ids)), counts)
        self._by_frame = np.lexsort((frames, owner))  # each id's rows, frames ascending
        frame, owner = frames[self._by_frame], owner[self._by_frame]
        repeat = np.flatnonzero((frame[1:] == frame[:-1]) & (owner[1:] == owner[:-1]))
        if len(repeat):
            raise ValueError(f"duplicate frame {frame[repeat[0]]} for id {ids[owner[repeat[0]]]}")
        self._frame_sorted = frame

    @classmethod
    def from_rows(cls, frames: np.ndarray, ids: np.ndarray, boxes: np.ndarray) -> "TrajectorySet":
        """One row per ``(frame, id, ltwh box)``, in any order."""
        uniq, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the distinct ids by first appearance
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        rows = np.argsort(rank[inverse], kind="stable")
        return cls(uniq[order], np.bincount(rank[inverse], minlength=len(uniq)), frames[rows], boxes[rows])

    @classmethod
    def of(cls, trajs) -> "TrajectorySet":
        """``trajs`` itself, or the table of a ``{track_id: {frame: box}}`` mapping."""
        if isinstance(trajs, TrajectorySet):
            return trajs
        pers = list(trajs.values())
        return cls(np.array(list(trajs), dtype=np.int64), np.array([len(p) for p in pers], dtype=np.intp),
                   np.array([f for p in pers for f in p], dtype=np.int64),
                   np.array([b.as_ltwh() for p in pers for b in p.values()], dtype=np.float64).reshape(-1, 4))

    def __getitem__(self, tid) -> "_Track":
        return _Track(self, *self._rows_of[tid])

    def __iter__(self):
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"TrajectorySet({ {tid: dict(per.items()) for tid, per in self.items()} !r})"


class _Track(Mapping):
    """One id's ``{frame: BoundingBox}``: a row range of a :class:`TrajectorySet`."""

    __slots__ = ("_set", "_lo", "_hi")

    def __init__(self, trajs: TrajectorySet, lo: int, hi: int):
        self._set, self._lo, self._hi = trajs, lo, hi

    def _row(self, frame) -> int:
        ts, hi = self._set, self._hi
        i = self._lo + ts._frame_sorted[self._lo : hi].searchsorted(frame)
        if i == hi or ts._frame_sorted[i] != frame:
            raise KeyError(frame)
        return ts._by_frame[i]

    def __getitem__(self, frame) -> BoundingBox:
        return BoundingBox(*self._set.boxes[self._row(frame)].tolist())

    def __contains__(self, frame) -> bool:
        try:
            self._row(frame)
        except KeyError:
            return False
        return True

    def __iter__(self):
        return iter(self._set.frames[self._lo : self._hi].tolist())

    def __len__(self) -> int:
        return self._hi - self._lo

    def items(self):
        return _TrackItems(self)


class _TrackItems(ItemsView):
    """A track's ``(frame, box)`` pairs, read in one pass rather than looked up frame by frame."""

    def __iter__(self):
        track = self._mapping
        return zip(track, map(BoundingBox, *track._set.boxes[track._lo : track._hi].T.tolist()))


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


def _flat_boxes(trajs, side: str) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Sorted ids, and every box's frame, rank (position in the sorted ids) and ltrb row.

    Boxes come out ordered by frame, then rank. The first box that the result
    file reader would reject raises, naming ``side``, its id and its frame.
    """
    trajs = TrajectorySet.of(trajs)
    boxes = trajs.boxes
    bad = ~valid_boxes(boxes)
    if bad.any():
        row = int(bad.argmax())
        tid = trajs.ids[np.searchsorted(trajs.start, row, side="right") - 1]
        raise MetricsError(f"{side} id {tid} at frame {trajs.frames[row]}: box {boxes[row].tolist()} must be "
                           f"finite, within {MAX_COORD:g} px, of positive size and not degenerate")
    ids = np.sort(trajs.ids)
    ranks = np.repeat(np.searchsorted(ids, trajs.ids), np.diff(trajs.start))
    order = np.lexsort((ranks, trajs.frames))
    # ltwh_to_ltrb adds left to width and top to height, as BoundingBox.right/.bottom do.
    return ids.tolist(), trajs.frames[order], ranks[order], ltwh_to_ltrb(boxes[order])


class _Sweep(NamedTuple):
    """The per-frame overlaps of one (gt, res) pair, built once for every metric.

    Frames are numbered 0, 1, ... over the frames present in either set,
    ascending. Boxes are numbered frame by frame: frame ``f``'s gt boxes are
    ``goff[f]:goff[f + 1]``, in ascending id order, and ``g_rank`` holds each
    one's id as its rank in ``gt_ids``; likewise ``roff`` and ``r_rank`` for
    result boxes. Frame ``f``'s nonzero overlaps are entries
    ``eoff[f]:eoff[f + 1]`` of ``g_box``, ``r_box`` (box numbers) and ``val``,
    in row-major order.
    """

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


def _sweep(gt, res) -> _Sweep:
    gt_ids, g_frame, g_rank, g_ltrb = _flat_boxes(gt, "ground truth")
    if not len(g_frame):
        raise MetricsError("ground truth is empty; metrics undefined")
    res_ids, r_frame, r_rank, r_ltrb = _flat_boxes(res, "result")
    frames = np.union1d(g_frame, r_frame)
    goff = np.concatenate(([0], np.searchsorted(g_frame, frames, side="right")))
    roff = np.concatenate(([0], np.searchsorted(r_frame, frames, side="right")))
    counts = np.zeros(len(frames), dtype=np.intp)
    g_box, r_box, val = [], [], []
    go, ro = goff.tolist(), roff.tolist()
    for f in np.flatnonzero((np.diff(goff) > 0) & (np.diff(roff) > 0)).tolist():
        g0, r0 = go[f], ro[f]
        dense = iou_matrix(g_ltrb[g0 : go[f + 1]], r_ltrb[r0 : ro[f + 1]])
        rows, cols = np.nonzero(dense)
        g_box.append(rows + g0)
        r_box.append(cols + r0)
        val.append(dense[rows, cols])
        counts[f] = len(rows)
    eoff = np.concatenate(([0], np.cumsum(counts)))
    g_box, r_box = (np.concatenate(x) if x else np.zeros(0, dtype=np.intp) for x in (g_box, r_box))
    val = np.concatenate(val) if val else np.zeros(0)
    return _Sweep(gt_ids, res_ids, g_rank, r_rank, goff, roff, eoff, g_box, r_box, val)


def clear_mot(gt: TrajectorySet, res: TrajectorySet, iou_thr: float = 0.5, *, sweep: _Sweep | None = None):
    """(MOTA, FP, FN, IDSW, FM, MT, ML, gt_total) under CLEAR conventions.

    Frame by frame, a gt id keeps the result id it was paired with in the
    previous frame while their overlap clears the threshold (the carry). The
    boxes the carry leaves free are matched by maximum-overlap assignment,
    and pairs below the threshold are dropped. A switch is a gt id matched to
    a result id other than the one it was last matched to.
    Fragmentations count interruptions of a ground-truth trajectory's covered
    stretches; mostly-tracked/lost use the 80% / 20% coverage cutoffs.
    ``sweep`` is the pair's overlap sweep; ``None`` builds it.
    """
    _check_threshold(iou_thr)
    sw = _sweep(gt, res) if sweep is None else sweep
    n_g = len(sw.gt_ids)
    # Per gt rank, a result rank or -1: the previous frame's partner, and the last match.
    partner = np.full(n_g, -1, dtype=np.intp)
    last = np.full(n_g, -1, dtype=np.intp)
    paired = np.zeros(0, dtype=np.intp)  # gt ranks paired in the previous frame
    idsw = 0
    matched = np.zeros(len(sw.val), dtype=bool)  # per entry
    # Per entry: its id ranks, its result rank where it clears the threshold
    # (else -2, never a partner), and its boxes numbered within its frame.
    hit = sw.val >= iou_thr
    g_id, r_id = sw.g_rank[sw.g_box], sw.r_rank[sw.r_box]
    hit_r = np.where(hit, r_id, -2)
    g_loc = sw.g_box - np.repeat(sw.goff[:-1], np.diff(sw.eoff))
    r_loc = sw.r_box - np.repeat(sw.roff[:-1], np.diff(sw.eoff))
    hits = np.concatenate(([0], np.cumsum(hit)))[sw.eoff].tolist()
    eoff, n_gf, n_rf = sw.eoff.tolist(), np.diff(sw.goff).tolist(), np.diff(sw.roff).tolist()
    for f, (lo, hi) in enumerate(zip(eoff, eoff[1:])):
        carried = np.flatnonzero(partner[g_id[lo:hi]] == hit_r[lo:hi]) + lo
        partner[paired] = -1  # only once the carry is read
        # A carried pair was matched in the previous frame, so it is its gt id's
        # last match: it switches nothing.
        paired = g_id[carried]
        partner[paired] = r_id[carried]
        matched[carried] = True
        if len(carried) == hits[f + 1] - hits[f]:
            continue  # every entry that clears the threshold is carried
        g_free, r_free = np.ones(n_gf[f], dtype=bool), np.ones(n_rf[f], dtype=bool)
        g_free[g_loc[carried]] = r_free[r_loc[carried]] = False
        e = np.flatnonzero(g_free[g_loc[lo:hi]] & r_free[r_loc[lo:hi]]) + lo
        if not hit[e].any():
            continue  # no assignment pair could clear the threshold
        # The free boxes' overlap block, in frame order, zero where boxes are disjoint.
        rows, cols = np.flatnonzero(g_free), np.flatnonzero(r_free)
        bi, bj = np.searchsorted(rows, g_loc[e]), np.searchsorted(cols, r_loc[e])
        block = np.zeros((len(rows), len(cols)))
        block[bi, bj] = sw.val[e]
        a, b = linear_sum_assignment(1.0 - block)
        col_of = np.full(len(rows), -1, dtype=np.intp)
        col_of[a] = b
        new = e[(col_of[bi] == bj) & hit[e]]
        g_k, r_k = g_id[new], r_id[new]
        was = last[g_k]
        idsw += int(((was >= 0) & (was != r_k)).sum())
        last[g_k] = partner[g_k] = r_k
        paired = np.concatenate((paired, g_k))
        matched[new] = True
    covered = np.zeros(len(sw.g_rank), dtype=bool)  # per gt box
    covered[sw.g_box[matched]] = True
    gt_total, n_matched = len(sw.g_rank), int(matched.sum())
    fn, fp = gt_total - n_matched, len(sw.r_rank) - n_matched

    # Each gt id's boxes, frames ascending: the sweep lists boxes frame by frame.
    order = np.argsort(sw.g_rank, kind="stable")
    rank, cov = sw.g_rank[order], covered[order]
    run_starts = cov & np.concatenate(([True], ~cov[:-1] | (rank[1:] != rank[:-1])))
    fm = int(np.maximum(np.bincount(rank[run_starts], minlength=n_g) - 1, 0).sum())
    boxes = np.bincount(rank, minlength=n_g)
    ratio = np.divide(np.bincount(rank, weights=cov, minlength=n_g), boxes, out=np.zeros(n_g), where=boxes > 0)
    mt, ml = int((ratio >= 0.8).sum()), int((ratio <= 0.2).sum())
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

    Tie rule: each frame's matching is scipy's optimum on the frame's shared
    block, not on the whole frame matrix. An eligible pair is shared when its
    gt box or its result box is in another eligible pair. The block's rows are
    the gt boxes of the shared pairs and its columns their result boxes, both
    in ascending id order; eligible cells cost ``-align * (1 + IoU)`` and the
    others 1. Unshared eligible pairs are matched as they stand. Without exact
    ties this is the same optimum as a solve of the whole frame; on a tie,
    scipy may pick a different one of the optima.
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
        # any optimal assignment contains them all. Only the boxes that
        # eligible pairs share need the assignment.
        g_e, r_e = sw.g_box[e], sw.r_box[e]
        shared = e[(np.bincount(g_e, minlength=n_gt)[g_e] > 1) | (np.bincount(r_e, minlength=n_res)[r_e] > 1)]
        matched = eligible.copy()
        matched[shared] = False
        if len(shared):
            # Shared boxes numbered among themselves; box numbers rise frame by
            # frame, so frame f's shared boxes are one run of each numbering,
            # and its block's rows and columns are those runs in ascending order.
            g_num, g_blk = np.unique(sw.g_box[shared], return_inverse=True)
            r_num, r_blk = np.unique(sw.r_box[shared], return_inverse=True)
            s_off = np.searchsorted(shared, sw.eoff)
            g_off = np.searchsorted(g_num, sw.goff)
            r_off = np.searchsorted(r_num, sw.roff)
            n_entries = np.diff(s_off)
            blocks = np.flatnonzero(n_entries)
            rows = g_blk - np.repeat(g_off[blocks], n_entries[blocks])
            cols = r_blk - np.repeat(r_off[blocks], n_entries[blocks])
            s_cost = -(align[shared] * (1.0 + sw.val[shared]))
            picked_rows, picked_cols = [], []
            for f, lo, hi in zip(blocks.tolist(), s_off[blocks].tolist(), s_off[blocks + 1].tolist()):
                cost = np.ones((g_off[f + 1] - g_off[f], r_off[f + 1] - r_off[f]))
                cost[rows[lo:hi], cols[lo:hi]] = s_cost[lo:hi]
                block_rows, block_cols = linear_sum_assignment(cost)
                picked_rows.append(block_rows + g_off[f])
                picked_cols.append(block_cols + r_off[f])
            # A shared entry is matched when its block's assignment picked its cell.
            col_of = np.full(len(g_num), -1, dtype=np.intp)
            col_of[np.concatenate(picked_rows)] = np.concatenate(picked_cols)
            matched[shared] = col_of[g_blk] == r_blk
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
    gt, res = TrajectorySet.of(gt), TrajectorySet.of(res)
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
