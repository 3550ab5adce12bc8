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
frame, and shares the PRNG, ``covered_fraction`` and the noise model with the
library. The reference Kalman filter is the general dense 8×8 filter the
per-slot block filter replaced; it shares the motion model's noise variances
and the height clamp with the library.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np
from scipy.optimize import linear_sum_assignment

from meshsort.geometry import BoundingBox, boxes_to_ltrb, iou_matrix
from meshsort.kalman import _measurement_height
from meshsort.metrics import (
    HOTA_ALPHAS,
    HotaBreakdown,
    MetricsError,
    MetricsReport,
    TrajectorySet,
)
from meshsort.pipeline import Detection, FrameDetections
from meshsort.synth import (
    SceneConfig,
    Xoshiro256StarStar,
    covered_fraction,
    semi_occlusion_noise,
)


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
    """The scene generator as it was before cover came from per-frame box arrays.

    Ground truth carries the exact interpolated boxes for every agent's
    lifespan. Detections exist only for sufficiently visible agents, carry
    visibility-scaled noise on the size slots, exact centers, and a
    visibility-dependent confidence.
    """
    cfg.validate()
    rng = Xoshiro256StarStar(cfg.seed)
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
            if cfg.miss_prob > 0.0 and rng.uniform() < cfg.miss_prob:
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
                z = semi_occlusion_noise(z, vis, cfg.sigma_area, cfg.sigma_ratio, rng)
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
