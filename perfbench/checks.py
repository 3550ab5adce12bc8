"""Output checks for one pipeline operation.

Every check is either recomputed here, apart from the program, or is a
property the method must have; none compares against stored outputs. Each
raises :class:`CheckFailed` carrying the check's name, so a test can assert
that a tampered output trips the check it is meant to trip.

Boxes are read by attribute (``left``, ``top``, ``width``, ``height``) and
trajectories are ``{id: {frame: box}}`` dicts, the shapes the program's
public calls return.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.optimize import linear_sum_assignment

# Reals are written with two decimals, so a parsed value may sit half a unit
# in the last place away from the generated one (plus float representation).
FILE_TOL = 0.005 + 1e-9


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def _fields(box) -> tuple[float, float, float, float]:
    return (box.left, box.top, box.width, box.height)


def _close(a, b) -> bool:
    return all(abs(x - y) <= FILE_TOL for x, y in zip(_fields(a), _fields(b)))


def check_synth(scene, gt, frames) -> None:
    """Ground truth covers each agent's lifespan; detections sit on live agents.

    Detection noise touches only area and aspect, so every detection centre
    must coincide with the centre of some ground-truth box of that frame.
    """
    want = {idx + 1: a.despawn - a.spawn + 1 for idx, a in enumerate(scene.agents)}
    got = {tid: len(per_frame) for tid, per_frame in gt.items()}
    if got != want:
        bad = sorted(t for t in want.keys() | got.keys() if want.get(t) != got.get(t))
        raise CheckFailed("synth.gt_rows", f"row counts differ from agent lifespans for ids {bad[:5]}")
    if [fd.index for fd in frames] != list(range(1, scene.frames + 1)):
        raise CheckFailed("synth.frames", "detection frames do not run 1..frames")
    centres: dict[int, list[tuple[float, float]]] = {}
    for per_frame in gt.values():
        for frame, b in per_frame.items():
            centres.setdefault(frame, []).append((b.left + b.width / 2, b.top + b.height / 2))
    for fd in frames:
        if not fd.detections:
            continue
        live = np.asarray(centres.get(fd.index, []), dtype=np.float64).reshape(-1, 2)
        dets = np.array([(d.box.left + d.box.width / 2, d.box.top + d.box.height / 2)
                         for d in fd.detections])
        if live.shape[0] == 0:
            raise CheckFailed("synth.det_centres", f"frame {fd.index} has detections but no agents")
        gap = np.abs(dets[:, None, :] - live[None, :, :]).max(axis=2).min(axis=1)
        if gap.max() > 0.005:
            raise CheckFailed("synth.det_centres",
                              f"frame {fd.index}: a detection centre is {gap.max():.4f} px off every agent")


def check_gt_roundtrip(gt, parsed) -> None:
    if gt.keys() != parsed.keys():
        raise CheckFailed("motfiles.gt", "parsed ground truth has other ids")
    for tid, per_frame in gt.items():
        back = parsed[tid]
        if per_frame.keys() != back.keys():
            raise CheckFailed("motfiles.gt", f"id {tid}: parsed frames differ")
        for frame, box in per_frame.items():
            if not _close(box, back[frame]):
                raise CheckFailed("motfiles.gt", f"id {tid} frame {frame}: box moved")


def _det_records(frames):
    return [(fd.index, d.box, d.score) for fd in frames for d in fd.detections]


def check_dets_roundtrip(frames, parsed) -> None:
    """Parsed detection records equal the generated ones.

    The file format cannot hold a frame without detections, so records are
    compared, not frame lists: empty frames are absent from ``parsed``.
    """
    want, got = _det_records(frames), _det_records(parsed)
    if len(want) != len(got):
        raise CheckFailed("motfiles.dets", f"{len(got)} parsed detections, {len(want)} generated")
    for (fa, ba, sa), (fb, bb, sb) in zip(want, got):
        if fa != fb or not _close(ba, bb) or abs(sa - sb) > FILE_TOL:
            raise CheckFailed("motfiles.dets", f"frame {fa}: detection differs after the file")


def check_results_roundtrip(outputs, parsed) -> None:
    want = {(fo.index, r.track_id): r.box for fo in outputs for r in fo.records}
    got = {(frame, tid): box for tid, per_frame in parsed.items() for frame, box in per_frame.items()}
    if want.keys() != got.keys():
        raise CheckFailed("motfiles.results", "parsed result rows differ from tracker output")
    for key, box in want.items():
        if not _close(box, got[key]):
            raise CheckFailed("motfiles.results", f"frame {key[0]} id {key[1]}: box moved")


def check_tracker_frame(fd, out, conf_low: float) -> None:
    """Per-frame tracker output properties.

    A tracked record exists only for a track matched in this frame, so the
    output scores form a sub-multiset of the frame's detection scores that
    pass ``conf_low``.
    """
    if out.index != fd.index:
        raise CheckFailed("tracker.frame", f"output frame {out.index} for input {fd.index}")
    ids = [r.track_id for r in out.records]
    if len(ids) != len(set(ids)):
        raise CheckFailed("tracker.ids", f"frame {fd.index}: duplicate track id")
    for r in out.records:
        f = _fields(r.box)
        if not all(math.isfinite(v) for v in f) or f[2] <= 0 or f[3] <= 0:
            raise CheckFailed("tracker.boxes", f"frame {fd.index} id {r.track_id}: bad box {f}")
    pool = Counter(d.score for d in fd.detections if d.score >= conf_low)
    used = Counter(r.score for r in out.records)
    if used - pool:
        raise CheckFailed("tracker.scores", f"frame {fd.index}: output score matches no detection")


def _ltrb(boxes) -> np.ndarray:
    return np.array([(b.left, b.top, b.left + b.width, b.top + b.height) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    iw = np.clip(np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0]), 0, None)
    ih = np.clip(np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1]), 0, None)
    inter = iw * ih
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def reference_idf1(gt, res, iou_thr: float = 0.5) -> float:
    """IDF1 from id-pair overlap counts and one global assignment."""
    gt_ids, res_ids = sorted(gt), sorted(res)
    counts = np.zeros((len(gt_ids), len(res_ids)))
    frames = {f for per in gt.values() for f in per} | {f for per in res.values() for f in per}
    for frame in frames:
        g = [(i, gt[t][frame]) for i, t in enumerate(gt_ids) if frame in gt[t]]
        r = [(j, res[t][frame]) for j, t in enumerate(res_ids) if frame in res[t]]
        if not g or not r:
            continue
        hits = _iou(_ltrb([b for _, b in g]), _ltrb([b for _, b in r])) >= iou_thr
        a, b = np.nonzero(hits)
        np.add.at(counts, (np.array([g[k][0] for k in a], dtype=int),
                           np.array([r[k][0] for k in b], dtype=int)), 1)
    idtp = 0.0
    if counts.size:
        rows, cols = linear_sum_assignment(-counts)
        idtp = counts[rows, cols].sum()
    n_gt = sum(len(p) for p in gt.values())
    n_res = sum(len(p) for p in res.values())
    return 2 * idtp / (n_gt + n_res) if n_gt + n_res else 0.0


def check_metrics(report, gt_rows: int, gt, res) -> None:
    """Row accounting and an independent IDF1."""
    res_rows = sum(len(p) for p in res.values())
    if report.gt_total != gt_rows:
        raise CheckFailed("metrics.gt_total", f"gt_total {report.gt_total}, scene has {gt_rows} rows")
    if report.gt_total - report.fn != res_rows - report.fp:
        raise CheckFailed("metrics.tp", "matched ground truth and matched results disagree")
    ref = reference_idf1(gt, res)
    if abs(report.idf1 - ref) > 1e-9:
        raise CheckFailed("metrics.idf1", f"idf1 {report.idf1!r}, recomputed {ref!r}")


def check_accuracy_floor(report, floor: float) -> None:
    share = (report.gt_total - report.fn) / report.gt_total
    if share < floor:
        raise CheckFailed("accuracy.floor", f"{share:.3f} of ground-truth boxes matched, floor {floor}")
