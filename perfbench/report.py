"""Metrics of one run: end-to-end from the operations' own timings, per-layer from a trace.

Per-layer values are per round (one pass over the workload's operations), so
counts do not depend on how many rounds fit into the run.
"""

from __future__ import annotations

import hashlib
import resource
import statistics

import numpy as np

UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "track_fps": "frames/s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "synth_fps": "frames/s",
    "eval_fps": "frames/s",
    "peak_rss_mb": "MB",
    "mota": "1",
    "idf1": "1",
    "hota": "1",
    "synth.generate_ms": "ms",
    "synth.box_at_calls": "count",
    "synth.detections": "count",
    "motfiles.write_ms": "ms",
    "motfiles.parse_ms": "ms",
    "motfiles.bytes": "bytes",
    "kalman.predict_calls": "count",
    "kalman.predict_ms": "ms",
    "kalman.update_calls": "count",
    "kalman.update_ms": "ms",
    "kalman.pseudo_update_calls": "count",
    "kalman.rollback_calls": "count",
    "tracks.state_box_calls": "count",
    "tracks.state_box_ms": "ms",
    "tracks.on_matched_ms": "ms",
    "tracks.on_missed_calls": "count",
    "tracks.on_missed_ms": "ms",
    "tracks.lost_maintain_calls": "count",
    "tracks.infer_occlusion_ms": "ms",
    "tracks.occlusion_iou_calls": "count",
    "association.two_stage_ms": "ms",
    "association.assign_calls": "count",
    "association.assign_ms": "ms",
    "association.cost_cells": "count",
    "association.stage1_matches": "count",
    "association.stage2_matches": "count",
    "association.match_share": "1",
    "mesh.identify_ms": "ms",
    "mesh.lost_events": "count",
    "mesh.refound_events": "count",
    "mesh.frequent_cells": "count",
    "pipeline.step_self_ms": "ms",
    "pipeline.live_tracks_mean": "count",
    "pipeline.spawned": "count",
    "pipeline.removed": "count",
    "pipeline.doomed_predict_share": "1",
    "metrics.clear_ms": "ms",
    "metrics.idf1_ms": "ms",
    "metrics.hota_ms": "ms",
    "metrics.iou_matrix_calls": "count",
    "metrics.lsa_calls": "count",
    "metrics.idsw": "count",
    "metrics.fm": "count",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def digest(op_digests: list[str]) -> str:
    return hashlib.sha256("\n".join(op_digests).encode("ascii")).hexdigest()


def end_to_end(rounds: list[list], setup_s: float) -> dict[str, float]:
    done = [r for results in rounds for r in results]
    steps_ms = np.array([s for r in done for s in r.step_s]) * 1e3
    # Accuracy is the same in every round; the digests prove it.
    full = [r.report for r in rounds[0] if r.full]
    gt_total = sum(rep.gt_total for rep in full)

    def pooled(attr: str) -> float:
        return _ratio(sum(getattr(rep, attr) * rep.gt_total for rep in full), gt_total)

    def stage(name: str) -> float:
        return sum(r.stage_s[name] for r in done)

    return {
        "setup_s": setup_s,
        "pipeline_s": statistics.median(sum(r.pipeline_s for r in results) for results in rounds),
        "track_fps": _ratio(sum(r.stepped_frames for r in done), float(steps_ms.sum()) / 1e3),
        "step_ms_p50": float(np.percentile(steps_ms, 50)) if steps_ms.size else 0.0,
        "step_ms_p95": float(np.percentile(steps_ms, 95)) if steps_ms.size else 0.0,
        "synth_fps": _ratio(sum(r.synth_frames for r in done), stage("synth")),
        "eval_fps": _ratio(sum(r.scored_frames for r in done), stage("eval")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mota": pooled("mota"),
        "idf1": pooled("idf1"),
        "hota": pooled("hota"),
    }


def per_layer(tracer, rounds: list[list]) -> dict[str, float]:
    n = len(rounds)
    spans = tracer.totals()
    counts = tracer.counts
    done = [r for results in rounds for r in results]

    def calls(*names: str) -> float:
        return sum(spans.get(x, {}).get("calls", 0) for x in names) / n

    def ms(*names: str) -> float:
        return sum(spans.get(x, {}).get("ns", 0.0) for x in names) / 1e6 / n

    def total(attr: str, of: str) -> float:
        return sum(getattr(getattr(r, of), attr) for r in done) / n

    s1, s2 = counts["association.stage1_matches"], counts["association.stage2_matches"]
    return {
        "synth.generate_ms": ms("synth.generate"),
        "synth.box_at_calls": counts["synth.box_at"] / n,
        "synth.detections": counts["synth.detections"] / n,
        "motfiles.write_ms": ms("motfiles.write_ground_truth", "motfiles.write_detections",
                                "motfiles.write_results"),
        "motfiles.parse_ms": ms("motfiles.parse_ground_truth", "motfiles.parse_detections",
                                "motfiles.parse_results"),
        "motfiles.bytes": counts["motfiles.bytes"] / n,
        "kalman.predict_calls": calls("kalman.predict"),
        "kalman.predict_ms": ms("kalman.predict"),
        "kalman.update_calls": calls("kalman.update"),
        "kalman.update_ms": ms("kalman.update"),
        "kalman.pseudo_update_calls": tracer.child_calls("kalman.update", "tracks.lost_maintain_step") / n,
        "kalman.rollback_calls": calls("kalman.rollback_velocity"),
        "tracks.state_box_calls": calls("tracks.state_box"),
        "tracks.state_box_ms": ms("tracks.state_box"),
        "tracks.on_matched_ms": ms("tracks.on_matched"),
        "tracks.on_missed_calls": calls("tracks.on_missed"),
        "tracks.on_missed_ms": ms("tracks.on_missed"),
        "tracks.lost_maintain_calls": calls("tracks.lost_maintain_step"),
        "tracks.infer_occlusion_ms": ms("tracks.infer_occlusion"),
        "tracks.occlusion_iou_calls": tracer.child_calls("tracks.iou", "tracks.infer_occlusion") / n,
        "association.two_stage_ms": ms("association.two_stage_associate"),
        "association.assign_calls": calls("association.assign"),
        "association.assign_ms": ms("association.assign"),
        "association.cost_cells": counts["association.cost_cells"] / n,
        "association.stage1_matches": s1 / n,
        "association.stage2_matches": s2 / n,
        "association.match_share": _ratio(s1 + s2, counts["association.eligible_dets"]),
        "mesh.identify_ms": ms("mesh.identify"),
        "mesh.lost_events": calls("mesh.record_lost"),
        "mesh.refound_events": calls("mesh.record_refound"),
        "mesh.frequent_cells": _ratio(counts["mesh.frequent_sum"], calls("mesh.identify") * n),
        "pipeline.step_self_ms": spans.get("pipeline.step", {}).get("self_ns", 0.0) / 1e6 / n,
        "pipeline.live_tracks_mean": _ratio(counts["pipeline.live_sum"], calls("pipeline.step") * n),
        "pipeline.spawned": total("spawned", "stats"),
        "pipeline.removed": total("removed", "stats"),
        "pipeline.doomed_predict_share": _ratio(total("doomed_predicts", "stats"),
                                                total("predicts", "stats")),
        "metrics.clear_ms": ms("metrics.clear_mot"),
        "metrics.idf1_ms": ms("metrics.idf1"),
        "metrics.hota_ms": ms("metrics.hota"),
        "metrics.iou_matrix_calls": calls("metrics.iou_matrix"),
        "metrics.lsa_calls": calls("metrics.linear_sum_assignment"),
        "metrics.idsw": total("idsw", "report"),
        "metrics.fm": total("fm", "report"),
    }
