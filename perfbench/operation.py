"""One operation: the same public calls the synth, track and eval commands make.

Each stage is timed from outside; checks run between stages and are not
timed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from meshsort import metrics, motfiles, synth
from meshsort.pipeline import Tracker

import checks


@dataclass
class OpResult:
    label: str
    full: bool
    synth_frames: int = 0
    stepped_frames: int = 0
    scored_frames: int = 0
    stage_s: dict = field(default_factory=dict)
    step_s: list = field(default_factory=list)
    report: object = None
    stats: object = None
    digest: str = ""

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())


def run_operation(op, workdir: Path) -> OpResult:
    """Run one operation; raises on any failure, CheckFailed for a failed check."""
    out = OpResult(op.label, op.full)
    stage = out.stage_s
    gt_path, det_path, res_path = (workdir / f"{op.label}.{k}.txt" for k in ("gt", "dets", "res"))

    t = perf_counter()
    gt, frames = synth.generate(op.scene)
    stage["synth"] = perf_counter() - t
    out.synth_frames = op.scene.frames
    checks.check_synth(op.scene, gt, frames)

    t = perf_counter()
    motfiles.write_ground_truth(gt_path, gt)
    motfiles.write_detections(det_path, frames)
    stage["write"] = perf_counter() - t
    t = perf_counter()
    parsed_gt = motfiles.parse_ground_truth(gt_path)
    parsed = motfiles.parse_detections(det_path)
    stage["parse"] = perf_counter() - t
    checks.check_gt_roundtrip(gt, parsed_gt)
    checks.check_dets_roundtrip(frames, parsed)

    t = perf_counter()
    tracker = Tracker(op.cfg)
    outputs = []
    for fd in parsed:
        s = perf_counter()
        outputs.append(tracker.step(fd))
        out.step_s.append(perf_counter() - s)
    stage["track"] = perf_counter() - t
    out.stepped_frames = len(parsed)
    out.stats = tracker.stats()
    for fd, fo in zip(parsed, outputs):
        checks.check_tracker_frame(fd, fo, op.cfg.conf_low)

    t = perf_counter()
    motfiles.write_results(res_path, outputs)
    stage["write"] += perf_counter() - t
    t = perf_counter()
    res = motfiles.parse_results(res_path)
    stage["parse"] += perf_counter() - t
    checks.check_results_roundtrip(outputs, res)
    out.digest = hashlib.sha256(res_path.read_bytes()).hexdigest()

    t = perf_counter()
    report = metrics.evaluate(parsed_gt, res)
    stage["eval"] = perf_counter() - t
    out.scored_frames = op.scene.frames
    out.report = report
    gt_rows = sum(a.despawn - a.spawn + 1 for a in op.scene.agents)
    checks.check_metrics(report, gt_rows, parsed_gt, res)
    if op.floor is not None:
        checks.check_accuracy_floor(report, op.floor)
    return out
