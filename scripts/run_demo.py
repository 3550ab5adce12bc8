#!/usr/bin/env python3
"""End-to-end demo: build a scene, track it, score it, dump the loss grid.

Writes scene/gt/dets/result files into ./demo_out (or a given directory) and
prints the metric table plus the final loss grid and its frequent cells.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from meshsort import scenarios, synth
from meshsort.config import TrackerConfig
from meshsort.metrics import evaluate
from meshsort.motfiles import (
    format_scene,
    outputs_to_trajectories,
    write_detections,
    write_ground_truth,
    write_results,
)
from meshsort.pipeline import Tracker


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
    out_dir.mkdir(parents=True, exist_ok=True)

    scene = scenarios.transient_occlusion_scene(seed=1)
    (out_dir / "scene.txt").write_text(format_scene(scene))
    gt, dets = synth.generate(scene)
    write_ground_truth(out_dir / "gt.txt", gt)
    write_detections(out_dir / "dets.txt", dets)

    cfg = TrackerConfig(frame_width=scene.frame_width, frame_height=scene.frame_height)
    tracker = Tracker(cfg)
    outputs = [tracker.step(fd) for fd in dets]
    write_results(out_dir / "result.txt", outputs)

    report = evaluate(gt, outputs_to_trajectories(outputs))
    print(report.to_table())
    print(tracker.grid.to_text(scene.frames))
    print(f"files in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
