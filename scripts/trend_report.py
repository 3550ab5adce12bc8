#!/usr/bin/env python3
"""Reproduce the ablation trends on the seeded synthetic suites.

Three sweeps, printed as small tables:

* lost-maintain budget l in {0, 1, 3, 5} on the transient-occlusion suite
  (fragmentation should fall and mostly-tracked rise as l grows, accuracy
  roughly flat)
* grid size on the exit suite with reduced border ages (doomed predict work
  should fall without hurting accuracy)
* velocity rollback on/off on the semi-occlusion suite (id recovery and the
  size forecast should improve)
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from meshsort import scenarios, synth
from meshsort.config import TrackerConfig
from meshsort.geometry import iou
from meshsort.metrics import clear_mot
from meshsort.motfiles import outputs_to_trajectories
from meshsort.pipeline import Tracker


def run_suite(scene_builder, seeds, **cfg_overrides):
    totals = dict(fm=0, mt=0, gt=0, wmota=0.0, doomed=0, predicts=0, frames=0)
    elapsed = 0.0
    for seed in seeds:
        scene = scene_builder(seed)
        gt, dets = synth.generate(scene)
        cfg = TrackerConfig(frame_width=scene.frame_width,
                            frame_height=scene.frame_height, **cfg_overrides)
        tracker = Tracker(cfg)
        t0 = time.perf_counter()
        outputs = [tracker.step(fd) for fd in dets]
        elapsed += time.perf_counter() - t0
        mota, _, _, _, fm, mt, _, gt_total = clear_mot(
            gt, outputs_to_trajectories(outputs))
        st = tracker.stats()
        totals["fm"] += fm
        totals["mt"] += mt
        totals["gt"] += gt_total
        totals["wmota"] += mota * gt_total
        totals["doomed"] += st.doomed_predicts
        totals["predicts"] += st.predicts
        totals["frames"] += len(outputs)
    totals["mota"] = 100.0 * totals["wmota"] / totals["gt"]
    totals["fps"] = totals["frames"] / elapsed if elapsed else 0.0
    return totals


def lost_maintain_sweep():
    print("== lost-maintain budget (transient-occlusion suite, virtual boxes on)")
    print(f"{'l':>3} {'MOTA':>7} {'FM':>5} {'MT':>5}")
    for l in (0, 1, 3, 5):
        t = run_suite(
            scenarios.transient_occlusion_scene, range(1, 21),
            emit_virtual=True,
            lost_maintain_frames=l,
            enable_lost_maintain=l > 0,
        )
        print(f"{l:>3} {t['mota']:>7.2f} {t['fm']:>5} {t['mt']:>5}")


def mesh_size_sweep():
    print("\n== grid size with reduced border ages (exit suite)")
    print(f"{'grid':>6} {'MOTA':>7} {'MT':>5} {'doomed':>7} {'fps':>7}")
    t = run_suite(scenarios.exit_scene, range(1, 13),
                  enable_mesh=False, enable_location_ages=False)
    print(f"{'off':>6} {t['mota']:>7.2f} {t['mt']:>5} {t['doomed']:>7} {t['fps']:>7.0f}")
    for n in (3, 4, 5, 6):
        t = run_suite(
            scenarios.exit_scene, range(1, 13),
            enable_mesh=True, enable_location_ages=True,
            mesh_cols=n, mesh_rows=n, location_age_reduction=8,
        )
        label = f"{n}x{n}"
        print(f"{label:>6} {t['mota']:>7.2f} {t['mt']:>5} {t['doomed']:>7} {t['fps']:>7.0f}")


def rollback_sweep():
    from meshsort.geometry import BoundingBox
    from meshsort.tracks import state_box

    print("\n== velocity rollback (semi-occlusion suite)")
    print(f"{'mode':>9} {'recovered':>10} {'pred box err':>13}")
    for rollback in (False, True):
        recovered = 0
        box_errs = []
        for seed in range(1, 51):
            scene = scenarios.rollback_scene(seed)
            gt, dets = synth.generate(scene)
            cfg = TrackerConfig(
                frame_width=scene.frame_width, frame_height=scene.frame_height,
                enable_mesh=False, enable_lost_maintain=False,
                lost_maintain_frames=0, enable_location_ages=False,
                enable_velocity_rollback=rollback, min_hits=1,
            )
            tracker = Tracker(cfg)
            present = {fd.index for fd in dets if fd.detections}
            gap = [f for f in range(2, scene.frames + 1) if f not in present]
            reappear = min(f for f in present if f > max(gap))
            hit = False
            for fd in dets:
                if fd.index == reappear:
                    track = next((t for t in tracker.tracks if t.track_id == 1), None)
                    if track is not None:
                        mean = tracker.model.transition @ track.kf.mean
                        pred = BoundingBox(*state_box(mean[None])[0])
                        box_errs.append(1.0 - iou(pred, gt[1][fd.index]))
                out = tracker.step(fd)
                if fd.index in (reappear, reappear + 1, reappear + 2):
                    gt_box = gt[1].get(fd.index)
                    if gt_box and any(
                        r.track_id == 1 and iou(r.box, gt_box) >= 0.5
                        for r in out.records
                    ):
                        hit = True
            recovered += hit
        mode = "rollback" if rollback else "plain"
        err = np.mean(box_errs) if box_errs else float("nan")
        print(f"{mode:>9} {recovered:>7}/50 {err:>13.3f}")


if __name__ == "__main__":
    lost_maintain_sweep()
    mesh_size_sweep()
    rollback_sweep()
