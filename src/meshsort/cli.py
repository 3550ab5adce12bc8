"""Command-line surface: track, eval, synth, ablate, bench.

This module and :mod:`meshsort.motfiles`, which reads and writes the text
files, are the only ones that touch the filesystem; everything else works on
in-memory values. ``ablate`` may fan grid cells out over processes; the
``MESH_SORT_THREADS`` environment variable, a positive integer, caps that
parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import motfiles, synth
from .config import TrackerConfig, field_types
from .kalman import NumericsError
from .metrics import MetricsError, evaluate
from .pipeline import Tracker


def _cmd_track(args) -> int:
    cfg = motfiles.load_config(args.config)
    if args.emit_virtual:
        cfg.emit_virtual = True
    frames = motfiles.parse_detections(args.dets)
    tracker = Tracker(cfg)
    outputs = [tracker.step(fd) for fd in frames]
    motfiles.write_results(args.out, outputs)
    if args.mesh_out:
        last = frames[-1].index if frames else 0
        with open(args.mesh_out, "w", encoding="ascii") as fh:
            fh.write(tracker.grid.to_text(last))
    print(f"tracked {len(frames)} frames -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    gt = motfiles.parse_ground_truth(args.gt)
    res = motfiles.parse_results(args.res)
    report = evaluate(gt, res, iou_thr=args.iou)
    if args.format == "kv":
        sys.stdout.write(report.to_kv())
    else:
        sys.stdout.write(report.to_table())
    return 0


def _cmd_synth(args) -> int:
    scene = motfiles.load_scene(args.scene)
    gt, dets = synth.generate(scene)
    motfiles.write_ground_truth(args.out_gt, gt)
    motfiles.write_detections(args.out_dets, dets)
    print(f"generated {scene.frames} frames, {len(scene.agents)} agents")
    return 0


def _parse_grid(spec: str, scenes: bool) -> list[dict]:
    """`key=v1,v2;key2=w1,w2` -> cartesian product of override dicts.

    With ``scenes``, each scene sets the frame size, so the grid may not.
    """
    types = field_types(TrackerConfig)
    axes = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, values = part.partition("=")
        key = key.strip()
        where = f"grid key {key!r}"
        if key not in types:
            raise motfiles.ConfigError(f"unknown {where}")
        if key in axes:
            raise motfiles.ConfigError(f"{where} given twice")
        if scenes and key in ("frame_width", "frame_height"):
            raise motfiles.ConfigError(
                f"{where} cannot vary with --scene: each scene sets its frame size")
        axis = [motfiles.coerce_value(types[key], v.strip(), where) for v in values.split(",") if v.strip()]
        if not axis:
            raise motfiles.ConfigError(f"{where} has no values")
        for i, value in enumerate(axis):
            if value in axis[:i]:
                raise motfiles.ConfigError(f"{where}: value {value!r} given twice")
        axes[key] = axis
    if not axes:
        raise motfiles.ConfigError("empty grid spec")
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def _inputs(scene_paths, dets_path, gt_path=None) -> list:
    """``(gt, detection frames, frame-size overrides)`` per scene; else the parsed files and no overrides."""
    if not scene_paths:
        gt = motfiles.parse_ground_truth(gt_path) if gt_path else None
        return [(gt, motfiles.parse_detections(dets_path), {})]
    inputs = []
    for scene in map(motfiles.load_scene, scene_paths):
        gt, dets = synth.generate(scene)
        inputs.append((gt, dets, {"frame_width": scene.frame_width, "frame_height": scene.frame_height}))
    return inputs


# Table column -> MetricsReport field. A cell sums the counts over its inputs
# and weights the rates, the first three, by each input's GT boxes.
_POOLED = {"MOTA": "mota", "IDF1": "idf1", "HOTA": "hota", "FP": "fp", "FN": "fn",
           "IDSW": "idsw", "FM": "fm", "MT": "mt", "ML": "ml", "GT": "gt_total"}
_RATES = ("MOTA", "IDF1", "HOTA")


def run_ablation_cell(payload) -> dict:
    """One grid cell: run the tracker over every built input, pool the metrics."""
    cfg, overrides, inputs, iou = payload
    totals = dict.fromkeys(_POOLED, 0)
    frames_done = 0
    elapsed = 0.0
    for gt, dets, size in inputs:
        tracker = Tracker(dataclasses.replace(cfg, **size))
        t0 = time.perf_counter()
        outputs = [tracker.step(fd) for fd in dets]
        elapsed += time.perf_counter() - t0
        frames_done += len(outputs)
        report = evaluate(gt, motfiles.outputs_to_trajectories(outputs), iou_thr=iou)
        for col, name in _POOLED.items():
            totals[col] += getattr(report, name) * (report.gt_total if col in _RATES else 1)
    gt_total = max(totals["GT"], 1)
    row = dict(overrides)
    row.update({col: total / gt_total if col in _RATES else total for col, total in totals.items()})
    row["FPS"] = (frames_done / elapsed) if elapsed > 0 else 0.0
    return row


def _cmd_ablate(args) -> int:
    cells = _parse_grid(args.grid, bool(args.scene))
    base = motfiles.load_config(args.config)
    configs = [dataclasses.replace(base, **overrides) for overrides in cells]
    # Every cell and the worker cap are checked before any input is built, so
    # a bad late cell fails at once.
    for cfg in configs:
        cfg.validate()
    workers = min(len(configs), os.cpu_count() or 1)
    cap = os.environ.get("MESH_SORT_THREADS")
    if cap:
        if not (cap.isdecimal() and int(cap) > 0):
            raise ValueError(f"MESH_SORT_THREADS must be a positive integer, got {cap!r}")
        workers = min(workers, int(cap))
    inputs = _inputs(args.scene, args.dets, args.gt)
    payloads = [(cfg, overrides, inputs, args.iou) for cfg, overrides in zip(configs, cells)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_ablation_cell, payloads))
    else:
        rows = [run_ablation_cell(p) for p in payloads]

    params = list(cells[0].keys())
    metric_cols = ["MOTA", "IDF1", "HOTA", "FP", "FN", "IDSW", "FM", "MT", "ML", "FPS"]
    header = params + metric_cols
    lines = ["\t".join(header)]
    for row in rows:
        cells_out = [str(row[p]) for p in params]
        for col in metric_cols:
            v = row[col]
            cells_out.append(f"{v:.4f}" if isinstance(v, float) else str(v))
        lines.append("\t".join(cells_out))
    table = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(table)
    sys.stdout.write(table)
    return 0


def _cmd_bench(args) -> int:
    scenes = [args.scene] if args.scene else []
    cfg = motfiles.load_config(args.config)
    [(_, dets, size)] = _inputs(scenes, args.dets)
    tracker = Tracker(dataclasses.replace(cfg, **size))
    t0 = time.perf_counter()
    for fd in dets:
        tracker.step(fd)
    elapsed = time.perf_counter() - t0
    stats = tracker.stats()
    fps = len(dets) / elapsed if elapsed > 0 else float("inf")
    print(f"frames={len(dets)} elapsed={elapsed:.3f}s fps={fps:.1f}")
    print(f"predicts={stats.predicts} doomed_predicts={stats.doomed_predicts} "
          f"spawned={stats.spawned} removed={stats.removed}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshsort",
        description="Location-aware multi-object tracker, evaluator, and scene generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="run the tracker over a detection file")
    p.add_argument("--config", help="flat key = value tracker configuration")
    p.add_argument("--dets", required=True, help="detection file (10-field lines)")
    p.add_argument("--out", required=True, help="result file to write")
    p.add_argument("--emit-virtual", action="store_true",
                   help="also emit maintained (virtual) boxes")
    p.add_argument("--mesh-out", help="write the final loss-grid counts and frequent cells here")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval", help="score a result file against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--res", required=True)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--format", choices=("table", "kv"), default="table")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate ground truth and detections from a scene file")
    p.add_argument("--scene", required=True)
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-dets", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ablate", help="sweep config values and tabulate pooled metrics")
    p.add_argument("--config", help="base configuration file")
    p.add_argument("--grid", required=True, help="e.g. 'lost_maintain_frames=0,3;mesh_cols=4'")
    p.add_argument("--scene", action="append", help="scene file (repeatable)")
    p.add_argument("--dets", help="detection file (requires --gt)")
    p.add_argument("--gt", help="ground-truth file for --dets")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--out", required=True, help="table file to write")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("bench", help="report tracking frames per second")
    p.add_argument("--config")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--dets")
    source.add_argument("--scene")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ablate" and args.scene and (args.dets or args.gt):
        parser.error("ablate takes --scene or --dets with --gt, not both")
    if args.command == "ablate" and not args.scene and not (args.dets and args.gt):
        parser.error("ablate needs --scene or both --dets and --gt")
    try:
        return args.func(args)
    except (OSError, ValueError, MetricsError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
