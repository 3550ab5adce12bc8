"""MOT-convention text files: detections, ground truth, results, flat configs.

Detection and result lines carry ten comma-separated fields::

    frame,id,left,top,width,height,conf,-1,-1,-1

Ground-truth lines carry nine: frame,id,left,top,width,height,flag,class,
visibility; only active (flag 1) class-1 rows are kept. Reals are written
with two decimals so byte-identical reruns diff cleanly.
"""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict
from pathlib import Path
from typing import Iterable

from .config import TrackerConfig
from .geometry import BoundingBox
from .metrics import TrajectorySet
from .pipeline import Detection, FrameDetections, FrameOutput
from .synth import SceneConfig, parse_scene


class ParseError(ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


def _split_numeric(path, lineno: int, line: str, n_fields: int) -> list[float]:
    parts = line.split(",")
    if len(parts) != n_fields:
        raise ParseError(path, lineno, f"expected {n_fields} fields, got {len(parts)}")
    values = []
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            raise ParseError(path, lineno, f"non-numeric field {part!r}") from None
        if not math.isfinite(value):
            raise ParseError(path, lineno, f"non-finite field {part!r}")
        values.append(value)
    return values


def parse_detections(path) -> list[FrameDetections]:
    """Read a detection file into per-frame groups, ascending by frame index.

    The id column is ignored; confidences must lie in [0, 1].
    """
    by_frame: dict[int, list[Detection]] = defaultdict(list)
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            vals = _split_numeric(path, lineno, line, 10)
            frame = int(vals[0])
            if frame != vals[0] or frame < 1:
                raise ParseError(path, lineno, f"bad frame index {vals[0]}")
            if vals[4] <= 0 or vals[5] <= 0:
                raise ParseError(path, lineno, "non-positive box size")
            if not 0.0 <= vals[6] <= 1.0:
                raise ParseError(path, lineno, f"confidence {vals[6]} outside [0, 1]")
            box = BoundingBox(vals[2], vals[3], vals[4], vals[5])
            by_frame[frame].append(Detection(box, vals[6]))
    return [
        FrameDetections(index=frame, detections=tuple(by_frame[frame]))
        for frame in sorted(by_frame)
    ]


def parse_results(path) -> TrajectorySet:
    """Read a result file (same 10-field grammar, real ids) as trajectories."""
    trajs: TrajectorySet = defaultdict(dict)
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            vals = _split_numeric(path, lineno, line, 10)
            frame, tid = int(vals[0]), int(vals[1])
            if frame < 1:
                raise ParseError(path, lineno, f"bad frame index {vals[0]}")
            if vals[4] <= 0 or vals[5] <= 0:
                raise ParseError(path, lineno, "non-positive box size")
            if frame in trajs[tid]:
                raise ParseError(path, lineno, f"duplicate frame {frame} for id {tid}")
            trajs[tid][frame] = BoundingBox(vals[2], vals[3], vals[4], vals[5])
    return dict(trajs)


def parse_ground_truth(path) -> TrajectorySet:
    """Read a ground-truth file; keeps active class-1 rows only.

    The visibility column is validated but not used for filtering.
    """
    trajs: TrajectorySet = defaultdict(dict)
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            vals = _split_numeric(path, lineno, line, 9)
            frame, tid = int(vals[0]), int(vals[1])
            if frame < 1:
                raise ParseError(path, lineno, f"bad frame index {vals[0]}")
            if not 0.0 <= vals[8] <= 1.0:
                raise ParseError(path, lineno, f"visibility {vals[8]} outside [0, 1]")
            if int(vals[6]) != 1 or int(vals[7]) != 1:
                continue
            if vals[4] <= 0 or vals[5] <= 0:
                raise ParseError(path, lineno, "non-positive box size")
            if frame in trajs[tid]:
                raise ParseError(path, lineno, f"duplicate frame {frame} for id {tid}")
            trajs[tid][frame] = BoundingBox(vals[2], vals[3], vals[4], vals[5])
    return dict(trajs)


def write_results(path, outputs: Iterable[FrameOutput]) -> None:
    """One line per (frame, id), frames then ids ascending, reals at 2 decimals."""
    lines = []
    for fo in sorted(outputs, key=lambda fo: fo.index):
        for rec in sorted(fo.records, key=lambda r: r.track_id):
            b = rec.box
            lines.append(
                f"{fo.index},{rec.track_id},{b.left:.2f},{b.top:.2f},"
                f"{b.width:.2f},{b.height:.2f},{rec.score:.2f},-1,-1,-1"
            )
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="ascii")


def write_detections(path, frames: Iterable[FrameDetections]) -> None:
    lines = []
    for fd in sorted(frames, key=lambda fd: fd.index):
        for det in fd.detections:
            b = det.box
            lines.append(
                f"{fd.index},-1,{b.left:.2f},{b.top:.2f},"
                f"{b.width:.2f},{b.height:.2f},{det.score:.2f},-1,-1,-1"
            )
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="ascii")


def write_ground_truth(path, trajs: TrajectorySet) -> None:
    lines = []
    entries = []
    for tid, per_frame in trajs.items():
        for frame, box in per_frame.items():
            entries.append((frame, tid, box))
    for frame, tid, b in sorted(entries):
        lines.append(
            f"{frame},{tid},{b.left:.2f},{b.top:.2f},{b.width:.2f},{b.height:.2f},1,1,1.00"
        )
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="ascii")


class ConfigError(ValueError):
    pass


def parse_config_text(text: str, base: TrackerConfig | None = None) -> TrackerConfig:
    """Flat ``key = value`` tracker configuration; unknown keys are rejected."""
    cfg = dataclasses.replace(base) if base is not None else TrackerConfig()
    types = TrackerConfig.field_types()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        setattr(cfg, key, coerce_value(types[key], value, lineno))
    cfg.validate()
    return cfg


def coerce_value(kind: type, value: str, lineno: int = 0):
    if kind is bool:
        lowered = value.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"config line {lineno}: bad boolean {value!r}")
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"config line {lineno}: bad {kind.__name__} {value!r}") from None


def load_config(path) -> TrackerConfig:
    return parse_config_text(Path(path).read_text(encoding="ascii"))


def load_scene(path) -> SceneConfig:
    return parse_scene(Path(path).read_text(encoding="ascii"))


def outputs_to_trajectories(outputs: Iterable[FrameOutput]) -> TrajectorySet:
    """View tracker output as trajectories for the evaluator."""
    trajs: TrajectorySet = defaultdict(dict)
    for fo in outputs:
        for rec in fo.records:
            trajs[rec.track_id][fo.index] = rec.box
    return dict(trajs)
