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


# The detection reader yields every frame up to the last one in the file, so
# a frame index far past any video would allocate one empty frame per index.
_MAX_FRAME = 1_000_000
# Box fields beyond this many pixels are far past any frame; the filter's
# area variances grow as height**4, so such boxes would overflow it.
_MAX_COORD = 1e7


def _rows(path, n_fields: int, whole: dict[int, str]):
    """Yield ``(lineno, fields)`` for each non-blank line of a MOT file.

    Every field must be a finite number, the fields named in ``whole`` whole
    numbers, the frame index (field 0) lie in [1, ``_MAX_FRAME``], and no box
    field (2-5: left, top, width, height) exceed ``_MAX_COORD`` in magnitude
    (a negative size is left to the size checks).
    """
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_fields:
                raise ParseError(path, lineno, f"expected {n_fields} fields, got {len(parts)}")
            try:
                values = list(map(float, parts))
            except ValueError:
                raise _field_error(path, lineno, parts) from None
            if not all(map(math.isfinite, values)):
                raise _field_error(path, lineno, parts)
            for k, name in whole.items():
                if not values[k].is_integer():
                    raise ParseError(path, lineno, f"bad {name} {parts[k]}")
            if not 1 <= values[0] <= _MAX_FRAME:
                raise ParseError(path, lineno, f"bad frame index {parts[0]}")
            if (abs(values[2]) > _MAX_COORD or abs(values[3]) > _MAX_COORD
                    or values[4] > _MAX_COORD or values[5] > _MAX_COORD):
                field = next(p for p, v in zip(parts[2:6], values[2:6]) if abs(v) > _MAX_COORD)
                raise ParseError(path, lineno, f"box field {field} beyond {_MAX_COORD:g} px")
            yield lineno, values


def _field_error(path, lineno: int, parts: list[str]) -> ParseError:
    """The error naming the first of a line's fields that is not a finite number."""
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            return ParseError(path, lineno, f"non-numeric field {part!r}")
        if not math.isfinite(value):
            return ParseError(path, lineno, f"non-finite field {part!r}")


def _box(path, lineno: int, v: list[float]) -> BoundingBox:
    if v[4] <= 0 or v[5] <= 0:
        raise ParseError(path, lineno, "non-positive box size")
    return BoundingBox(v[2], v[3], v[4], v[5])


def _trajectories(path, rows) -> TrajectorySet:
    trajs: TrajectorySet = defaultdict(dict)
    for lineno, v in rows:
        box = _box(path, lineno, v)
        frame, tid = int(v[0]), int(v[1])
        if frame in trajs[tid]:
            raise ParseError(path, lineno, f"duplicate frame {frame} for id {tid}")
        trajs[tid][frame] = box
    return dict(trajs)


def parse_detections(path) -> list[FrameDetections]:
    """Read a detection file into one group per frame, from frame 1 to the last in the file.

    Frames without detection lines get an empty group, so the tracker ages
    its tracks over them. The id column is ignored; confidences must lie in
    [0, 1].
    """
    by_frame: dict[int, list[Detection]] = defaultdict(list)
    for lineno, v in _rows(path, 10, {0: "frame index"}):
        box = _box(path, lineno, v)
        if not 0.0 <= v[6] <= 1.0:
            raise ParseError(path, lineno, f"confidence {v[6]} outside [0, 1]")
        by_frame[int(v[0])].append(Detection(box, v[6]))
    return [
        FrameDetections(index=frame, detections=tuple(by_frame.get(frame, ())))
        for frame in range(1, max(by_frame, default=0) + 1)
    ]


def parse_results(path) -> TrajectorySet:
    """Read a result file (same 10-field grammar, real ids) as trajectories."""
    return _trajectories(path, _rows(path, 10, {0: "frame index", 1: "id"}))


def parse_ground_truth(path) -> TrajectorySet:
    """Read a ground-truth file; keeps active class-1 rows only.

    The visibility column is validated but not used for filtering.
    """
    def active():
        for lineno, v in _rows(path, 9, {0: "frame index", 1: "id", 6: "flag", 7: "class"}):
            if not 0.0 <= v[8] <= 1.0:
                raise ParseError(path, lineno, f"visibility {v[8]} outside [0, 1]")
            if v[6] == 1 and v[7] == 1:
                yield lineno, v

    return _trajectories(path, active())


def _write(path, rows) -> None:
    """One line per ``(frame, id, box, tail)`` row, box reals at two decimals."""
    Path(path).write_text("".join([
        f"{frame},{tid},{b.left:.2f},{b.top:.2f},{b.width:.2f},{b.height:.2f},{tail}\n"
        for frame, tid, b, tail in rows
    ]), encoding="ascii")


def write_results(path, outputs: Iterable[FrameOutput]) -> None:
    """One line per (frame, id), frames then ids ascending, reals at 2 decimals."""
    _write(path, [
        (fo.index, rec.track_id, rec.box, f"{rec.score:.2f},-1,-1,-1")
        for fo in sorted(outputs, key=lambda fo: fo.index)
        for rec in sorted(fo.records, key=lambda r: r.track_id)
    ])


def write_detections(path, frames: Iterable[FrameDetections]) -> None:
    """One line per detection, frames ascending; a frame without detections writes nothing."""
    _write(path, [
        (fd.index, -1, det.box, f"{det.score:.2f},-1,-1,-1")
        for fd in sorted(frames, key=lambda fd: fd.index)
        for det in fd.detections
    ])


def write_ground_truth(path, trajs: TrajectorySet) -> None:
    """One active class-1 line per (frame, id), ascending, visibility 1."""
    _write(path, sorted(
        (frame, tid, box, "1,1,1.00") for tid, per_frame in trajs.items() for frame, box in per_frame.items()
    ))


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
