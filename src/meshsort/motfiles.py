"""MOT-convention text files: detections, ground truth, results, flat configs.

Detection and result lines carry ten comma-separated fields::

    frame,id,left,top,width,height,conf,-1,-1,-1

Ground-truth lines carry nine: frame,id,left,top,width,height,flag,class,
visibility; only active (flag 1) class-1 rows are kept. Reals are written
with two decimals so byte-identical reruns diff cleanly.

A reader parses the whole file in one numeric pass and checks every row with
array masks. Only when that pass fails or a mask is set is the file read
again line by line (:func:`_rows` plus the reader's own line check), which
raises the first bad line's :class:`ParseError` or, for what only the line
grammar accepts (whitespace-only lines, ``1_0``), returns the rows. Readers
return arrays: one :class:`~meshsort.pipeline.Detections` view per frame over
the file's box and score columns, or one
:class:`~meshsort.metrics.TrajectorySet`. A writer formats the whole file in
one ``%`` call, straight from those arrays.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .config import TrackerConfig
from .geometry import MAX_COORD
from .metrics import TrajectorySet
from .pipeline import Detections, FrameDetections, FrameOutput, Records
from .synth import SceneConfig, parse_scene


class ParseError(ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


# The detection reader yields every frame up to the last one in the file, so
# a frame index far past any video would allocate one empty frame per index.
_MAX_FRAME = 1_000_000
# Ids must stay exact in a float64: from 2**53 on, neighbouring ids read as one.
_MAX_ID = 2.0 ** 53
_ID = 1  # the id column, bounded by _MAX_ID where it is a whole-number field


def _rows(path, n_fields: int, whole: dict[int, str]):
    """Yield ``(lineno, fields)`` for each non-blank line of a MOT file.

    Every byte must be ASCII, every field a finite number, the fields named in
    ``whole`` whole numbers (an id also below ``_MAX_ID`` in magnitude), the
    frame index (field 0) lie in [1, ``_MAX_FRAME``], and no box field (2-5:
    left, top, width, height) exceed ``MAX_COORD`` in magnitude (a negative
    size is left to the size checks).
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            _check_ascii(path, lineno, raw)
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
                if not values[k].is_integer() or (k == _ID and abs(values[k]) >= _MAX_ID):
                    raise ParseError(path, lineno, f"bad {name} {parts[k]}")
            if not 1 <= values[0] <= _MAX_FRAME:
                raise ParseError(path, lineno, f"bad frame index {parts[0]}")
            if (abs(values[2]) > MAX_COORD or abs(values[3]) > MAX_COORD
                    or values[4] > MAX_COORD or values[5] > MAX_COORD):
                field = next(p for p, v in zip(parts[2:6], values[2:6]) if abs(v) > MAX_COORD)
                raise ParseError(path, lineno, f"box field {field} beyond {MAX_COORD:g} px")
            yield lineno, values


def _check_ascii(path, lineno: int, line: str) -> None:
    """Raise the error naming the first non-ASCII byte of a line read with ``surrogateescape``."""
    if not line.isascii():
        byte = next(ord(c) - 0xDC00 for c in line if not c.isascii())
        raise ParseError(path, lineno, f"non-ASCII byte {byte:#04x}")


def _ascii_text(path) -> str:
    """A flat text file's contents; a non-ASCII byte raises the error naming its line."""
    text = Path(path).read_text(encoding="ascii", errors="surrogateescape")
    if not text.isascii():
        for lineno, line in enumerate(text.splitlines(), start=1):
            _check_ascii(path, lineno, line)
    return text


def _field_error(path, lineno: int, parts: list[str]) -> ParseError:
    """The error naming the first of a line's fields that is not a finite number."""
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            return ParseError(path, lineno, f"non-numeric field {part!r}")
        if not math.isfinite(value):
            return ParseError(path, lineno, f"non-finite field {part!r}")


def _bad_fields(table: np.ndarray, whole: dict[int, str]) -> np.ndarray:
    """Row mask of :func:`_rows`' checks after the field count."""
    bad = ~np.isfinite(table).all(axis=1)
    for k in whole:
        bad |= table[:, k] != np.floor(table[:, k])
    if _ID in whole:
        bad |= np.abs(table[:, _ID]) >= _MAX_ID
    bad |= (table[:, 0] < 1) | (table[:, 0] > _MAX_FRAME)
    bad |= (np.abs(table[:, 2:4]) > MAX_COORD).any(axis=1) | (table[:, 4:6] > MAX_COORD).any(axis=1)
    return bad


def _table(path, n_fields: int, whole: dict[int, str],
           bad_rows: Callable[[np.ndarray], np.ndarray],
           check_line: Callable[[int, list[float]], None]) -> np.ndarray:
    """Every non-blank line of a MOT file as one row of an ``(n, n_fields)`` float64 array.

    ``bad_rows`` masks the rows that fail the reader's own checks, and
    ``check_line`` raises the same failures for one line. The line reader
    runs only when the numeric pass raises (or warns: an empty file) or a
    mask is set.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, encoding="ascii")
        clean = table.shape[1] == n_fields and not (_bad_fields(table, whole) | bad_rows(table)).any()
    except (ValueError, Warning):  # a non-ASCII byte, a field float() or loadtxt rejects, no rows
        clean = False
    if clean:
        return table
    rows = []
    for lineno, values in _rows(path, n_fields, whole):
        check_line(lineno, values)
        rows.append(values)
    return np.array(rows, dtype=np.float64).reshape(-1, n_fields)


def _bad_size(table: np.ndarray) -> np.ndarray:
    return (table[:, 4] <= 0) | (table[:, 5] <= 0)


def _check_size(path, lineno: int, v: list[float]) -> None:
    if v[4] <= 0 or v[5] <= 0:
        raise ParseError(path, lineno, "non-positive box size")


def _outside_unit(column: np.ndarray) -> np.ndarray:
    return ~((column >= 0.0) & (column <= 1.0))


def _repeats(table: np.ndarray) -> np.ndarray:
    """Row mask of ``(frame, id)`` pairs already seen on an earlier row."""
    order = np.lexsort((table[:, 0], table[:, 1]))  # stable: equal pairs keep file order
    frame, tid = table[order, 0], table[order, 1]
    repeat = np.zeros(len(table), dtype=bool)
    repeat[order[1:]] = (frame[1:] == frame[:-1]) & (tid[1:] == tid[:-1])
    return repeat


def _bad_track_rows(table: np.ndarray) -> np.ndarray:
    """Row mask of :func:`_check_track_line` for the rows a trajectory keeps."""
    return _bad_size(table) | _repeats(table)


def _check_track_line(path, lineno: int, v: list[float], seen: set[tuple[int, int]]) -> None:
    """A kept trajectory line has a positive size and a ``(frame, id)`` not in ``seen``."""
    _check_size(path, lineno, v)
    key = (int(v[0]), int(v[1]))
    if key in seen:
        raise ParseError(path, lineno, f"duplicate frame {key[0]} for id {key[1]}")
    seen.add(key)


def _trajectories(table: np.ndarray, kept: np.ndarray | slice = slice(None)) -> TrajectorySet:
    """The ``kept`` rows as trajectories: ids by first appearance, each id's frames in file order."""
    table = table[kept]
    return TrajectorySet.from_rows(table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2:6])


def parse_detections(path) -> list[FrameDetections]:
    """Read a detection file into one group per frame, from frame 1 to the last in the file.

    Frames without detection lines get an empty group, so the tracker ages
    its tracks over them; within a frame, detections keep their file order.
    The id column is ignored; confidences must lie in [0, 1].
    """
    def check_line(lineno: int, v: list[float]) -> None:
        _check_size(path, lineno, v)
        if not 0.0 <= v[6] <= 1.0:
            raise ParseError(path, lineno, f"confidence {v[6]} outside [0, 1]")

    table = _table(path, 10, {0: "frame index"},
                   lambda t: _bad_size(t) | _outside_unit(t[:, 6]), check_line)
    table = table[np.argsort(table[:, 0], kind="stable")]
    frames = table[:, 0].astype(np.int64)
    last = int(frames[-1]) if len(frames) else 0
    bounds = np.searchsorted(frames, np.arange(1, last + 2)).tolist()
    views = Detections.split(np.ascontiguousarray(table[:, 2:6]), table[:, 6].copy(), bounds)
    return [FrameDetections(index=frame, detections=dets) for frame, dets in enumerate(views, start=1)]


def parse_results(path) -> TrajectorySet:
    """Read a result file (same 10-field grammar, real ids) as trajectories."""
    seen: set[tuple[int, int]] = set()
    return _trajectories(_table(path, 10, {0: "frame index", 1: "id"}, _bad_track_rows,
                                lambda lineno, v: _check_track_line(path, lineno, v, seen)))


def parse_ground_truth(path) -> TrajectorySet:
    """Read a ground-truth file; keeps active class-1 rows only.

    The visibility column is validated but not used for filtering.
    """
    def active(table: np.ndarray) -> np.ndarray:
        return (table[:, 6] == 1) & (table[:, 7] == 1)

    def bad_rows(table: np.ndarray) -> np.ndarray:
        bad = _outside_unit(table[:, 8])
        kept = active(table)
        bad[kept] |= _bad_track_rows(table[kept])
        return bad

    seen: set[tuple[int, int]] = set()

    def check_line(lineno: int, v: list[float]) -> None:
        if not 0.0 <= v[8] <= 1.0:
            raise ParseError(path, lineno, f"visibility {v[8]} outside [0, 1]")
        if v[6] == 1 and v[7] == 1:
            _check_track_line(path, lineno, v, seen)

    table = _table(path, 9, {0: "frame index", 1: "id", 6: "flag", 7: "class"}, bad_rows, check_line)
    return _trajectories(table, active(table))


# One line per row: frame, id, the box at two decimals, then the format's tail.
_SCORED_LINE = "%s,%s,%.2f,%.2f,%.2f,%.2f,%.2f,-1,-1,-1\n"
_GT_LINE = "%s,%s,%.2f,%.2f,%.2f,%.2f,1,1,1.00\n"


def _write(path, line: str, order: np.ndarray, *columns: np.ndarray) -> None:
    """Write ``line`` once per row of ``columns`` taken in ``order``, one ``%`` directive per column.

    A 2-D column (the boxes) gives one directive per array column.
    """
    lists = [c.T.tolist() if c.ndim == 2 else [c.tolist()] for c in (c[order] for c in columns)]
    fields = tuple(chain.from_iterable(zip(*chain.from_iterable(lists))))
    Path(path).write_text((line * len(order)) % fields, encoding="ascii")


def _frame_of_rows(frames: list, views: list) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``views`` (one view per frame): its frame index and its frame's position in ``frames``."""
    counts = list(map(len, views))
    return (np.repeat(np.array([f.index for f in frames], dtype=np.int64), counts),
            np.repeat(np.arange(len(frames)), counts))


def write_results(path, outputs: Iterable[FrameOutput]) -> None:
    """One line per (frame, id), frames then ids ascending, reals at 2 decimals."""
    outputs = sorted(outputs, key=lambda fo: fo.index)
    views = [fo.records for fo in outputs]
    frame, position = _frame_of_rows(outputs, views)
    recs = Records.concat(views)
    _write(path, _SCORED_LINE, np.lexsort((recs.ids, position)), frame, recs.ids, recs.boxes, recs.scores)


def write_detections(path, frames: Iterable[FrameDetections]) -> None:
    """One line per detection, frames ascending; a frame without detections writes nothing."""
    frames = sorted(frames, key=lambda fd: fd.index)
    views = [fd.detections for fd in frames]
    frame, _ = _frame_of_rows(frames, views)
    dets = Detections.concat(views)
    _write(path, _SCORED_LINE, np.arange(len(frame)), frame, np.full(len(frame), -1), dets.boxes, dets.scores)


def write_ground_truth(path, trajs: TrajectorySet) -> None:
    """One active class-1 line per (frame, id), ascending, visibility 1."""
    trajs = TrajectorySet.of(trajs)
    ids = np.repeat(trajs.ids, np.diff(trajs.start))
    _write(path, _GT_LINE, np.lexsort((ids, trajs.frames)), trajs.frames, ids, trajs.boxes)


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
    return parse_config_text(_ascii_text(path))


def load_scene(path) -> SceneConfig:
    return parse_scene(_ascii_text(path))


def outputs_to_trajectories(outputs: Iterable[FrameOutput]) -> TrajectorySet:
    """View tracker output as trajectories for the evaluator."""
    outputs = list(outputs)
    views = [fo.records for fo in outputs]
    recs = Records.concat(views)
    return TrajectorySet.from_rows(_frame_of_rows(outputs, views)[0], recs.ids, recs.boxes)
