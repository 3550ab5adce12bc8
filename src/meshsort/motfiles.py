"""MOT-convention text files: detections, ground truth, results; flat tracker configs and scenes.

Detection and result lines carry ten comma-separated fields::

    frame,id,left,top,width,height,conf,-1,-1,-1

Ground-truth lines carry nine: frame,id,left,top,width,height,flag,class,
visibility; only active (flag 1) class-1 rows are kept. Reals are written
with two decimals so byte-identical reruns diff cleanly.

A reader parses the whole file in one numeric pass (``numpy.loadtxt``). Only
if that fails does :func:`_rows` walk it line by line, just splitting lines
into fields; it stops at the first line that is not ASCII, has another field
count or holds a field ``float`` rejects. Every other check is one rule in the
reader's ordered rule list, a row mask plus the message for one line, run
over the table on both paths: the earliest row that breaks a rule, if it
comes before the walk's stop, raises the :class:`ParseError` of the first
rule it breaks, its line found by walking the non-blank lines again. A field
that must hold a whole number is judged by its token, not only its float:
``1.0000000000000001`` reads as 1.0 but is not frame 1. One blockwise pass
over the file's bytes finds whether any token could hide such a fraction,
and only then are the lines walked, each such token judged from its digits.
Readers return arrays: one :class:`~meshsort.pipeline.Detections` view per
frame over the file's box and score columns, or one
:class:`~meshsort.metrics.TrajectorySet`. A writer formats the whole file in
one ``%`` call, straight from those arrays.

Tracker configs and scenes share one flat ``key = value`` grammar, whose
scalar keys and types are the fields of their dataclasses. A key given twice,
and a scene's unknown, repeated or malformed agent field, fail with the line.
"""

from __future__ import annotations

import math
import warnings
from decimal import Decimal
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .config import TrackerConfig, field_types
from .geometry import MAX_COORD, BoundingBox, check_box_range, degenerate
from .metrics import TrajectorySet
from .pipeline import Detections, FrameDetections, FrameOutput, Records
from .synth import MAX_FRAME, AgentSpec, SceneConfig


class ParseError(ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


# Ids must stay exact in a float64: from 2**53 on, neighbouring ids read as one.
_MAX_ID = 2.0 ** 53


def _lines(path):
    """Yield ``(lineno, line)`` for each non-blank line of a file, stripped."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield lineno, line


def _rows(path, n_fields: int) -> tuple[np.ndarray, ParseError | None]:
    """The non-blank lines of a MOT file as rows of ``n_fields`` floats, and the error that stopped them.

    The walk stops at the first line that is not ASCII, has another field
    count or holds a field ``float`` rejects; the rows before it are kept.
    """
    rows, stop = [], None
    try:
        for lineno, line in _lines(path):
            _check_ascii(path, lineno, line)
            parts = line.split(",")
            if len(parts) != n_fields:
                raise ParseError(path, lineno, f"expected {n_fields} fields, got {len(parts)}")
            try:
                rows.append(list(map(float, parts)))
            except ValueError:
                raise ParseError(path, lineno, _field_error(parts)) from None
    except ParseError as error:
        stop = error
    return np.array(rows, dtype=np.float64).reshape(-1, n_fields), stop


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


def _field_error(parts: list[str]) -> str:
    """The message naming the first of a line's fields that is not a finite number."""
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            return f"non-numeric field {part!r}"
        if not math.isfinite(value):
            return f"non-finite field {part!r}"


# A row rule: the mask of the table rows that break it, and the message for one
# such line from its raw fields and its values.
_Rule = tuple[Callable[[np.ndarray], np.ndarray], Callable[[list[str], list[float]], str]]


def _table(path, n_fields: int, whole: dict[int, tuple[str, float]], rules: list[_Rule]) -> np.ndarray:
    """Every non-blank line of a MOT file as one row of an ``(n, n_fields)`` float64 array.

    The line walk runs when the numeric pass raises, warns (no rows) or reads
    another width. ``whole`` maps each field that must hold a whole number to
    its name and the bound on its magnitude; those rules follow the
    finite-field rule, then come ``rules``. The earliest line that breaks a
    rule raises the first rule it breaks, unless the walk stopped on an
    earlier line.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, encoding="ascii")
    except (ValueError, Warning):  # a non-ASCII byte, a field float() or loadtxt rejects, no rows
        table = np.empty((0, 0))
    table, stop = (table, None) if table.shape[1] == n_fields else _rows(path, n_fields)
    fractions = _fractions(path, table, list(whole))
    rules = [_FINITE, *(_whole(k, name, bound, fraction)
                        for (k, (name, bound)), fraction in zip(whole.items(), fractions.T)), *rules]
    masks = [mask(table) for mask, _ in rules]
    bad = np.logical_or.reduce(masks)
    if bad.any():
        row = int(bad.argmax())
        lineno, line = next(islice(_lines(path), row, None))
        message = next(message for hit, (_, message) in zip(masks, rules) if hit[row])
        raise ParseError(path, lineno, message(line.split(","), table[row].tolist()))
    if stop is not None:
        raise stop
    return table


# Bytes of a number's mantissa (digits, point, underscore) become b"1" and an
# exponent mark b"e"; every other byte stays as it is.
_MARKS = bytes.maketrans(b"0123456789._eE", b"111111111111ee")


def _may_hide_fractions(path) -> bool:
    """Whether a token of the file could name a fraction although its float is whole.

    ``1.0000000000000001`` reads as 1.0. A token with at most 15 significant
    digits that names a fraction lies at least 1e-15 of its size from every
    whole number, farther than float64 rounds, so such a token needs a run of
    16 mantissa bytes, or an underflow to zero, whose exponent has three
    digits (``1e-324``). The file is read in blocks, so the test holds little
    memory.
    """
    tail = b""
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            marks = tail + block.translate(_MARKS)
            if b"1" * 16 in marks or b"e-111" in marks:
                return True
            tail = marks[-16:]
    return False


def _names_fraction(token: str) -> bool:
    """Whether a number's token names a fraction, judged from its digits.

    The exponent stays an int and is never raised to a power, so
    ``1e-99999999`` costs what ``1e-1`` does. A non-finite token names none.
    """
    _, digits, exponent = Decimal(token).as_tuple()
    return isinstance(exponent, int) and exponent < 0 and any(digits[exponent:])


def _fractions(path, table: np.ndarray, fields: list[int]) -> np.ndarray:
    """``(rows, len(fields))`` mask of the tokens that name a fraction although their float may be whole.

    Only a file that :func:`_may_hide_fractions` flags has its lines walked.
    """
    found = np.zeros((len(table), len(fields)), dtype=bool)
    if len(table) and fields and _may_hide_fractions(path):
        for row, (_, line) in zip(range(len(table)), _lines(path)):
            parts = line.split(",")
            found[row] = [_names_fraction(parts[k]) for k in fields]
    return found


def _whole(k: int, name: str, bound: float, fraction: np.ndarray) -> _Rule:
    """Field ``k`` is a whole number below ``bound`` in magnitude, as written.

    ``fraction`` marks the rows whose token names a fraction that its float lost.
    """
    return (lambda t: (t[:, k] != np.floor(t[:, k])) | (np.abs(t[:, k]) >= bound) | fraction,
            lambda parts, v: f"bad {name} {parts[k]}")


def _beyond_coord(parts: list[str], v: list[float]) -> str:
    field = next(p for p, x in zip(parts[2:6], v[2:6]) if abs(x) > MAX_COORD)
    return f"box field {field} beyond {MAX_COORD:g} px"


def _outside_unit(k: int, name: str) -> _Rule:
    return lambda t: ~((t[:, k] >= 0.0) & (t[:, k] <= 1.0)), lambda parts, v: f"{name} {v[k]} outside [0, 1]"


def _repeats(table: np.ndarray) -> np.ndarray:
    """Row mask of ``(frame, id)`` pairs already seen on an earlier row."""
    order = np.lexsort((table[:, 0], table[:, 1]))  # stable: equal pairs keep file order
    frame, tid = table[order, 0], table[order, 1]
    repeat = np.zeros(len(table), dtype=bool)
    repeat[order[1:]] = (frame[1:] == frame[:-1]) & (tid[1:] == tid[:-1])
    return repeat


def _active(table: np.ndarray) -> np.ndarray:
    """Ground-truth rows with flag 1 and class 1."""
    return (table[:, 6] == 1) & (table[:, 7] == 1)


def _if_active(rule: _Rule) -> _Rule:
    """``rule`` applied to the active ground-truth rows only; its mask sees just those rows."""
    mask, message = rule

    def active_mask(table: np.ndarray) -> np.ndarray:
        kept = _active(table)
        bad = np.zeros(len(table), dtype=bool)
        bad[kept] = mask(table[kept])
        return bad
    return active_mask, message


# Each reader's rules in the order they are checked: a line that breaks several
# gets the first one's message.
_FINITE: _Rule = (lambda t: ~np.isfinite(t).all(axis=1), lambda parts, v: _field_error(parts))
# The fields that must hold whole numbers, in the order their rules run.
_FRAME = {0: ("frame index", math.inf)}
_FRAME_ID = {**_FRAME, 1: ("id", _MAX_ID)}
_GT_WHOLE = {**_FRAME_ID, 6: ("flag", math.inf), 7: ("class", math.inf)}
_FRAME_RANGE: _Rule = (lambda t: (t[:, 0] < 1) | (t[:, 0] > MAX_FRAME),
                       lambda parts, v: f"bad frame index {parts[0]}")
# A negative size is left to the size rule.
_COORD: _Rule = (lambda t: (np.abs(t[:, 2:4]) > MAX_COORD).any(axis=1) | (t[:, 4:6] > MAX_COORD).any(axis=1),
                 _beyond_coord)
_SIZE: _Rule = (lambda t: (t[:, 4] <= 0) | (t[:, 5] <= 0), lambda parts, v: "non-positive box size")
_DEGENERATE: _Rule = (lambda t: degenerate(t[:, 2:6]), lambda parts, v: "degenerate box")
_DUPLICATE: _Rule = (_repeats, lambda parts, v: f"duplicate frame {int(v[0])} for id {int(v[1])}")

_DETECTION_RULES = [_FRAME_RANGE, _COORD, _SIZE, _DEGENERATE, _outside_unit(6, "confidence")]
_RESULT_RULES = [_FRAME_RANGE, _COORD, _SIZE, _DEGENERATE, _DUPLICATE]
_GT_RULES = [_FRAME_RANGE, _COORD, _outside_unit(8, "visibility"), *map(_if_active, (_SIZE, _DEGENERATE, _DUPLICATE))]


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
    table = _table(path, 10, _FRAME, _DETECTION_RULES)
    table = table[np.argsort(table[:, 0], kind="stable")]
    frames = table[:, 0].astype(np.int64)
    last = int(frames[-1]) if len(frames) else 0
    bounds = np.searchsorted(frames, np.arange(1, last + 2)).tolist()
    views = Detections.split(np.ascontiguousarray(table[:, 2:6]), table[:, 6].copy(), bounds)
    return [FrameDetections(index=frame, detections=dets) for frame, dets in enumerate(views, start=1)]


def parse_results(path) -> TrajectorySet:
    """Read a result file (same 10-field grammar, real ids) as trajectories."""
    return _trajectories(_table(path, 10, _FRAME_ID, _RESULT_RULES))


def parse_ground_truth(path) -> TrajectorySet:
    """Read a ground-truth file; keeps active class-1 rows only.

    The visibility column is validated but not used for filtering.
    """
    table = _table(path, 9, _GT_WHOLE, _GT_RULES)
    return _trajectories(table, _active(table))


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


def _key_values(text: str, kind: str):
    """``(where, key, value)`` per ``key = value`` line, ``where`` as ``scene line 3``; ``#`` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{kind} line {lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        yield where, key, value


def _set_field(cfg, seen: set, where: str, key: str, value: str, unknown: str = "key") -> None:
    """Set the scalar field ``key`` of ``cfg`` from its text, once per file; ``seen`` holds the keys set so far."""
    types = field_types(type(cfg))
    if key not in types:
        raise ConfigError(f"{where}: unknown {unknown} {key!r}")
    if key in seen:
        raise ConfigError(f"{where}: key {key!r} given twice")
    seen.add(key)
    setattr(cfg, key, coerce_value(types[key], value, where))


def parse_config_text(text: str) -> TrackerConfig:
    """Flat ``key = value`` tracker configuration; unknown and repeated keys are rejected."""
    cfg, seen = TrackerConfig(), set()
    for where, key, value in _key_values(text, "config"):
        _set_field(cfg, seen, where, key, value)
    cfg.validate()
    return cfg


def coerce_value(kind: type, value: str, where: str):
    """``value`` as ``kind``; a bad value raises :class:`ConfigError` prefixed by ``where``."""
    if kind is bool:
        lowered = value.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{where}: bad boolean {value!r}")
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{where}: bad {kind.__name__} {value!r}") from None


def _at(where: str, call: Callable, *args):
    """``call(*args)``; a :class:`ValueError` it raises is raised again prefixed by ``where``."""
    try:
        return call(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _floats(text: str, sep: str, count: int, where: str, what: str) -> list[float]:
    """``text`` cut at ``sep`` into ``count`` floats."""
    parts = text.split(sep)
    if len(parts) != count:
        raise ConfigError(f"{where}: bad {what} {text!r}")
    return [coerce_value(float, part, where) for part in parts]


def parse_scene(text: str) -> SceneConfig:
    """Parse the plain-text scene grammar.

    Each scalar field of :class:`~meshsort.synth.SceneConfig` may have one
    ``key = value`` line. Agents and occluders repeat::

        agent = spawn:1 despawn:90 size:24x48 path:100,300@1 800,300@90
        occluder = 450,260,40,120

    Paths list ``x,y@frame`` center waypoints to the end of the line;
    occluders are ``left,top,width,height`` rectangles.
    """
    cfg, seen, agent_lines = SceneConfig(), set(), []
    for where, key, value in _key_values(text, "scene"):
        if key == "agent":
            cfg.agents.append(_parse_agent(value, where))
            agent_lines.append(where)
        elif key == "occluder":
            occluder = _at(where, BoundingBox, *_floats(value, ",", 4, where, "occluder"))
            _at(where, check_box_range, occluder)
            cfg.occluders.append(occluder)
        else:
            _set_field(cfg, seen, where, key, value, unknown="scene key")
            number = getattr(cfg, key)
            if isinstance(number, float) and not math.isfinite(number):
                raise ConfigError(f"{where}: non-finite {key} {number}")
    # Whether an agent fits depends on ``frames``, which may come on any line.
    for where, agent in zip(agent_lines, cfg.agents):
        _at(where, cfg._check_fits, agent)
    cfg.validate()
    return cfg


_AGENT_FIELDS = ("spawn", "despawn", "size", "path")


def _parse_agent(value: str, where: str) -> AgentSpec:
    """An agent line's ``spawn:N despawn:N size:WxH`` fields, then ``path:`` and its waypoints."""
    fields: dict[str, str] = {}
    tokens = value.split()
    for i, token in enumerate(tokens):
        key, sep, text = token.partition(":")
        if not sep or key not in _AGENT_FIELDS:
            raise ConfigError(f"{where}: unknown agent field {token!r}")
        if key in fields:
            raise ConfigError(f"{where}: key {key!r} given twice")
        fields[key] = text
        if key == "path":
            waypoints = []
            for point in ([text] if text else []) + tokens[i + 1:]:
                xy, sep, at = point.partition("@")
                if not sep:
                    raise ConfigError(f"{where}: bad waypoint {point!r}")
                waypoints.append((coerce_value(int, at, where), *_floats(xy, ",", 2, where, "waypoint")))
            break
    if len(fields) < len(_AGENT_FIELDS):
        raise ConfigError(f"{where}: agent needs spawn:, despawn:, size:, and path:")
    agent = AgentSpec(coerce_value(int, fields["spawn"], where), coerce_value(int, fields["despawn"], where),
                      *_floats(fields["size"], "x", 2, where, "agent size"), tuple(waypoints))
    _at(where, agent.validate)
    return agent


def format_scene(cfg: SceneConfig) -> str:
    """Inverse of :func:`parse_scene`, used to write suite scenes to disk."""
    lines = [f"{name} = {getattr(cfg, name)}" for name in field_types(SceneConfig)]
    lines += [f"occluder = {occ.left},{occ.top},{occ.width},{occ.height}" for occ in cfg.occluders]
    lines += [f"agent = spawn:{a.spawn} despawn:{a.despawn} size:{a.width}x{a.height} path:"
              + " ".join(f"{x},{y}@{t}" for t, x, y in a.waypoints) for a in cfg.agents]
    return "\n".join(lines) + "\n"


def load_config(path) -> TrackerConfig:
    """The tracker config file at ``path``; with no path, the defaults."""
    return TrackerConfig() if path is None else parse_config_text(_ascii_text(path))


def load_scene(path) -> SceneConfig:
    return parse_scene(_ascii_text(path))


def outputs_to_trajectories(outputs: Iterable[FrameOutput]) -> TrajectorySet:
    """View tracker output as trajectories for the evaluator."""
    outputs = list(outputs)
    views = [fo.records for fo in outputs]
    recs = Records.concat(views)
    return TrajectorySet.from_rows(_frame_of_rows(outputs, views)[0], recs.ids, recs.boxes)
