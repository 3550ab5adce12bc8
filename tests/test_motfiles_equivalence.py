"""The whole-file MOT readers and writers against the per-line ones they replaced.

Each generated file must give the reference reader's result, compared through
the ``repr`` of its materialised views (each frame's detection list, each
trajectory as a dict) so that dict key order, per-frame detection order, float
bits (the sign of zero included) and value types all count, or the reference's
``ParseError`` with the same message and line number. Each generated input
must give the reference writer's bytes.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from meshsort.geometry import BoundingBox
from meshsort.motfiles import (
    ParseError,
    parse_detections,
    parse_ground_truth,
    parse_results,
    write_detections,
    write_ground_truth,
    write_results,
)
from meshsort.pipeline import Detection, FrameDetections, FrameOutput, OutputRecord
from oracles import (
    reference_parse_detections,
    reference_parse_ground_truth,
    reference_parse_results,
    reference_write_detections,
    reference_write_ground_truth,
    reference_write_results,
)

READERS = {
    "dets": (parse_detections, reference_parse_detections),
    "res": (parse_results, reference_parse_results),
    "gt": (parse_ground_truth, reference_parse_ground_truth),
}


def _materialised(result):
    """Frames as ``(index, [Detection, ...])``, trajectories as ``{id: {frame: box}}`` dicts."""
    if isinstance(result, list):
        return [(fd.index, list(fd.detections)) for fd in result]
    return {tid: dict(per) for tid, per in result.items()}


def _outcome(read, path):
    try:
        return "ok", repr(_materialised(read(path)))
    except ParseError as exc:
        return "error", str(exc), exc.lineno


def _assert_same(kind, path):
    new, ref = READERS[kind]
    assert _outcome(new, path) == _outcome(ref, path)


def _write_lines(tmp: Path, lines, ends, final_newline=True) -> Path:
    path = tmp / "file.txt"
    text = "".join(line + end for line, end in zip(lines, ends))
    if not final_newline and text.endswith("\n"):
        text = text[:-2] if text.endswith("\r\n") else text[:-1]
    path.write_bytes(text.encode("ascii"))
    return path


def _texts(value: float) -> st.SearchStrategy[str]:
    """Spellings of one number that float() and the numeric pass read alike."""
    forms = [repr(float(value)), "%.2f" % value, "%e" % value, " %r " % float(value), "%.20f" % value]
    if value >= 0:
        forms.append("+%r" % float(value))
    if float(value).is_integer():
        forms.append(str(int(value)))
    return st.sampled_from(forms)


# Tokens that replace one field: unparsable, non-finite, spelled only for
# float() (1_0), not whole, not whole although their float is (a fraction
# below float64's step, an underflow to zero, an exponent too large to
# expand), out of range, beyond MAX_COORD.
BAD_FIELDS = ["x", "", " ", "nan", "-inf", "1e400", "-1e400", "1_0", "1.5", "0", "-3", "1000001",
              "1e8", "-1e8", "10000000.01", "0.5", "2", "-0.0", "1e-320", "0x10", "1,5",
              "1.0000000000000001", "20000000000000001e-16", "1e-400", "3.00000000000000000000",
              "1e-99999999", "0e999999999"]

# Whole-line corruptions, those of test_fuzzed_corruption_always_names_the_line first.
BAD_LINES = ["", "x", "1,2,3", "a,-1,10,20,30,40,0.9,-1,-1,-1", "1,-1,10,20,30,40,0.9,-1,-1,-1,9",
             "1;-1;10", "-3,-1,10,20,30,40,0.9,-1,-1,-1", "   ", "\t", " \t ", "\x0c", "1,1,10,20,30,40,1,1"]


@st.composite
def _row_values(draw, kind):
    """One well-formed row; GT rows may be inactive (flag or class not 1)."""
    frame = draw(st.integers(1, 5))
    tid = draw(st.integers(-3, 4)) if kind != "dets" else -1
    box = [draw(st.floats(-50, 900)), draw(st.floats(-50, 500)), draw(st.floats(0.5, 200)), draw(st.floats(0.5, 200))]
    if kind == "gt":
        tail = [draw(st.sampled_from([1, 1, 1, 0, 2])), draw(st.sampled_from([1, 1, 1, 0, 3])), draw(st.floats(0, 1))]
    else:
        tail = [draw(st.floats(0, 1)), -1, -1, -1]
    return [frame, tid] + box + tail


@st.composite
def mot_files(draw, kind):
    """Lines of a file of ``kind``: mostly well formed, in any frame order, some repeated or corrupt."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        roll = draw(st.integers(0, 39))
        if roll == 0:
            lines.append(draw(st.sampled_from(BAD_LINES)))
        elif roll == 1 and lines:
            lines.append(draw(st.sampled_from(lines)))  # a repeated (frame, id) row
        else:
            fields = [draw(_texts(v)) for v in draw(_row_values(kind))]
            if roll in (2, 3):
                fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(BAD_FIELDS))
            lines.append(",".join(fields))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    return lines, ends, draw(st.booleans())


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_reader_matches_reference(kind, data, tmp_path_factory):
    lines, ends, final_newline = data.draw(mot_files(kind))
    _assert_same(kind, _write_lines(tmp_path_factory.mktemp(kind), lines, ends, final_newline))


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=60, deadline=None)
@given(lineno=st.integers(0, 4), corruption=st.sampled_from(BAD_LINES + [
    "1,-1,10,20,30,40,nan,-1,-1,-1", "1,-1,10,20,30,1e400,0.9,-1,-1,-1", "1_0,-1,10,20,30,40,0.9,-1,-1,-1",
    "1,1_0,10,20,30,40,1,1,1", "1,2,1_0,20,30,40,1,1,nan", "1,2,10,20,30,40,1,1,1e400",
]))
def test_fuzzed_corruption_matches_reference(kind, lineno, corruption, tmp_path_factory):
    # The corruptions of test_fuzzed_corruption_always_names_the_line, plus
    # nan, 1e400 and 1_0, at each line of an otherwise clean file.
    if kind == "gt":
        good = [f"{k + 1},{k + 1},10,20,30,40,1,1,1.0" for k in range(5)]
    else:
        good = [f"{k + 1},{k + 1},10,20,30,40,0.9,-1,-1,-1" for k in range(5)]
    good[lineno] = corruption
    _assert_same(kind, _write_lines(tmp_path_factory.mktemp(kind), good, ["\n"] * 5))


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("extra", [-1, 1])
def test_every_line_one_field_off_matches_reference(kind, extra, tmp_path):
    # The numeric pass reads such a file as a clean table of the wrong width.
    row = "10,20,30,40,1,1,1.0" if kind == "gt" else "10,20,30,40,0.9,-1,-1,-1"
    row = row.rsplit(",", 1)[0] if extra < 0 else row + ",1"
    _assert_same(kind, _write_lines(tmp_path, [f"{f},{f},{row}" for f in (1, 2)], ["\n", "\n"]))


@pytest.mark.parametrize("kind", sorted(READERS))
def test_line_grammar_only_inputs_read_as_before(kind, tmp_path):
    # Whitespace-only lines and 1_0 pass float() and the line split but not
    # the numeric pass; the reader still returns the reference's rows.
    row = "1_0,3,10,20,30,40,1,1,1.0" if kind == "gt" else "1_0,3,10,20,30,40,0.9,-1,-1,-1"
    other = row.replace("1_0,3", "2,4", 1)
    path = _write_lines(tmp_path, ["  ", row, "\t", other, " "], ["\n", "\r\n", "\n", "\n", "\n"])
    _assert_same(kind, path)
    assert _outcome(READERS[kind][0], path)[0] == "ok"


# Reals a writer must spell as f"{x:.2f}" does: -0.0, values on or next to a
# half cent, the MAX_COORD edge, integers.
_HALF_CENTS = st.integers(-10**6, 10**6).map(lambda k: (2 * k + 1) / 200)
_EDGES = st.sampled_from([-0.0, 0.0, 0.005, -0.005, 0.125, 0.375, 1.005, 2.675, 1e7, -1e7,
                          9999999.995, -9999999.995, 5e-324, 1, 7])
REALS = st.one_of(st.floats(-1e7, 1e7), _HALF_CENTS, _EDGES)
SIZES = st.one_of(st.floats(1e-3, 1e7), _HALF_CENTS.filter(lambda x: x > 0), st.sampled_from([0.005, 1e7, 2.675, 3]))
UNIT = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.005, 0.125, 0.995, 1.0, 0, 1]))

boxes = st.builds(BoundingBox, REALS, REALS, SIZES, SIZES)


def _same_bytes(tmp: Path, write, reference, data) -> None:
    write(tmp / "new.txt", data)
    reference(tmp / "ref.txt", data)
    assert (tmp / "new.txt").read_bytes() == (tmp / "ref.txt").read_bytes()


@settings(max_examples=150, deadline=None)
@given(outputs=st.lists(st.builds(FrameOutput, st.integers(1, 50), st.lists(
    st.builds(OutputRecord, st.integers(-5, 10**6), boxes, st.one_of(UNIT, REALS)), max_size=6).map(tuple)),
    max_size=8))
def test_write_results_matches_reference(outputs, tmp_path_factory):
    _same_bytes(tmp_path_factory.mktemp("res"), write_results, reference_write_results, outputs)


@settings(max_examples=150, deadline=None)
@given(frames=st.lists(st.builds(FrameDetections, st.integers(1, 50), st.lists(
    st.builds(Detection, boxes, UNIT), max_size=6).map(tuple)), max_size=8))
def test_write_detections_matches_reference(frames, tmp_path_factory):
    _same_bytes(tmp_path_factory.mktemp("dets"), write_detections, reference_write_detections, frames)


@settings(max_examples=150, deadline=None)
@given(trajs=st.dictionaries(st.integers(-10**6, 10**6), st.dictionaries(st.integers(1, 60), boxes, max_size=6),
                             max_size=6))
def test_write_ground_truth_matches_reference(trajs, tmp_path_factory):
    _same_bytes(tmp_path_factory.mktemp("gt"), write_ground_truth, reference_write_ground_truth, trajs)
