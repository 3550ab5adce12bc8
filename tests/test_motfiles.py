import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from meshsort import motfiles, scenarios, synth
from meshsort.config import TrackerConfig
from meshsort.geometry import BoundingBox
from meshsort.motfiles import (
    ConfigError,
    ParseError,
    load_config,
    load_scene,
    parse_config_text,
    parse_detections,
    parse_ground_truth,
    parse_results,
    write_detections,
    write_ground_truth,
    write_results,
)
from meshsort.pipeline import Detection, FrameDetections, FrameOutput, OutputRecord, run


class TestParseDetections:
    def test_single_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
        frames = parse_detections(p)
        assert len(frames) == 1
        fd = frames[0]
        assert fd.index == 1
        det = fd.detections[0]
        assert det.box == BoundingBox(10, 20, 30, 40)
        assert det.score == pytest.approx(0.9)

    def test_box_fields_at_the_magnitude_limit_accepted(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,-1e7,1e7,1e7,1e7,0.9,-1,-1,-1\n")
        (fd,) = parse_detections(p)
        assert fd.detections[0].box == BoundingBox(-1e7, 1e7, 1e7, 1e7)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("")
        assert parse_detections(p) == []

    def test_frames_grouped_ascending(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text(
            "3,-1,10,20,30,40,0.9,-1,-1,-1\n"
            "1,-1,10,20,30,40,0.8,-1,-1,-1\n"
            "1,-1,50,60,30,40,0.7,-1,-1,-1\n"
        )
        frames = parse_detections(p)
        assert [fd.index for fd in frames] == [1, 2, 3]
        assert [len(fd.detections) for fd in frames] == [2, 0, 1]

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("1,-1,10,20,30,40,0.9,-1,-1", "expected 10 fields"),
            ("1,-1,10,20,30,40,0.9,-1,-1,-1,-1", "expected 10 fields"),
            ("x,-1,10,20,30,40,0.9,-1,-1,-1", "non-numeric"),
            ("0,-1,10,20,30,40,0.9,-1,-1,-1", "bad frame"),
            ("1.5,-1,10,20,30,40,0.9,-1,-1,-1", "bad frame"),
            ("1000001,-1,10,20,30,40,0.9,-1,-1,-1", "bad frame"),
            ("1,-1,10,20,0,40,0.9,-1,-1,-1", "non-positive box"),
            ("1,-1,10,20,30,40,1.5,-1,-1,-1", "confidence"),
            ("1,-1,10,10,1e200,1e200,0.9,-1,-1,-1", "box field 1e200 beyond 1e+07 px"),
            ("1,-1,-1e150,20,30,40,0.9,-1,-1,-1", "box field -1e150 beyond"),
            ("1,-1,10,10000000.01,30,40,0.9,-1,-1,-1", "box field 10000000.01 beyond"),
        ],
    )
    def test_malformed_lines_rejected_with_lineno(self, tmp_path, line, fragment):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n" + line + "\n")
        with pytest.raises(ParseError, match="2") as err:
            parse_detections(p)
        assert fragment in str(err.value)
        assert err.value.lineno == 2

    @settings(max_examples=60, deadline=None)
    @given(
        lineno=st.integers(0, 4),
        corruption=st.sampled_from(
            ["", "x", "1,2,3", "a,-1,10,20,30,40,0.9,-1,-1,-1",
             "1,-1,10,20,30,40,0.9,-1,-1,-1,9", "1;-1;10", "-3,-1,10,20,30,40,0.9,-1,-1,-1"]
        ),
    )
    def test_fuzzed_corruption_always_names_the_line(
        self, lineno, corruption, tmp_path_factory
    ):
        good = ["%d,-1,10,20,30,40,0.9,-1,-1,-1" % (k + 1) for k in range(5)]
        good[lineno] = corruption
        p = tmp_path_factory.mktemp("fuzz") / "det.txt"
        p.write_text("\n".join(good) + "\n")
        if not corruption.strip():
            parse_detections(p)  # blank lines are tolerated
            return
        with pytest.raises(ParseError) as err:
            parse_detections(p)
        assert err.value.lineno == lineno + 1


class TestFrameGaps:
    def test_gaps_give_the_ids_of_explicit_empty_frames(self, tmp_path):
        # One still object, seen on frames 1-5 and again from frame 41. Aged
        # over the 35 empty frames its track outlives max_age, so the object
        # comes back under a new id.
        det = Detection(BoundingBox(100, 100, 20, 40), 0.9)
        seen = set(range(1, 6)) | {41, 42}
        explicit = [FrameDetections(f, (det,) if f in seen else ()) for f in range(1, 43)]
        p = tmp_path / "det.txt"
        write_detections(p, explicit)
        parsed = parse_detections(p)
        assert parsed == explicit

        def ids(frames):
            return [[r.track_id for r in fo.records] for fo in run(TrackerConfig(min_hits=1), frames)]

        assert ids(parsed) == ids(explicit)
        assert ids(parsed)[-1] == [2]
        # Stepping only the frames with detections would have kept id 1.
        assert ids([fd for fd in explicit if fd.detections])[-1] == [1]


def _two_decimals(frames):
    """The detections as a detection file holds them: every real at two decimals."""
    def r(x):
        return float(f"{x:.2f}")

    return [
        FrameDetections(fd.index, tuple(
            Detection(BoundingBox(*map(r, d.box.as_ltwh())), r(d.score)) for d in fd.detections
        ))
        for fd in frames
    ]


# The scene families and seeds the acceptance criteria c06-c10 run, and three
# crossing scenes.
FILE_PATH_CASES = (
    [(scenarios.transient_occlusion_scene, s) for s in range(1, 21)]
    + [(scenarios.exit_scene, s) for s in range(1, 13)]
    + [(scenarios.rollback_scene, s) for s in range(1, 51)]
    + [(scenarios.crossing_scene, s) for s in (1, 2, 3)]
)


@pytest.mark.parametrize(
    "family,seed", FILE_PATH_CASES, ids=lambda v: v.__name__.removesuffix("_scene") if callable(v) else str(v)
)
def test_file_path_matches_in_memory_run(family, seed, tmp_path):
    # synth -> write -> parse -> track gives the bytes of an in-memory run on
    # the same two-decimal detections: empty frames are aged, not skipped.
    scene = family(seed)
    _, frames = synth.generate(scene)
    cfg = TrackerConfig(frame_width=scene.frame_width, frame_height=scene.frame_height, emit_virtual=True)
    write_detections(tmp_path / "dets.txt", frames)
    write_results(tmp_path / "file.txt", run(cfg, parse_detections(tmp_path / "dets.txt")))
    write_results(tmp_path / "memory.txt", run(cfg, _two_decimals(frames)))
    assert (tmp_path / "file.txt").read_bytes() == (tmp_path / "memory.txt").read_bytes()


class TestParseResults:
    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("1,1,10,20,30,40,0.9,-1,-1", "expected 10 fields"),
            ("0,1,10,20,30,40,0.9,-1,-1,-1", "bad frame"),
            ("1.5,2,10,20,30,40,0.9,-1,-1,-1", "bad frame"),
            ("2,2.7,10,20,30,40,0.9,-1,-1,-1", "bad id"),
            ("2,1,10,20,30,0,0.9,-1,-1,-1", "non-positive box"),
            ("2,1,10,20,3e7,40,0.9,-1,-1,-1", "box field 3e7 beyond"),
            ("2,1,10,-1e8,30,40,0.9,-1,-1,-1", "box field -1e8 beyond"),
            ("1,1,11,20,30,40,0.9,-1,-1,-1", "duplicate frame"),
        ],
    )
    def test_malformed_lines_rejected_with_lineno(self, tmp_path, line, fragment):
        p = tmp_path / "res.txt"
        p.write_text("1,1,10,20,30,40,0.9,-1,-1,-1\n" + line + "\n")
        with pytest.raises(ParseError) as err:
            parse_results(p)
        assert str(err.value).startswith(f"{p}:2: ")
        assert fragment in str(err.value)
        assert err.value.lineno == 2


class TestParseGroundTruth:
    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("1,2,10,20,30,40,1,1", "expected 9 fields"),
            ("1.5,2,10,20,30,40,1,1,1.0", "bad frame"),
            ("1,2.7,10,20,30,40,1,1,1.0", "bad id"),
            ("1,2,10,20,30,40,1.4,1,1.0", "bad flag"),
            ("1,2,10,20,30,40,1,0.5,1.0", "bad class"),
            ("1,2,10,20,30,40,1,1,1.5", "visibility"),
            ("1,2,10,20,-30,40,1,1,1.0", "non-positive box"),
            ("1,2,10,20,30,1e150,1,1,1.0", "box field 1e150 beyond"),
            ("1,2,1e150,20,30,40,0,1,1.0", "box field 1e150 beyond"),
        ],
    )
    def test_malformed_lines_rejected_with_lineno(self, tmp_path, line, fragment):
        p = tmp_path / "gt.txt"
        p.write_text("1,1,10,20,30,40,1,1,1.0\n" + line + "\n")
        with pytest.raises(ParseError) as err:
            parse_ground_truth(p)
        assert str(err.value).startswith(f"{p}:2: ")
        assert fragment in str(err.value)
        assert err.value.lineno == 2

    def test_inactive_rows_skip_the_size_check(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,1,10,20,30,40,1,1,1.0\n1,2,10,20,0,0,0,1,1.0\n1,3,10,20,0,0,1,2,1.0\n")
        assert set(parse_ground_truth(p)) == {1}

    def test_inactive_rows_skip_the_degenerate_and_duplicate_rules(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text(
            "1,1,10,20,30,40,0,1,1.0\n"       # flag 0, the (1, 1) of the active row below
            "1,1,10,20,30,40,1,1,1.0\n"
            "1,3,10,20,30,1e-320,1,2,1.0\n"   # class 2, degenerate
            "1,1,11,20,30,40,1,0,1.0\n"       # class 0, repeats (1, 1)
        )
        assert {tid: list(per) for tid, per in parse_ground_truth(p).items()} == {1: [1]}

    def test_inactive_rows_keep_the_visibility_rule(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,1,10,20,30,40,1,1,1.0\n1,2,10,20,0,40,0,1,1.5\n")
        with pytest.raises(ParseError) as err:
            parse_ground_truth(p)
        assert str(err.value) == f"{p}:2: visibility 1.5 outside [0, 1]"

    def test_class_and_flag_filtering(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text(
            "1,1,10,20,30,40,1,1,1.0\n"
            "1,2,50,60,30,40,1,0,1.0\n"   # class 0: dropped
            "1,3,90,20,30,40,0,1,1.0\n"   # flag 0: dropped
            "2,1,12,20,30,40,1,1,0.5\n"
        )
        trajs = parse_ground_truth(p)
        assert set(trajs) == {1}
        assert set(trajs[1]) == {1, 2}

    def test_mixed_ids_grouped(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text(
            "1,7,10,20,30,40,1,1,1.0\n"
            "2,7,11,20,30,40,1,1,1.0\n"
            "1,9,500,300,30,40,1,1,1.0\n"
            "3,9,500,310,30,40,1,1,1.0\n"
            "2,9,500,305,30,40,1,1,1.0\n"
        )
        trajs = parse_ground_truth(p)
        assert set(trajs) == {7, 9}
        assert sorted(trajs[9]) == [1, 2, 3]

    def test_duplicate_frame_rejected(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,1,10,20,30,40,1,1,1.0\n1,1,11,20,30,40,1,1,1.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_ground_truth(p)


class TestIdBound:
    # Above 2**53 a float64 cannot tell neighbouring ids apart: 2**53 + 1 read
    # as 2**53, and two ids on one frame read as a duplicate.
    @pytest.mark.parametrize("ids,text", [
        (["9007199254740993", "9007199254740992"], "9007199254740993"),
        (["1", "9007199254740993"], "9007199254740993"),
        (["1", "9007199254740992"], "9007199254740992"),
        (["1", "1e300"], "1e300"),
        (["1", "-9007199254740993"], "-9007199254740993"),
    ])
    @pytest.mark.parametrize("kind", ["res", "gt"])
    def test_id_beyond_2_53_rejected(self, tmp_path, kind, ids, text):
        tail = "1,1,1.0" if kind == "gt" else "0.9,-1,-1,-1"
        p = tmp_path / f"{kind}.txt"
        p.write_text("".join(f"1,{tid},10,20,30,40,{tail}\n" for tid in ids))
        read = parse_ground_truth if kind == "gt" else parse_results
        with pytest.raises(ParseError) as err:
            read(p)
        lineno = ids.index(text) + 1
        assert str(err.value) == f"{p}:{lineno}: bad id {text}"
        assert err.value.lineno == lineno

    @pytest.mark.parametrize("kind", ["res", "gt"])
    def test_largest_exact_ids_kept(self, tmp_path, kind):
        tail = "1,1,1.0" if kind == "gt" else "0.9,-1,-1,-1"
        p = tmp_path / f"{kind}.txt"
        p.write_text(f"1,9007199254740991,10,20,30,40,{tail}\n1,-9007199254740991,10,20,30,40,{tail}\n")
        read = parse_ground_truth if kind == "gt" else parse_results
        assert list(read(p)) == [2**53 - 1, -(2**53 - 1)]

    def test_detection_id_column_still_ignored(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,1e300,10,20,30,40,0.9,-1,-1,-1\n")
        assert len(parse_detections(p)[0].detections) == 1


class TestNonAscii:
    # These once escaped as "'ascii' codec can't decode byte ..." with no
    # file or line.
    def test_detection_byte_named_with_its_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_bytes(b"1,-1,10,20,30,40,0.9,-1,-1,-1\n2,-1,10,20,30,40,0.9\xc2\xa0,-1,-1,-1\n")
        with pytest.raises(ParseError) as err:
            parse_detections(p)
        assert str(err.value) == f"{p}:2: non-ASCII byte 0xc2"
        assert err.value.lineno == 2

    def test_gt_byte_order_mark(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_bytes(b"\xef\xbb\xbf1,1,10,20,30,40,1,1,1.0\n")
        with pytest.raises(ParseError) as err:
            parse_ground_truth(p)
        assert str(err.value) == f"{p}:1: non-ASCII byte 0xef"

    def test_earlier_bad_line_wins(self, tmp_path):
        p = tmp_path / "res.txt"
        p.write_bytes(b"1,1,10,20,30,40,0.9,-1,-1,-1\n1,1,10,20,30,40,0.9,-1,-1,-1\n\xff\n")
        with pytest.raises(ParseError, match="duplicate frame 1 for id 1") as err:
            parse_results(p)
        assert err.value.lineno == 2

    @pytest.mark.parametrize("load,text", [
        (load_config, b"# tracker\nmax_age = 40 \xc2\xa0\n"),
        (load_scene, b"seed = 3\nframes = 10 \xc2\xa0\n"),
    ])
    def test_config_and_scene_byte_named_with_its_line(self, tmp_path, load, text):
        p = tmp_path / "flat.txt"
        p.write_bytes(text)
        with pytest.raises(ParseError) as err:
            load(p)
        assert str(err.value) == f"{p}:2: non-ASCII byte 0xc2"


class TestNumericPass:
    @pytest.mark.parametrize("text", ["", "\n\n\n", "\r\n  \n\t\n"])
    @pytest.mark.parametrize("read", [parse_detections, parse_results, parse_ground_truth])
    def test_no_rows_no_warning(self, tmp_path, text, read):
        p = tmp_path / "f.txt"
        p.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not read(p)
        assert caught == []

    def test_clean_files_never_reach_the_line_reader(self, tmp_path, monkeypatch):
        scene = scenarios.transient_occlusion_scene(1)
        gt, frames = synth.generate(scene)
        write_ground_truth(tmp_path / "gt.txt", gt)
        write_detections(tmp_path / "dets.txt", frames)
        outputs = run(TrackerConfig(), frames)
        write_results(tmp_path / "res.txt", outputs)

        def fail(*args):
            raise AssertionError("line reader ran on a clean file")

        monkeypatch.setattr(motfiles, "_rows", fail)
        assert parse_ground_truth(tmp_path / "gt.txt")
        assert parse_detections(tmp_path / "dets.txt")
        assert parse_results(tmp_path / "res.txt")


_GOOD_LINE = {
    "dets": "{},-1,10,20,30,40,0.9,-1,-1,-1",
    "res": "{},1,10,20,30,40,0.9,-1,-1,-1",
    "gt": "{},1,10,20,30,40,1,1,1.0",
}
_READ = {"dets": parse_detections, "res": parse_results, "gt": parse_ground_truth}
# Lines that each break one row rule after the line split, with the message.
_VALUE_ERRORS = [
    ("dets", "2,-1,10,20,30,40,1.5,-1,-1,-1", "confidence 1.5 outside [0, 1]"),
    ("dets", "0,-1,10,20,30,40,0.9,-1,-1,-1", "bad frame index 0"),
    ("dets", "1.0000000000000001,-1,10,20,30,40,0.9,-1,-1,-1", "bad frame index 1.0000000000000001"),
    ("res", "2,20000000000000001e-16,10,20,30,40,0.9,-1,-1,-1", "bad id 20000000000000001e-16"),
    ("res", "2,1e-400,10,20,30,40,0.9,-1,-1,-1", "bad id 1e-400"),
    ("gt", "2,1,10,20,30,40,1.00000000000000001,1,1.0", "bad flag 1.00000000000000001"),
    ("res", "2,1e-99999999,10,20,30,40,0.9,-1,-1,-1", "bad id 1e-99999999"),
    ("dets", "1e-99999999,-1,10,20,30,40,0.9,-1,-1,-1", "bad frame index 1e-99999999"),
    ("dets", "0e999999999,-1,10,20,30,40,0.9,-1,-1,-1", "bad frame index 0e999999999"),
    ("res", "1,1,11,20,30,40,0.9,-1,-1,-1", "duplicate frame 1 for id 1"),
    ("res", "2,1,10,20,30,0,0.9,-1,-1,-1", "non-positive box size"),
    ("gt", "2,1,10,20,30,40,1,1,1.5", "visibility 1.5 outside [0, 1]"),
    ("gt", "2,1,10,20,30,1e-320,1,1,1.0", "degenerate box"),
]


@pytest.mark.parametrize("kind,bad,message", [case for case in _VALUE_ERRORS if "99999999" in case[1]])
def test_huge_exponent_fails_within_a_second(tmp_path, kind, bad, message):
    # Read as an exact fraction, these tokens build 10**99999999 or more,
    # which takes minutes; their digits alone decide them.
    p = tmp_path / "f.txt"
    p.write_text(f"{_GOOD_LINE[kind].format(1)}\n{bad}\n")
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        _READ[kind](p)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == f"{p}:2: {message}"


def test_long_whole_tokens_are_read(tmp_path):
    # Each token is long enough to send the file through the line walk, and
    # each is whole; underscores are read on every supported Python.
    p = tmp_path / "res.txt"
    p.write_text("1.000000000000000000,100_000_000_000_000,10,20,30,40,0.9,-1,-1,-1\n"
                 "2,0e999999999,10,20,30,40,0.9,-1,-1,-1\n")
    trajectories = parse_results(p)
    assert trajectories.ids.tolist() == [1e14, 0.0]
    assert trajectories.frames.tolist() == [1, 2]


class TestRuleOrder:
    """The earliest bad line wins, whichever check finds it."""

    @pytest.mark.parametrize("kind,bad,message", _VALUE_ERRORS)
    def test_value_error_before_field_count_error(self, tmp_path, kind, bad, message):
        good = _GOOD_LINE[kind]
        p = tmp_path / "f.txt"
        p.write_text(f"{good.format(1)}\n{bad}\n{good.format(3)}\n{good.format(4).rsplit(',', 1)[0]}\n")
        with pytest.raises(ParseError) as err:
            _READ[kind](p)
        assert str(err.value) == f"{p}:2: {message}"
        assert err.value.lineno == 2

    @pytest.mark.parametrize("kind,bad,message", _VALUE_ERRORS)
    def test_field_count_error_before_value_error(self, tmp_path, kind, bad, message):
        good = _GOOD_LINE[kind]
        n = good.count(",") + 1
        p = tmp_path / "f.txt"
        p.write_text(f"{good.format(1)}\n{good.format(2)},7\n{good.format(3)}\n{bad}\n")
        with pytest.raises(ParseError) as err:
            _READ[kind](p)
        assert str(err.value) == f"{p}:2: expected {n} fields, got {n + 1}"

    @pytest.mark.parametrize("blank,walked", [("", False), ("  \t", True)])
    @pytest.mark.parametrize("kind,bad,message", _VALUE_ERRORS)
    def test_line_named_past_blank_and_crlf_lines(self, tmp_path, monkeypatch, kind, bad, message,
                                                  blank, walked):
        # Blank and CRLF lines leave the numeric pass clean; a whitespace-only
        # line sends the file through the line walk. Either way the bad row's
        # line is counted over every line of the file.
        calls, rows = [], motfiles._rows

        def spy(*args):
            calls.append(args)
            return rows(*args)

        monkeypatch.setattr(motfiles, "_rows", spy)
        good = _GOOD_LINE[kind]
        p = tmp_path / "f.txt"
        p.write_bytes(f"\r\n{good.format(1)}\r\n{blank}\n\n{good.format(3)}\r\n{bad}\r\n".encode())
        with pytest.raises(ParseError) as err:
            _READ[kind](p)
        assert str(err.value) == f"{p}:6: {message}"
        assert bool(calls) == walked


class TestDegenerateBox:
    # Each box breaks one clause of the rule alone.
    @pytest.mark.parametrize("box", [
        "0,1,1.4e-308,1.5e-16",   # width * height rounds to 0
        "1e7,20,5e-10,5e-10",     # left + width rounds back to left
        "0,0,1e7,1e-302",         # width / height overflows
        "0,0,1e-320,1e7",         # width / height rounds to 0
    ])
    @pytest.mark.parametrize("kind", sorted(_GOOD_LINE))
    def test_rejected(self, tmp_path, kind, box):
        good = _GOOD_LINE[kind]
        p = tmp_path / "f.txt"
        p.write_text(good.format(1) + "\n" + good.format(2).replace("10,20,30,40", box) + "\n")
        with pytest.raises(ParseError) as err:
            _READ[kind](p)
        assert str(err.value) == f"{p}:2: degenerate box"

    @pytest.mark.parametrize("kind", sorted(_GOOD_LINE))
    def test_small_boxes_accepted(self, tmp_path, kind):
        p = tmp_path / "f.txt"
        p.write_text("".join(_GOOD_LINE[kind].format(f).replace("10,20,30,40", box) + "\n"
                             for f, box in ((1, "0,0,1e-9,1e-9"), (2, "0,0,1e7,1e-300"), (3, "-1e7,1e7,1e-3,1e-3"))))
        assert len(_READ[kind](p)) == (3 if kind == "dets" else 1)


records = st.lists(
    st.tuples(
        st.integers(1, 40),        # frame
        st.integers(1, 9),         # id
        st.floats(-100, 900),      # left
        st.floats(-100, 500),      # top
        st.floats(0.5, 200),       # width
        st.floats(0.5, 200),       # height
        st.floats(0, 1),           # conf
    ),
    max_size=60,
)


class TestWriteResults:
    def test_ordering_on_shuffled_input(self, tmp_path):
        outs = [
            FrameOutput(3, (OutputRecord(2, BoundingBox(1, 1, 2, 2), 0.5),
                            OutputRecord(1, BoundingBox(5, 5, 2, 2), 0.6))),
            FrameOutput(1, (OutputRecord(9, BoundingBox(0, 0, 2, 2), 0.7),)),
        ]
        p = tmp_path / "res.txt"
        write_results(p, outs)
        lines = p.read_text().splitlines()
        keys = [(int(l.split(",")[0]), int(l.split(",")[1])) for l in lines]
        assert keys == sorted(keys)

    def test_empty_output_writes_empty_file(self, tmp_path):
        p = tmp_path / "res.txt"
        write_results(p, [])
        assert p.read_text() == ""

    def test_deterministic_bytes(self, tmp_path):
        outs = [FrameOutput(1, (OutputRecord(1, BoundingBox(1.234, 5.678, 9.1, 2.3), 0.87),))]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_results(a, outs)
        write_results(b, outs)
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(rows=records)
    def test_write_parse_write_is_fixpoint(self, rows, tmp_path_factory):
        # Values quantize to two decimals on the first write; a second pass
        # must reproduce the same bytes.
        tmp = tmp_path_factory.mktemp("fuzz")
        seen = set()
        by_frame = {}
        for frame, tid, left, top, w, h, conf in rows:
            if (frame, tid) in seen:
                continue
            seen.add((frame, tid))
            by_frame.setdefault(frame, []).append(
                OutputRecord(tid, BoundingBox(left, top, w, h), conf)
            )
        outs = [FrameOutput(f, tuple(rs)) for f, rs in sorted(by_frame.items())]
        first = tmp / "first.txt"
        write_results(first, outs)
        parsed = _results_to_outputs(first)
        second = tmp / "second.txt"
        write_results(second, parsed)
        assert first.read_bytes() == second.read_bytes()

    def test_gt_round_trip(self, tmp_path):
        trajs = {
            4: {1: BoundingBox(10.123, 20.456, 30.789, 40.0), 2: BoundingBox(11, 21, 30, 40)},
            2: {5: BoundingBox(100, 200, 50, 60)},
        }
        p = tmp_path / "gt.txt"
        write_ground_truth(p, trajs)
        back = parse_ground_truth(p)
        assert set(back) == {2, 4}
        assert back[4][1].left == pytest.approx(10.12)


def _results_to_outputs(path):
    trajs = outputs_to_trajectories_from_file(path)
    frames = {}
    for tid, per in trajs.items():
        for f, (box, conf) in per.items():
            frames.setdefault(f, []).append(OutputRecord(tid, box, conf))
    return [FrameOutput(f, tuple(rs)) for f, rs in sorted(frames.items())]


def outputs_to_trajectories_from_file(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            vals = line.strip().split(",")
            frame, tid = int(vals[0]), int(vals[1])
            box = BoundingBox(*(float(v) for v in vals[2:6]))
            out.setdefault(tid, {})[frame] = (box, float(vals[6]))
    return out


class TestConfig:
    def test_defaults_when_empty(self):
        cfg = parse_config_text("")
        assert cfg == TrackerConfig()

    def test_values_coerced_by_field_type(self):
        cfg = parse_config_text(
            "lost_maintain_frames = 5\n"
            "conf_high = 0.55\n"
            "enable_mesh = false\n"
        )
        assert cfg.lost_maintain_frames == 5
        assert cfg.conf_high == pytest.approx(0.55)
        assert cfg.enable_mesh is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("lost_maintain = 3")

    @pytest.mark.parametrize("key", ["lm_region_rule", "vel_rollback", "freeze_size_velocity",
                                     "mesh_refresh_interval", "lm_noise_scale"])
    def test_removed_key_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(f"{key} = 1")

    def test_bad_value_rejected(self):
        # A bad value names its config line, as it did before grid values
        # got their own wording.
        with pytest.raises(ConfigError, match=r"^config line 1: bad int 'many'$"):
            parse_config_text("lost_maintain_frames = many")
        with pytest.raises(ConfigError, match=r"^config line 2: bad boolean 'perhaps'$"):
            parse_config_text("# toggles\nenable_mesh = perhaps")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"^config line 2: key 'max_age' given twice$"):
            parse_config_text("max_age = 10\nmax_age = 12")

    def test_validation_applies(self):
        with pytest.raises(ValueError):
            parse_config_text("location_age_reduction = 99")

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("# tracker setup\nmax_age = 40  # frames\n")
        assert load_config(p).max_age == 40
