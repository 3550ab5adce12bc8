"""Each output check trips on the tampering it exists to catch.

    python3 -m pytest perfbench/test_checks.py -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from meshsort import metrics, motfiles, scenarios, synth  # noqa: E402
from meshsort.config import TrackerConfig  # noqa: E402
from meshsort.pipeline import FrameOutput, Tracker  # noqa: E402

import checks  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from operation import run_operation  # noqa: E402


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    d = tmp_path_factory.mktemp("op")
    scene = scenarios.throughput_scene(seed=3, n_agents=6, frames=60)
    gt, frames = synth.generate(scene)
    motfiles.write_ground_truth(d / "gt.txt", gt)
    motfiles.write_detections(d / "dets.txt", frames)
    parsed_gt = motfiles.parse_ground_truth(d / "gt.txt")
    parsed = motfiles.parse_detections(d / "dets.txt")
    cfg = TrackerConfig(frame_width=scene.frame_width, frame_height=scene.frame_height)
    tracker = Tracker(cfg)
    outputs = [tracker.step(fd) for fd in parsed]
    motfiles.write_results(d / "res.txt", outputs)
    res = motfiles.parse_results(d / "res.txt")
    return dict(scene=scene, gt=gt, frames=frames, parsed_gt=parsed_gt, parsed=parsed,
                cfg=cfg, outputs=outputs, res=res, report=metrics.evaluate(parsed_gt, res))


def _gt_rows(scene):
    return sum(a.despawn - a.spawn + 1 for a in scene.agents)


def _fails(check, fn, *args):
    with pytest.raises(checks.CheckFailed) as info:
        fn(*args)
    assert info.value.check == check


def _moved(box, dx=1.0):
    return dataclasses.replace(box, left=box.left + dx)


def test_untampered_outputs_pass(run):
    checks.check_synth(run["scene"], run["gt"], run["frames"])
    checks.check_gt_roundtrip(run["gt"], run["parsed_gt"])
    checks.check_dets_roundtrip(run["frames"], run["parsed"])
    checks.check_results_roundtrip(run["outputs"], run["res"])
    for fd, fo in zip(run["parsed"], run["outputs"]):
        checks.check_tracker_frame(fd, fo, run["cfg"].conf_low)
    checks.check_metrics(run["report"], _gt_rows(run["scene"]), run["parsed_gt"], run["res"])
    checks.check_accuracy_floor(run["report"], workloads.DENSE_FLOOR)


def test_empty_result(run):
    empty = metrics.evaluate(run["parsed_gt"], {})
    _fails("accuracy.floor", checks.check_accuracy_floor, empty, workloads.DENSE_FLOOR)
    _fails("motfiles.results", checks.check_results_roundtrip, run["outputs"], {})


def _busy_frame(run):
    return next(k for k, fo in enumerate(run["outputs"]) if len(fo.records) >= 2)


def test_duplicated_id_in_a_frame(run):
    k = _busy_frame(run)
    a, b = run["outputs"][k].records[:2]
    bad = FrameOutput(run["outputs"][k].index, (a, b._replace(track_id=a.track_id)))
    _fails("tracker.ids", checks.check_tracker_frame, run["parsed"][k], bad, run["cfg"].conf_low)


def test_box_moved_by_one_pixel(run):
    parsed = list(run["parsed"])
    fd = parsed[5]
    det = fd.detections[0]
    parsed[5] = dataclasses.replace(fd, detections=(det._replace(box=_moved(det.box)),) + fd.detections[1:])
    _fails("motfiles.dets", checks.check_dets_roundtrip, run["frames"], parsed)

    gt = {tid: dict(per) for tid, per in run["parsed_gt"].items()}
    gt[1][10] = _moved(gt[1][10])
    _fails("motfiles.gt", checks.check_gt_roundtrip, run["gt"], gt)

    res = {tid: dict(per) for tid, per in run["res"].items()}
    tid = next(iter(res))
    frame = next(iter(res[tid]))
    res[tid][frame] = _moved(res[tid][frame])
    _fails("motfiles.results", checks.check_results_roundtrip, run["outputs"], res)


def test_dropped_ground_truth_row(run):
    gt = {tid: dict(per) for tid, per in run["gt"].items()}
    del gt[2][20]
    _fails("synth.gt_rows", checks.check_synth, run["scene"], gt, run["frames"])
    parsed_gt = {tid: dict(per) for tid, per in run["parsed_gt"].items()}
    del parsed_gt[2][20]
    dropped = metrics.evaluate(parsed_gt, run["res"])
    _fails("metrics.gt_total", checks.check_metrics, dropped, _gt_rows(run["scene"]),
           parsed_gt, run["res"])


def test_output_score_matching_no_detection(run):
    k = _busy_frame(run)
    fo = run["outputs"][k]
    rec = fo.records[0]
    bad = FrameOutput(fo.index, (rec._replace(score=rec.score - 0.013),) + fo.records[1:])
    _fails("tracker.scores", checks.check_tracker_frame, run["parsed"][k], bad, run["cfg"].conf_low)


def test_detection_off_every_agent(run):
    frames = list(run["frames"])
    fd = frames[7]
    det = fd.detections[0]
    frames[7] = dataclasses.replace(fd, detections=(det._replace(box=_moved(det.box)),) + fd.detections[1:])
    _fails("synth.det_centres", checks.check_synth, run["scene"], run["gt"], frames)


def test_reference_idf1_sees_an_identity_swap(run):
    # A result that swaps two ids halfway loses identity matches in both codes.
    res = {tid: dict(per) for tid, per in run["res"].items()}
    a, b = sorted(res)[:2]
    for f in [f for f in res[a] if f > 30 and f in res[b]]:
        res[a][f], res[b][f] = res[b][f], res[a][f]
    assert checks.reference_idf1(run["parsed_gt"], res) == pytest.approx(
        metrics.idf1(run["parsed_gt"], res), abs=1e-9)
    assert checks.reference_idf1(run["parsed_gt"], res) < run["report"].idf1


def test_tracing_leaves_outputs_alone(tmp_path):
    op = workloads.build("occlusion_ablation", 1)[1]
    plain = run_operation(op, tmp_path)
    tracer = tracing.install()
    try:
        traced = run_operation(op, tmp_path)
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    assert tracer.totals()["pipeline.step"]["calls"] == traced.stepped_frames
    assert synth.generate.__module__ == "meshsort.synth"


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert listed == report.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
