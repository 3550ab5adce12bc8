import functools
import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshsort import scenarios, synth
from meshsort.config import TrackerConfig
from meshsort.geometry import BoundingBox, iou
from meshsort.mesh import MeshGrid
from meshsort.pipeline import (
    Detection,
    Detections,
    FrameDetections,
    SequencingError,
    Tracker,
    run,
)
from meshsort.tracks import state_box

from oracles import bottom_middle, make_frame, recount_mesh_events


def cfg(**kw):
    base = dict(frame_width=960.0, frame_height=540.0)
    base.update(kw)
    return TrackerConfig(**base)


def box(l, t=200.0, w=20.0, h=40.0):
    return BoundingBox(l, t, w, h)


class TestStepBasics:
    def test_empty_first_frame(self):
        out = Tracker(cfg()).step(make_frame(1, []))
        assert out.index == 1 and out.records == ()

    def test_single_detection_spawns_id_one(self):
        tracker = Tracker(cfg(min_hits=1))
        out = tracker.step(make_frame(1, [(box(100), 0.9)]))
        assert [r.track_id for r in out.records] == [1]
        assert iou(out.records[0].box, box(100)) > 0.99

    def test_low_conf_never_initializes(self):
        tracker = Tracker(cfg(min_hits=1))
        out = tracker.step(make_frame(1, [(box(100), 0.5)]))
        assert out.records == ()
        assert tracker.tracks == []

    def test_out_of_order_frame_rejected(self):
        tracker = Tracker(cfg())
        tracker.step(make_frame(5, []))
        with pytest.raises(SequencingError):
            tracker.step(make_frame(5, []))
        with pytest.raises(SequencingError):
            tracker.step(make_frame(3, []))

    def test_ids_strictly_increasing(self):
        tracker = Tracker(cfg(min_hits=1))
        tracker.step(make_frame(1, [(box(100), 0.9), (box(500), 0.9)]))
        tracker.step(make_frame(2, [(box(110), 0.9), (box(510), 0.9), (box(300), 0.95)]))
        ids = sorted(t.track_id for t in tracker.tracks)
        assert ids == [1, 2, 3]

    def test_unique_ids_per_frame(self):
        tracker = Tracker(cfg(min_hits=1))
        for f in range(1, 6):
            out = tracker.step(
                make_frame(f, [(box(100 + 4 * f), 0.9), (box(500 - 4 * f), 0.9)])
            )
            ids = [r.track_id for r in out.records]
            assert len(ids) == len(set(ids))

    def test_min_hits_delays_emission(self):
        tracker = Tracker(cfg(min_hits=3))
        assert tracker.step(make_frame(1, [(box(100), 0.9)])).records == ()
        assert tracker.step(make_frame(2, [(box(104), 0.9)])).records == ()
        out = tracker.step(make_frame(3, [(box(108), 0.9)]))
        assert [r.track_id for r in out.records] == [1]

    @pytest.mark.parametrize("det", [
        (BoundingBox(10.0, 10.0, 1e200, 1e200), 0.9),
        (BoundingBox(-2e7, 10.0, 20.0, 40.0), 0.9),
    ])
    def test_box_beyond_range_rejected(self, det):
        # Such a box once overflowed the filter and failed a frame later.
        with pytest.raises(ValueError, match="beyond 1e\\+07 px"):
            make_frame(1, [det])

    def test_degenerate_box_rejected(self):
        # Such a box once passed, overflowed the filter's aspect ratio and
        # raised NumericsError a frame later.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="degenerate box"):
                Detections(np.array([[10.0, 20.0, 0.5, 5e-324]]), np.array([0.9]))
            with pytest.raises(ValueError, match="degenerate box"):
                FrameDetections(1, (Detection(BoundingBox(10.0, 20.0, 0.5, 5e-324), 0.9),))


class TestRunDeterminism:
    def _frames(self):
        scene = scenarios.transient_occlusion_scene(4)
        _, dets = synth.generate(scene)
        return dets

    def test_same_input_bitwise_identical(self):
        frames = self._frames()
        a = run(cfg(), frames)
        b = run(cfg(), frames)
        assert a == b

    def test_empty_sequence(self):
        assert run(cfg(), []) == []

    def test_outputs_echo_frame_indices(self):
        frames = self._frames()
        outs = run(cfg(), frames)
        assert [o.index for o in outs] == [f.index for f in frames]


class TestFeatureToggles:
    def test_all_toggles_off_equals_baseline(self):
        scene = scenarios.transient_occlusion_scene(9)
        _, dets = synth.generate(scene)
        toggled_off = cfg(
            enable_mesh=False,
            enable_lost_maintain=False,
            enable_velocity_rollback=False,
            enable_location_ages=False,
        )
        baseline = TrackerConfig.baseline(frame_width=960.0, frame_height=540.0)
        assert run(toggled_off, dets) == run(baseline, dets)

    def test_zero_lm_budget_matches_disabled_lm(self):
        scene = scenarios.transient_occlusion_scene(2)
        _, dets = synth.generate(scene)
        by_budget = cfg(lost_maintain_frames=0)
        by_toggle = cfg(enable_lost_maintain=False)
        assert run(by_budget, dets) == run(by_toggle, dets)

    def test_virtual_emission_flag(self):
        scene = scenarios.transient_occlusion_scene(5)
        _, dets = synth.generate(scene)
        plain = run(cfg(), dets)
        virtual = run(cfg(emit_virtual=True), dets)
        n_plain = sum(len(o.records) for o in plain)
        n_virtual = sum(len(o.records) for o in virtual)
        assert n_virtual > n_plain


class TestCrossingScenario:
    def test_ids_survive_mutual_occlusion(self):
        scene = scenarios.crossing_scene(1)
        gt, dets = synth.generate(scene)
        outs = run(cfg(), dets)
        early_ids = {r.track_id for o in outs[:20] for r in o.records}
        late_ids = {r.track_id for o in outs[-10:] for r in o.records}
        assert early_ids == {1, 2}
        assert early_ids <= late_ids
        # Identity check against ground truth on the final frame: each
        # original id still sits on its own trajectory.
        final = outs[-1]
        for rec in final.records:
            if rec.track_id not in (1, 2):
                continue
            gt_box = gt[rec.track_id].get(final.index)
            assert gt_box is not None and iou(rec.box, gt_box) > 0.5


class TestMeshEventBalance:
    def test_counts_match_event_recount(self):
        scene = scenarios.transient_occlusion_scene(6)
        _, dets = synth.generate(scene)
        c = cfg()
        tracker = Tracker(c)
        tracker.grid = MeshGrid(
            c.mesh_cols, c.mesh_rows, (c.frame_width, c.frame_height), log_events=True
        )
        for fd in dets:
            tracker.step(fd)
        np.testing.assert_array_equal(
            tracker.grid.counts,
            recount_mesh_events(tracker.grid.events, c.mesh_cols, c.mesh_rows),
        )

    def test_local_refind_balances_to_unreturned_losses(self):
        # One target vanishes for good inside a cell, another is lost and
        # refound in place: the final count per cell equals losses never
        # refound there.
        c = cfg(lost_maintain_frames=0, enable_lost_maintain=False, max_age=30)
        tracker = Tracker(c)
        tracker.grid = MeshGrid(4, 4, (960.0, 540.0), log_events=True)
        frame = 1
        # establish two tracks in different cells
        for _ in range(4):
            tracker.step(
                make_frame(
                    frame,
                    [(box(100, 100), 0.9), (box(700, 400), 0.9)],
                )
            )
            frame += 1
        # drop the first for 3 frames (lost event), keep the second
        for _ in range(3):
            tracker.step(make_frame(frame, [(box(700, 400), 0.9)]))
            frame += 1
        # first comes back in place (refound event)
        for _ in range(3):
            tracker.step(
                make_frame(frame, [(box(100, 100), 0.9), (box(700, 400), 0.9)])
            )
            frame += 1
        # second vanishes for good
        for _ in range(3):
            tracker.step(make_frame(frame, [(box(100, 100), 0.9)]))
            frame += 1
        g = tracker.grid
        cell_a = g.cell_of(bottom_middle(box(100, 100)))
        cell_b = g.cell_of(bottom_middle(box(700, 400)))
        assert g.counts[cell_a] == 0  # lost once, refound once
        assert g.counts[cell_b] == 1  # lost once, never refound


class TestConfigEdges:
    def test_refresh_interval_defers_identification(self):
        # The frequent cells are identified every frame, so a cell that
        # fills up early is frequent by the end of a short run.
        frames = []
        # Seven targets vanish in the same cell over the first frames.
        for f in range(1, 10):
            dets = []
            for k in range(7):
                if f <= k + 1:
                    dets.append((box(60 + 30 * k, 60), 0.9))
            frames.append(make_frame(f, dets))
        tracker = Tracker(cfg(min_hits=1, lost_maintain_frames=0,
                              enable_lost_maintain=False, mesh_threshold_slope=0.0))
        for fd in frames:
            tracker.step(fd)
        assert tracker.grid.frequent

    @pytest.mark.parametrize("key, value, rule", [
        ("init_conf", 2.0, "lie in [0, 1]"),
        ("occlusion_iou", float("nan"), "lie in [0, 1]"),
        ("conf_low", -0.1, "lie in [0, 1]"),
        ("conf_high", float("inf"), "lie in [0, 1]"),
        ("gate_first", float("nan"), "lie in [0, 1]"),
        ("gate_second", 1.5, "lie in [0, 1]"),
        ("buffer_scale", float("inf"), "be finite and >= 0"),
        ("mesh_threshold_slope", float("nan"), "be finite and >= 0"),
        ("frame_width", float("inf"), "be finite and > 0"),
        ("frame_height", 0.0, "be finite and > 0"),
        ("pos_std_weight", 0.0, "be finite and > 0"),
        ("vel_std_weight", float("nan"), "be finite and > 0"),
    ])
    def test_out_of_range_value_is_named(self, key, value, rule):
        with pytest.raises(ValueError) as exc:
            Tracker(cfg(**{key: value}))
        assert str(exc.value) == f"{key} must {rule}"

    def test_mesh_cell_count_is_bounded(self):
        assert Tracker(cfg(mesh_cols=1000, mesh_rows=1000)).grid.counts.size == 1_000_000
        # 2**32 squared wraps to 0 in int64; the bound multiplies Python ints.
        for cols, rows in ((1000, 1001), (np.int64(2**32), np.int64(2**32))):
            with pytest.raises(ValueError, match=r"^mesh_cols \* mesh_rows must be at most 1,000,000 cells$"):
                Tracker(cfg(mesh_cols=cols, mesh_rows=rows))

    def test_init_threshold_never_undercuts_conf_low(self):
        tracker = Tracker(cfg(min_hits=1, init_conf=0.02, conf_low=0.1))
        out = tracker.step(make_frame(1, [(box(100), 0.05)]))
        assert out.records == ()
        assert tracker.tracks == []


class TestStats:
    def test_doomed_predicts_counted(self):
        c = cfg(lost_maintain_frames=0, enable_lost_maintain=False, max_age=5,
                location_age_reduction=0, min_hits=1)
        tracker = Tracker(c)
        tracker.step(make_frame(1, [(box(100), 0.9)]))
        for f in range(2, 9):
            tracker.step(make_frame(f, []))
        stats = tracker.stats()
        assert stats.removed == 1
        assert stats.doomed_predicts == 5
        assert stats.predicts == 5

    @pytest.mark.parametrize("kw, frames", [
        (dict(min_hits=3), 2),  # a tentative track missed once
        (dict(min_hits=1, lost_maintain_frames=2), 8),  # maintained twice, then lost five frames
    ])
    def test_every_predict_of_a_removed_track_is_doomed(self, kw, frames):
        tracker = Tracker(cfg(max_age=5, location_age_reduction=0, **kw))
        tracker.step(make_frame(1, [(box(100), 0.9)]))
        for f in range(2, frames + 1):
            assert tracker.stats().removed == 0
            tracker.step(make_frame(f, []))
        stats = tracker.stats()
        assert (stats.removed, stats.predicts, stats.doomed_predicts) == (1, frames - 1, frames - 1)


def _reappearance_box_error(scene, rollback):
    """1 − IoU of the ground-truth box and the target's one-step forecast at the frame it reappears."""
    gt, frames = synth.generate(scene)
    tracker = Tracker(TrackerConfig.baseline(
        frame_width=scene.frame_width, frame_height=scene.frame_height,
        enable_velocity_rollback=rollback, min_hits=1))
    present = [fd.index for fd in frames if fd.detections]
    gap = [f for f in range(2, scene.frames + 1) if f not in present]
    reappear = min(f for f in present if f > max(gap))
    for fd in frames:
        if fd.index == reappear:
            break
        tracker.step(fd)
    [track] = [t for t in tracker.tracks if t.track_id == 1]
    forecast = BoundingBox(*state_box((track.kf.parts[0] + track.kf.parts[1])[None])[0])
    return 1.0 - iou(forecast, gt[1][reappear])


def test_rollback_improves_the_size_forecast_at_reappearance():
    """Rolling the velocity back to before the noisy frames ahead of a gap
    brings the forecast box closer to where the target reappears."""
    scenes = [scenarios.rollback_scene(seed) for seed in range(1, 51)]
    errs = {rollback: np.mean([_reappearance_box_error(s, rollback) for s in scenes])
            for rollback in (False, True)}
    assert errs[True] < errs[False]


# --- metamorphic properties --------------------------------------------------

_SCENES = {
    "c11": lambda seed: scenarios.throughput_scene(seed=seed, n_agents=30, frames=200),
    "transient": scenarios.transient_occlusion_scene,
    "exit": scenarios.exit_scene,
    "rollback": scenarios.rollback_scene,
    "crossing": scenarios.crossing_scene,
}
_METAMORPHIC_SCENES = [("c11", 9)] + [
    (family, seed) for family in ("transient", "exit", "rollback", "crossing") for seed in (1, 2, 3)
]


@functools.cache
def _scene_run(family, seed):
    """(scene, detection frames, tracker output) with virtual boxes emitted; shared, not mutated."""
    scene = _SCENES[family](seed)
    _, frames = synth.generate(scene)
    return scene, tuple(frames), _virtual_run(scene, frames, 1.0)


def _virtual_run(scene, frames, scale):
    cfg = TrackerConfig(emit_virtual=True, frame_width=scene.frame_width * scale,
                        frame_height=scene.frame_height * scale)
    return run(cfg, frames)


@settings(max_examples=12, deadline=None)
@given(key=st.sampled_from(_METAMORPHIC_SCENES), k=st.integers(-8, 8))
def test_power_of_two_scaling_keeps_ids_and_scales_boxes_exactly(key, k):
    scene, frames, base = _scene_run(*key)
    f = 2.0 ** k
    scaled = [
        FrameDetections(fd.index, tuple(
            Detection(BoundingBox(*(v * f for v in d.box.as_ltwh())), d.score) for d in fd.detections
        ))
        for fd in frames
    ]
    out = _virtual_run(scene, scaled, f)
    assert len(out) == len(base)
    for got, want in zip(out, base):
        assert [r.track_id for r in got.records] == [r.track_id for r in want.records]
        assert [r.score for r in got.records] == [r.score for r in want.records]
        assert [r.box.as_ltwh() for r in got.records] == [
            tuple(v * f for v in r.box.as_ltwh()) for r in want.records
        ]


@pytest.mark.parametrize("k", [-12, -16, -20])
def test_power_of_two_scaling_holds_far_below_a_pixel(k):
    # Boxes of 2^-12 px and less: no floor on the filter's area, aspect or
    # height may move them, on any of the scenes.
    f = 2.0 ** k
    for key in _METAMORPHIC_SCENES:
        scene, frames, base = _scene_run(*key)
        scaled = [
            FrameDetections(fd.index, Detections(fd.detections.boxes * f, fd.detections.scores))
            for fd in frames
        ]
        out = _virtual_run(scene, scaled, f)
        assert [fo.records.ids.tolist() for fo in out] == [fo.records.ids.tolist() for fo in base], key
        assert [fo.records.scores.tolist() for fo in out] == [fo.records.scores.tolist() for fo in base], key
        assert [fo.records.boxes.tolist() for fo in out] == [(fo.records.boxes * f).tolist() for fo in base], key


def _trajectories(outputs):
    """The output's trajectories with their ids dropped, in a canonical order."""
    trajs = defaultdict(list)
    for fo in outputs:
        for r in fo.records:
            trajs[r.track_id].append((fo.index, r.box.as_ltwh(), r.score))
    return sorted(trajs.values())


@settings(max_examples=12, deadline=None)
@given(key=st.sampled_from(_METAMORPHIC_SCENES), seed=st.integers(0, 2**32 - 1))
def test_detection_order_within_a_frame_only_renames_ids(key, seed):
    # Spawned ids follow detection order, so the ids may change, but only by
    # one renaming that holds over the whole sequence.
    scene, frames, base = _scene_run(*key)
    rng = np.random.default_rng(seed)
    shuffled = [
        FrameDetections(fd.index, tuple(fd.detections[i] for i in rng.permutation(len(fd.detections))))
        for fd in frames
    ]
    assert _trajectories(_virtual_run(scene, shuffled, 1.0)) == _trajectories(base)


# A detection stream: per frame, (x, y, score) on a coarse grid, so that boxes
# often overlap or coincide, with scores on both sides of each threshold.
_STREAMS = st.lists(
    st.lists(st.tuples(st.integers(0, 10), st.integers(0, 6), st.sampled_from([0.05, 0.3, 0.65, 0.9])), max_size=6),
    min_size=1, max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(source=st.one_of(st.sampled_from(_METAMORPHIC_SCENES[1:]), _STREAMS), emit_virtual=st.booleans(),
       min_hits=st.sampled_from([1, 3]), lost_maintain_frames=st.sampled_from([0, 3]))
def test_track_and_output_ids_ascend_after_every_step(source, emit_virtual, min_hits, lost_maintain_frames):
    # The output is not sorted: it relies on rows in creation order with ids counting up.
    if isinstance(source, tuple):  # a family scene
        frames = _scene_run(*source)[1]
    else:
        frames = [make_frame(f, [(BoundingBox(40.0 * x, 40.0 * y, 50.0, 80.0), s) for x, y, s in dets])
                  for f, dets in enumerate(source, start=1)]
    tracker = Tracker(cfg(emit_virtual=emit_virtual, min_hits=min_hits, lost_maintain_frames=lost_maintain_frames))
    for fd in frames:
        out = tracker.step(fd)
        assert (np.diff(tracker.table.ids) > 0).all()
        assert (np.diff(out.records.ids) > 0).all()
