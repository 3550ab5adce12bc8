"""The one-sweep evaluator against the pair-loop reference, and its metamorphic properties.

Every comparison is whole-report equality (``==`` on the dataclass, per-threshold
dicts included), not approximate: the sweep must reproduce the reference's
floating-point results bit for bit.
"""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from meshsort import scenarios, synth
from meshsort.config import TrackerConfig
from meshsort.geometry import BoundingBox
from meshsort.metrics import evaluate
from meshsort.motfiles import outputs_to_trajectories
from meshsort.pipeline import run

from oracles import reference_evaluate, reference_hota, reference_hota_full

FAMILIES = (
    scenarios.transient_occlusion_scene,
    scenarios.exit_scene,
    scenarios.rollback_scene,
    scenarios.crossing_scene,
)


def _tracked(scene, cfg):
    gt, dets = synth.generate(scene)
    return gt, outputs_to_trajectories(run(cfg, dets))


def _configs(scene):
    size = dict(frame_width=scene.frame_width, frame_height=scene.frame_height)
    return {"baseline": TrackerConfig.baseline(**size), "full": TrackerConfig(**size)}


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_occlusion_families_match_reference(family, seed):
    scene = family(seed)
    for arm, cfg in _configs(scene).items():
        gt, res = _tracked(scene, cfg)
        assert evaluate(gt, res) == reference_evaluate(gt, res), arm


def test_throughput_scene_matches_reference():
    scene = scenarios.throughput_scene(seed=9, frames=120, n_agents=30)
    gt, res = _tracked(scene, _configs(scene)["full"])
    report = evaluate(gt, res)
    assert report == reference_evaluate(gt, res)
    assert report.fn and report.mota < 1.0  # a scene with errors, not a trivial one
    assert evaluate(gt, res, iou_thr=0.3) == reference_evaluate(gt, res, iou_thr=0.3)


# Few positions and sizes, so that boxes often coincide or overlap exactly
# at the HOTA thresholds; ids and frames are sparse, so both have gaps.
_boxes = st.builds(
    BoundingBox,
    st.sampled_from([0.0, 4.0, 10.0, 30.0]),
    st.sampled_from([0.0, 5.0]),
    st.sampled_from([10.0, 20.0]),
    st.sampled_from([10.0, 20.0]),
)
_trajectories = st.dictionaries(st.integers(0, 9), _boxes, max_size=6)
_result_sets = st.dictionaries(st.integers(1, 40), _trajectories, max_size=5)
_gt_sets = _result_sets.filter(lambda trajs: any(trajs.values()))
_thresholds = st.sampled_from([0.25, 0.5, 0.8])

_A = BoundingBox(0.0, 0.0, 10.0, 10.0)
_B = BoundingBox(4.0, 0.0, 10.0, 10.0)


@settings(max_examples=150, deadline=None)
@given(gt=_gt_sets, res=_result_sets, iou_thr=_thresholds)
@example(gt={1: {0: _A, 1: _A}}, res={}, iou_thr=0.5)  # empty result
@example(gt={1: {2: _A}}, res={5: {0: _A, 1: _B, 2: _A}, 6: {0: _B}}, iou_thr=0.5)  # result-only frames
@example(  # coincident boxes on both sides, ids with gaps
    gt={2: {0: _A, 1: _A, 3: _A}, 9: {0: _A, 1: _A, 3: _B}},
    res={4: {0: _A, 1: _A, 3: _A}, 30: {0: _A, 1: _A, 2: _A, 3: _A}, 31: {}},
    iou_thr=0.25,
)
# _A and _B overlap by 3/7.
@example(gt={1: {0: _A, 1: _A}}, res={1: {0: _A, 1: _B}, 2: {1: _A}}, iou_thr=0.5)  # carried pair falls below
@example(  # frame 1's only free overlap is below the threshold: no assignment
    gt={1: {0: _A, 1: _A}, 2: {1: _B}}, res={1: {0: _A, 1: _A}, 2: {1: _A}}, iou_thr=0.5,
)
@example(gt={1: {0: _A, 1: _A, 2: _A}}, res={1: {0: _A, 2: _B}, 2: {2: _A}}, iou_thr=0.25)  # partner absent: carry resets
def test_random_sets_match_reference(gt, res, iou_thr):
    assert evaluate(gt, res, iou_thr) == reference_evaluate(gt, res, iou_thr)



# The evaluator solves each frame's HOTA assignment over the frame's shared
# block only, and so does ``reference_hota``; ``reference_hota_full`` solves the
# whole frame matrix. The optimum is the same; only exact ties may fall apart.


@st.composite
def _continuous_sets(draw):
    """A (gt, res) pair with ids and frames from hypothesis and boxes drawn from a
    continuous distribution, so that no two overlaps or matchings tie exactly."""
    layout = st.dictionaries(st.integers(1, 40), st.sets(st.integers(0, 9), max_size=6), max_size=5)
    gt_frames = draw(layout.filter(lambda trajs: any(trajs.values())))
    res_frames = draw(layout)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def boxes(frames_of):
        return {
            tid: {f: BoundingBox(rng.uniform(0, 30), rng.uniform(0, 10), rng.uniform(8, 20), rng.uniform(8, 20))
                  for f in frames}
            for tid, frames in frames_of.items()
        }

    return boxes(gt_frames), boxes(res_frames)


@settings(max_examples=150, deadline=None)
@given(pair=_continuous_sets())
def test_block_oracle_matches_full_frame_oracle_without_ties(pair):
    gt, res = pair
    assert reference_hota(gt, res) == reference_hota_full(gt, res)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_block_oracle_matches_full_frame_oracle_on_families(family, seed):
    scene = family(seed)
    for arm, cfg in _configs(scene).items():
        gt, res = _tracked(scene, cfg)
        assert reference_hota(gt, res) == reference_hota_full(gt, res), arm


def test_block_oracle_matches_full_frame_oracle_on_throughput_scene():
    scene = scenarios.throughput_scene(seed=9, n_agents=30, frames=1000)
    gt, res = _tracked(scene, _configs(scene)["full"])
    assert reference_hota(gt, res) == reference_hota_full(gt, res)


def test_exact_tie_goes_to_the_lower_result_id():
    # Frame 0: gt 1 sits under results 1 and 2 with identical boxes and equal
    # alignment (1/2 each), a tie; gt 0 overlaps nothing. The shared block is
    # 1 x 2 and the tie goes to its first column, result 1. Matching result 2
    # instead would give sqrt(1 / 6) at every threshold.
    far = BoundingBox(100.0, 100.0, 10.0, 10.0)
    away = BoundingBox(300.0, 300.0, 10.0, 10.0)
    gt = {0: {0: far}, 1: {0: _A, 1: _A}}
    res = {1: {0: _A}, 2: {0: _A, 1: _A, 2: away, 3: away}}
    want = math.sqrt((1 / 2 + 1 / 5) / 6)  # (1, 1) once, (1, 2) once; 3 + 5 - 2 boxes
    report = evaluate(gt, res)
    assert report == reference_evaluate(gt, res)
    assert list(report.hota_per_alpha.values()) == [pytest.approx(want)] * len(report.hota_per_alpha)
    assert reference_hota(gt, res).value == pytest.approx(want)


def _shuffled(trajs, rng):
    ids = list(trajs)
    rng.shuffle(ids)
    out = {}
    for tid in ids:
        frames = list(trajs[tid])
        rng.shuffle(frames)
        out[tid] = {f: trajs[tid][f] for f in frames}
    return out


def _shifted(trajs, offset):
    return {tid: {f + offset: b for f, b in per.items()} for tid, per in trajs.items()}


def _relabelled(trajs, gaps):
    """Ids renumbered by a strictly increasing map: the k-th smallest id gets sum(gaps[:k + 1])."""
    new, total = {}, 0
    for tid, gap in zip(sorted(trajs), gaps):
        total += gap
        new[tid] = total
    return {new[tid]: per for tid, per in trajs.items()}


@pytest.fixture(scope="module")
def tracked_scene():
    scene = scenarios.crossing_scene(2)
    return _tracked(scene, _configs(scene)["full"])


class TestMetamorphic:
    def test_insertion_order(self, tracked_scene):
        gt, res = tracked_scene
        rng = random.Random(7)
        assert evaluate(_shuffled(gt, rng), _shuffled(res, rng)) == evaluate(gt, res)

    def test_frame_shift(self, tracked_scene):
        gt, res = tracked_scene
        for offset in (-40, 1000):
            assert evaluate(_shifted(gt, offset), _shifted(res, offset)) == evaluate(gt, res)

    def test_increasing_relabel(self, tracked_scene):
        gt, res = tracked_scene
        gaps = [1 + 3 * k for k in range(len(res))]
        assert evaluate(gt, _relabelled(res, gaps)) == evaluate(gt, res)

    @settings(max_examples=80, deadline=None)
    @given(
        gt=_gt_sets,
        res=_result_sets,
        seed=st.integers(0, 2**16),
        offset=st.integers(-50, 50),
        gaps=st.lists(st.integers(1, 9), min_size=5, max_size=5),
    )
    def test_random_sets(self, gt, res, seed, offset, gaps):
        want = evaluate(gt, res)
        rng = random.Random(seed)
        assert evaluate(_shuffled(gt, rng), _shuffled(res, rng)) == want
        assert evaluate(_shifted(gt, offset), _shifted(res, offset)) == want
        assert evaluate(gt, _relabelled(res, gaps)) == want
