"""The array-backed scene generator against the per-agent reference generator.

Every comparison is exact equality of the ground-truth dicts and of every
``FrameDetections``, not of the two-decimal files: the generator must give
the reference's floating-point boxes, confidences and RNG draws bit for bit.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from meshsort import scenarios, synth
from meshsort.geometry import BoundingBox
from meshsort.synth import AgentSpec, SceneConfig, generate

from oracles import reference_generate

FAMILIES = (
    scenarios.transient_occlusion_scene,
    scenarios.exit_scene,
    scenarios.rollback_scene,
    scenarios.crossing_scene,
)


def _assert_same(scene):
    gt, frames = generate(scene)
    ref_gt, ref_frames = reference_generate(scene)
    assert gt == ref_gt
    assert len(frames) == len(ref_frames)
    for fd, ref in zip(frames, ref_frames):
        assert fd == ref, f"frame {ref.index}"
    return gt, frames


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", (1, 2, 3, 4, 5))
def test_occlusion_families_match_reference(family, seed):
    _assert_same(family(seed))


@pytest.mark.parametrize("detector_seed", (9, 10, 11))
def test_c11_scene_matches_reference(detector_seed):
    layout = scenarios.throughput_scene(seed=9, n_agents=30, frames=1000)
    _assert_same(dataclasses.replace(layout, seed=detector_seed))


def test_dense_scene_matches_reference():
    _, frames = _assert_same(scenarios.throughput_scene(seed=9, n_agents=100, frames=200))
    # Partial cover actually happens: some detections carry the reduced confidence.
    assert any(d.score < 0.9 for fd in frames for d in fd.detections)


@pytest.mark.parametrize("cells", (1, 40, 500))
def test_overlap_blocks_do_not_change_output(cells, monkeypatch):
    # 1 and 40 make each frame one block; 500 packs two frames of the exit scene's
    # 15 agents, or four of the transient scene's 11, into one block.
    monkeypatch.setattr(synth, "_OVERLAP_CELLS", cells)
    _assert_same(scenarios.exit_scene(2))
    _assert_same(scenarios.transient_occlusion_scene(4))


# A small frame and few positions, so that boxes often overlap, touch edge to
# edge, coincide, or stick out of the frame; integer and real coordinates mix.
_FRAME_W, _FRAME_H = 120.0, 90.0
_coords = st.sampled_from([-15.0, 0, 7.5, 20, 33.25, 60.0, 100, 118.0, 140.0])
_sizes = st.sampled_from([5, 12.5, 20.0, 40.0])


@st.composite
def _agents(draw, frames):
    spawn = draw(st.integers(1, frames))
    despawn = draw(st.integers(spawn, frames))
    times = sorted(draw(st.sets(st.integers(spawn, despawn), min_size=1, max_size=4)))
    path = tuple((t, draw(_coords), draw(_coords)) for t in times)
    return AgentSpec(spawn, despawn, draw(_sizes), draw(_sizes), path)


@st.composite
def _scenes(draw):
    frames = draw(st.integers(1, 25))
    occluder = st.builds(BoundingBox, _coords, _coords, _sizes, _sizes)
    return SceneConfig(
        frame_width=_FRAME_W,
        frame_height=_FRAME_H,
        frames=frames,
        seed=draw(st.integers(0, 2**32)),
        sigma_area=draw(st.sampled_from([0.0, 0.15, 0.6])),
        sigma_ratio=draw(st.sampled_from([0.0, 0.1, 0.6])),
        min_visibility=draw(st.sampled_from([0.0, 0.3, 0.9])),
        miss_prob=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        agents=draw(st.lists(_agents(frames), max_size=8)),
        occluders=draw(st.lists(occluder, max_size=3)),
    )


_TWO_ON_WAYPOINTS = SceneConfig(
    frame_width=_FRAME_W,
    frame_height=_FRAME_H,
    frames=12,
    seed=3,
    miss_prob=0.2,
    agents=[
        # Late spawn, frames before the first and after the last waypoint.
        AgentSpec(3, 12, 20.0, 40.0, ((5, 10.0, 20.0), (8, 70.0, 45.5), (10, 130.0, 45.5))),
        # Single waypoint, half outside the frame, in front of the first agent.
        AgentSpec(1, 12, 40.0, 20.0, ((6, 115.0, 40.0),)),
    ],
    occluders=[BoundingBox(40.0, 30.0, 12.5, 20.0)],
)


@settings(max_examples=200, deadline=None)
@given(scene=_scenes())
@example(scene=_TWO_ON_WAYPOINTS)
def test_random_scenes_match_reference(scene):
    _assert_same(scene)
