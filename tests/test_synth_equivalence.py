"""The array-backed scene generator against the per-agent reference generator.

Every comparison is exact equality of the ground-truth dicts and of every
``FrameDetections``, not of the two-decimal files: the generator must give
the reference's floating-point boxes, confidences and keyed draws bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from meshsort import scenarios, synth
from meshsort.geometry import BoundingBox
from meshsort.synth import AgentSpec, SceneConfig, Xoshiro256StarStar, generate

from oracles import _hidden, keyed_normals, keyed_uniform, reference_generate

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


def test_crowded_scene_matches_reference():
    # 300 agents on the 960 x 540 frame: many agent-frames have three or more
    # covers, so the union-area batches beyond the closed forms all run.
    scene = scenarios.throughput_scene(seed=9, n_agents=300, frames=20)
    frame, agent, _ = synth._later_overlaps(synth._agent_ltrb(scene))
    assert np.bincount(frame * len(scene.agents) + agent).max() >= 3
    _assert_same(scene)


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


# Box edges on a coarse grid reaching past a 60 x 40 frame, so that edges are
# shared, covers repeat, and boxes and covers stick out of the frame or lie
# wholly outside it. Edges such as 3.3 make cell areas round, so that the
# order in which they are summed shows.
_EDGES = st.sampled_from([-30.0, -10.0, 0.0, 3.3, 12.5, 17.1, 20.0, 29.9, 30.0, 45.0, 51.7, 60.0, 75.0])
_VIS_FRAME = (60.0, 40.0)


@st.composite
def _ltrb_box(draw):
    left, right = sorted(draw(st.sets(_EDGES, min_size=2, max_size=2)))
    top, bottom = sorted(draw(st.sets(_EDGES, min_size=2, max_size=2)))
    return left, top, right, bottom


@st.composite
def _cover_scenes(draw):
    """(ltrb, occluders): up to 5 agents over up to 4 frames, some absent, and up to 2 occluders."""
    frames, agents = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    ltrb = np.full((4, frames, agents), np.nan)
    for f in range(frames):
        for a in range(agents):
            if draw(st.booleans()) or a == 0:
                ltrb[:, f, a] = draw(_ltrb_box())
    occluders = np.array(draw(st.lists(_ltrb_box(), max_size=2)), dtype=np.float64).reshape(-1, 4)
    return ltrb, occluders


def _scalar_hidden(ltrb, occluders):
    """``_hidden`` per live agent-frame, frame-major, with every occluder and later live agent as a cover."""
    out = []
    for f, a in zip(*np.nonzero(~np.isnan(ltrb[0]))):
        box = tuple(ltrb[:, f, a].tolist())
        covers = [tuple(c) for c in occluders.tolist()]
        covers += [tuple(ltrb[:, f, j].tolist()) for j in range(a + 1, ltrb.shape[2]) if not np.isnan(ltrb[0, f, j])]
        out.append(_hidden(box, (box[2] - box[0]) * (box[3] - box[1]), covers, _VIS_FRAME))
    return out


def _batched_hidden(ltrb, occluders):
    live = ~np.isnan(ltrb[0])
    box = ltrb[:, live]
    return synth._hidden_fractions(ltrb, (box[2] - box[0]) * (box[3] - box[1]), occluders, _VIS_FRAME).tolist()


def _case(*boxes, occluders=()):
    """One frame whose agents are ``boxes``, front-most last."""
    return (np.array(boxes, dtype=np.float64).T[:, None, :],
            np.array(occluders, dtype=np.float64).reshape(-1, 4))


@settings(max_examples=300, deadline=None)
@given(scene=_cover_scenes())
# Partly out of frame; two covers overlap each other only outside it, one clips to nothing.
@example(scene=_case((-30.0, 0.0, 30.0, 30.0), (-30.0, 0.0, -10.0, 20.0), (-30.0, 10.0, 0.0, 30.0)))
# Wholly out of frame, with a cover over it.
@example(scene=_case((60.0, 0.0, 75.0, 20.0), occluders=[(45.0, 0.0, 75.0, 40.0)]))
# Shared edges and a repeated cover: zero-width cells between duplicate coordinates.
@example(scene=_case((0.0, 0.0, 30.0, 30.0), (0.0, 0.0, 12.5, 30.0), (12.5, 0.0, 30.0, 12.5),
                     (12.5, 0.0, 30.0, 12.5), occluders=[(0.0, 0.0, 12.5, 30.0), (20.0, 20.0, 45.0, 45.0)]))
def test_batched_visibility_matches_scalar_bit_for_bit(scene):
    batched, scalar = _batched_hidden(*scene), _scalar_hidden(*scene)
    assert list(map(float.hex, batched)) == list(map(float.hex, scalar))


@pytest.mark.parametrize("miss_prob", (0.0, 0.2, 1.0))
def test_keyed_draws_match_the_scalar_oracle(miss_prob):
    # 400 candidates over frames up to MAX_FRAME and agents past 2**32, so the
    # hash's high bits and the uint64 wraparound all show.
    pattern = Xoshiro256StarStar(17)
    frame = np.array([1 + int(pattern.uniform() * synth.MAX_FRAME) for _ in range(398)] + [1, synth.MAX_FRAME])
    agent = np.array([int(pattern.uniform() * 2**34) for _ in range(398)] + [2**40 - 1, 0])
    noisy = np.array([pattern.uniform() < 0.4 for _ in range(400)])
    seed = 5
    kept, normals = synth._keyed_draws(seed, frame, agent, noisy, miss_prob)
    want_kept = [keyed_uniform(seed, f, a, 0) >= miss_prob for f, a in zip(frame.tolist(), agent.tolist())]
    want_normals = [z for f, a, k, n in zip(frame.tolist(), agent.tolist(), want_kept, noisy.tolist()) if k and n
                    for z in keyed_normals(seed, f, a)]
    assert kept.tolist() == want_kept
    assert list(map(float.hex, normals.ravel().tolist())) == list(map(float.hex, want_normals))
    all_or_none = {0.0: len(noisy), 1.0: 0}
    if miss_prob in all_or_none:
        assert kept.sum() == all_or_none[miss_prob]
    else:
        assert 0 < kept.sum() < len(noisy)
