"""Detector noise keyed by (seed, frame, agent, purpose): common random numbers.

A detection's miss draw and size noise depend on its key alone, so two runs
that differ only in ``miss_prob`` or ``min_visibility`` give every detection
that both keep byte for byte the same box and score. The keyed uniforms and
normals must also look like independent draws: the right mean and variance,
no correlation between a row's miss draw and its normals, and none between
an agent's draws in neighbouring frames.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshsort import scenarios, synth
from meshsort.synth import generate

from oracles import NormalStream, keyed_normals, keyed_uniform, stream_draws
from test_synth_equivalence import _scenes


def _lines(frames):
    """Per frame, the multiset of its detections as exact (box, score) bits."""
    return [Counter(tuple(map(float.hex, (d.box.left, d.box.top, d.box.width, d.box.height, d.score)))
                    for d in fd.detections) for fd in frames]


def _lost(sparse, dense) -> int:
    """Detections of the sparser run that the denser run does not hold byte for byte."""
    assert len(sparse) == len(dense)
    return sum(sum((s - d).values()) for s, d in zip(_lines(sparse), _lines(dense)))


def _sparser(scene, miss_step: float, vis_step: float):
    return dataclasses.replace(scene, miss_prob=min(scene.miss_prob + miss_step, 1.0),
                               min_visibility=scene.min_visibility + vis_step)


@settings(max_examples=150, deadline=None)
@given(scene=_scenes(), miss_step=st.sampled_from([0.0, 0.05, 0.3]), vis_step=st.sampled_from([0.0, 0.05, 0.4]))
def test_raising_miss_prob_or_min_visibility_keeps_every_shared_detection(scene, miss_step, vis_step):
    _, dense = generate(scene)
    _, sparse = generate(_sparser(scene, miss_step, vis_step))
    assert _lost(sparse, dense) == 0


C11 = scenarios.throughput_scene(seed=9, n_agents=30, frames=1000)


@pytest.mark.parametrize("miss_step,vis_step", [(0.01, 0.0), (0.0, 0.05)], ids=["miss_prob", "min_visibility"])
def test_c11_settings_share_their_noise(miss_step, vis_step, monkeypatch):
    sparser = _sparser(C11, miss_step, vis_step)
    _, dense = generate(C11)
    _, sparse = generate(sparser)
    n_sparse, n_dense = (sum(len(fd.detections) for fd in frames) for frames in (sparse, dense))
    assert n_sparse < n_dense
    assert _lost(sparse, dense) == 0
    # The sequential stream the keyed draws replaced fails the same check: one
    # draw more or less shifts the noise of nearly every later detection.
    monkeypatch.setattr(synth, "_keyed_draws", lambda seed, frame, agent, noisy, miss_prob:
                        stream_draws(NormalStream(seed), noisy.tolist(), miss_prob))
    _, dense = generate(C11)
    _, sparse = generate(sparser)
    assert _lost(sparse, dense) > 3000


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-2**70, 2**70), frame=st.integers(1, synth.MAX_FRAME), agent=st.integers(0, 2**40 - 1))
def test_keyed_uniforms_match_the_scalar_oracle(seed, frame, agent):
    got = synth._keyed_uniforms(seed, np.array([frame]), np.array([agent]))
    assert got.tolist() == [[keyed_uniform(seed, frame, agent, purpose) for purpose in range(3)]]


def test_generate_normals_equal_the_math_oracle_bit_for_bit(monkeypatch):
    # numpy's vectorised log differs from math.log in the last bit on some
    # inputs on some CPUs; over 10,000 pairs a numpy transform shows it.
    calls = []
    keyed_draws = synth._keyed_draws

    def recorded(seed, frame, agent, noisy, miss_prob):
        out = keyed_draws(seed, frame, agent, noisy, miss_prob)
        calls.append((seed, frame, agent, noisy, out))
        return out
    monkeypatch.setattr(synth, "_keyed_draws", recorded)
    generate(scenarios.throughput_scene(seed=9, n_agents=100, frames=400))
    [(seed, frame, agent, noisy, (kept, normals))] = calls
    rows = kept & noisy
    assert len(normals) == rows.sum() >= 10_000
    want = [keyed_normals(seed, f, a) for f, a in zip(frame[rows].tolist(), agent[rows].tolist())]
    assert list(map(float.hex, normals.ravel().tolist())) == [float.hex(z) for pair in want for z in pair]


FRAMES, AGENTS = 200, 100


@pytest.fixture(scope="module", params=[1, 2, 3])
def grid(request):
    """Keyed uniforms and normals of every (frame, agent) in a 200 x 100 grid, as (frames, agents, ...) arrays."""
    frame, agent = (a.ravel() for a in np.meshgrid(np.arange(1, FRAMES + 1), np.arange(AGENTS), indexing="ij"))
    u = synth._keyed_uniforms(request.param, frame, agent)
    _, normals = synth._keyed_draws(request.param, frame, agent, np.ones(len(frame), dtype=bool), 0.0)
    return u.reshape(FRAMES, AGENTS, 3), normals.reshape(FRAMES, AGENTS, 2)


def _corr(a, b) -> float:
    return float(np.corrcoef(a.ravel(), b.ravel())[0, 1])


def test_keyed_uniforms_have_uniform_moments(grid):
    u, _ = grid
    assert ((u >= 0.0) & (u < 1.0)).all()
    for purpose in range(3):
        assert abs(u[..., purpose].mean() - 0.5) < 0.01
        assert abs(u[..., purpose].var() - 1 / 12) < 0.005


def test_keyed_normals_have_normal_moments(grid):
    _, z = grid
    for k in range(2):
        assert abs(z[..., k].mean()) < 0.03
        assert abs(z[..., k].var() - 1.0) < 0.05
    assert abs(_corr(z[..., 0], z[..., 1])) < 0.03


def test_miss_draw_is_not_correlated_with_the_normals(grid):
    u, z = grid
    for k in range(2):
        assert abs(_corr(u[..., 0], z[..., k])) < 0.03
        assert abs(_corr(u[..., 0], np.abs(z[..., k]))) < 0.03


def test_draws_are_not_correlated_between_neighbouring_frames_or_agents(grid):
    u, z = grid
    for draws in (u[..., 0], u[..., 1], u[..., 2], z[..., 0], z[..., 1]):
        assert abs(_corr(draws[1:], draws[:-1])) < 0.03  # the same agent, frame f and f + 1
        assert abs(_corr(draws[:, 1:], draws[:, :-1])) < 0.03  # agents a and a + 1 in one frame
