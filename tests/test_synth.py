import hashlib
import math
import re

import numpy as np
import pytest

from meshsort import scenarios
from meshsort.config import TrackerConfig, field_types
from meshsort.geometry import BoundingBox
from meshsort.motfiles import format_scene, parse_scene
from meshsort.pipeline import Tracker
from meshsort.synth import (
    MIN_AGENT_SIZE,
    AgentSpec,
    SceneConfig,
    Xoshiro256StarStar,
    _size_noise,
    generate,
)

from oracles import NormalStream, covered_fraction, max_speed, semi_occlusion_noise


class TestPrng:
    def test_deterministic_per_seed(self):
        a = Xoshiro256StarStar(42)
        b = Xoshiro256StarStar(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_seeds_give_distinct_streams(self):
        a = Xoshiro256StarStar(1)
        b = Xoshiro256StarStar(2)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_uniform_range_and_spread(self):
        rng = Xoshiro256StarStar(7)
        xs = [rng.uniform() for _ in range(20000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(np.mean(xs) - 0.5) < 0.01
        assert abs(np.var(xs) - 1 / 12) < 0.005

    def test_normal_moments(self):
        rng = NormalStream(11)
        xs = [rng.normal() for _ in range(20000)]
        assert abs(np.mean(xs)) < 0.03
        assert abs(np.std(xs) - 1.0) < 0.03


class TestAgentSpec:
    def test_interpolation_piecewise_linear(self):
        agent = AgentSpec(1, 21, 10, 20, ((1, 0.0, 0.0), (11, 100.0, 0.0), (21, 100.0, 50.0)))
        assert agent.center_at(6) == (50.0, 0.0)
        assert agent.center_at(16) == (100.0, 25.0)
        assert agent.center_at(1) == (0.0, 0.0)
        assert agent.center_at(21) == (100.0, 50.0)

    def test_waypoints_must_be_ordered(self):
        with pytest.raises(ValueError):
            AgentSpec(1, 10, 5, 5, ((5, 0.0, 0.0), (3, 1.0, 1.0))).validate()

    def test_waypoints_must_lie_in_lifespan(self):
        with pytest.raises(ValueError):
            AgentSpec(5, 10, 5, 5, ((1, 0.0, 0.0), (10, 1.0, 1.0))).validate()

    @pytest.mark.parametrize("agent", [
        AgentSpec(1, 10, math.nan, 5, ((1, 0.0, 0.0),)),
        AgentSpec(1, 10, 5, math.inf, ((1, 0.0, 0.0),)),
        AgentSpec(1, 10, 5, 5, ((1, 0.0, 0.0), (4, math.nan, 1.0))),
        AgentSpec(1, 10, 5, 5, ((1, 0.0, -math.inf),)),
    ])
    def test_non_finite_agent_rejected(self, agent):
        with pytest.raises(ValueError, match="non-finite"):
            agent.validate()

    @pytest.mark.parametrize("name", ["frame_width", "frame_height", "sigma_area", "sigma_ratio",
                                      "min_visibility", "miss_prob", "conf_base", "conf_penalty"])
    def test_non_finite_scene_field_rejected(self, name):
        with pytest.raises(ValueError, match=f"non-finite {name}"):
            SceneConfig(**{name: math.nan}).validate()

    def test_frames_bounded_by_the_readers_limit(self):
        SceneConfig(frames=1_000_000).validate()
        with pytest.raises(ValueError, match="^frames 1000001 above 1000000"):
            SceneConfig(frames=1_000_001).validate()

    def test_agent_cannot_outlive_scene(self):
        scene = SceneConfig(
            frames=10,
            agents=[AgentSpec(1, 20, 5, 5, ((1, 0.0, 0.0), (20, 1.0, 1.0)))],
        )
        with pytest.raises(ValueError):
            scene.validate()


class TestCoveredFraction:
    def test_unobstructed_in_frame(self):
        b = BoundingBox(100, 100, 20, 40)
        assert covered_fraction(b, [], (960, 540)) == 0.0

    def test_half_covered(self):
        b = BoundingBox(0, 0, 10, 10)
        occ = BoundingBox(5, 0, 10, 10)
        assert covered_fraction(b, [occ], (960, 540)) == pytest.approx(0.5)

    def test_overlapping_covers_not_double_counted(self):
        b = BoundingBox(0, 0, 10, 10)
        occ = [BoundingBox(0, 0, 6, 10), BoundingBox(4, 0, 6, 10)]
        assert covered_fraction(b, occ, (960, 540)) == pytest.approx(1.0)

    def test_out_of_frame_counts_as_hidden(self):
        b = BoundingBox(955, 100, 10, 10)  # half sticks out of a 960-wide frame
        assert covered_fraction(b, [], (960, 540)) == pytest.approx(0.5)

    def test_fully_out_of_frame(self):
        b = BoundingBox(2000, 100, 10, 10)
        assert covered_fraction(b, [], (960, 540)) == 1.0


class TestSemiOcclusionNoise:
    def test_fully_visible_is_identity(self):
        rng = NormalStream(3)
        z = np.array([10.0, 20.0, 800.0, 0.5])
        out = semi_occlusion_noise(z, 1.0, 0.5, 0.5, rng)
        np.testing.assert_array_equal(out, z)

    def test_zero_sigma_is_identity(self):
        rng = NormalStream(3)
        z = np.array([10.0, 20.0, 800.0, 0.5])
        out = semi_occlusion_noise(z, 0.4, 0.0, 0.0, rng)
        np.testing.assert_array_equal(out, z)

    def test_positions_never_touched(self):
        rng = NormalStream(3)
        for _ in range(100):
            z = np.array([123.0, 456.0, 800.0, 0.5])
            out = semi_occlusion_noise(z, 0.3, 0.8, 0.8, rng)
            assert out[0] == 123.0 and out[1] == 456.0

    def test_sizes_never_below_file_resolution(self):
        # A 4 x 40 box under heavy noise: the factors' own 1e-3 floor would
        # leave it 0.004 px wide, which the files write as 0.00.
        rng, twin = NormalStream(5), NormalStream(5)
        raised = 0
        for _ in range(500):
            out = semi_occlusion_noise(np.array([100.0, 300.0, 160.0, 0.1]), 0.1, 100.0, 100.0, rng)
            width, height = math.sqrt(out[2] * out[3]), math.sqrt(out[2] / out[3])
            assert min(width, height) >= MIN_AGENT_SIZE
            raised += min(width, height) < 1.001 * MIN_AGENT_SIZE
            twin.normal()
            twin.normal()
        assert raised > 50
        assert rng.next_u64() == twin.next_u64()  # two draws a call, no more

    def test_sample_std_matches_model(self):
        # At visibility 0.5 and sigma 0.2 the area multiplier has std 0.1.
        rng = NormalStream(99)
        area = 1000.0
        draws = []
        for _ in range(10000):
            z = np.array([0.0, 0.0, area, 1.0])
            draws.append(semi_occlusion_noise(z, 0.5, 0.2, 0.0, rng)[2])
        std = np.std(draws)
        assert abs(std - 0.1 * area) / (0.1 * area) < 0.05


class TestSizeNoise:
    """:func:`generate`'s batched size noise, held to the rules of :class:`TestSemiOcclusionNoise`."""

    def test_fully_visible_passes_through(self):
        boxes = np.array([[10.0, 20.0, 20.0, 40.0], [0.5, 0.25, 3.0, 7.0]])
        normals = np.array([[2.0, -1.5], [-3.0, 0.5]])
        out = _size_noise(boxes, np.ones(2), normals, 0.5, 0.5)
        np.testing.assert_array_equal(out, boxes)

    def test_sizes_never_below_file_resolution(self):
        # 500 boxes of 4 x 40 centred on (100, 300) under heavy noise, as in
        # TestSemiOcclusionNoise; centres stay where they were.
        rng = NormalStream(5)
        normals = np.array([rng.normal_pair() for _ in range(500)])
        boxes = np.tile([98.0, 280.0, 4.0, 40.0], (500, 1))
        out = _size_noise(boxes, np.full(500, 0.1), normals, 100.0, 100.0)
        smaller = out[:, 2:].min(axis=1)
        assert (smaller >= MIN_AGENT_SIZE).all()
        assert (smaller < 1.001 * MIN_AGENT_SIZE).sum() > 50
        np.testing.assert_allclose(out[:, :2] + out[:, 2:] / 2, [[100.0, 300.0]] * 500, rtol=0, atol=1e-9)


class TestGenerate:
    def _plain_scene(self, **kw):
        base = dict(
            frame_width=960.0,
            frame_height=540.0,
            frames=40,
            seed=5,
            sigma_area=0.0,
            sigma_ratio=0.0,
            min_visibility=0.3,
            miss_prob=0.0,
            conf_base=0.9,
            conf_penalty=0.5,
            agents=[
                AgentSpec(1, 40, 20, 40, ((1, 100.0, 200.0), (40, 500.0, 200.0))),
                AgentSpec(5, 35, 20, 40, ((5, 700.0, 400.0), (35, 700.0, 100.0))),
            ],
            occluders=[],
        )
        base.update(kw)
        return SceneConfig(**base)

    def test_noise_free_detections_equal_gt(self):
        scene = self._plain_scene()
        gt, dets = generate(scene)
        for fd in dets:
            for det in fd.detections:
                assert det.score == pytest.approx(0.9)
                hit = any(
                    abs(det.box.left - b.left) < 1e-9 and abs(det.box.top - b.top) < 1e-9
                    for per in gt.values()
                    for f, b in per.items()
                    if f == fd.index
                )
                assert hit

    def test_gt_covers_full_lifespans(self):
        scene = self._plain_scene()
        gt, _ = generate(scene)
        assert set(gt[1]) == set(range(1, 41))
        assert set(gt[2]) == set(range(5, 36))

    def test_determinism_identical_structures(self):
        scene_a = scenarios.rollback_scene(3)
        scene_b = scenarios.rollback_scene(3)
        gt_a, dets_a = generate(scene_a)
        gt_b, dets_b = generate(scene_b)
        assert dets_a == dets_b
        assert gt_a == gt_b

    def test_determinism_with_random_misses(self):
        # Random dropouts draw from the seeded stream, so reruns still agree.
        scene = self._plain_scene(miss_prob=0.2)
        _, dets_a = generate(scene)
        _, dets_b = generate(scene)
        assert dets_a == dets_b
        n_dets = sum(len(fd.detections) for fd in dets_a)
        n_slots = sum(
            1
            for fd in dets_a
            for agent in scene.agents
            if agent.spawn <= fd.index <= agent.despawn
        )
        assert n_dets < n_slots  # some detections actually dropped

    def test_visible_positions_exact(self):
        # Even with heavy size noise, detected centers equal gt centers.
        scene = scenarios.rollback_scene(8)
        gt, dets = generate(scene)
        for fd in dets:
            for det in fd.detections:
                gt_box = gt[1].get(fd.index)
                assert gt_box is not None
                gc = (gt_box.left + gt_box.width / 2, gt_box.top + gt_box.height / 2)
                dc = (det.box.left + det.box.width / 2, det.box.top + det.box.height / 2)
                assert dc[0] == pytest.approx(gc[0], abs=1e-9)
                assert dc[1] == pytest.approx(gc[1], abs=1e-9)

    def test_occluded_frames_have_no_detection(self):
        scene = scenarios.rollback_scene(2)
        _, dets = generate(scene)
        gap = [fd.index for fd in dets if not fd.detections]
        assert len(gap) >= 10

    def test_continuity_bounded_by_waypoint_speed(self):
        scene = scenarios.throughput_scene(seed=4, frames=200, n_agents=5)
        gt, _ = generate(scene)
        for idx, agent in enumerate(scene.agents):
            cap = max_speed(agent) + 1e-9
            per = gt[idx + 1]
            frames = sorted(per)
            for f0, f1 in zip(frames, frames[1:]):
                d = math.hypot(
                    per[f1].left - per[f0].left, per[f1].top - per[f0].top
                )
                assert d <= cap * (f1 - f0)

    def test_exit_losses_concentrate_on_right_border(self):
        scene = scenarios.exit_scene(1)
        _, dets = generate(scene)
        cfg = TrackerConfig(frame_width=scene.frame_width, frame_height=scene.frame_height)
        tracker = Tracker(cfg)
        for fd in dets:
            tracker.step(fd)
        counts = tracker.grid.counts
        right = counts[-1, :].sum()
        rest = counts[:-1, :].sum()
        assert right >= 8
        assert right > 3 * max(rest, 1)


class TestSceneGrammar:
    def test_round_trip(self):
        scene = scenarios.transient_occlusion_scene(2)
        back = parse_scene(format_scene(scene))
        assert back == scene

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_scene("bogus line without equals")
        with pytest.raises(ValueError, match="unknown scene key"):
            parse_scene("mystery = 4")
        with pytest.raises(ValueError, match="line 2"):
            parse_scene("frames = 10\nagent = spawn:1 despawn:2")

    def test_comments_and_blanks_ignored(self):
        scene = parse_scene(
            """
            # comment
            frames = 12

            agent = spawn:1 despawn:12 size:10x20 path:50,60@1 150,60@12
            """
        )
        assert scene.frames == 12
        assert len(scene.agents) == 1
        assert scene.agents[0].box_at(1).width == 10

    # sha256 of format_scene's text per scene: the files the suite writes stay
    # byte for byte as they were.
    FORMATTED = {
        "transient": "946cd470ae06f9a04a00108209d7ac64a56803f5fa0d3856fafa1ac298c12226",
        "exit": "9a50ca2cad088f6322d81835eed13636656b1a71d55688eacc2628fe484721f2",
        "rollback": "f7ae5474af9d0e7fdee36e495912038f1b1056b3a8a5d80e021646f47ca47af9",
        "crossing": "d92972807670d7f1b6fa190466b420b354eed9c832585aeb678d5378aa107506",
        "throughput": "10ddb31e41eff0367992c1554aa6d249161961ec4920b7c5d9d28405626014b3",
        "every_scalar": "610839bdf2d395e0d2b5aec71da2e829d1c41143151dd7a381d27433e9312051",
    }
    SCENES = {
        "transient": lambda: scenarios.transient_occlusion_scene(2),
        "exit": lambda: scenarios.exit_scene(2),
        "rollback": lambda: scenarios.rollback_scene(2),
        "crossing": lambda: scenarios.crossing_scene(2),
        "throughput": scenarios.throughput_scene,
        # Every scalar field away from its default.
        "every_scalar": lambda: SceneConfig(
            frame_width=640.5, frame_height=480.25, frames=77, seed=12345, sigma_area=0.2, sigma_ratio=0.05,
            min_visibility=0.45, miss_prob=0.125, conf_base=0.8, conf_penalty=0.35,
            agents=[AgentSpec(3, 70, 20.5, 41.0, ((3, 100.0, 200.0), (70, 300.25, 210.0)))],
            occluders=[BoundingBox(250.0, 150.0, 30.5, 90.0)]),
    }

    @pytest.mark.parametrize("name", FORMATTED)
    def test_every_scene_round_trips_unchanged(self, name):
        scene = self.SCENES[name]()
        text = format_scene(scene)
        assert hashlib.sha256(text.encode()).hexdigest() == self.FORMATTED[name]
        assert parse_scene(text) == scene

    def test_every_scalar_field_differs_from_its_default(self):
        scene, default = self.SCENES["every_scalar"](), SceneConfig()
        assert all(getattr(scene, name) != getattr(default, name) for name in field_types(SceneConfig))

    @pytest.mark.parametrize("line,message", [
        ("agent = spawn:1 despawn:9 colour:red size:20x40 path:100,300@1", "unknown agent field 'colour:red'"),
        ("agent = spawn1 despawn:9 size:20x40 path:100,300@1", "unknown agent field 'spawn1'"),
        ("agent = spawn:1 despawn:9 size:20x40x7 path:100,300@1", "bad agent size '20x40x7'"),
        ("agent = spawn:1 despawn:9 size:20x40 path:", "agent needs at least one waypoint"),
        ("agent = spawn:1 despawn:9 path:100,300@1 size:20x40", "bad waypoint 'size:20x40'"),
        ("agent = spawn:1 despawn:9 size:20x40 path:100,300@1.5", "bad int '1.5'"),
        ("agent = spawn:1 spawn:2 despawn:9 size:20x40 path:100,300@1", "key 'spawn' given twice"),
        ("occluder = 1,2,3", "bad occluder '1,2,3'"),
        ("frames = 1e1", "bad int '1e1'"),
        ("seed = 4", "key 'seed' given twice"),
    ])
    def test_malformed_line_names_its_token(self, line, message):
        with pytest.raises(ValueError, match=f"^scene line 2: {re.escape(message)}$"):
            parse_scene("seed = 3\n" + line)

    def test_seed_beyond_a_float_is_read(self):
        # The seed is masked to 64 bits, so any whole number will do.
        assert parse_scene("seed = " + "9" * 400).seed == int("9" * 400)
