"""The benchmark's workloads: which scenes run under which tracker configs.

An operation is one scene's pass through synth -> files -> track -> files ->
eval under one tracker configuration. A workload is a fixed list of
operations built from the run's seed; a run repeats that list in whole rounds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from meshsort import scenarios
from meshsort.config import TrackerConfig
from meshsort.synth import SceneConfig

# Share of ground-truth boxes matched below which a dense-scene result counts
# as garbage; today's tracker matches well above 0.9 on these scenes.
DENSE_FLOOR = 0.6

OCCLUSION_FAMILIES = (
    scenarios.transient_occlusion_scene,
    scenarios.exit_scene,
    scenarios.rollback_scene,
    scenarios.crossing_scene,
)
# Every workload keeps fixed agent layouts, so that run-to-run differences in
# cost come from the program, not from how crowded a random layout happens to
# be. The run seed drives the detector: which detections are missed and the
# size noise under partial cover. Layout seed 9 is the c11 acceptance scene;
# occlusion layouts 1-3 with --seed 1 are the family scenes of seeds 1-3.
LAYOUT_SEED = 9
OCCLUSION_LAYOUTS = 3


@dataclass(frozen=True)
class Operation:
    label: str
    scene: SceneConfig
    cfg: TrackerConfig
    full: bool  # full-config arm; accuracy metrics pool these only
    floor: float | None  # minimum share of ground-truth boxes matched


def _full(scene: SceneConfig) -> TrackerConfig:
    return TrackerConfig(frame_width=scene.frame_width, frame_height=scene.frame_height)


def _baseline(scene: SceneConfig) -> TrackerConfig:
    return TrackerConfig.baseline(frame_width=scene.frame_width, frame_height=scene.frame_height)


def _throughput(seed: int, n_agents: int, frames: int, detector_seeds: int) -> list[Operation]:
    layout = scenarios.throughput_scene(seed=LAYOUT_SEED, n_agents=n_agents, frames=frames)
    ops = []
    for s in range(seed, seed + detector_seeds):
        scene = dataclasses.replace(layout, seed=s)
        ops.append(Operation(f"throughput_{n_agents}x{frames}_s{s}", scene, _full(scene), True, DENSE_FLOOR))
    return ops


def _occlusion(seed: int) -> list[Operation]:
    # Families alternate so that each family's steps, and with them the step
    # percentiles, are sampled across the whole round, not in one stretch.
    ops = []
    for layout in range(1, OCCLUSION_LAYOUTS + 1):
        for family in OCCLUSION_FAMILIES:
            scene = dataclasses.replace(family(layout), seed=seed + layout - 1)
            name = f"{family.__name__.removesuffix('_scene')}_l{layout}_s{scene.seed}"
            ops.append(Operation(f"{name}_baseline", scene, _baseline(scene), False, None))
            ops.append(Operation(f"{name}_full", scene, _full(scene), True, None))
    return ops


WORKLOADS = {
    # --seed 9 runs the c11 acceptance gate scene (and detector seeds 10, 11).
    # Three detector draws steady the pooled identity metrics, which one draw
    # moves by a few percent, and time each short stage in three stretches.
    "c11_30": lambda seed: _throughput(seed, 30, 1000, detector_seeds=3),
    # 200 frames leave ten step samples beyond the 95th percentile.
    "dense_100": lambda seed: _throughput(seed, 100, 200, detector_seeds=1),
    "occlusion_ablation": _occlusion,
}


def build(name: str, seed: int) -> list[Operation]:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[name](seed)
