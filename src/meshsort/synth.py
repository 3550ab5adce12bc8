"""Deterministic synthetic scenes: ground truth plus detector-like noisy output.

Agents follow piecewise-linear center paths with fixed box sizes. Static
rectangles and nearer agents occlude them; partially covered agents get
multiplicative area/aspect noise and reduced confidence, fully covered or
randomly missed agents emit nothing. All randomness comes from a hand-rolled
xoshiro256** generator with Box-Muller normals so byte-identical output for a
given (config, seed) holds across platforms. Scene files are read and written
by :mod:`meshsort.motfiles`; this module holds no text grammar.

:func:`generate` computes every agent's boxes once, as (frames, agents)
arrays, and returns ground truth as one :class:`~meshsort.metrics.TrajectorySet`
table over them and detections as array-backed frames. Cover is found from
those arrays: one strict-overlap test per block of whole frames lists, for each
live agent, the later live agents whose box overlaps it, and only those plus the
occluders go to the union-area computation of :func:`covered_fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import field_types
from .geometry import BoundingBox, check_box_range
from .metrics import TrajectorySet
from .pipeline import Detections, FrameDetections

_MASK64 = (1 << 64) - 1

MIN_AGENT_SIZE = 0.01  # px: the MOT files' two decimals write a smaller size as 0.00


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """64-bit xoshiro256** stream seeded through splitmix64."""

    def __init__(self, seed: int):
        s = seed & _MASK64
        self.state = []
        for _ in range(4):
            s, word = _splitmix64(s)
            self.state.append(word)
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.state
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self.state = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def normal(self) -> float:
        """Standard normal via the Box-Muller transform (pairs cached)."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)


@dataclass(frozen=True)
class AgentSpec:
    """One moving target: spawn/despawn frames, box size, center waypoints."""

    spawn: int
    despawn: int
    width: float
    height: float
    waypoints: tuple[tuple[int, float, float], ...]

    def validate(self) -> None:
        if self.spawn < 1 or self.despawn < self.spawn:
            raise ValueError(f"bad spawn/despawn pair ({self.spawn}, {self.despawn})")
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise ValueError(f"non-finite agent box size {self.width}x{self.height}")
        if self.width < MIN_AGENT_SIZE or self.height < MIN_AGENT_SIZE:
            raise ValueError(f"agent box size {self.width}x{self.height} below {MIN_AGENT_SIZE} px")
        if not self.waypoints:
            raise ValueError("agent needs at least one waypoint")
        times = [t for t, _, _ in self.waypoints]
        if times != sorted(times) or len(set(times)) != len(times):
            raise ValueError("waypoint times must be strictly increasing")
        if times[0] < self.spawn or times[-1] > self.despawn:
            raise ValueError("waypoint times must lie within [spawn, despawn]")
        for t, x, y in self.waypoints:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite waypoint {x},{y}@{t}")
            # Centres between waypoints interpolate, so in-range boxes at the
            # waypoints keep every ground-truth box in range.
            check_box_range(BoundingBox(x - self.width / 2, y - self.height / 2,
                                        self.width, self.height))

    def center_at(self, frame: int) -> tuple[float, float]:
        pts = self.waypoints
        if frame <= pts[0][0]:
            return pts[0][1], pts[0][2]
        if frame >= pts[-1][0]:
            return pts[-1][1], pts[-1][2]
        for (t0, x0, y0), (t1, x1, y1) in zip(pts, pts[1:]):
            if t0 <= frame <= t1:
                w = (frame - t0) / (t1 - t0)
                return x0 + w * (x1 - x0), y0 + w * (y1 - y0)
        raise AssertionError("unreachable")

    def box_at(self, frame: int) -> BoundingBox:
        cx, cy = self.center_at(frame)
        return BoundingBox(cx - self.width / 2, cy - self.height / 2, self.width, self.height)

    def max_speed(self) -> float:
        speed = 0.0
        for (t0, x0, y0), (t1, x1, y1) in zip(self.waypoints, self.waypoints[1:]):
            speed = max(speed, math.hypot(x1 - x0, y1 - y0) / (t1 - t0))
        return speed


@dataclass
class SceneConfig:
    frame_width: float = 960.0
    frame_height: float = 540.0
    frames: int = 100
    seed: int = 1
    sigma_area: float = 0.15
    sigma_ratio: float = 0.1
    min_visibility: float = 0.3
    miss_prob: float = 0.0
    conf_base: float = 0.9
    conf_penalty: float = 0.5
    agents: list[AgentSpec] = field(default_factory=list)
    occluders: list[BoundingBox] = field(default_factory=list)

    def validate(self) -> None:
        # NaN would slip through every range check below.
        for name, kind in field_types(type(self)).items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name} {getattr(self, name)}")
        if self.frames < 1 or self.frame_width <= 0 or self.frame_height <= 0:
            raise ValueError("scene needs positive frame count and size")
        if self.sigma_area < 0 or self.sigma_ratio < 0:
            raise ValueError("noise sigmas must be non-negative")
        if not 0.0 <= self.miss_prob <= 1.0:
            raise ValueError("miss_prob must lie in [0, 1]")
        for agent in self.agents:
            agent.validate()
            self._check_fits(agent)

    def _check_fits(self, agent: AgentSpec) -> None:
        """Reject an agent that lives past the scene's last frame."""
        if agent.despawn > self.frames:
            raise ValueError(f"agent outlives the scene (despawn {agent.despawn} > frames {self.frames})")


def _ltrb(box: BoundingBox) -> tuple[float, float, float, float]:
    return box.left, box.top, box.right, box.bottom


def covered_fraction(box: BoundingBox, covers: list[BoundingBox],
                     frame_size: tuple[float, float]) -> float:
    """Fraction of the box hidden: covered by rectangles or outside the frame.

    Exact area computation over the union of covers via coordinate
    compression (cover counts per scene are small).
    """
    return _hidden(_ltrb(box), box.area, list(map(_ltrb, covers)), frame_size)


def _hidden(box: tuple, area: float, covers: list[tuple], frame_size: tuple[float, float]) -> float:
    """:func:`covered_fraction` of an ltrb box of the given area, covers also ltrb."""
    fw, fh = frame_size
    # Out-of-frame area counts as hidden.
    in_left = max(box[0], 0.0)
    in_top = max(box[1], 0.0)
    in_right = min(box[2], fw)
    in_bottom = min(box[3], fh)
    if in_right <= in_left or in_bottom <= in_top:
        return 1.0
    clipped = []
    for c in covers:
        left = max(c[0], in_left)
        top = max(c[1], in_top)
        right = min(c[2], in_right)
        bottom = min(c[3], in_bottom)
        if right > left and bottom > top:
            clipped.append((left, top, right, bottom))
    covered = 0.0
    if clipped:
        xs = sorted({v for r in clipped for v in (r[0], r[2])})
        ys = sorted({v for r in clipped for v in (r[1], r[3])})
        for x0, x1 in zip(xs, xs[1:]):
            for y0, y1 in zip(ys, ys[1:]):
                mx = (x0 + x1) / 2
                my = (y0 + y1) / 2
                if any(r[0] <= mx <= r[2] and r[1] <= my <= r[3] for r in clipped):
                    covered += (x1 - x0) * (y1 - y0)
    inside = (in_right - in_left) * (in_bottom - in_top)
    hidden = (area - inside) + covered
    return min(max(hidden / area, 0.0), 1.0)


def semi_occlusion_noise(
    z: np.ndarray,
    visibility: float,
    sigma_area: float,
    sigma_ratio: float,
    rng: Xoshiro256StarStar,
) -> np.ndarray:
    """Perturb the area/aspect slots of a measurement under partial cover.

    Fully visible measurements pass through unchanged; position slots are
    never touched. The multiplicative disturbance scales with how much of the
    box is hidden. A width or height that falls below :data:`MIN_AGENT_SIZE`
    is raised to it.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    out = np.asarray(z, dtype=np.float64).copy()
    if visibility >= 1.0:
        return out
    hidden = 1.0 - visibility
    eps_area = rng.normal() * sigma_area
    eps_ratio = rng.normal() * sigma_ratio
    out[2] = out[2] * max(1.0 + eps_area * hidden, 1e-3)
    out[3] = out[3] * max(1.0 + eps_ratio * hidden, 1e-3)
    width, height = math.sqrt(out[2] * out[3]), math.sqrt(out[2] / out[3])
    if min(width, height) < MIN_AGENT_SIZE:
        # A hair above the bound, so that the sizes decoded from area and
        # aspect again do not round below it.
        floor = MIN_AGENT_SIZE * (1.0 + 1e-9)
        width, height = max(width, floor), max(height, floor)
        out[2], out[3] = width * height, width / height
    return out


def _centres(agent: AgentSpec, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`AgentSpec.center_at` over many frames, with the same float operations.

    Frames on a waypoint time take the first segment that holds them, as
    ``center_at``'s loop does.
    """
    t = np.array([p[0] for p in agent.waypoints], dtype=np.float64)
    xs = np.array([p[1] for p in agent.waypoints], dtype=np.float64)
    ys = np.array([p[2] for p in agent.waypoints], dtype=np.float64)
    if len(t) == 1:
        return np.full(len(frames), xs[0]), np.full(len(frames), ys[0])
    k = np.minimum(np.searchsorted(t[1:], frames, side="left"), len(t) - 2)
    w = (frames - t[k]) / (t[k + 1] - t[k])
    cx = xs[k] + w * (xs[k + 1] - xs[k])
    cy = ys[k] + w * (ys[k + 1] - ys[k])
    before, after = frames <= t[0], frames >= t[-1]
    cx = np.where(before, xs[0], np.where(after, xs[-1], cx))
    cy = np.where(before, ys[0], np.where(after, ys[-1], cy))
    return cx, cy


def _agent_ltrb(cfg: SceneConfig) -> np.ndarray:
    """(4, frames, agents) left/top/right/bottom of every agent's box.

    Values equal the fields of :meth:`AgentSpec.box_at`. Frames outside an
    agent's lifespan hold NaN, which fails every comparison, so such an agent
    neither covers nor is covered there; validated scenes hold no other NaN.
    """
    ltrb = np.full((4, cfg.frames, len(cfg.agents)), np.nan)
    for idx, agent in enumerate(cfg.agents):
        cx, cy = _centres(agent, np.arange(agent.spawn, agent.despawn + 1))
        rows = slice(agent.spawn - 1, agent.despawn)
        ltrb[0, rows, idx] = cx - agent.width / 2
        ltrb[1, rows, idx] = cy - agent.height / 2
        ltrb[2, rows, idx] = ltrb[0, rows, idx] + agent.width
        ltrb[3, rows, idx] = ltrb[1, rows, idx] + agent.height
    return ltrb


# Cells of the (frames, agents, agents) overlap array held at once. Scenes are
# cut into blocks of whole frames to stay under it, so the array does not grow
# with the scene's length. A frame of more than 1,024 agents is one block of
# its own, about 2 * agents**2 bytes.
_OVERLAP_CELLS = 1 << 20


def _later_overlaps(ltrb: np.ndarray):
    """Per frame, ``{agent: [later live agents whose box strictly overlaps it]}``.

    Later-listed agents sit in front. An agent whose raw box does not overlap
    has no area inside the in-frame part of the box either, so
    :func:`covered_fraction` would drop it; coordinate compression does not
    depend on cover order, so passing only these leaves its result unchanged.
    """
    left, top, right, bottom = ltrb
    frames, agents = left.shape
    later = np.arange(agents) > np.arange(agents)[:, None]
    step = max(1, _OVERLAP_CELLS // max(agents * agents, 1))
    for f0 in range(0, frames, step):
        own = np.s_[f0 : f0 + step, :, None]
        other = np.s_[f0 : f0 + step, None, :]
        hit = right[other] > left[own]
        hit &= left[other] < right[own]
        hit &= bottom[other] > top[own]
        hit &= top[other] < bottom[own]
        hit &= later
        block: list[dict[int, list[int]]] = [{} for _ in range(len(hit))]
        for f, a, j in zip(*(ix.tolist() for ix in np.nonzero(hit))):
            block[f].setdefault(a, []).append(j)
        yield from block


def generate(cfg: SceneConfig):
    """Build (ground-truth trajectories, detection frames) for a scene.

    Ground truth carries the exact interpolated boxes for every agent's
    lifespan. Detections exist only for sufficiently visible agents, carry
    visibility-scaled noise on the size slots, exact centers, and a
    visibility-dependent confidence.
    """
    cfg.validate()
    rng = Xoshiro256StarStar(cfg.seed)
    ltrb = _agent_ltrb(cfg)
    live = ~np.isnan(ltrb[0].T)  # (agents, frames)
    agent_of, frame_of = np.nonzero(live)
    sizes = np.array([(a.width, a.height) for a in cfg.agents], dtype=np.float64).reshape(-1, 2)
    gt = TrajectorySet.from_rows(frame_of + 1, agent_of + 1,
                                 np.column_stack((ltrb[0].T[live], ltrb[1].T[live], sizes[agent_of])))
    occluders = list(map(_ltrb, cfg.occluders))
    frame_size = (cfg.frame_width, cfg.frame_height)
    rows: list[tuple[float, float, float, float]] = []
    confs: list[float] = []
    bounds = [0]
    for frame, boxes, overlaps in zip(range(1, cfg.frames + 1), np.moveaxis(ltrb, 0, 2).tolist(),
                                      _later_overlaps(ltrb)):
        for idx, agent in enumerate(cfg.agents):
            if not agent.spawn <= frame <= agent.despawn:
                continue
            left, top = boxes[idx][:2]
            width, height = agent.width, agent.height
            covers = occluders + [boxes[j] for j in overlaps.get(idx, ())]
            vis = 1.0 - _hidden(boxes[idx], width * height, covers, frame_size)
            if vis < cfg.min_visibility or vis <= 0.0:
                continue
            if cfg.miss_prob > 0.0 and rng.uniform() < cfg.miss_prob:
                continue
            if vis < 1.0:
                z = np.array([left + width / 2, top + height / 2, width * height, width / height])
                z = semi_occlusion_noise(z, vis, cfg.sigma_area, cfg.sigma_ratio, rng)
                width = math.sqrt(z[2] * z[3])
                height = math.sqrt(z[2] / z[3])
                left, top = z[0] - width / 2, z[1] - height / 2
            rows.append((left, top, width, height))
            confs.append(min(max(cfg.conf_base - cfg.conf_penalty * (1.0 - vis), 0.05), 1.0))
        bounds.append(len(rows))
    views = Detections.split(np.array(rows, dtype=np.float64).reshape(-1, 4), np.array(confs, dtype=np.float64), bounds)
    det_frames = [FrameDetections(index=frame, detections=dets) for frame, dets in enumerate(views, start=1)]
    return gt, det_frames
