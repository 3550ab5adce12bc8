"""Deterministic synthetic scenes: ground truth plus detector-like noisy output.

Agents follow piecewise-linear center paths with fixed box sizes. Static
rectangles and nearer agents occlude them; partially covered agents get
multiplicative area/aspect noise and reduced confidence, fully covered or
randomly missed agents emit nothing. Scene files are read and written by
:mod:`meshsort.motfiles`; this module holds no text grammar.

:func:`generate` works on whole arrays. It computes every agent's boxes once,
as (frames, agents) arrays, and returns ground truth as one
:class:`~meshsort.metrics.TrajectorySet` table over them. An agent-frame's
covers are the occluders plus the later live agents whose box strictly
overlaps it, found by one overlap test per block of whole frames, each clipped
to the in-frame part of the box. The agent-frames are batched by their number
of covers, and each batch runs the coordinate compression as arrays; with no
cover the hidden area is the part outside the frame.

Detector noise is keyed by (seed, frame, agent, purpose), not drawn from a
stream: every candidate detection hashes its own three uniforms, the miss
draw and the Box-Muller pair, in one ``uint64`` array pass (counter-based
draws, Salmon et al., SC 2011). Draw ``k`` is splitmix64's output at index
``k``, where ``k = agent * 2**24 + frame * 16 + purpose``. A draw depends on
its key alone, so scenes that differ only in ``miss_prob`` or
``min_visibility`` give every detection both keep the same box and score.
The log, cosine and sine come from :mod:`math`, mapped over the noisy rows,
as in the stream sampler they replaced, because numpy's vectorised ``log``
can differ from it in the last bit by CPU. :mod:`math` calls the platform's C
library, so a seed gives the same bytes wherever that library's ``log``,
``cos`` and ``sin`` agree. Size
noise and confidence are array expressions over the draws, and one
:meth:`Detections.split` cuts the frames. Scene layouts
(:mod:`meshsort.scenarios`) draw from the :class:`Xoshiro256StarStar` stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import field_types
from .geometry import BoundingBox, boxes_to_ltrb, check_box_range
from .metrics import TrajectorySet
from .pipeline import Detections, FrameDetections

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's increment

MIN_AGENT_SIZE = 0.01  # px: the MOT files' two decimals write a smaller size as 0.00
# Largest frame index the MOT readers accept, and so the most frames a scene
# may have. The detection reader yields every frame up to the last one in a
# file, so a frame index far past any video would allocate one empty frame
# per index.
MAX_FRAME = 1_000_000


def _splitmix64(state: int):
    state = (state + _GAMMA) & _MASK64
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
        if self.frames > MAX_FRAME:
            raise ValueError(f"frames {self.frames} above {MAX_FRAME}, the last frame index the MOT readers accept")
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


def _agent_ltrb(cfg: SceneConfig) -> np.ndarray:
    """(4, frames, agents) left/top/right/bottom of every agent's box.

    Values equal the fields of :meth:`AgentSpec.box_at`, with the same float
    operations: a frame on a waypoint time takes the first segment that holds
    it, as ``center_at``'s loop does. Frames outside an agent's lifespan hold
    NaN, which fails every comparison, so such an agent neither covers nor is
    covered there; validated scenes hold no other NaN.
    """
    agents = cfg.agents
    ltrb = np.full((4, cfg.frames, len(agents)), np.nan)
    if not agents:
        return ltrb
    spawn, despawn, width, height = np.array(
        [(a.spawn, a.despawn, a.width, a.height) for a in agents], dtype=np.float64).T
    n_way = np.array([len(a.waypoints) for a in agents])
    t, x, y = np.array([p for a in agents for p in a.waypoints], dtype=np.float64).T
    # The waypoints of all agents end to end, sorted by (agent, time) under one key.
    base = np.arange(len(agents)) * (cfg.frames + 1.0)
    key = np.repeat(base, n_way) + t
    last = np.cumsum(n_way) - 1
    first = last - (n_way - 1)
    frames = np.arange(1, cfg.frames + 1, dtype=np.float64)
    frame_of, agent_of = np.nonzero((frames[:, None] >= spawn) & (frames[:, None] <= despawn))
    f, lo, hi = frames[frame_of], first[agent_of], last[agent_of]
    before = f <= t[lo]
    cx = np.where(before, x[lo], x[hi])
    cy = np.where(before, y[lo], y[hi])
    mid = ~before & (f < t[hi])
    # Strictly inside an agent's path: k is its last waypoint before the frame.
    k = np.searchsorted(key, base[agent_of[mid]] + f[mid]) - 1
    w = (f[mid] - t[k]) / (t[k + 1] - t[k])
    cx[mid] = x[k] + w * (x[k + 1] - x[k])
    cy[mid] = y[k] + w * (y[k + 1] - y[k])
    left = cx - width[agent_of] / 2
    top = cy - height[agent_of] / 2
    ltrb[:, frame_of, agent_of] = left, top, left + width[agent_of], top + height[agent_of]
    return ltrb


# Cells of the (frames, agents, agents) overlap array held at once. Scenes are
# cut into blocks of whole frames to stay under it, so the array does not grow
# with the scene's length. A frame of more than 1,024 agents is one block of
# its own, about 2 * agents**2 bytes. The union-area batches keep to the same
# cap.
_OVERLAP_CELLS = 1 << 20


def _later_overlaps(ltrb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(frame, agent, cover)`` index arrays: each later live agent whose box strictly overlaps.

    Later-listed agents sit in front. An agent whose raw box does not overlap
    has no area inside the in-frame part of the box either, so the clipping
    in :func:`_hidden_fractions` would drop it.
    """
    left, top, right, bottom = ltrb
    frames, agents = left.shape
    later = np.arange(agents) > np.arange(agents)[:, None]
    step = max(1, _OVERLAP_CELLS // max(agents * agents, 1))
    found = []
    for f0 in range(0, frames, step):
        own = np.s_[f0 : f0 + step, :, None]
        other = np.s_[f0 : f0 + step, None, :]
        hit = right[other] > left[own]
        hit &= left[other] < right[own]
        hit &= bottom[other] > top[own]
        hit &= top[other] < bottom[own]
        hit &= later
        f, a, j = np.nonzero(hit)
        found.append((f + f0, a, j))
    return tuple(map(np.concatenate, zip(*found)))


def _union_areas(left, top, right, bottom) -> np.ndarray:
    """Area of the union of each row's k rectangles, each an ``(m, k)`` array.

    Coordinate compression: the 2k edges of each axis are sorted, keeping
    duplicates, whose zero-width cells add 0.0. A cell counts when its
    midpoint lies in some rectangle, and the cell areas are summed in x-major
    order one by one, as a scalar double loop over the cells would sum them.
    """
    xs = np.sort(np.concatenate((left, right), axis=1))
    ys = np.sort(np.concatenate((top, bottom), axis=1))
    mx = (xs[:, :-1] + xs[:, 1:]) / 2
    my = (ys[:, :-1] + ys[:, 1:]) / 2
    in_x = (left[:, :, None] <= mx[:, None, :]) & (mx[:, None, :] <= right[:, :, None])
    in_y = (top[:, :, None] <= my[:, None, :]) & (my[:, None, :] <= bottom[:, :, None])
    hit = (in_x[:, :, :, None] & in_y[:, :, None, :]).any(axis=1)
    cells = np.where(hit, np.diff(xs)[:, :, None] * np.diff(ys)[:, None, :], 0.0)
    return np.cumsum(cells.reshape(len(cells), -1), axis=1)[:, -1]


def _hidden_fractions(ltrb: np.ndarray, area: np.ndarray, occluders: np.ndarray,
                      frame_size: tuple[float, float]) -> np.ndarray:
    """Fraction of each live agent-frame's box that is hidden, in frame-major order.

    Hidden means covered by an occluder or a later agent, or outside the
    frame. ``area`` is each row's box area and ``occluders`` an ``(n, 4)``
    ltrb array. Covers are clipped to the in-frame part of the box and those
    left with no area dropped. A row without covers has the closed form
    ``area - inside``; the others are batched by their number of covers, and
    a one-cover row's single cell is the closed form ``(r - l) * (b - t)``.
    Every step is an IEEE ``+ - * / min max``, so the result is that of the
    scalar union-area rule bit for bit.
    """
    live = ~np.isnan(ltrb[0])
    frame_of, agent_of = np.nonzero(live)
    n = len(frame_of)
    fw, fh = frame_size
    box = ltrb[:, frame_of, agent_of]
    in_left, in_top = np.maximum(box[0], 0.0), np.maximum(box[1], 0.0)
    in_right, in_bottom = np.minimum(box[2], fw), np.minimum(box[3], fh)
    row_of = np.cumsum(live).reshape(live.shape) - 1
    f, a, j = _later_overlaps(ltrb)
    rows = np.concatenate((np.repeat(np.arange(n), len(occluders)), row_of[f, a]))
    covers = np.concatenate((np.tile(occluders, (n, 1)).T, ltrb[:, f, j]), axis=1)
    order = np.argsort(rows, kind="stable")
    rows, covers = rows[order], covers[:, order]
    cl = np.maximum(covers[0], in_left[rows])
    ct = np.maximum(covers[1], in_top[rows])
    cr = np.minimum(covers[2], in_right[rows])
    cb = np.minimum(covers[3], in_bottom[rows])
    keep = (cr > cl) & (cb > ct)
    rows, cl, ct, cr, cb = rows[keep], cl[keep], ct[keep], cr[keep], cb[keep]
    count = np.bincount(rows, minlength=n)
    start = np.cumsum(count) - count
    covered = np.zeros(n)
    for k in np.unique(count[count > 0]).tolist():
        batch = np.flatnonzero(count == k)
        step = max(1, _OVERLAP_CELLS // (k * (2 * k - 1) ** 2))
        for b0 in range(0, len(batch), step):
            ids = batch[b0 : b0 + step]
            at = start[ids][:, None] + np.arange(k)
            covered[ids] = _union_areas(cl[at], ct[at], cr[at], cb[at])
    inside = (in_right - in_left) * (in_bottom - in_top)
    hidden = np.minimum(np.maximum(((area - inside) + covered) / area, 0.0), 1.0)
    hidden[(in_right <= in_left) | (in_bottom <= in_top)] = 1.0
    return hidden


# A draw's index packs (agent, frame, purpose) one to one: the purpose in the
# low four bits, the frame (at most MAX_FRAME < 2**20) in the next twenty, and
# the agent's position in the scene's list in the 40 bits above, more agents
# than a list in memory can hold. Purposes: the miss draw, then the two
# uniforms of the Box-Muller pair. The other thirteen are free, so a new kind
# of draw leaves every existing one as it is.
_FRAME_BITS, _PURPOSE_BITS, _PURPOSES = 20, 4, 3


def _keyed_uniforms(seed: int, frame: np.ndarray, agent: np.ndarray) -> np.ndarray:
    """``(n, 3)`` uniforms in [0, 1): the miss draw and the Box-Muller pair of each (frame, agent).

    Draw ``k`` is splitmix64's output at index ``k`` of the stream seeded
    with the splitmix64 of ``seed``, that is ``_splitmix64(seed_word + k *
    gamma)``, so it depends on its key alone. The hash runs in ``uint64``
    arrays, whose arithmetic wraps as the ``& _MASK64`` of :func:`_splitmix64`
    does, and takes the top 53 bits as :meth:`Xoshiro256StarStar.uniform` does.
    """
    _, seed_word = _splitmix64(seed & _MASK64)
    index = (agent.astype(np.uint64) << _FRAME_BITS | frame.astype(np.uint64)) << _PURPOSE_BITS
    index = index[:, None] + np.arange(_PURPOSES, dtype=np.uint64)
    # State seed_word + (k + 1) * gamma: _splitmix64 adds gamma before it mixes.
    z = (index + np.uint64(1)) * np.uint64(_GAMMA) + np.uint64(seed_word)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    return (z >> 11).astype(np.float64) * (1.0 / (1 << 53))


def _mapped(fn, values: np.ndarray) -> np.ndarray:
    """A scalar function of each value, as a float64 array."""
    return np.fromiter(map(fn, values.tolist()), dtype=np.float64, count=len(values))


def _keyed_draws(seed: int, frame: np.ndarray, agent: np.ndarray, noisy: np.ndarray,
                 miss_prob: float) -> tuple[np.ndarray, np.ndarray]:
    """The kept mask of candidate detections and the ``(kept noisy, 2)`` normals.

    A candidate is missed when its miss draw falls below ``miss_prob``. A kept
    ``noisy`` one takes the Box-Muller pair of its two other draws. The log,
    cosine and sine come from :mod:`math`, that is from the C library;
    numpy's vectorised ``log`` differs from it in the last bit on some inputs
    and some CPUs.
    """
    u = _keyed_uniforms(seed, frame, agent)
    kept = u[:, 0] >= miss_prob
    u = u[kept & noisy]
    radius = np.sqrt(-2.0 * _mapped(math.log, 1.0 - u[:, 1]))
    angle = 2.0 * math.pi * u[:, 2]
    return kept, np.column_stack((radius * _mapped(math.cos, angle), radius * _mapped(math.sin, angle)))


def _size_noise(boxes: np.ndarray, vis: np.ndarray, normals: np.ndarray,
                sigma_area: float, sigma_ratio: float) -> np.ndarray:
    """Perturb the area and aspect of partly visible ltwh boxes, keeping their centres.

    Row i's area and aspect are multiplied by ``max(1 + eps * (1 - vis[i]), 1e-3)``
    with ``eps = normals[i] * (sigma_area, sigma_ratio)``, so the disturbance
    scales with how much of the box is hidden. A width or height that falls
    below :data:`MIN_AGENT_SIZE` is raised to it. Rows with ``vis >= 1`` pass
    through unchanged.
    """
    left, top, width, height = boxes.T
    cx, cy = left + width / 2, top + height / 2
    hidden = 1.0 - vis
    area = (width * height) * np.maximum(1.0 + normals[:, 0] * sigma_area * hidden, 1e-3)
    ratio = (width / height) * np.maximum(1.0 + normals[:, 1] * sigma_ratio * hidden, 1e-3)
    width, height = np.sqrt(area * ratio), np.sqrt(area / ratio)
    low = np.minimum(width, height) < MIN_AGENT_SIZE
    # A hair above the bound, so that the sizes decoded from area and aspect
    # again do not round below it.
    floor = MIN_AGENT_SIZE * (1.0 + 1e-9)
    width, height = np.maximum(width, floor), np.maximum(height, floor)
    area = np.where(low, width * height, area)
    ratio = np.where(low, width / height, ratio)
    width, height = np.sqrt(area * ratio), np.sqrt(area / ratio)
    noisy = np.column_stack((cx - width / 2, cy - height / 2, width, height))
    return np.where((vis < 1.0)[:, None], noisy, boxes)


def generate(cfg: SceneConfig):
    """Build (ground-truth trajectories, detection frames) for a scene.

    Ground truth carries the exact interpolated boxes for every agent's
    lifespan. Detections exist only for sufficiently visible agents, carry
    visibility-scaled noise on the size slots, exact centers, and a
    visibility-dependent confidence.
    """
    cfg.validate()
    ltrb = _agent_ltrb(cfg)
    live = ~np.isnan(ltrb[0])  # (frames, agents)
    sizes = np.array([(a.width, a.height) for a in cfg.agents], dtype=np.float64).reshape(-1, 2)
    agent_of, frame_of = np.nonzero(live.T)
    gt = TrajectorySet.from_rows(frame_of + 1, agent_of + 1,
                                 np.column_stack((ltrb[0].T[live.T], ltrb[1].T[live.T], sizes[agent_of])))
    # From here on, agent-frames run frame-major: the order detections are written in.
    frame_of, agent_of = np.nonzero(live)
    width, height = sizes[agent_of].T
    vis = 1.0 - _hidden_fractions(ltrb, width * height, boxes_to_ltrb(cfg.occluders),
                                  (cfg.frame_width, cfg.frame_height))
    rows = np.flatnonzero((vis >= cfg.min_visibility) & (vis > 0.0))
    kept, normals = _keyed_draws(cfg.seed, frame_of[rows] + 1, agent_of[rows], vis[rows] < 1.0, cfg.miss_prob)
    rows = rows[kept]
    vis = vis[rows]
    noise = np.zeros((len(rows), 2))
    noise[vis < 1.0] = normals
    boxes = np.column_stack((*ltrb[:2, frame_of[rows], agent_of[rows]], width[rows], height[rows]))
    boxes = _size_noise(boxes, vis, noise, cfg.sigma_area, cfg.sigma_ratio)
    scores = np.minimum(np.maximum(cfg.conf_base - cfg.conf_penalty * (1.0 - vis), 0.05), 1.0)
    bounds = np.searchsorted(frame_of[rows], np.arange(cfg.frames + 1)).tolist()
    views = Detections.split(boxes, scores, bounds)
    det_frames = [FrameDetections(index=frame, detections=dets) for frame, dets in enumerate(views, start=1)]
    return gt, det_frames
