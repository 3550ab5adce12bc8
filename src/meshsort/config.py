"""Dataclass configuration for the tracker and its feature toggles."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

# Keeps a grid's counts and flags (9 bytes a cell) under 10 MB.
MAX_MESH_CELLS = 1_000_000


@dataclass
class TrackerConfig:
    """Full per-run configuration: lifecycle, mesh, association, and filter knobs.

    ``lost_maintain_frames`` is how long an unexpectedly lost track keeps
    feeding itself virtual proposals before it is parked as lost;
    ``location_age_reduction`` shortens the removal age of tracks lost inside
    frequent-loss cells.
    """

    lost_maintain_frames: int = 3
    max_age: int = 30
    location_age_reduction: int = 8
    min_hits: int = 3
    occlusion_iou: float = 0.3

    frame_width: float = 1920.0
    frame_height: float = 1080.0

    enable_mesh: bool = True
    enable_lost_maintain: bool = True
    enable_velocity_rollback: bool = True
    enable_location_ages: bool = True

    mesh_cols: int = 4
    mesh_rows: int = 4
    mesh_threshold_slope: float = 0.02

    conf_high: float = 0.6
    conf_low: float = 0.1
    init_conf: float = 0.7
    gate_first: float = 0.8
    gate_second: float = 0.5
    buffer_scale: float = 0.3

    vel_buffer_len: int = 5
    pos_std_weight: float = 1.0 / 20.0
    vel_std_weight: float = 1.0 / 160.0

    emit_virtual: bool = False

    def validate(self) -> None:
        """Raise :class:`ValueError`, naming the field, for the first value out of range.

        A NaN fails every range test, so it is rejected too.
        """
        if self.lost_maintain_frames < 0:
            raise ValueError("lost_maintain_frames must be >= 0")
        if not 0 <= self.location_age_reduction < self.max_age:
            raise ValueError("location_age_reduction must lie in [0, max_age)")
        if self.min_hits < 1:
            raise ValueError("min_hits must be >= 1")
        for name in ("occlusion_iou", "conf_low", "conf_high", "init_conf", "gate_first", "gate_second"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("buffer_scale", "mesh_threshold_slope"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("frame_width", "frame_height", "pos_std_weight", "vel_std_weight"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if self.mesh_cols < 1 or self.mesh_rows < 1:
            raise ValueError("mesh must have at least one cell per axis")
        if int(self.mesh_cols) * int(self.mesh_rows) > MAX_MESH_CELLS:
            raise ValueError(f"mesh_cols * mesh_rows must be at most {MAX_MESH_CELLS:,} cells")
        if not self.conf_low < self.conf_high:
            raise ValueError("conf_low must be below conf_high")
        if not 1 <= self.vel_buffer_len <= 30:
            raise ValueError("vel_buffer_len must lie in [1, 30]")

    @classmethod
    def baseline(cls, **overrides) -> "TrackerConfig":
        """Plain two-stage tracker: every added mechanism switched off."""
        base = dict(
            enable_mesh=False,
            enable_lost_maintain=False,
            enable_velocity_rollback=False,
            enable_location_ages=False,
        )
        base.update(overrides)
        return cls(**base)


def field_types(cls) -> dict[str, type]:
    """Each field of a config dataclass and the type of its default, in field order; list fields are left out."""
    defaults = vars(cls())
    return {f.name: type(defaults[f.name]) for f in fields(cls) if not isinstance(defaults[f.name], list)}
