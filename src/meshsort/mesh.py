"""Uniform frame-space grid that tallies where tracks get lost and found back.

Each cell keeps a signed count: +1 per loss, -1 per refind. Cells whose count
stays above a (time-growing) threshold are flagged as frequent-loss regions,
which the lifecycle logic treats as likely exits or fixed obstacles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Point2

CellId = tuple[int, int]


@dataclass(frozen=True)
class LossThreshold:
    """Linear time-variant threshold: ``slope * t`` for normal cells, 0 for frequent ones.

    Keeping the threshold at zero for already-frequent cells makes a cell stay
    frequent while its count remains positive, instead of flapping against the
    growing line.
    """

    slope: float = 0.02

    def value(self, state: int, t: int) -> float:
        if t <= 0:
            raise ValueError("threshold is defined for positive frame times only")
        return 0.0 if state else self.slope * t


@dataclass
class MeshGrid:
    """m x n equal subdivision of the frame with per-cell loss bookkeeping.

    Mutated only by the single frame-processing thread of one tracker;
    :meth:`to_text` writes its state out.
    """

    cols: int
    rows: int
    frame_size: tuple[float, float]
    log_events: bool = False
    counts: np.ndarray = field(init=False)
    state: np.ndarray = field(init=False)
    events: list[tuple[str, CellId]] = field(init=False, default_factory=list)

    def __post_init__(self):
        if self.cols < 1 or self.rows < 1:
            raise ValueError("grid needs at least one cell in each direction")
        if self.frame_size[0] <= 0 or self.frame_size[1] <= 0:
            raise ValueError("frame size must be positive")
        self.counts = np.zeros((self.cols, self.rows), dtype=np.int64)
        self.state = np.zeros((self.cols, self.rows), dtype=bool)

    def cells_of(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Column and row indices of points; out-of-frame points clamp to the border cells."""
        w, h = self.frame_size
        i = np.minimum(np.maximum(np.floor(x * self.cols / w), 0), self.cols - 1)
        j = np.minimum(np.maximum(np.floor(y * self.rows / h), 0), self.rows - 1)
        return i.astype(np.int64), j.astype(np.int64)

    def cell_of(self, p: Point2) -> CellId:
        """Cell index of a point; out-of-frame points clamp to the border cells."""
        if not (np.isfinite(p.x) and np.isfinite(p.y)):
            raise ValueError(f"cell lookup needs a finite point, got {p}")
        i, j = self.cells_of(np.float64(p.x), np.float64(p.y))
        return (int(i), int(j))

    def record_lost(self, p: Point2) -> CellId:
        cell = self.cell_of(p)
        self.counts[cell] += 1
        if self.log_events:
            self.events.append(("lost", cell))
        return cell

    def record_refound(self, p: Point2) -> CellId:
        cell = self.cell_of(p)
        self.counts[cell] -= 1
        if self.log_events:
            self.events.append(("refound", cell))
        return cell

    @property
    def frequent(self) -> frozenset[CellId]:
        i, j = np.nonzero(self.state)
        return frozenset(zip(i.tolist(), j.tolist()))

    def identify(self, threshold: LossThreshold, t: int) -> frozenset[CellId]:
        """Recompute frequent-cell membership from counts and the threshold at time t.

        Each cell's threshold is evaluated against its state from the previous
        pass, then the state matrix is replaced with the new membership.
        """
        limits = np.where(self.state, 0.0, threshold.value(0, t))
        self.state = self.counts > limits
        return self.frequent

    def to_text(self, frame: int = 0) -> str:
        """The counts, one line per grid row, and the frequent cells, under a ``frame`` header."""
        lines = [f"mesh {self.cols} {self.rows} frame {frame}"]
        for j in range(self.rows):
            lines.append(" ".join(str(int(self.counts[i, j])) for i in range(self.cols)))
        cells = " ".join(f"({i},{j})" for i, j in sorted(self.frequent))
        lines.append(f"frequent: {cells}".rstrip())
        return "\n".join(lines) + "\n"
