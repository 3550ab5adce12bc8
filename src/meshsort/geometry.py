"""Axis-aligned box geometry shared by the tracker, metrics, and scene tools."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


class Point2(NamedTuple):
    x: float
    y: float


_INF = math.inf


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Rectangle in continuous pixel coordinates, stored as top-left corner plus size.

    Width and height must be strictly positive; sub-pixel values are kept as-is
    because overlap tests and the motion filter both need continuous coordinates.
    """

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self):
        if not (-_INF < self.left < _INF and -_INF < self.top < _INF
                and 0.0 < self.width < _INF and 0.0 < self.height < _INF):
            if not all(map(math.isfinite, (self.left, self.top, self.width, self.height))):
                raise ValueError(f"non-finite box field in {self!r}")
            raise ValueError(f"box requires positive width and height, got {self!r}")

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_ltwh(self) -> tuple[float, float, float, float]:
        return (self.left, self.top, self.width, self.height)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint, 1 when identical."""
    ix = min(a.right, b.right) - max(a.left, b.left)
    iy = min(a.bottom, b.bottom) - max(a.top, b.top)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    # Clamp: right-left can exceed width by an ulp, nudging the ratio past 1.
    return min(inter / (a.area + b.area - inter), 1.0)


def bottom_middle(b: BoundingBox) -> Point2:
    """Bottom-center point of a box, the anchor used for grid cell lookups."""
    return Point2(b.left + b.width / 2.0, b.top + b.height)


def ltwh_to_measurement(boxes: np.ndarray) -> np.ndarray:
    """(..., 4) [left, top, width, height] rows to [center_x, center_y, area, aspect] rows."""
    w, h = boxes[..., 2], boxes[..., 3]
    out = np.empty_like(boxes)
    out[..., 0] = boxes[..., 0] + w / 2.0
    out[..., 1] = boxes[..., 1] + h / 2.0
    out[..., 2] = w * h
    out[..., 3] = w / h
    return out


def measurement_to_ltwh(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`ltwh_to_measurement`; area and aspect must be positive."""
    area, aspect = z[..., 2], z[..., 3]
    w = np.sqrt(area * aspect)
    h = np.sqrt(area / aspect)
    out = np.empty_like(z)
    out[..., 0] = z[..., 0] - w / 2.0
    out[..., 1] = z[..., 1] - h / 2.0
    out[..., 2] = w
    out[..., 3] = h
    return out


def ltwh_to_ltrb(boxes: np.ndarray) -> np.ndarray:
    """(N, 4) [left, top, width, height] rows to [left, top, right, bottom] rows."""
    out = boxes.copy()
    out[:, 2:] += boxes[:, :2]
    return out


def boxes_to_ltrb(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """Stack boxes into an (N, 4) array of [left, top, right, bottom] rows."""
    if not boxes:
        return np.zeros((0, 4), dtype=np.float64)
    return np.array([(b.left, b.top, b.right, b.bottom) for b in boxes], dtype=np.float64)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two (N, 4) / (M, 4) arrays in [left, top, right, bottom] form."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
    al, at, ar, ab = a.T
    bl, bt, br, bb = b.T
    iw = np.minimum.outer(ar, br) - np.maximum.outer(al, bl)
    ih = np.minimum.outer(ab, bb) - np.maximum.outer(at, bt)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = np.add.outer((ar - al) * (ab - at), (br - bl) * (bb - bt)) - inter
    return np.minimum(inter / union, 1.0)


def expand_ltrb(boxes: np.ndarray, scale: float) -> np.ndarray:
    """Grow each (N, 4) ltrb box about its center by ``scale`` times its width/height per side."""
    if boxes.shape[0] == 0 or scale == 0.0:
        return boxes
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    out = boxes.copy()
    out[:, 0] -= scale * w
    out[:, 1] -= scale * h
    out[:, 2] += scale * w
    out[:, 3] += scale * h
    return out
