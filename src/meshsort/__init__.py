"""Location-aware multi-object tracking: tracker, metrics, and scene tools."""

from .config import TrackerConfig
from .geometry import BoundingBox, Point2, iou
from .mesh import LossThreshold, MeshGrid
from .metrics import MetricsReport, evaluate
from .pipeline import Detection, FrameDetections, FrameOutput, SequencingError, Tracker, run
from .motfiles import parse_scene
from .synth import SceneConfig, generate

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "Detection",
    "FrameDetections",
    "FrameOutput",
    "LossThreshold",
    "MeshGrid",
    "MetricsReport",
    "Point2",
    "SceneConfig",
    "SequencingError",
    "Tracker",
    "TrackerConfig",
    "evaluate",
    "generate",
    "iou",
    "parse_scene",
    "run",
    "__version__",
]
