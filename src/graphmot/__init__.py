"""graphmot: online multi-object tracking by sparse graph association.

Per frame, the tracker builds a directed bipartite graph from existing
trajectories to new detections, prunes it with a distance ratio test,
scores the surviving edges with a trainable message passing network and
resolves them into one-to-one matches. Lost targets are forecast with a
gated constant-velocity Kalman filter until re-associated or pruned.
"""

from .core import (
    BoundingBox,
    Detection,
    Detections,
    Trajectories,
    Trajectory,
    feature_distance,
    iou,
)

__all__ = [
    "BoundingBox",
    "Detection",
    "Detections",
    "Trajectories",
    "Trajectory",
    "feature_distance",
    "iou",
]

__version__ = "0.1.0"
