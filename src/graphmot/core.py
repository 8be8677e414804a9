"""Geometric primitives, detections, trajectories and the distance functions
every other module consumes.

Boxes are (left, top, width, height) in pixels, matching the MOTChallenge
row layout; center-form conversions live in the motion module only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import kernels

if TYPE_CHECKING:
    from .motion import KalmanState
    from .nn import LstmState

UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box, (left, top, width, height) in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0.0 and self.h > 0.0):
            raise ValueError(f"box needs positive extent, got w={self.w}, h={self.h}")
        if not all(math.isfinite(v) for v in (self.x, self.y, self.w, self.h)):
            raise ValueError("box coordinates must be finite")

    @property
    def cx(self) -> float:
        return self.x + 0.5 * self.w

    @property
    def cy(self) -> float:
        return self.y + 0.5 * self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_xywh(self) -> np.ndarray:
        return np.array([self.x, self.y, self.w, self.h], dtype=np.float64)


@dataclass(frozen=True)
class Detection:
    """One observed box in one frame together with its appearance feature.

    The feature must be unit L2 norm; gt_id is only populated by the
    synthetic generator and by ground-truth labelling for evaluation.
    """

    frame: int
    box: BoundingBox
    confidence: float
    feature: np.ndarray
    gt_id: Optional[int] = None

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame numbers start at 1, got {self.frame}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence outside [0, 1]: {self.confidence}")
        feat = np.asarray(self.feature, dtype=np.float64)
        if feat.ndim != 1:
            raise ValueError("feature must be a 1-D vector")
        norm = float(np.linalg.norm(feat))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"feature must be unit norm, got |f| = {norm}")
        object.__setattr__(self, "feature", feat)


@dataclass
class Trajectory:
    """A tracked identity: integrated appearance, box history, motion state.

    frames_lost == 0 means the trajectory was matched in its last frame;
    otherwise it counts consecutive unmatched frames. The tracker owns all
    mutation; everything else treats instances as read-only.
    """

    id: int
    integrated_feature: np.ndarray
    last_box: BoundingBox
    last_seen_frame: int
    motion: "KalmanState"
    frames_lost: int = 0
    history: list[tuple[int, BoundingBox]] = field(default_factory=list)
    lstm_state: Optional["LstmState"] = None
    forecast_stopped: bool = False

    @property
    def is_active(self) -> bool:
        return self.frames_lost == 0


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint, 1 when equal."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    if ix <= 0.0:
        return 0.0
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iy <= 0.0:
        return 0.0
    inter = ix * iy
    # Clamp: rounding in x+w can nudge the ratio past 1 for identical boxes.
    return min(1.0, inter / (a.area + b.area - inter))


def max_overlap(target: Detection, others: list[Detection]) -> float:
    """Largest IoU the target box has with any of the other detections.

    Returns 0 for an empty list. The caller is responsible for excluding
    the target itself from `others`.
    """
    best = 0.0
    for other in others:
        v = iou(target.box, other.box)
        if v > best:
            best = v
    return best


def box_array(detections: list[Detection]) -> np.ndarray:
    """(N, 4) xywh boxes of the detections."""
    boxes = [(d.box.x, d.box.y, d.box.w, d.box.h) for d in detections]
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


def frame_overlaps(detections: list[Detection]) -> np.ndarray:
    """max_overlap of every detection against the rest of its frame.

    One IoU matrix with its diagonal zeroed; entry j equals
    max_overlap(detections[j], detections without j).
    """
    boxes = box_array(detections)
    overlap = kernels.iou_matrix(boxes, boxes)
    np.fill_diagonal(overlap, 0.0)
    return overlap.max(axis=1, initial=0.0)


def feature_distance(f1: np.ndarray, f2: np.ndarray) -> float:
    """Euclidean distance between two appearance features.

    On unit-norm inputs this ranges over [0, 2] and orders pairs exactly
    like cosine distance.
    """
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    if f1.shape != f2.shape:
        raise ValueError(f"feature dimensions differ: {f1.shape} vs {f2.shape}")
    return float(np.linalg.norm(f1 - f2))
