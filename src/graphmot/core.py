"""Geometric primitives, detections, trajectories and the distance functions
every other module consumes.

Boxes are (left, top, width, height) in pixels, matching the MOTChallenge
row layout; center-form conversions live in the motion module only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
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
    """A tracked identity: integrated appearance, last box, motion state.

    frames_lost == 0 means the trajectory was matched in its last frame;
    otherwise it counts consecutive unmatched frames. The tracker keeps its
    trajectories as Trajectories columns and hands out instances of this
    record as read-only snapshots of one row.
    """

    id: int
    integrated_feature: np.ndarray
    last_box: BoundingBox
    last_seen_frame: int
    motion: "KalmanState"
    frames_lost: int = 0
    lstm_state: Optional["LstmState"] = None
    forecast_stopped: bool = False

    @property
    def is_active(self) -> bool:
        return self.frames_lost == 0


def _record(cls, *values):
    """cls(*values) for a frozen dataclass whose __post_init__ checks the
    values have passed already (a row of a checked block): it is skipped.

    Fields are set one by one, as the dataclass __init__ sets them, so the
    instance keeps the interpreter's fast attribute access (an update of
    its __dict__ would lose it).
    """
    record = cls.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(record, name, value)
    return record


def check_detection_rows(frames, boxes, confidences, features) -> None:
    """Raise the ValueError that building each row as a Detection would
    raise first, for the first row that fails; silent when all pass.

    frames is one frame number or one per row; boxes (N, 4), confidences
    (N,) and features (N, d) are float64. The rules and messages are
    BoundingBox's (positive extent, then finite coordinates) and then
    Detection's (frame, confidence, unit norm), checked in one pass.
    """
    frames = np.broadcast_to(np.asarray(frames), confidences.shape)
    norms = row_norms(features)
    failures = (
        ~((boxes[:, 2] > 0.0) & (boxes[:, 3] > 0.0)),
        ~np.isfinite(boxes).all(axis=1),
        frames < 1,
        ~((confidences >= 0.0) & (confidences <= 1.0)),
        np.abs(norms - 1.0) > UNIT_NORM_TOL,
    )
    bad = np.logical_or.reduce(failures)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    x, y, w, h = boxes[i].tolist()
    messages = (
        f"box needs positive extent, got w={w}, h={h}",
        "box coordinates must be finite",
        f"frame numbers start at 1, got {int(frames[i])}",
        f"confidence outside [0, 1]: {float(confidences[i])}",
        f"feature must be unit norm, got |f| = {float(norms[i])}",
    )
    raise ValueError(next(m for m, failed in zip(messages, failures) if failed[i]))


class Detections(Sequence[Detection]):
    """One frame's N detections as columns: boxes (N, 4) xywh, confidences
    (N,), features (N, d) and, for labelled data, gt_ids (N identities or
    None each; None for the whole block when nothing is labelled).

    A block is checked once, in one vectorised pass with the rules and
    messages of Detection and BoundingBox, and its arrays are read-only.
    It is also a read-only sequence of Detection: an item is built only
    when it is indexed. An empty block may have frame None.
    """

    __slots__ = ("frame", "boxes", "confidences", "features", "gt_ids")

    def __init__(self, frame, boxes, confidences, features, gt_ids=None):
        boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
        confidences = np.array(confidences, dtype=np.float64).reshape(-1)
        features = np.array(features, dtype=np.float64)
        if features.ndim != 2 or len(features) != len(boxes) or len(confidences) != len(boxes):
            raise ValueError(
                f"need (N, 4) boxes, (N,) confidences and (N, d) features, got "
                f"{boxes.shape}, {confidences.shape} and {features.shape}"
            )
        if gt_ids is not None and len(gt_ids) != len(boxes):
            raise ValueError(f"{len(gt_ids)} gt_ids for {len(boxes)} detections")
        if len(boxes):
            check_detection_rows(frame, boxes, confidences, features)
        self._fill(frame, boxes, confidences, features, gt_ids)

    def _fill(self, frame, boxes, confidences, features, gt_ids):
        for array in (boxes, confidences, features):
            array.flags.writeable = False
        self.frame = None if frame is None else int(frame)
        self.boxes = boxes
        self.confidences = confidences
        self.features = features
        self.gt_ids = None if gt_ids is None else tuple(gt_ids)

    @classmethod
    def trusted(cls, frame, boxes, confidences, features, gt_ids=None) -> "Detections":
        """A block of float64 arrays the caller has already checked (with
        check_detection_rows) and hands over; nothing is copied."""
        block = cls.__new__(cls)
        block._fill(frame, boxes, confidences, features, gt_ids)
        return block

    @classmethod
    def of(cls, detections, frame=None) -> "Detections":
        """The block of a list of Detection, which are checked already.

        They must share one frame; frame names it for an empty list.
        """
        if not detections:
            return cls.trusted(frame, np.zeros((0, 4)), np.zeros(0), np.zeros((0, 0)))
        frames = {d.frame for d in detections}
        if len(frames) > 1:
            raise ValueError(f"detections of frames {sorted(frames)} in one block")
        gt_ids = [d.gt_id for d in detections]
        return cls.trusted(
            frames.pop(),
            box_array(detections),
            np.array([d.confidence for d in detections], dtype=np.float64),
            np.array([d.feature for d in detections]),
            None if all(g is None for g in gt_ids) else gt_ids,
        )

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, i: int) -> Detection:
        i = range(len(self))[i]  # negative indices; IndexError past the end
        return _record(
            Detection,
            self.frame,
            _record(BoundingBox, *self.boxes[i].tolist()),
            float(self.confidences[i]),
            self.features[i],
            None if self.gt_ids is None else self.gt_ids[i],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Detections):
            return NotImplemented
        return (
            self.frame == other.frame
            and self.gt_ids == other.gt_ids
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("boxes", "confidences", "features")
            )
        )


def as_detections(detections, frame=None) -> Detections:
    """detections as a block: a Detections as is, a list through Detections.of."""
    if isinstance(detections, Detections):
        return detections
    return Detections.of(detections, frame)


class Trajectories(Sequence[Trajectory]):
    """M trajectories as columns, row r for row r: ids (M,), integrated
    features (M, d), last observed boxes (M, 4) xywh, last-seen frames
    (M,), Kalman means (M, 8) and covariances (M, 8, 8), frames lost and
    forecast-stopped flags (M,; zero and False by default), and LSTM
    states (a list of M states, kept in "lstm" integration only; else None).

    The tracker owns its block and updates the columns in place. As a
    sequence the block is read-only: an item is a Trajectory snapshot of
    its row, built only when it is indexed.
    """

    __slots__ = (
        "ids", "features", "last_boxes", "last_seen", "means", "covs",
        "frames_lost", "forecast_stopped", "lstm_states",
    )

    def __init__(self, ids, features, last_boxes, last_seen, means, covs,
                 frames_lost=None, forecast_stopped=None, lstm_states=None):
        self.ids = np.asarray(ids, dtype=np.int64)
        m = len(self.ids)
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:  # no rows: shape unknown
            features = features.reshape(m, -1) if m else np.zeros((0, 0))
        self.features = features
        self.last_boxes = np.asarray(last_boxes, dtype=np.float64).reshape(m, 4)
        self.last_seen = np.asarray(last_seen, dtype=np.int64)
        self.means = np.asarray(means, dtype=np.float64).reshape(m, 8)
        self.covs = np.asarray(covs, dtype=np.float64).reshape(m, 8, 8)
        self.frames_lost = np.zeros(m, dtype=np.int64) if frames_lost is None \
            else np.asarray(frames_lost, dtype=np.int64)
        self.forecast_stopped = np.zeros(m, dtype=bool) if forecast_stopped is None \
            else np.asarray(forecast_stopped, dtype=bool)
        self.lstm_states = None if lstm_states is None else list(lstm_states)

    @classmethod
    def of(cls, trajectories) -> "Trajectories":
        """The columns of a list of Trajectory records."""
        trajectories = list(trajectories)
        lstm_states = [t.lstm_state for t in trajectories]
        return cls(
            [t.id for t in trajectories],
            np.array([t.integrated_feature for t in trajectories], dtype=np.float64),
            np.array([t.last_box.as_xywh() for t in trajectories]),
            [t.last_seen_frame for t in trajectories],
            np.array([t.motion.mean for t in trajectories]),
            np.array([t.motion.cov for t in trajectories]),
            [t.frames_lost for t in trajectories],
            [t.forecast_stopped for t in trajectories],
            None if all(s is None for s in lstm_states) else lstm_states,
        )

    def take(self, rows) -> "Trajectories":
        """A new block of the given rows, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Trajectories(
            *(getattr(self, name)[rows] for name in self.__slots__[:-1]),
            None if self.lstm_states is None else [self.lstm_states[r] for r in rows],
        )

    def concat(self, other: "Trajectories") -> "Trajectories":
        """A new block of this block's rows followed by other's."""
        if not self:
            return other
        if not other:
            return self
        return Trajectories(
            *(np.concatenate([getattr(self, name), getattr(other, name)])
              for name in self.__slots__[:-1]),
            None if self.lstm_states is None else self.lstm_states + other.lstm_states,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Trajectory:
        from .motion import KalmanState

        i = range(len(self))[i]  # negative indices; IndexError past the end
        return Trajectory(
            id=int(self.ids[i]),
            integrated_feature=self.features[i].copy(),
            last_box=_record(BoundingBox, *self.last_boxes[i].tolist()),
            last_seen_frame=int(self.last_seen[i]),
            motion=KalmanState(self.means[i].copy(), self.covs[i].copy()),
            frames_lost=int(self.frames_lost[i]),
            lstm_state=None if self.lstm_states is None else self.lstm_states[i],
            forecast_stopped=bool(self.forecast_stopped[i]),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other):
        # Items are snapshots, never a caller's records, so a block equals a
        # plain list or tuple only when both are empty.
        if isinstance(other, (list, tuple)):
            return len(self) == 0 and len(other) == 0
        return NotImplemented


def as_trajectories(trajectories) -> Trajectories:
    """trajectories as columns: a Trajectories as is, a list through Trajectories.of."""
    if isinstance(trajectories, Trajectories):
        return trajectories
    return Trajectories.of(trajectories)


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


def box_array(detections: list[Detection]) -> np.ndarray:
    """(N, 4) xywh boxes of the detections."""
    boxes = [(d.box.x, d.box.y, d.box.w, d.box.h) for d in detections]
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


def frame_overlaps(detections, rows=None) -> np.ndarray:
    """Largest IoU of each of detections[rows] (every detection when rows
    is None) with any other detection of their frame, 0 when it has none.

    detections is a Detections block or a list of Detection. One IoU
    matrix of the rows against the frame with each row's own entry
    zeroed.
    """
    boxes = detections.boxes if isinstance(detections, Detections) else box_array(detections)
    rows = np.arange(len(boxes)) if rows is None else np.asarray(rows, dtype=np.intp)
    overlap = kernels.iou_matrix(boxes[rows], boxes)
    overlap[np.arange(len(rows)), rows] = 0.0
    return overlap.max(axis=1, initial=0.0)


def row_norms(vecs: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a (K, d) array, bit for bit the value
    np.linalg.norm gives each row alone.

    Row by row, (1, d) @ (d, 1) is the same dot product np.linalg.norm
    takes of one vector; an axis=1 norm sums in another order.
    """
    return np.sqrt((vecs[:, None, :] @ vecs[:, :, None])[:, 0, 0])


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
