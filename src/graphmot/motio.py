"""Readers and writers for the MOTChallenge-style text formats.

Track / detection / ground-truth rows (one per line, comma separated):

    frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z

frame is a 1-based integer; id is -1 for raw detections; the trailing
x,y,z world coordinates are unused and written as -1. Boxes and
confidences are written with two decimals.

Per-detection appearance features live in a companion file:

    frame,det_index,f_1,...,f_d

det_index is the 0-based position of the detection within its frame, in
detection-file order. Features are written with eight decimals and
renormalized to unit length on read.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import kernels
from .core import BoundingBox, Detection


class TrackRow(NamedTuple):
    frame: int
    track_id: int
    x: float
    y: float
    w: float
    h: float
    conf: float


def _parse_track_line(source: str, lineno: int, line: str) -> TrackRow:
    """One track-format line, checked; malformed input reports source:line."""
    parts = line.strip().split(",")
    if len(parts) < 7:
        raise ValueError(f"{source}:{lineno}: expected at least 7 fields, got {len(parts)}")
    try:
        frame = int(float(parts[0]))
        track_id = int(float(parts[1]))
        x, y, w, h, conf = (float(v) for v in parts[2:7])
    except (ValueError, OverflowError) as exc:  # int() of nan / inf
        raise ValueError(f"{source}:{lineno}: {exc}") from None
    if not all(math.isfinite(v) for v in (x, y, w, h, conf)):
        raise ValueError(f"{source}:{lineno}: non-finite box or confidence")
    if frame < 1:
        raise ValueError(f"{source}:{lineno}: frame must be >= 1, got {frame}")
    if w <= 0 or h <= 0:
        raise ValueError(f"{source}:{lineno}: non-positive box size {w}x{h}")
    return TrackRow(frame, track_id, x, y, w, h, conf)


def parse_track_rows(lines, source: str = "<input>") -> list[TrackRow]:
    """Parse track-format lines; malformed input reports its line number.

    The first seven fields of every line are parsed by one np.loadtxt
    call. When it rejects them, or any value fails a check, each line is
    parsed and checked on its own, which names the line at fault.
    """
    lines = list(lines)
    if not any(line.strip() for line in lines):
        return []
    # No per-line containers outlive the parse: in a process holding many
    # objects they would trigger garbage collections that cost more than
    # the parse.
    try:
        table = np.loadtxt(lines, delimiter=",", usecols=range(7), ndmin=2, comments=None)
    except ValueError:  # a bad value, fewer than seven fields, a whitespace-only line
        table = None
    if (
        table is None
        or not np.isfinite(table).all()
        or not (np.abs(table[:, :2]) < 2.0**63).all()  # frame and id fit int64
        or not (table[:, 0] >= 1).all()
        or not (table[:, 4:6] > 0).all()
    ):
        return [
            _parse_track_line(source, lineno, line)
            for lineno, line in enumerate(lines, start=1)
            if line.strip()
        ]
    # astype truncates toward zero, like int(float(field)).
    frames, ids = table[:, :2].astype(np.int64).T.tolist()
    return list(map(TrackRow, frames, ids, *table[:, 2:].T.tolist()))


def read_track_rows(path) -> list[TrackRow]:
    with open(path) as fh:
        return parse_track_rows(fh, source=str(path))


def format_track_row(row: TrackRow) -> str:
    return (
        f"{row.frame},{row.track_id},{row.x:.2f},{row.y:.2f},"
        f"{row.w:.2f},{row.h:.2f},{row.conf:.2f},-1,-1,-1"
    )


def write_track_rows(path, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(format_track_row(row) + "\n")


def write_features(path, feature_rows) -> None:
    """feature_rows: iterable of (frame, det_index, vector)."""
    with open(path, "w") as fh:
        for frame, det_index, vec in feature_rows:
            values = ",".join(f"{v:.8f}" for v in vec)
            fh.write(f"{frame},{det_index},{values}\n")


def _parse_feature_line(path, lineno: int, line: str) -> np.ndarray:
    """One features line as floats; malformed input reports path:line."""
    parts = line.strip().split(",")
    if len(parts) < 3:
        raise ValueError(f"{path}:{lineno}: expected frame,det_index,f_1,...")
    try:
        return np.array([float(v) for v in parts], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def read_features(path) -> dict[tuple[int, int], np.ndarray]:
    """Returns {(frame, det_index): unit feature vector}.

    The whole file is parsed by one np.loadtxt call. When it rejects the
    file, each line is parsed on its own, which names the line at fault;
    every other error names its line too.
    """
    with open(path) as fh:
        lines = [(lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        return {}
    try:
        table = np.loadtxt([line for _, line in lines], delimiter=",", ndmin=2, comments=None)
    except ValueError:  # an unparsable value, or rows of different lengths
        table = None
    if table is None or table.shape[1] < 3:
        rows = [_parse_feature_line(path, lineno, line) for lineno, line in lines]
        for (lineno, _), row in zip(lines, rows):
            if row.size != rows[0].size:
                raise ValueError(
                    f"{path}:{lineno}: feature dimension {row.size - 2} != {rows[0].size - 2}"
                )
        table = np.array(rows)
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}:{lines[np.argmax(bad)][0]}: non-finite value")
    vecs = table[:, 2:]
    # Row by row, (1, d) @ (d, 1) is the same dot product np.linalg.norm
    # takes of one vector; an axis=1 norm sums in another order.
    norms = np.sqrt((vecs[:, None, :] @ vecs[:, :, None])[:, 0, 0])
    if (norms <= 0).any():
        raise ValueError(f"{path}:{lines[np.argmax(norms <= 0)][0]}: zero feature vector")
    keys = zip(table[:, 0].astype(int).tolist(), table[:, 1].astype(int).tolist())
    return dict(zip(keys, vecs / norms[:, None]))


def read_detections(det_path, feature_path) -> dict[int, list[Detection]]:
    """Join a detection file with its feature file into per-frame Detections."""
    rows = read_track_rows(det_path)
    feats = read_features(feature_path)
    frames: dict[int, list[Detection]] = {}
    indices: dict[int, int] = {}
    for row in rows:
        det_index = indices.get(row.frame, 0)
        indices[row.frame] = det_index + 1
        key = (row.frame, det_index)
        if key not in feats:
            raise ValueError(f"missing feature for frame {row.frame} detection {det_index}")
        conf = min(max(row.conf, 0.0), 1.0)
        det = Detection(row.frame, BoundingBox(row.x, row.y, row.w, row.h), conf, feats[key])
        frames.setdefault(row.frame, []).append(det)
    return frames


def rows_by_frame(rows: list[TrackRow]) -> dict[int, list[TrackRow]]:
    frames: dict[int, list[TrackRow]] = {}
    for row in rows:
        frames.setdefault(row.frame, []).append(row)
    return frames


def label_detections(
    frames: dict[int, list[Detection]],
    gt_rows: list[TrackRow],
    iou_threshold: float = 0.5,
) -> dict[int, list[Detection]]:
    """Attach ground-truth identities to detections by per-frame IoU matching.

    Uses optimal assignment on IoU; detections without a counterpart at or
    above the threshold keep gt_id None (clutter). Returns new Detection
    instances; the input is not modified.
    """
    gt_frames = rows_by_frame(gt_rows)
    labeled: dict[int, list[Detection]] = {}
    for frame, dets in frames.items():
        gts = gt_frames.get(frame, [])
        out = [None] * len(dets)
        if gts and dets:
            det_boxes = np.array([d.box.as_xywh() for d in dets])
            gt_boxes = np.array([[g.x, g.y, g.w, g.h] for g in gts])
            overlap = kernels.iou_matrix(det_boxes, gt_boxes)
            di, gi = linear_sum_assignment(overlap, maximize=True)
            assigned = {
                int(d): gts[int(g)].track_id
                for d, g in zip(di, gi)
                if overlap[d, g] >= iou_threshold
            }
        else:
            assigned = {}
        for idx, det in enumerate(dets):
            gt_id = assigned.get(idx)
            out[idx] = Detection(det.frame, det.box, det.confidence, det.feature, gt_id)
        labeled[frame] = out
    return labeled
