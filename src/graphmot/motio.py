"""Readers and writers for the MOTChallenge-style text formats.

Track / detection / ground-truth rows (one per line, comma separated):

    frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z

frame is a 1-based integer; id is -1 for raw detections; the trailing
x,y,z world coordinates are unused and written as -1. Boxes and
confidences are written with two decimals.

read_track_rows returns one TrackRows block of columns (frames, ids,
boxes, confidences) in frame order; a (frame, id) given twice is an error
naming the line of its second row, so a detection file (id -1 for every
row) is read with read_detections, not as track rows.

Per-detection appearance features live in a companion file:

    frame,det_index,f_1,...,f_d

det_index is the 0-based position of the detection within its frame, in
detection-file order. Features are written with eight decimals and
renormalized to unit length on read. Every detection needs exactly one
feature line, and every feature line must name a detection.

read_detections returns one core.Detections block of columns per frame,
and label_detections the same blocks with ground-truth identities attached.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import kernels
from .core import Detections, check_detection_rows, row_norms
from .fields import check_real


class TrackRow(NamedTuple):
    frame: int
    track_id: int
    x: float
    y: float
    w: float
    h: float
    conf: float


def _first_repeat(frames: np.ndarray, ids: np.ndarray) -> int | None:
    """The first row, in row order, whose (frame, id) an earlier row has;
    None when no row repeats one."""
    # A stable sort by key puts every repeat right after the row it repeats.
    order = np.lexsort((ids, frames))
    same = (np.diff(frames[order]) == 0) & (np.diff(ids[order]) == 0)
    repeats = order[1:][same]
    return int(repeats.min()) if repeats.size else None


class TrackRows(Sequence[TrackRow]):
    """K track-format rows as columns: frames (K,) and ids (K,) int64,
    boxes (K, 4) xywh and confidences (K,) float64.

    Rows are in frame order: a block built from rows out of frame order
    sorts them once, stably, so rows of one frame keep their order. Its
    arrays are read-only. It is also a read-only sequence of TrackRow: an
    item is built only when it is indexed.
    """

    __slots__ = ("frames", "ids", "boxes", "confidences")

    def __init__(self, frames, ids, boxes, confidences):
        """A checked block: one frame >= 1, id, finite box of positive
        extent and finite confidence per row, and no (frame, id) twice."""
        frames, ids = np.array(frames, dtype=np.int64), np.array(ids, dtype=np.int64)
        boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
        confidences = np.array(confidences, dtype=np.float64)
        if not frames.shape == ids.shape == confidences.shape == boxes.shape[:1]:
            raise ValueError("need one frame, id, box and confidence per row")
        good = (frames >= 1) & np.isfinite(boxes).all(axis=1) & (boxes[:, 2:] > 0).all(axis=1)
        good &= np.isfinite(confidences)
        if not good.all():
            raise ValueError(f"row {np.argmin(good)}: need frame >= 1, a finite box of positive "
                             "extent and a finite confidence")
        r = _first_repeat(frames, ids)
        if r is not None:
            raise ValueError(f"second row of id {ids[r]} in frame {frames[r]}")
        self._fill(frames, ids, boxes, confidences)

    def _fill(self, frames, ids, boxes, confidences):
        if (frames[1:] < frames[:-1]).any():
            order = np.argsort(frames, kind="stable")
            frames, ids, boxes, confidences = frames[order], ids[order], boxes[order], confidences[order]
        for array in (frames, ids, boxes, confidences):
            array.flags.writeable = False
        self.frames, self.ids, self.boxes, self.confidences = frames, ids, boxes, confidences

    @classmethod
    def trusted(cls, frames, ids, boxes, confidences) -> "TrackRows":
        """A block of int64 / float64 arrays the caller has checked already
        and hands over; nothing is copied unless the rows need sorting."""
        block = cls.__new__(cls)
        block._fill(frames, ids, boxes, confidences)
        return block

    @classmethod
    def of(cls, rows) -> "TrackRows":
        """The checked block of TrackRow records (or 7-tuples)."""
        rows = list(rows)
        return cls([r[0] for r in rows], [r[1] for r in rows], [r[2:6] for r in rows],
                   [r[6] for r in rows])

    @classmethod
    def concat(cls, blocks) -> "TrackRows":
        """One block of the blocks' rows, in frame order."""
        blocks = list(blocks) or [cls.of([])]
        return cls.trusted(*(np.concatenate([getattr(b, name) for b in blocks])
                             for name in cls.__slots__))

    def frame_bounds(self, numbers) -> tuple[np.ndarray, np.ndarray]:
        """First row and one past the last row of each frame number's rows
        (equal when the frame has none)."""
        return (np.searchsorted(self.frames, numbers, "left"),
                np.searchsorted(self.frames, numbers, "right"))

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, i: int) -> TrackRow:
        i = range(len(self))[i]  # negative indices; IndexError past the end
        return TrackRow(int(self.frames[i]), int(self.ids[i]), *self.boxes[i].tolist(),
                        float(self.confidences[i]))

    def __iter__(self):
        return map(TrackRow, self.frames.tolist(), self.ids.tolist(), *self.boxes.T.tolist(),
                   self.confidences.tolist())

    def __eq__(self, other):
        if not isinstance(other, TrackRows):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self.__slots__)


def _parse_track_line(source: str, lineno: int, line: str) -> tuple:
    """One track-format line as (frame, id, x, y, w, h, conf), checked;
    malformed input reports source:line."""
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
    if frame >= 2**63:
        raise ValueError(f"{source}:{lineno}: frame number out of range")
    if not -(2**63) <= track_id < 2**63:
        raise ValueError(f"{source}:{lineno}: track id out of range")
    return frame, track_id, x, y, w, h, conf


def _checked_table(lines: list[str]) -> np.ndarray | None:
    """The first seven fields of the lines as one (K, 7) np.loadtxt table,
    or None when np.loadtxt rejects them or any value fails a check."""
    # No per-line containers outlive the parse: in a process holding many
    # objects they would trigger garbage collections that cost more than
    # the parse.
    try:
        table = np.loadtxt(lines, delimiter=",", usecols=range(7), ndmin=2, comments=None)
    except ValueError:  # a bad value, fewer than seven fields, a whitespace-only line
        return None
    if (
        not np.isfinite(table).all()
        or not (np.abs(table[:, :2]) < 2.0**63).all()  # frame and id fit int64
        or not (table[:, 0] >= 1).all()
        or not (table[:, 4:6] > 0).all()
    ):
        return None
    return table


def _track_table(lines: list[str], source: str) -> np.ndarray:
    """The checked (K, 7) float64 table of the track-format lines with
    content, one row each; malformed input reports source:line.

    The first seven fields of every line are parsed by one np.loadtxt
    call. When it rejects them, or any value fails a check, each line is
    parsed and checked on its own, which names the line at fault.
    """
    if not any(line.strip() for line in lines):
        return np.zeros((0, 7))
    table = _checked_table(lines)
    if table is None:
        table = np.array(
            [_parse_track_line(source, lineno, line)
             for lineno, line in enumerate(lines, start=1) if line.strip()],
            dtype=np.float64,
        )
    return table


def parse_track_rows(lines, source: str = "<input>") -> TrackRows:
    """Parse track-format lines into one block; malformed input, a second
    row of one (frame, id) included, reports source:line."""
    lines = list(lines)
    table = _track_table(lines, source)
    # astype truncates toward zero, like int(float(field)).
    frames, ids = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64)
    r = _first_repeat(frames, ids)
    if r is not None:
        raise ValueError(
            f"{source}:{_line_number(lines, r)}: second row of id {ids[r]} in frame {frames[r]}"
        )
    return TrackRows.trusted(frames, ids, table[:, 2:6].copy(), table[:, 6].copy())


def read_track_rows(path) -> TrackRows:
    with open(path) as fh:
        return parse_track_rows(fh, source=str(path))


_TRACK_LINE = "{},{},{:.2f},{:.2f},{:.2f},{:.2f},{:.2f},-1,-1,-1\n"


def format_track_rows(rows) -> str:
    """The text of track rows, one line each in row order: a TrackRows
    block, formatted from its columns, or TrackRow records (a detection
    file's rows repeat (frame, id -1), which no checked block holds)."""
    if isinstance(rows, TrackRows):
        rows = zip(rows.frames.tolist(), rows.ids.tolist(), *rows.boxes.T.tolist(),
                   rows.confidences.tolist())
    return "".join(itertools.starmap(_TRACK_LINE.format, rows))


def format_track_row(row: TrackRow) -> str:
    """One row of format_track_rows, without its newline."""
    return format_track_rows([row])[:-1]


def write_track_rows(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write(format_track_rows(rows))


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


def _line_number(lines: list[str], r: int) -> int:
    """File line number of row r of a table of the lines with content."""
    return [n for n, line in enumerate(lines, start=1) if line.strip()][r]


def _feature_table(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(keys (F, 2) of frame and det_index, unit vectors (F, d), lines) of
    a features file: one row per line with content, and the file's lines.

    The whole file is parsed by one np.loadtxt call. When it rejects the
    file, each line is parsed on its own, which names the line at fault;
    every other error, a repeated key included, names its line too.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if not any(line.strip() for line in lines):
        return np.zeros((0, 2), dtype=np.int64), np.zeros((0, 0)), lines
    try:
        table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:  # an unparsable value, rows of different lengths, a whitespace-only line
        table = None
    if table is None or table.shape[1] < 3:
        numbered = [(n, line) for n, line in enumerate(lines, start=1) if line.strip()]
        rows = [_parse_feature_line(path, n, line) for n, line in numbered]
        for (n, _), row in zip(numbered, rows):
            if row.size != rows[0].size:
                raise ValueError(
                    f"{path}:{n}: feature dimension {row.size - 2} != {rows[0].size - 2}"
                )
        table = np.array(rows)
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}:{_line_number(lines, np.argmax(bad))}: non-finite value")
    vecs = table[:, 2:]
    norms = row_norms(vecs)
    if (norms <= 0).any():
        zero = np.argmax(norms <= 0)
        raise ValueError(f"{path}:{_line_number(lines, zero)}: zero feature vector")
    keys = table[:, :2].astype(np.int64)
    r = _first_repeat(keys[:, 0], keys[:, 1])
    if r is not None:
        raise ValueError(
            f"{path}:{_line_number(lines, r)}: second feature for frame {keys[r, 0]} "
            f"detection {keys[r, 1]}"
        )
    return keys, vecs / norms[:, None], lines


def read_features(path) -> dict[tuple[int, int], np.ndarray]:
    """Returns {(frame, det_index): unit feature vector}; malformed input,
    a repeated (frame, det_index) included, reports path:line."""
    keys, vecs, _ = _feature_table(path)
    return dict(zip(map(tuple, keys.tolist()), vecs))


def _join(det_keys: np.ndarray, feature_keys: np.ndarray) -> np.ndarray:
    """Row of feature_keys holding each row of det_keys, -1 where none does.

    Both are (K, 2) integer keys, each without repeats. One stable sort of
    both puts every matched detection key right before its feature key.
    """
    both = np.concatenate([det_keys, feature_keys])
    order = np.lexsort((both[:, 1], both[:, 0]))
    pairs = np.flatnonzero((np.diff(both[order], axis=0) == 0).all(axis=1))
    rows = np.full(len(det_keys), -1, dtype=np.intp)
    rows[order[pairs]] = order[pairs + 1] - len(det_keys)
    return rows


def read_detections(det_path, feature_path) -> dict[int, Detections]:
    """Join a detection file with its feature file into one Detections
    block per frame, frames in the order the detection file first shows
    them and detections in file order.

    Both files are read as arrays; no per-row record is built. Errors, in
    order: the detection file's malformed lines (as read_track_rows
    reports them; every row has id -1, so no id is unique), the feature
    file's (as read_features reports them), then the first
    detection, in file order, without a feature or failing a Detection
    check, then the first feature line that names no detection.
    Confidences are clamped to [0, 1].
    """
    with open(det_path) as fh:
        table = _track_table(fh.readlines(), str(det_path))
    keys, vecs, feature_lines = _feature_table(feature_path)
    frames = table[:, 0].astype(np.int64)
    boxes = table[:, 2:6]
    conf = table[:, 6]
    conf = np.where(conf > 1.0, 1.0, np.where(conf < 0.0, 0.0, conf))  # as min(max(c, 0), 1)
    # det_index: the row's position among the rows of its frame.
    order = np.argsort(frames, kind="stable")
    first = np.ones(frames.size, dtype=bool)
    first[1:] = frames[order][1:] != frames[order][:-1]
    starts = np.flatnonzero(first)
    bounds = np.append(starts, frames.size)
    det_index = np.empty_like(frames)
    det_index[order] = np.arange(frames.size) - np.repeat(starts, np.diff(bounds))

    rows = _join(np.column_stack([frames, det_index]), keys)
    missing = rows < 0
    checked = int(np.argmax(missing)) if missing.any() else frames.size
    features = vecs[rows[:checked]] if checked else np.zeros((0, vecs.shape[1]))
    check_detection_rows(frames[:checked], boxes[:checked], conf[:checked], features)
    if checked < frames.size:
        raise ValueError(
            f"missing feature for frame {frames[checked]} detection {det_index[checked]}"
        )
    used = np.zeros(len(keys), dtype=bool)
    used[rows] = True
    if not used.all():
        r = int(np.argmin(used))
        raise ValueError(
            f"{feature_path}:{_line_number(feature_lines, r)}: feature for frame {keys[r, 0]} "
            f"detection {keys[r, 1]} names no detection in {det_path}"
        )

    # One copy of each column in frame order; every block is a slice of it.
    boxes, conf, features = boxes[order], conf[order], features[order]
    blocks = {}
    for s in sorted(range(starts.size), key=lambda s: order[starts[s]]):
        lo, hi = bounds[s], bounds[s + 1]
        blocks[int(frames[order[lo]])] = Detections.trusted(
            frames[order[lo]], boxes[lo:hi], conf[lo:hi], features[lo:hi]
        )
    return blocks


def label_detections(
    frames: dict[int, Detections],
    gt_rows: TrackRows,
    iou_threshold: float = 0.5,
) -> dict[int, Detections]:
    """Attach ground-truth identities to detections by per-frame IoU matching.

    Uses optimal assignment on IoU; detections without a counterpart at or
    above the threshold (in (0, 1]) get gt_id None (clutter). Returns new
    blocks that share the input blocks' arrays and carry the gt_ids column,
    as training and the ratio analysis take them; the input is not modified.
    """
    check_real("iou_threshold", iou_threshold, 0.0, 1.0, "(]")
    starts, ends = gt_rows.frame_bounds(list(frames))
    labeled: dict[int, Detections] = {}
    for (frame, dets), lo, hi in zip(frames.items(), starts.tolist(), ends.tolist()):
        gt_ids = [None] * len(dets)
        if hi > lo and dets:
            overlap = kernels.iou_matrix(dets.boxes, gt_rows.boxes[lo:hi])
            di, gi = linear_sum_assignment(overlap, maximize=True)
            ids = gt_rows.ids[lo:hi].tolist()
            for d, g in zip(di.tolist(), gi.tolist()):
                if overlap[d, g] >= iou_threshold:
                    gt_ids[d] = ids[g]
        labeled[frame] = Detections.trusted(
            dets.frame, dets.boxes, dets.confidences, dets.features, gt_ids
        )
    return labeled
