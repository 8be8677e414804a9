"""Trajectory appearance integration and the rest of a trajectory's life:
starting rows and absorbing matched detections.

Four selectable modes for refreshing a trajectory's appearance after a
match: "none" (take the matched detection's feature as-is), "average",
"iou" (overlap-guided blending that trusts history more when the matched
detection overlaps other detections), and "lstm".

All outputs are renormalized to unit length: downstream distances assume
unit vectors, and repeated un-normalized averaging would shrink norms and
silently distort them.

integrate_rows() is the one rule of "none", "average" and "iou", over
many trajectories at once, and lstm_step() the one "lstm" step. start()
and absorb() are the one rule of a trajectory's life over rows of a
core.Trajectories block, used by the tracker and by the ground-truth walk
(mpn.ground_truth_walk) of training and the ratio analysis alike.
update_trajectory_feature is one row of them for one Trajectory record;
no code of the package calls it, and it stays for perfbench/tracing.py.
"""

from __future__ import annotations

import numpy as np

from .core import Detection, Detections, Trajectories, Trajectory, frame_overlaps, row_norms
from .motion import kf_init_batch, kf_update_batch
from .nn import LstmCache, LstmCell, LstmState

INTEGRATION_MODES = ("none", "lstm", "average", "iou")
BATCHED_MODES = ("none", "average", "iou")  # the modes integrate_rows takes

_ZERO_NORM = 1e-12


def _renormalized_rows(vecs: np.ndarray, fallbacks: np.ndarray) -> np.ndarray:
    """Unit-length rows of vecs; a degenerate (near-zero) row falls back to
    the same row of fallbacks."""
    norms = row_norms(vecs)
    degenerate = norms < _ZERO_NORM
    out = vecs / np.where(degenerate, 1.0, norms)[:, None]
    np.copyto(out, fallbacks, where=degenerate[:, None])
    return out


def integrate_rows(
    mode: str, f_prev: np.ndarray, f_new: np.ndarray, overlaps: np.ndarray | None = None
) -> np.ndarray:
    """One "none", "average" or "iou" step for K trajectories at once.

    f_prev and f_new are (K, d); "iou" needs the (K,) overlaps, each
    new detection's largest IoU with the other detections of its frame.
    Row k of the result has the bits of row k integrated on its own: the
    blend is elementwise and the row norms are row_norms, which equal
    np.linalg.norm of each row. "average" of antipodal rows cancels to
    zero and falls back to f_new; "iou" at overlap 0 is "average" bit for
    bit, and at overlap 1 gives the new feature weight zero and keeps
    f_prev exactly.
    """
    if mode == "none":
        return np.array(f_new, dtype=np.float64)
    if mode == "average":
        return _renormalized_rows(0.5 * (f_prev + f_new), f_new)
    if mode == "iou":
        if overlaps is None:
            raise ValueError("iou integration requires the detection's overlap")
        overlaps = np.asarray(overlaps, dtype=np.float64)
        bad = ~((overlaps >= 0.0) & (overlaps <= 1.0))
        if bad.any():
            raise ValueError(f"overlap must be in [0, 1], got {overlaps[bad][0]}")
        weight = overlaps[:, None]
        blended = 0.5 * (f_prev * (1.0 + weight) + f_new * (1.0 - weight))
        out = _renormalized_rows(blended, f_new)
        # At overlap 1 the new feature has weight zero: keep f_prev exactly.
        np.copyto(out, f_prev, where=weight == 1.0)
        return out
    raise ValueError(f"mode {mode!r} does not integrate in batches; expected one of {BATCHED_MODES}")


def lstm_step(
    cell: LstmCell | None, state: LstmState | None, f_new: np.ndarray
) -> tuple[np.ndarray, LstmState, LstmCache]:
    """One "lstm" step over the new feature from state (None: a fresh one):
    (renormalized hidden output, falling back to f_new when it is zero,
    new state, the cache training backpropagates through)."""
    if cell is None:
        raise ValueError("lstm integration requires an LstmCell")
    state = cell.init_state() if state is None else state
    h, new_state, cache = cell.step(state, f_new)
    return _renormalized_rows(h[None], f_new[None])[0], new_state, cache


def start(ids, detections: Detections, index, frame: int, lstm: bool) -> Trajectories:
    """New trajectory rows, one per id, from detections[index] in `frame`:
    a Kalman state and the detection's feature, plus a fresh LSTM state
    (None) each in "lstm" integration."""
    boxes = detections.boxes[index]
    means, covs = kf_init_batch(boxes)
    return Trajectories(
        ids, detections.features[index], boxes, np.full(len(boxes), frame), means, covs,
        lstm_states=[None] * len(boxes) if lstm else None,
    )


def absorb(
    tracks: Trajectories,
    rows,
    detections: Detections,
    index,
    frame: int,
    mode: str,
    *,
    overlaps: np.ndarray | None = None,
    lstm_cell: LstmCell | None = None,
) -> list[LstmCache] | None:
    """Rows `rows` of tracks take detections[index] in `frame`, in place:
    Kalman update, integrated feature, last box and frame, no frame lost
    and forecasting resumed. "iou" uses overlaps (core.frame_overlaps of
    the index rows when None); "lstm" steps the rows one by one and
    returns their step caches, the other modes None."""
    boxes = detections.boxes[index]
    tracks.means[rows], tracks.covs[rows] = kf_update_batch(
        tracks.means[rows], tracks.covs[rows], boxes
    )
    caches = None
    if mode == "lstm":
        caches = []
        for r, j in zip(np.asarray(rows).tolist(), np.asarray(index).tolist()):
            tracks.features[r], tracks.lstm_states[r], cache = lstm_step(
                lstm_cell, tracks.lstm_states[r], detections.features[j]
            )
            caches.append(cache)
    else:
        if mode == "iou" and overlaps is None:
            overlaps = frame_overlaps(detections, index)
        tracks.features[rows] = integrate_rows(
            mode, tracks.features[rows], detections.features[index], overlaps
        )
    tracks.last_boxes[rows] = boxes
    tracks.last_seen[rows] = frame
    tracks.frames_lost[rows] = 0
    tracks.forecast_stopped[rows] = False
    return caches


def update_trajectory_feature(
    traj: Trajectory,
    matched: Detection,
    frame_dets: list,
    mode: str,
    lstm_cell: LstmCell | None = None,
) -> Trajectory:
    """Refresh traj.integrated_feature from its matched detection: one row
    of integrate_rows, or one lstm_step from traj.lstm_state.

    frame_dets are the caller's Detection records of the current frame;
    the matched one, by identity, is excluded when computing the overlap
    for "iou" mode. Unmatched trajectories are simply never passed here,
    which leaves their feature untouched.
    """
    if mode == "lstm":
        traj.integrated_feature, traj.lstm_state, _ = lstm_step(
            lstm_cell, traj.lstm_state, matched.feature
        )
        return traj
    overlaps = None
    if mode == "iou":
        others = [d for d in frame_dets if d is not matched]
        overlaps = frame_overlaps(Detections.of([matched, *others]), [0])
    traj.integrated_feature = integrate_rows(
        mode, traj.integrated_feature[None], matched.feature[None], overlaps
    )[0]
    return traj
