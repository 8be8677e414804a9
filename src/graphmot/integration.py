"""Trajectory appearance integration.

Four selectable modes for refreshing a trajectory's appearance after a
match: "none" (take the matched detection's feature as-is), "average",
"iou" (overlap-guided blending that trusts history more when the matched
detection overlaps other detections), and "lstm".

All outputs are renormalized to unit length: downstream distances assume
unit vectors, and repeated un-normalized averaging would shrink norms and
silently distort them.
"""

from __future__ import annotations

import numpy as np

from .core import Detection, Trajectory, max_overlap
from .nn import LstmCell, LstmState

INTEGRATION_MODES = ("none", "lstm", "average", "iou")

_ZERO_NORM = 1e-12


def _renormalized(vec: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Unit-length copy of vec; degenerate (near-zero) vectors fall back."""
    norm = float(np.linalg.norm(vec))
    if norm < _ZERO_NORM:
        return fallback.copy()
    return vec / norm


def integrate_average(f_prev: np.ndarray, f_new: np.ndarray) -> np.ndarray:
    """Half-sum of the previous and new feature, renormalized.

    Antipodal inputs cancel to zero; the result then falls back to f_new.
    """
    return _renormalized(0.5 * (f_prev + f_new), f_new)


def integrate_iou_guided(f_prev: np.ndarray, f_new: np.ndarray, overlap: float) -> np.ndarray:
    """Overlap-guided blend of the previous and new feature, renormalized.

    `overlap` is the matched detection's maximum IoU with the other
    detections of its frame. At overlap 0 this is bit-identical to
    integrate_average; at overlap 1 the new feature has weight exactly
    zero and f_prev is returned unchanged.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    if overlap == 1.0:
        return f_prev.copy()
    blended = 0.5 * (f_prev * (1.0 + overlap) + f_new * (1.0 - overlap))
    return _renormalized(blended, f_new)


def integrate_lstm(
    cell: LstmCell, state: LstmState | None, f_new: np.ndarray
) -> tuple[np.ndarray, LstmState]:
    """One recurrent step over the new feature; hidden output renormalized.

    A zero hidden output (e.g. zero-initialized weights) falls back to
    f_new, like the degenerate cases of the other modes.
    """
    state = cell.init_state() if state is None else state
    h, new_state, _ = cell.step(state, f_new)
    return _renormalized(h, f_new), new_state


def update_trajectory_feature(
    traj: Trajectory,
    matched: Detection,
    frame_dets: list[Detection],
    mode: str,
    lstm_cell: LstmCell | None = None,
    overlap: float | None = None,
) -> Trajectory:
    """Refresh traj.integrated_feature from its matched detection.

    frame_dets are all detections of the current frame; the matched one is
    excluded when computing the overlap for "iou" mode. A caller that
    updates many trajectories per frame passes the matched detection's
    entry of core.frame_overlaps(frame_dets) as `overlap` instead.
    Unmatched trajectories are simply never passed here, which leaves
    their feature untouched.
    """
    if mode == "none":
        traj.integrated_feature = matched.feature.copy()
    elif mode == "average":
        traj.integrated_feature = integrate_average(traj.integrated_feature, matched.feature)
    elif mode == "iou":
        if overlap is None:
            overlap = max_overlap(matched, [d for d in frame_dets if d is not matched])
        traj.integrated_feature = integrate_iou_guided(
            traj.integrated_feature, matched.feature, overlap
        )
    elif mode == "lstm":
        if lstm_cell is None:
            raise ValueError("lstm integration requires an LstmCell")
        feature, state = integrate_lstm(lstm_cell, traj.lstm_state, matched.feature)
        traj.integrated_feature = feature
        traj.lstm_state = state
    else:
        raise ValueError(f"unknown integration mode {mode!r}; expected one of {INTEGRATION_MODES}")
    return traj
