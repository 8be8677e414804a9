"""Trajectory appearance integration.

Four selectable modes for refreshing a trajectory's appearance after a
match: "none" (take the matched detection's feature as-is), "average",
"iou" (overlap-guided blending that trusts history more when the matched
detection overlaps other detections), and "lstm".

All outputs are renormalized to unit length: downstream distances assume
unit vectors, and repeated un-normalized averaging would shrink norms and
silently distort them.

integrate() is the one rule that picks a mode: the tracker (through
update_trajectory_feature), the trainer's teacher forcing and the ratio
analysis all call it.
"""

from __future__ import annotations

import numpy as np

from .core import Detection, Trajectory, max_overlap
from .nn import LstmCache, LstmCell, LstmState

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


def _lstm_step(
    cell: LstmCell, state: LstmState | None, f_new: np.ndarray
) -> tuple[np.ndarray, LstmState, LstmCache]:
    state = cell.init_state() if state is None else state
    h, new_state, cache = cell.step(state, f_new)
    return _renormalized(h, f_new), new_state, cache


def integrate_lstm(
    cell: LstmCell, state: LstmState | None, f_new: np.ndarray
) -> tuple[np.ndarray, LstmState]:
    """One recurrent step over the new feature; hidden output renormalized.

    A zero hidden output (e.g. zero-initialized weights) falls back to
    f_new, like the degenerate cases of the other modes.
    """
    feature, new_state, _ = _lstm_step(cell, state, f_new)
    return feature, new_state


def integrate(
    mode: str,
    f_prev: np.ndarray,
    f_new: np.ndarray,
    *,
    overlap: float | None = None,
    lstm_cell: LstmCell | None = None,
    lstm_state: LstmState | None = None,
) -> tuple[np.ndarray, LstmState | None, LstmCache | None]:
    """One integration step of `mode`: (feature, lstm_state, lstm_cache).

    "iou" needs `overlap`, the new detection's maximum IoU with the other
    detections of its frame (core.frame_overlaps). "lstm" needs the cell
    and steps from lstm_state (None starts a fresh state); its cache lets
    training backpropagate through the step. The other modes pass
    lstm_state through and return no cache.
    """
    if mode == "none":
        return f_new.copy(), lstm_state, None
    if mode == "average":
        return integrate_average(f_prev, f_new), lstm_state, None
    if mode == "iou":
        if overlap is None:
            raise ValueError("iou integration requires the detection's overlap")
        return integrate_iou_guided(f_prev, f_new, overlap), lstm_state, None
    if mode == "lstm":
        if lstm_cell is None:
            raise ValueError("lstm integration requires an LstmCell")
        return _lstm_step(lstm_cell, lstm_state, f_new)
    raise ValueError(f"unknown integration mode {mode!r}; expected one of {INTEGRATION_MODES}")


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
    if mode == "iou" and overlap is None:
        overlap = max_overlap(matched, [d for d in frame_dets if d is not matched])
    traj.integrated_feature, traj.lstm_state, _ = integrate(
        mode, traj.integrated_feature, matched.feature,
        overlap=overlap, lstm_cell=lstm_cell, lstm_state=traj.lstm_state,
    )
    return traj
