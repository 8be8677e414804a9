"""Trajectory appearance integration.

Four selectable modes for refreshing a trajectory's appearance after a
match: "none" (take the matched detection's feature as-is), "average",
"iou" (overlap-guided blending that trusts history more when the matched
detection overlaps other detections), and "lstm".

All outputs are renormalized to unit length: downstream distances assume
unit vectors, and repeated un-normalized averaging would shrink norms and
silently distort them.

integrate_rows() is the one rule of "none", "average" and "iou": it
integrates many trajectories at once, and integrate() is one row of it.
The tracker integrates all matches of a frame with one integrate_rows
call, and "lstm" match by match through integrate_lstm; the ground-truth
walk (mpn.ground_truth_walk) that teacher-forces training and the ratio
analysis uses the same functions. update_trajectory_feature applies them
to one Trajectory record; no code of the package calls it, and it stays
for perfbench/tracing.py and the tests' per-object tracker reference.
"""

from __future__ import annotations

import numpy as np

from .core import Detection, Detections, Trajectory, frame_overlaps, row_norms
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

    f_prev and f_new are (K, d); "iou" needs the (K,) overlaps. Row k of
    the result has the bits integrate() gives row k on its own: the blend
    is elementwise and the row norms are row_norms, which equal
    np.linalg.norm of each row.
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


def integrate_average(f_prev: np.ndarray, f_new: np.ndarray) -> np.ndarray:
    """Half-sum of the previous and new feature, renormalized.

    Antipodal inputs cancel to zero; the result then falls back to f_new.
    """
    return integrate_rows("average", f_prev[None], f_new[None])[0]


def integrate_iou_guided(f_prev: np.ndarray, f_new: np.ndarray, overlap: float) -> np.ndarray:
    """Overlap-guided blend of the previous and new feature, renormalized.

    `overlap` is the matched detection's maximum IoU with the other
    detections of its frame. At overlap 0 this is bit-identical to
    integrate_average; at overlap 1 the new feature has weight exactly
    zero and f_prev is returned unchanged.
    """
    return integrate_rows("iou", f_prev[None], f_new[None], np.array([overlap]))[0]


def _lstm_step(
    cell: LstmCell, state: LstmState | None, f_new: np.ndarray
) -> tuple[np.ndarray, LstmState, LstmCache]:
    state = cell.init_state() if state is None else state
    h, new_state, cache = cell.step(state, f_new)
    return _renormalized_rows(h[None], f_new[None])[0], new_state, cache


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
    frame_dets: list,
    mode: str,
    lstm_cell: LstmCell | None = None,
) -> Trajectory:
    """Refresh traj.integrated_feature from its matched detection.

    frame_dets are the caller's Detection records of the current frame;
    the matched one, by identity, is excluded when computing the overlap
    for "iou" mode. A caller that updates many trajectories per frame
    uses integrate_rows with core.frame_overlaps instead. Unmatched
    trajectories are simply never passed here, which leaves their feature
    untouched.
    """
    overlap = None
    if mode == "iou":
        others = [d for d in frame_dets if d is not matched]
        overlap = float(frame_overlaps(Detections.of([matched, *others]), [0])[0])
    traj.integrated_feature, traj.lstm_state, _ = integrate(
        mode, traj.integrated_feature, matched.feature,
        overlap=overlap, lstm_cell=lstm_cell, lstm_state=traj.lstm_state,
    )
    return traj
