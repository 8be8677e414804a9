"""Pairwise geometry kernels over arrays of boxes and features.

Boxes are (N, 4) arrays of (x, y, w, h). The matrix functions return the
full (N, M) matrix between their two inputs and the row functions the
value of each pair of rows, bit for bit the matrix entry; iou_pairs
returns only the same-frame pairs of two row blocks that overlap at or
above a threshold, with the IoU iou_matrix gives each of them, bit for bit.
"""

import numpy as np

from .fields import check_real

# Candidate pairs iou_pairs handles at once (whole frames at a time, so a
# frame with more is handled alone): its memory does not grow with the scene.
PAIR_BUDGET = 8192


def _iou(a, b):
    """IoU of the (x, y, w, h) boxes in the last axis of a and b, broadcast."""
    ix = np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2])
    ix -= np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3])
    iy -= np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return np.minimum(out, 1.0)  # guard against x+w rounding pushing past 1


def iou_matrix(boxes_a, boxes_b):
    """Pairwise IoU between (N, 4) and (M, 4) arrays of (x, y, w, h) boxes."""
    a = np.ascontiguousarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.ascontiguousarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    return _iou(a[:, None, :], b[None, :, :])


def iou_pairs(frames_a, boxes_a, frames_b, boxes_b, threshold):
    """Every (i, j) with frames_a[i] == frames_b[j] whose boxes overlap at
    IoU >= threshold, as (rows of a, rows of b, IoU), rows of a ascending.

    Both frame columns are non-decreasing. An x-interval prefilter keeps,
    for each row of a, the rows of b of its frame whose left edge lies
    before its right edge and whose right edge could pass its left edge;
    every other pair has an empty x overlap, so IoU 0, and the filter is
    exact for a threshold in (0, 1]. Candidates are then scored with
    iou_matrix's arithmetic, whole frames of a at a time, about
    PAIR_BUDGET pairs at once.
    """
    # At 0 every pair of boxes, however far apart, would match.
    check_real("iou_threshold", threshold, 0.0, 1.0, "(]")
    frames_a = np.asarray(frames_a, dtype=np.int64)
    frames_b = np.asarray(frames_b, dtype=np.int64)
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    empty = np.zeros(0, dtype=np.intp)
    if not len(a) or not len(b):
        return empty, empty, np.zeros(0)
    # Exact integer keys that order (frame, x) pairs: frames and x values
    # are replaced by their ranks among all of them. fl(x + widest w)
    # bounds every right edge fl(x + w) of b from above and rises with x.
    n_b = len(b)
    _, frame = np.unique(np.concatenate([frames_b, frames_a]), return_inverse=True)
    values = np.concatenate([b[:, 0], b[:, 0] + b[:, 2].max(), a[:, 0], a[:, 0] + a[:, 2]])
    _, rank = np.unique(values, return_inverse=True)
    frame_b, frame_a = np.split(frame * (rank.max() + 1), [n_b])
    b_left, b_reach = frame_b + rank[:n_b], frame_b + rank[n_b:2 * n_b]
    a_left, a_right = frame_a + rank[2 * n_b:-len(a)], frame_a + rank[-len(a):]
    order = np.argsort(b_left, kind="stable")  # rows of b by (frame, left edge)
    lo = np.searchsorted(b_reach[order], a_left, "right")
    hi = np.searchsorted(b_left[order], a_right, "left")
    counts = np.maximum(hi - lo, 0)  # candidates of each row of a
    ends = np.cumsum(counts)
    stops = np.flatnonzero(np.diff(frames_a, append=frames_a[-1] + 1)) + 1  # past each frame
    totals = ends[stops - 1]  # candidates of the frames up to each
    found_a, found_b, found = [], [], []
    k = 0  # frames of a done
    while k < len(stops):
        first, before = (stops[k - 1], totals[k - 1]) if k else (0, 0)
        # Whole frames while their candidates fit the budget; one at least.
        k = max(np.searchsorted(totals, before + PAIR_BUDGET, "right"), k + 1)
        stop = stops[k - 1]
        n = counts[first:stop]
        rows_a = np.repeat(np.arange(first, stop), n)
        starts = np.repeat(lo[first:stop] - (ends[first:stop] - n - before), n)
        rows_b = order[starts + np.arange(len(rows_a))]
        overlap = _iou(np.take(a, rows_a, axis=0), np.take(b, rows_b, axis=0))
        keep = overlap >= threshold
        found_a.append(rows_a[keep])
        found_b.append(rows_b[keep])
        found.append(overlap[keep])
    return np.concatenate(found_a), np.concatenate(found_b), np.concatenate(found)


def center_dist(a, b):
    """Distance between the centers of the (x, y, w, h) boxes in the last
    axis of a and b, broadcast."""
    dx = (a[..., 0] + 0.5 * a[..., 2]) - (b[..., 0] + 0.5 * b[..., 2])
    dy = (a[..., 1] + 0.5 * a[..., 3]) - (b[..., 1] + 0.5 * b[..., 3])
    return np.sqrt(dx * dx + dy * dy)


def center_dist_matrix(boxes_a, boxes_b):
    """Pairwise Euclidean distance between box centers."""
    a = np.ascontiguousarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.ascontiguousarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    return center_dist(a[:, None, :], b[None, :, :])


def iou_rows(boxes_a, boxes_b):
    """IoU of row i of boxes_a with row i of boxes_b, as iou_matrix gives
    each pair, bit for bit."""
    return _iou(np.asarray(boxes_a, dtype=np.float64), np.asarray(boxes_b, dtype=np.float64))


def feature_dist_rows(feats_a, feats_b):
    """Euclidean distance of row i of feats_a to row i of feats_b, as
    feature_dist_matrix gives each pair, bit for bit."""
    diff = np.asarray(feats_a, dtype=np.float64) - np.asarray(feats_b, dtype=np.float64)
    return np.sqrt(np.einsum("nd,nd->n", diff, diff))


def feature_dist_matrix(feats_a, feats_b):
    """Pairwise Euclidean distance between feature rows of (N, d) and (M, d)."""
    a = np.ascontiguousarray(feats_a, dtype=np.float64)
    b = np.ascontiguousarray(feats_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"feature shapes incompatible: {a.shape} vs {b.shape}")
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("nmd,nmd->nm", diff, diff))
