"""Pairwise geometry kernels over arrays of boxes and features.

Boxes are (N, 4) arrays of (x, y, w, h); every function returns the full
(N, M) matrix between its two inputs.
"""

import numpy as np


def iou_matrix(boxes_a, boxes_b):
    """Pairwise IoU between (N, 4) and (M, 4) arrays of (x, y, w, h) boxes."""
    a = np.ascontiguousarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.ascontiguousarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    ix = np.minimum(a[:, None, 0] + a[:, None, 2], b[None, :, 0] + b[None, :, 2])
    ix -= np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 1] + a[:, None, 3], b[None, :, 1] + b[None, :, 3])
    iy -= np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_a = (a[:, 2] * a[:, 3])[:, None]
    area_b = (b[:, 2] * b[:, 3])[None, :]
    union = area_a + area_b - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return np.minimum(out, 1.0)  # guard against x+w rounding pushing past 1


def center_dist_matrix(boxes_a, boxes_b):
    """Pairwise Euclidean distance between box centers."""
    a = np.ascontiguousarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.ascontiguousarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    dx = (a[:, None, 0] + 0.5 * a[:, None, 2]) - (b[None, :, 0] + 0.5 * b[None, :, 2])
    dy = (a[:, None, 1] + 0.5 * a[:, None, 3]) - (b[None, :, 1] + 0.5 * b[None, :, 3])
    return np.sqrt(dx * dx + dy * dy)


def feature_dist_matrix(feats_a, feats_b):
    """Pairwise Euclidean distance between feature rows of (N, d) and (M, d)."""
    a = np.ascontiguousarray(feats_a, dtype=np.float64)
    b = np.ascontiguousarray(feats_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"feature shapes incompatible: {a.shape} vs {b.shape}")
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("nmd,nmd->nm", diff, diff))
