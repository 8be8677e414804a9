"""The pairwise kernels must agree with the scalar reference operations."""

import numpy as np
import pytest

from graphmot import kernels
from graphmot.core import BoundingBox, iou


def random_boxes(rng, n):
    out = np.empty((n, 4))
    out[:, :2] = rng.uniform(-50, 500, size=(n, 2))
    out[:, 2:] = rng.uniform(1, 120, size=(n, 2))
    return out


class TestAgainstScalar:
    def test_iou_matrix_matches_scalar(self):
        rng = np.random.default_rng(7)
        a, b = random_boxes(rng, 12), random_boxes(rng, 9)
        got = kernels.iou_matrix(a, b)
        for i in range(12):
            for j in range(9):
                expected = iou(BoundingBox(*a[i]), BoundingBox(*b[j]))
                assert got[i, j] == pytest.approx(expected, abs=1e-12)

    def test_center_dist_matches_scalar(self):
        rng = np.random.default_rng(8)
        a, b = random_boxes(rng, 5), random_boxes(rng, 6)
        got = kernels.center_dist_matrix(a, b)
        for i in range(5):
            for j in range(6):
                ca = np.array([a[i, 0] + a[i, 2] / 2, a[i, 1] + a[i, 3] / 2])
                cb = np.array([b[j, 0] + b[j, 2] / 2, b[j, 1] + b[j, 3] / 2])
                assert got[i, j] == pytest.approx(np.linalg.norm(ca - cb), abs=1e-9)

    def test_feature_dist_matches_scalar(self):
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(4, 16)), rng.normal(size=(5, 16))
        got = kernels.feature_dist_matrix(x, y)
        for i in range(4):
            for j in range(5):
                assert got[i, j] == pytest.approx(np.linalg.norm(x[i] - y[j]), abs=1e-9)

    def test_feature_dist_rejects_mismatch(self):
        with pytest.raises(ValueError):
            kernels.feature_dist_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_empty_inputs(self):
        a = random_boxes(np.random.default_rng(0), 3)
        assert kernels.iou_matrix(a, np.zeros((0, 4))).shape == (3, 0)
        assert kernels.center_dist_matrix(np.zeros((0, 4)), a).shape == (0, 3)
