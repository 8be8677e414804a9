"""The pairwise kernels must agree with the scalar reference operations,
and iou_pairs with the IoU matrices of each frame."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def frame_pairs(frames_a, boxes_a, frames_b, boxes_b, threshold):
    """iou_pairs from one full IoU matrix per frame, pairs by row of a."""
    found = []
    for f in sorted(set(frames_a.tolist()) & set(frames_b.tolist())):
        rows_a, rows_b = np.flatnonzero(frames_a == f), np.flatnonzero(frames_b == f)
        overlap = kernels.iou_matrix(boxes_a[rows_a], boxes_b[rows_b])
        found += [(rows_a[i], rows_b[j], overlap[i, j].hex())
                  for i, j in zip(*np.nonzero(overlap >= threshold))]
    return sorted(found)


@st.composite
def row_blocks(draw):
    """Frames in order with boxes on a coarse grid, some far from the
    origin, where x + w rounds: pairs exactly at the threshold and pairs
    whose x overlap rounds away both occur."""
    n = draw(st.integers(0, 30))
    frames = np.sort(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)))
    offset = draw(st.sampled_from([0.0, 2.0**52]))
    boxes = np.array([(offset + 5.0 * draw(st.integers(0, 8)), 5.0 * draw(st.integers(0, 3)),
                       draw(st.sampled_from([0.5, 1.0, 10.0, 20.0])), 20.0) for _ in range(n)])
    return np.array(frames, dtype=np.int64), boxes.reshape(-1, 4)


class TestIouPairs:
    @settings(max_examples=300, deadline=None)
    @given(a=row_blocks(), b=row_blocks(), threshold=st.sampled_from([1e-9, 0.2, 1 / 3, 0.5, 1.0]),
           budget=st.sampled_from([1, 7, kernels.PAIR_BUDGET]))
    def test_equals_one_matrix_per_frame(self, a, b, threshold, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "PAIR_BUDGET", budget)
            rows_a, rows_b, overlap = kernels.iou_pairs(*a, *b, threshold)
        assert (np.diff(rows_a) >= 0).all()
        got = sorted(zip(rows_a.tolist(), rows_b.tolist(), map(float.hex, overlap.tolist())))
        assert got == frame_pairs(*a, *b, threshold)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, 1.0 + 1e-12, float("nan")])
    def test_threshold_outside_unit_interval_refused(self, threshold):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0]])
        with pytest.raises(ValueError, match="iou_threshold must be in"):
            kernels.iou_pairs([1], boxes, [1], boxes, threshold)


class TestRows:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 30), n=st.integers(1, 30),
           d=st.integers(1, 64), pairs=st.integers(0, 200))
    def test_rows_are_the_matrix_entries_bit_for_bit(self, seed, m, n, d, pairs):
        # Graph edges compute their distances per edge; the ratio test must
        # see the bits of the full matrices the tracker used to index.
        rng = np.random.default_rng(seed)
        a, b = random_boxes(rng, m), random_boxes(rng, n)
        fa, fb = rng.normal(size=(m, d)), rng.normal(size=(n, d))
        i, j = rng.integers(0, m, size=pairs), rng.integers(0, n, size=pairs)
        assert kernels.iou_rows(a[i], b[j]).tobytes() == kernels.iou_matrix(a, b)[i, j].tobytes()
        assert kernels.feature_dist_rows(fa[i], fb[j]).tobytes() == \
            kernels.feature_dist_matrix(fa, fb)[i, j].tobytes()

    def test_center_dist_broadcasts_like_the_matrix(self):
        rng = np.random.default_rng(9)
        a, b = random_boxes(rng, 7), random_boxes(rng, 5)
        padded = a[np.arange(7)[:, None].repeat(5, axis=1)]  # (7, 5, 4), a row per column
        assert kernels.center_dist(padded, b).tobytes() == \
            kernels.center_dist_matrix(a, b).tobytes()
