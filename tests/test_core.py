import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import max_overlap

from graphmot.core import (
    BoundingBox,
    Detection,
    feature_distance,
    frame_overlaps,
    iou,
)


def unit(*values):
    v = np.array(values, dtype=np.float64)
    return v / np.linalg.norm(v)


def det(x, y, w, h, frame=1, conf=1.0, feature=None, gt_id=None):
    feature = unit(1.0, 0.0, 0.0) if feature is None else feature
    return Detection(frame, BoundingBox(x, y, w, h), conf, feature, gt_id)


boxes = st.builds(
    BoundingBox,
    x=st.floats(-500, 500),
    y=st.floats(-500, 500),
    w=st.floats(1, 300),
    h=st.floats(1, 300),
)


class TestBoundingBox:
    def test_properties(self):
        b = BoundingBox(10, 20, 30, 40)
        assert (b.cx, b.cy) == (25, 40)
        assert b.area == 1200

    @pytest.mark.parametrize("w,h", [(0, 5), (5, 0), (-1, 5), (5, -1)])
    def test_rejects_degenerate(self, w, h):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, w, h)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BoundingBox(math.nan, 0, 5, 5)


class TestIou:
    def test_identity(self):
        b = BoundingBox(3, 4, 10, 12)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 1, 1)) == 0.0

    def test_half_horizontal_shift(self):
        # inter 5x10 = 50, union 100 + 100 - 50 = 150
        v = iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 10, 10))
        assert v == pytest.approx(50 / 150)

    @given(a=boxes, b=boxes)
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(a=boxes, b=boxes, tx=st.floats(-100, 100), ty=st.floats(-100, 100))
    @settings(max_examples=200)
    def test_translation_invariant(self, a, b, tx, ty):
        a2 = BoundingBox(a.x + tx, a.y + ty, a.w, a.h)
        b2 = BoundingBox(b.x + tx, b.y + ty, b.w, b.h)
        assert iou(a2, b2) == pytest.approx(iou(a, b), abs=1e-9)

    @given(a=boxes)
    @settings(max_examples=100)
    def test_one_only_for_identical(self, a):
        b = BoundingBox(a.x + 1.0, a.y, a.w, a.h)
        assert iou(a, b) < 1.0


class TestMaxOverlap:
    def test_empty(self):
        assert max_overlap(det(0, 0, 10, 10), []) == 0.0

    def test_same_box(self):
        assert max_overlap(det(0, 0, 10, 10), [det(0, 0, 10, 10)]) == 1.0

    def test_max_of_mixed(self):
        target = det(0, 0, 10, 10)
        others = [det(5, 0, 10, 10), det(100, 100, 10, 10)]
        assert max_overlap(target, others) == pytest.approx(1 / 3)


class TestFrameOverlaps:
    def test_empty_and_single(self):
        assert frame_overlaps([]).shape == (0,)
        assert frame_overlaps([det(0, 0, 10, 10)]).tolist() == [0.0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(boxes, max_size=10), st.lists(st.integers(0, 9), max_size=4))
    def test_equals_max_overlap_against_the_others(self, frame_boxes, repeats):
        # Repeated boxes give exact overlaps of 1 with distinct detections.
        frame_boxes = frame_boxes + [frame_boxes[i] for i in repeats if i < len(frame_boxes)]
        dets = [det(b.x, b.y, b.w, b.h) for b in frame_boxes]
        got = frame_overlaps(dets)
        for j, target in enumerate(dets):
            assert got[j] == max_overlap(target, dets[:j] + dets[j + 1:])


class TestFeatureDistance:
    def test_zero_for_equal(self):
        f = unit(0.3, 0.4, 0.5)
        assert feature_distance(f, f) == 0.0

    def test_antipodal(self):
        e1 = unit(1, 0, 0)
        assert feature_distance(e1, -e1) == pytest.approx(2.0)

    def test_orthogonal(self):
        assert feature_distance(unit(1, 0), unit(0, 1)) == pytest.approx(math.sqrt(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            feature_distance(unit(1, 0), unit(1, 0, 0))

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(3, 8))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        d01 = feature_distance(f[0], f[1])
        d12 = feature_distance(f[1], f[2])
        d02 = feature_distance(f[0], f[2])
        assert d02 <= d01 + d12 + 1e-12


class TestDetection:
    def test_rejects_non_unit_feature(self):
        with pytest.raises(ValueError):
            Detection(1, BoundingBox(0, 0, 5, 5), 1.0, np.array([1.0, 1.0]))

    def test_rejects_bad_frame(self):
        with pytest.raises(ValueError):
            det(0, 0, 5, 5, frame=0)

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            det(0, 0, 5, 5, conf=1.5)

    def test_accepts_near_unit(self):
        f = unit(1, 2, 3) * (1 + 5e-7)
        assert det(0, 0, 5, 5, feature=f).gt_id is None
