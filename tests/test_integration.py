import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmot.core import BoundingBox, Detection, Trajectory
from graphmot.integration import (
    integrate,
    integrate_average,
    integrate_iou_guided,
    integrate_lstm,
    update_trajectory_feature,
)
from graphmot.motion import kf_init
from graphmot.nn import LstmCell


def unit(*values):
    v = np.array(values, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_unit(seed, dim=6):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def det(x, y, w, h, feature, frame=2, conf=1.0, gt_id=None):
    return Detection(frame, BoundingBox(x, y, w, h), conf, feature, gt_id)


def make_traj(feature, box=None):
    box = box or BoundingBox(0, 0, 10, 20)
    return Trajectory(1, feature.copy(), box, 1, kf_init(box))


class TestAverage:
    def test_fixed_point(self):
        v = unit(0.2, -0.5, 1.0)
        assert np.allclose(integrate_average(v, v), v)

    def test_orthogonal(self):
        out = integrate_average(unit(1, 0), unit(0, 1))
        assert np.allclose(out, unit(1, 1))

    def test_antipodal_falls_back(self):
        e1 = unit(1, 0)
        out = integrate_average(e1, -e1)
        assert np.array_equal(out, -e1)


class TestIouGuided:
    def test_zero_overlap_equals_average_bitwise(self):
        for seed in range(20):
            f_prev, f_new = random_unit(seed), random_unit(1000 + seed)
            guided = integrate_iou_guided(f_prev, f_new, 0.0)
            plain = integrate_average(f_prev, f_new)
            assert np.array_equal(guided, plain)

    def test_full_overlap_freezes_previous(self):
        for seed in range(20):
            f_prev, f_new = random_unit(seed), random_unit(2000 + seed)
            out = integrate_iou_guided(f_prev, f_new, 1.0)
            assert np.array_equal(out, f_prev)

    def test_half_overlap_worked_example(self):
        # 0.5 * (1.5 * e1 + 0.5 * e2) = (0.75, 0.25); norm sqrt(0.625);
        # normalized (3, 1)/sqrt(10).
        out = integrate_iou_guided(unit(1, 0), unit(0, 1), 0.5)
        assert out[0] == pytest.approx(3 / math.sqrt(10), abs=1e-12)
        assert out[1] == pytest.approx(1 / math.sqrt(10), abs=1e-12)

    def test_rejects_out_of_range_overlap(self):
        with pytest.raises(ValueError):
            integrate_iou_guided(unit(1, 0), unit(0, 1), 1.5)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_output_in_span_before_renorm(self, seed):
        # The blended vector lies in span(f_prev, f_new): its residual
        # after projecting onto that plane is zero.
        f_prev, f_new = random_unit(seed), random_unit(seed + 77)
        overlap = (seed % 11) / 10.0
        out = integrate_iou_guided(f_prev, f_new, overlap)
        basis = np.linalg.qr(np.stack([f_prev, f_new], axis=1))[0]
        residual = out - basis @ (basis.T @ out)
        assert np.linalg.norm(residual) < 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_angle_to_history_non_increasing_in_overlap(self, seed):
        f_prev, f_new = random_unit(seed), random_unit(seed + 31)
        cosines = [
            float(f_prev @ integrate_iou_guided(f_prev, f_new, i / 10.0))
            for i in range(11)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(cosines, cosines[1:]))


class TestLstmIntegration:
    def test_zero_weights_falls_back_to_new_feature(self):
        cell = LstmCell(4, 4)
        for p in cell.params():
            p[...] = 0.0
        f_new = unit(1, 2, 3, 4)
        out, state = integrate_lstm(cell, None, f_new)
        assert np.array_equal(out, f_new)
        assert not state.h.any()

    def test_order_sensitivity(self):
        # Unlike averaging, the recurrent integrator depends on the order
        # in which the same features arrive.
        cell = LstmCell(4, 4, np.random.default_rng(3))
        f1, f2 = unit(1, 0, 0, 0), unit(0, 1, 0, 0)
        out_a, state = integrate_lstm(cell, None, f1)
        out_a, _ = integrate_lstm(cell, state, f2)
        out_b, state = integrate_lstm(cell, None, f2)
        out_b, _ = integrate_lstm(cell, state, f1)
        assert not np.allclose(out_a, out_b)

    def test_repeated_input_settles(self):
        # Feeding the same feature repeatedly should stop moving the
        # output once the cell state saturates.
        cell = LstmCell(4, 4, np.random.default_rng(9))
        f = unit(0.5, -0.5, 1.0, 0.25)
        state = None
        prev = None
        deltas = []
        for _ in range(30):
            out, state = integrate_lstm(cell, state, f)
            if prev is not None:
                deltas.append(np.linalg.norm(out - prev))
            prev = out
        assert np.mean(deltas[-5:]) < np.mean(deltas[:5])
        assert deltas[-1] < 1e-3


class TestIntegrate:
    def test_iou_requires_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            integrate("iou", unit(1, 0), unit(0, 1))

    def test_lstm_returns_the_step_cache(self):
        cell = LstmCell(3, 3, np.random.default_rng(4))
        f_prev, f_new = unit(1, 0, 0), unit(0, 1, 1)
        feature, state, cache = integrate("lstm", f_prev, f_new, lstm_cell=cell)
        h, _, _ = cell.step(cell.init_state(), f_new)
        assert np.array_equal(cache.o * cache.c_tanh, h)
        assert np.array_equal(feature, integrate_lstm(cell, None, f_new)[0])
        assert np.array_equal(state.h, h)

    @pytest.mark.parametrize("mode", ["none", "average", "iou"])
    def test_other_modes_pass_the_lstm_state_through(self, mode):
        marker = object()
        _, state, cache = integrate(mode, unit(1, 0), unit(0, 1), overlap=0.5, lstm_state=marker)
        assert state is marker and cache is None


class TestUpdateTrajectoryFeature:
    def test_mode_none_takes_detection_feature(self):
        f_old, f_new = unit(1, 0, 0), unit(0, 1, 0)
        traj = make_traj(f_old)
        d = det(0, 0, 10, 20, f_new)
        update_trajectory_feature(traj, d, [d], "none")
        assert np.array_equal(traj.integrated_feature, f_new)

    def test_isolated_target_matches_average_mode(self):
        f_old, f_new = unit(1, 0, 0), unit(0, 0, 1)
        d = det(0, 0, 10, 20, f_new)
        far = det(500, 500, 10, 20, unit(0, 1, 0))
        t_iou = make_traj(f_old)
        update_trajectory_feature(t_iou, d, [d, far], "iou")
        t_avg = make_traj(f_old)
        update_trajectory_feature(t_avg, d, [d, far], "average")
        assert np.array_equal(t_iou.integrated_feature, t_avg.integrated_feature)

    def test_fully_overlapping_targets_keep_features(self):
        f_a, f_b = unit(1, 0, 0), unit(0, 1, 0)
        d_a = det(0, 0, 10, 20, unit(0, 0, 1))
        d_b = det(0, 0, 10, 20, unit(1, 1, 0))
        traj_a, traj_b = make_traj(f_a), make_traj(f_b)
        update_trajectory_feature(traj_a, d_a, [d_a, d_b], "iou")
        update_trajectory_feature(traj_b, d_b, [d_a, d_b], "iou")
        assert np.array_equal(traj_a.integrated_feature, f_a)
        assert np.array_equal(traj_b.integrated_feature, f_b)

    def test_lstm_mode_tracks_state(self):
        cell = LstmCell(3, 3, np.random.default_rng(1))
        traj = make_traj(unit(1, 0, 0))
        d = det(0, 0, 10, 20, unit(0, 1, 0))
        update_trajectory_feature(traj, d, [d], "lstm", cell)
        assert traj.lstm_state is not None
        assert np.isclose(np.linalg.norm(traj.integrated_feature), 1.0)

    def test_lstm_mode_requires_cell(self):
        traj = make_traj(unit(1, 0, 0))
        d = det(0, 0, 10, 20, unit(0, 1, 0))
        with pytest.raises(ValueError):
            update_trajectory_feature(traj, d, [d], "lstm")

    def test_unknown_mode(self):
        traj = make_traj(unit(1, 0, 0))
        d = det(0, 0, 10, 20, unit(0, 1, 0))
        with pytest.raises(ValueError):
            update_trajectory_feature(traj, d, [d], "best")
