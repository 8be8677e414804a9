import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmot.core import BoundingBox, Trajectory
from graphmot.motion import (
    DEFAULT_KALMAN,
    INIT_VEL_STD,
    STOP_APPEARANCE,
    STOP_OUT_OF_VIEW,
    STOP_VERIFIER,
    ForecastDecision,
    FrameContext,
    KalmanParams,
    KalmanState,
    boxes_from_means,
    default_verifier_rows,
    forecast_lost,
    kf_init,
    kf_init_batch,
    kf_predict,
    kf_predict_batch,
    kf_update,
    kf_update_batch,
    make_row_verifier,
    state_to_box,
    visible_fractions,
)


def unit(*values):
    v = np.array(values, dtype=np.float64)
    return v / np.linalg.norm(v)


def box_at(cx, cy, w=30.0, h=60.0):
    return BoundingBox(cx - w / 2, cy - h / 2, w, h)


def accepts(box, last_box, image_size):
    """default_verifier_rows of one box."""
    (accepted,) = default_verifier_rows(box.as_xywh()[None], last_box.as_xywh()[None], image_size)
    return bool(accepted)


class ScalarReferenceFilter:
    """Independent re-implementation: four decoupled 2-state (pos, vel)
    filters with longhand 2x2 algebra, no shared code with the library."""

    def __init__(self, box, params=DEFAULT_KALMAN):
        self.params = params
        self.x = [[box.cx, 0.0], [box.cy, 0.0], [box.w, 0.0], [box.h, 0.0]]
        p0 = (2 * params.meas_weight * box.h) ** 2
        v0 = (INIT_VEL_STD * box.h) ** 2
        self.p = [[[p0, 0.0], [0.0, v0]] for _ in range(4)]

    def predict(self):
        h = self.x[3][0]
        qp = (self.params.pos_weight * h) ** 2
        qv = (self.params.vel_weight * h) ** 2
        for k in range(4):
            pos, vel = self.x[k]
            self.x[k] = [pos + vel, vel]
            (a, b), (c, d) = self.p[k]
            self.p[k] = [
                [a + b + c + d + qp, b + d],
                [c + d, d + qv],
            ]

    def update(self, box):
        h = self.x[3][0]
        r = (self.params.meas_weight * h) ** 2
        for k, z in enumerate([box.cx, box.cy, box.w, box.h]):
            (a, b), (c, d) = self.p[k]
            s = a + r
            k0, k1 = a / s, c / s
            innov = z - self.x[k][0]
            self.x[k] = [self.x[k][0] + k0 * innov, self.x[k][1] + k1 * innov]
            # Joseph form: (I - K H) P (I - K H)^T + K R K^T with H = [1, 0].
            i00, i10 = 1.0 - k0, -k1
            a2 = i00 * a
            c2 = i10 * a + c
            b2 = i00 * b
            d2 = i10 * b + d
            self.p[k] = [
                [a2 * i00 + k0 * r * k0, a2 * i10 + b2 + k0 * r * k1],
                [c2 * i00 + k1 * r * k0, c2 * i10 + d2 + k1 * r * k1],
            ]


class TestKalmanExactness:
    def test_noiseless_constant_velocity_exact_after_two_updates(self):
        params = KalmanParams(0.0, 0.0, 0.0)
        vx, vy = 3.0, -1.5
        state = kf_init(box_at(100, 200), params)
        state = kf_predict(state, params)
        state = kf_update(state, box_at(100 + vx, 200 + vy), params)
        assert state.mean[4] == pytest.approx(vx, abs=1e-9)
        assert state.mean[5] == pytest.approx(vy, abs=1e-9)
        for k in range(1, 6):
            state = kf_predict(state, params)
            b = state_to_box(state)
            assert b.cx == pytest.approx(100 + (1 + k) * vx, abs=1e-9)
            assert b.cy == pytest.approx(200 + (1 + k) * vy, abs=1e-9)

    def test_predict_only_advances_by_velocity(self):
        mean = np.array([50.0, 60.0, 10.0, 20.0, 2.0, -1.0, 0.0, 0.0])
        state = KalmanState(mean, np.eye(8))
        for k in range(1, 8):
            state = kf_predict(state)
            assert state.mean[0] == pytest.approx(50.0 + 2.0 * k)
            assert state.mean[1] == pytest.approx(60.0 - 1.0 * k)

    def test_noiseless_second_update_degenerates(self):
        # One exact observation plus the exact velocity fully determine
        # the state; the covariance is then zero and a further update
        # must refuse rather than divide by zero.
        params = KalmanParams(0.0, 0.0, 0.0)
        state = kf_init(box_at(0, 0), params)
        state = kf_predict(state, params)
        state = kf_update(state, box_at(1, 1), params)
        state = kf_predict(state, params)
        with pytest.raises(ValueError):
            kf_update(state, box_at(2, 2), params)


class TestKalmanAgainstScalarReference:
    def test_means_and_covariances_match(self):
        rng = np.random.default_rng(11)
        obs = box_at(100, 100)
        state = kf_init(obs)
        ref = ScalarReferenceFilter(obs)
        for t in range(40):
            state = kf_predict(state)
            ref.predict()
            if t % 3 != 2:  # leave gaps: predict-only frames
                b = box_at(
                    100 + 3 * t + rng.normal(0, 1),
                    100 + 1.5 * t + rng.normal(0, 1),
                    30 + rng.normal(0, 0.2),
                    60 + rng.normal(0, 0.2),
                )
                state = kf_update(state, b)
                ref.update(b)
            ref_mean = [ref.x[k][i] for i in range(2) for k in range(4)]
            assert np.allclose(state.mean, ref_mean, atol=1e-8)
            for k in range(4):
                block = state.cov[np.ix_([k, k + 4], [k, k + 4])]
                assert np.allclose(block, ref.p[k], atol=1e-8)

    def test_noisy_track_prediction_error(self):
        # Constant-velocity track, sigma = 1 px observation noise:
        # mean center prediction error after a 10-frame burn-in.
        errors = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            state = None
            for t in range(50):
                tx, ty = 100 + 3.0 * t, 100 + 1.5 * t
                obs = BoundingBox(
                    tx - 15 + rng.normal(0, 1), ty - 30 + rng.normal(0, 1), 30, 60
                )
                if state is None:
                    state = kf_init(obs)
                    continue
                state = kf_predict(state)
                if t >= 10:
                    b = state_to_box(state)
                    errors.append(math.hypot(b.cx - tx, b.cy - ty))
                state = kf_update(state, obs)
        assert np.mean(errors) < 2.0


box_tuples = st.tuples(
    st.floats(-200, 1500), st.floats(-200, 900), st.floats(2, 300), st.floats(2, 300)
)


class TestBatchedKalmanMatchesSingleState:
    """Stacked states filter bit for bit like one state at a time, which
    teacher-forced training relies on: it walks all identities at once."""

    @settings(max_examples=100, deadline=None)
    @given(
        tracks=st.lists(
            st.lists(st.one_of(st.none(), box_tuples), min_size=1, max_size=8),
            min_size=1,
            max_size=6,
        ),
        first=st.lists(box_tuples, min_size=6, max_size=6),
    )
    def test_predict_update_sequences(self, tracks, first):
        # Track i starts at first[i]; step t predicts every track, then
        # updates those whose observation at t is not None.
        singles = [kf_init(BoundingBox(*first[i])) for i in range(len(tracks))]
        means, covs = kf_init_batch(np.array(first[: len(tracks)]))
        for t in range(max(len(obs) for obs in tracks)):
            singles = [kf_predict(s) for s in singles]
            means, covs = kf_predict_batch(means, covs)
            seen = [i for i, obs in enumerate(tracks) if t < len(obs) and obs[t] is not None]
            for i in seen:
                singles[i] = kf_update(singles[i], BoundingBox(*tracks[i][t]))
            if seen:
                boxes = np.array([tracks[i][t] for i in seen])
                means[seen], covs[seen] = kf_update_batch(means[seen], covs[seen], boxes)
            for i, single in enumerate(singles):
                assert means[i].tobytes() == single.mean.tobytes()
                assert covs[i].tobytes() == single.cov.tobytes()
                box = state_to_box(single).as_xywh()
                assert boxes_from_means(means)[i].tobytes() == box.tobytes()

    def test_one_degenerate_row_fails_the_batch(self):
        params = KalmanParams(0.0, 0.0, 0.0)
        state = kf_init(box_at(0, 0), params)
        state = kf_predict(kf_update(kf_predict(state, params), box_at(1, 1), params), params)
        healthy = kf_predict(kf_init(box_at(50, 50)))
        means = np.array([healthy.mean, state.mean])
        covs = np.array([healthy.cov, state.cov])
        with pytest.raises(ValueError):
            kf_update_batch(means, covs, np.array([box_at(51, 50).as_xywh(), box_at(2, 2).as_xywh()]), params)


class TestCovarianceHealth:
    def test_symmetric_psd_through_random_cycles(self):
        rng = np.random.default_rng(5)
        state = kf_init(box_at(200, 200))
        for i in range(1000):
            state = kf_predict(state)
            if rng.random() < 0.7:
                state = kf_update(
                    state, box_at(200 + rng.normal(0, 5), 200 + rng.normal(0, 5))
                )
            assert np.allclose(state.cov, state.cov.T, atol=1e-9)
            assert np.linalg.eigvalsh(state.cov).min() > -1e-9

    def test_update_keeps_positive_sizes(self):
        state = kf_init(box_at(50, 50, w=5, h=5))
        for _ in range(5):
            state = kf_predict(state)
            state = kf_update(state, box_at(50, 50, w=0.5, h=0.5))
        assert state.mean[2] > 0 and state.mean[3] > 0
        assert state_to_box(state).w > 0


def lost_traj(cx, cy, w=40.0, h=80.0, frames_lost=1, feature=None):
    b = box_at(cx, cy, w, h)
    traj = Trajectory(
        7,
        unit(1, 0, 0) if feature is None else feature,
        b,
        1,
        kf_init(b),
        frames_lost=frames_lost,
    )
    return traj


class TestForecastGates:
    def test_visible_fraction(self):
        boxes = np.array([[10, 10, 10, 10], [-5, 0, 10, 10], [-20, -20, 10, 10]], dtype=float)
        assert visible_fractions(boxes, (100, 100)).tolist() == [1.0, 0.5, 0.0]

    def test_mostly_outside_stops_out_of_view(self):
        traj = lost_traj(cx=-9.0, cy=50.0, w=40, h=40)  # 60% outside on x
        ctx = FrameContext((200, 200), 2)
        decision = forecast_lost(traj, ctx, verifier=make_row_verifier("always_keep"))
        assert not decision.keep
        assert decision.reason == STOP_OUT_OF_VIEW

    def test_rejecting_verifier_stops_first_lost_frame(self):
        traj = lost_traj(100, 100)
        ctx = FrameContext((200, 200), 2)
        decision = forecast_lost(traj, ctx, verifier=make_row_verifier("always_stop"))
        assert decision.reason == STOP_VERIFIER

    def test_appearance_gate(self):
        traj = lost_traj(100, 100, feature=unit(1, 0, 0))
        far_feature = unit(0, 1, 0)  # distance sqrt(2) > 0.6

        def feature_at(frame, box):
            return far_feature

        ctx = FrameContext((200, 200), 2, feature_at)
        decision = forecast_lost(traj, ctx, theta_app=0.6, verifier=make_row_verifier("always_keep"))
        assert decision.reason == STOP_APPEARANCE

    def test_appearance_gate_skipped_without_source(self):
        traj = lost_traj(100, 100)
        ctx = FrameContext((200, 200), 2, None)
        decision = forecast_lost(traj, ctx, verifier=make_row_verifier("always_keep"))
        assert decision.keep and not decision.appearance_checked

    def test_gate_order_out_of_view_before_verifier(self):
        traj = lost_traj(cx=-9.0, cy=50.0, w=40, h=40)
        ctx = FrameContext((200, 200), 2, lambda f, b: unit(0, 1, 0))
        decision = forecast_lost(traj, ctx, verifier=make_row_verifier("always_stop"))
        assert decision.reason == STOP_OUT_OF_VIEW  # gate 1 fires first

    def test_decision_reproducible(self):
        traj_a = lost_traj(100, 100)
        traj_b = lost_traj(100, 100)
        ctx = FrameContext((200, 200), 2)
        d1 = forecast_lost(traj_a, ctx)
        d2 = forecast_lost(traj_b, ctx)
        assert (d1.keep, d1.reason) == (d2.keep, d2.reason)

    def test_requires_lost_trajectory(self):
        traj = lost_traj(100, 100, frames_lost=0)
        with pytest.raises(ValueError):
            forecast_lost(traj, FrameContext((200, 200), 2))

    def test_continue_emits_box(self):
        traj = lost_traj(100, 100)
        decision = forecast_lost(traj, FrameContext((400, 400), 2))
        assert decision.keep
        assert isinstance(decision.box, BoundingBox)
        assert isinstance(decision, ForecastDecision)


class TestOcclusionForecast:
    def test_forecast_tracks_occluded_target_through_gap(self):
        # A constant-velocity target observed for 20 frames, then hidden
        # for 10: the pure predictions must stay within 5 px of the true
        # centers through re-emergence.
        rng = np.random.default_rng(3)
        vx, vy = 3.5, -1.0
        state = None
        for t in range(20):
            tx, ty = 100 + vx * t, 400 + vy * t
            obs = box_at(tx + rng.normal(0, 1), ty + rng.normal(0, 1))
            if state is None:
                state = kf_init(obs)
            else:
                state = kf_update(kf_predict(state), obs)
        for t in range(20, 30):
            state = kf_predict(state)
            b = state_to_box(state)
            true_x, true_y = 100 + vx * t, 400 + vy * t
            assert math.hypot(b.cx - true_x, b.cy - true_y) < 5.0


class TestDefaultVerifier:
    def test_rejects_border_band(self):
        last = box_at(100, 100)
        assert not accepts(box_at(3, 100), last, (400, 400))
        assert accepts(box_at(200, 200), last, (400, 400))

    def test_rejects_large_area_change(self):
        last = box_at(100, 100, w=40, h=80)
        grown = box_at(200, 200, w=70, h=140)  # area ratio ~3.1
        assert not accepts(grown, last, (400, 400))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_row_verifier("sometimes")
