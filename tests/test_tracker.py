import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmot.core import BoundingBox, Detection, Detections
from graphmot.mpn import create_model
from graphmot.synth import SceneFeatureSource, generate, preset
from graphmot.tracker import (
    StepStats,
    Tracker,
    TrackerConfig,
    greedy_match,
    hungarian_match,
    run_sequence,
)


def unit(rng, dim=8):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def det(frame, x, y, w=20.0, h=40.0, conf=0.9, feature=None, dim=8):
    if feature is None:
        feature = np.zeros(dim)
        feature[0] = 1.0
    return Detection(frame, BoundingBox(x, y, w, h), conf, feature)


def block(frame, dets=()):
    """The frame's Detections block of the records (empty without any)."""
    return Detections.of(list(dets), frame)


def random_scored_graph(rng):
    n_traj = int(rng.integers(1, 9))
    n_det = int(rng.integers(1, 9))
    edges = [(i, j) for i in range(n_traj) for j in range(n_det) if rng.random() < 0.7]
    if not edges:
        edges = [(0, 0)]
    scores = rng.uniform(0, 1, size=len(edges))
    et = np.array([e[0] for e in edges])
    ed = np.array([e[1] for e in edges])
    return et, ed, scores, n_traj, n_det


class TestGreedyMatch:
    def test_single_edge(self):
        matches, ut, ud = greedy_match([0], [0], [0.9], tau=0.5)
        assert matches == [(0, 0)]
        assert ut == [] and ud == []

    def test_ranked_order_example(self):
        # (T0,D0,0.9) wins first; (T0,D1,0.8) blocked; (T1,D1,0.7) taken.
        et, ed, sc = [0, 0, 1], [0, 1, 1], [0.9, 0.8, 0.7]
        matches, ut, ud = greedy_match(et, ed, sc, tau=0.5)
        assert matches == [(0, 0), (1, 1)]
        assert ut == [] and ud == []

    def test_all_below_threshold(self):
        matches, ut, ud = greedy_match([0, 1], [0, 1], [0.3, 0.2], tau=0.5, n_traj=2, n_det=2)
        assert matches == []
        assert ut == [0, 1] and ud == [0, 1]

    def test_one_to_one_over_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            et, ed, sc, n_traj, n_det = random_scored_graph(rng)
            tau = float(rng.uniform(0.1, 0.9))
            matches, ut, ud = greedy_match(et, ed, sc, tau, n_traj=n_traj, n_det=n_det)
            used_t = [i for i, _ in matches]
            used_d = [j for _, j in matches]
            assert len(used_t) == len(set(used_t))
            assert len(used_d) == len(set(used_d))
            assert sorted(used_t + ut) == list(range(n_traj))
            assert sorted(used_d + ud) == list(range(n_det))
            assert all(sc[list(zip(et, ed)).index((i, j))] >= tau for i, j in matches)

    def test_deterministic_under_edge_permutation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            et, ed, sc, n_traj, n_det = random_scored_graph(rng)
            matches, _, _ = greedy_match(et, ed, sc, 0.4, n_traj=n_traj, n_det=n_det)
            perm = rng.permutation(len(et))
            matches_p, _, _ = greedy_match(et[perm], ed[perm], sc[perm], 0.4,
                                           n_traj=n_traj, n_det=n_det)
            assert matches == matches_p

    def test_match_count_non_increasing_in_tau(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            et, ed, sc, n_traj, n_det = random_scored_graph(rng)
            counts = [
                len(greedy_match(et, ed, sc, tau, n_traj=n_traj, n_det=n_det)[0])
                for tau in (0.1, 0.3, 0.5, 0.7, 0.9)
            ]
            assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_tie_breaks_toward_lower_trajectory_id(self):
        # Equal scores: trajectory id 2 (index 0) loses to id 1 (index 1).
        matches, _, _ = greedy_match([0, 1], [0, 0], [0.8, 0.8], 0.5, traj_ids=[2, 1])
        assert matches == [(1, 0)]

    def test_hungarian_differs_only_in_optimality(self):
        # Greedy takes (0,0) at 0.9 then nothing; Hungarian prefers the
        # pair (0,1) + (1,0) with total 1.6.
        et, ed = [0, 0, 1], [0, 1, 0]
        sc = [0.9, 0.8, 0.8]
        greedy, _, _ = greedy_match(et, ed, sc, 0.5, n_traj=2, n_det=2)
        optimal, _, _ = hungarian_match(et, ed, sc, 0.5, 2, 2)
        assert greedy == [(0, 0)]
        assert sorted(optimal) == [(0, 1), (1, 0)]


class TestTrackerConfigChecks:
    # Each of these used to run to a plausible wrong number (fps <= 0
    # scales the edge features' frame gap, a spawn gate above 1 outputs
    # nothing) or to fail only at the first non-empty graph (k, alpha).
    @pytest.mark.parametrize("field, value", [
        ("fps", 0.0), ("fps", -30.0), ("fps", float("nan")),
        ("lost_frame_limit", -1),
        ("spawn_confidence", 2.0), ("spawn_confidence", -0.1),
        ("theta_app", -0.1),
        ("k_neighbors", 0),
        ("alpha", 1.0),
    ])
    def test_refused_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrackerConfig(**{field: value})

    def test_bounds_are_accepted(self):
        TrackerConfig(lost_frame_limit=0, spawn_confidence=0.0, theta_app=0.0, k_neighbors=1)
        TrackerConfig(spawn_confidence=1.0, ratio_variant="none", alpha=5.0)  # alpha unused
        TrackerConfig(image_size=[1, 0.5], verifier="always_stop")

    # An image size of 0 x 0 used to stop every forecast silently, and an
    # unknown verifier failed only when a Tracker was built.
    @pytest.mark.parametrize("field, value", [
        ("image_size", (0, 0)), ("image_size", (-1920, -1080)),
        ("image_size", (float("nan"), 3)), ("image_size", (1920, float("inf"))),
        ("image_size", (1920,)), ("image_size", None), ("image_size", "12"),
        ("verifier", "bogus"),
    ])
    def test_refused_naming_the_value(self, field, value):
        with pytest.raises(ValueError, match=field) as refused:
            TrackerConfig(**{field: value})
        assert repr(value) in str(refused.value)


class TestTrackerStep:
    def setup_method(self):
        self.model = create_model(8, d_node=8, d_edge=8, rounds=2, seed=0)
        self.config = TrackerConfig(image_size=(600, 400))

    def test_first_frame_spawns_every_confident_detection(self):
        tracker = Tracker(self.model, self.config)
        rows = tracker.step(1, block(1, [det(1, 10, 10), det(1, 200, 10),
                                         det(1, 20, 200, conf=0.2)]))
        assert len(rows) == 2  # the conf=0.2 detection is below the spawn gate
        assert sorted(r.track_id for r in rows) == [1, 2]
        assert len(tracker.trajectories) == 2

    def test_empty_frame_sends_all_to_lost(self):
        tracker = Tracker(self.model, self.config)
        tracker.step(1, block(1, [det(1, 10, 10), det(1, 200, 10)]))
        rows = tracker.step(2, block(2))
        assert all(t.frames_lost == 1 for t in tracker.trajectories)
        # forecast rows may or may not pass the gates, but no new ids appear
        assert all(r.track_id in (1, 2) for r in rows)

    def test_out_of_order_frames_error(self):
        tracker = Tracker(self.model, self.config)
        tracker.step(5, block(5, [det(5, 10, 10)]))
        with pytest.raises(ValueError):
            tracker.step(5, block(5, [det(5, 10, 10)]))
        with pytest.raises(ValueError):
            tracker.step(4, block(4, [det(4, 10, 10)]))

    def test_wrong_frame_detections_error(self):
        tracker = Tracker(self.model, self.config)
        with pytest.raises(ValueError):
            tracker.step(1, block(2, [det(2, 10, 10)]))

    def test_lost_trajectory_pruned_after_limit(self):
        config = TrackerConfig(image_size=(600, 400), lost_frame_limit=3,
                               emit_forecasts=False)
        tracker = Tracker(self.model, config)
        tracker.step(1, block(1, [det(1, 10, 10)]))
        for f in range(2, 6):
            tracker.step(f, block(f))
        assert tracker.trajectories == []

    def test_ids_never_reused(self):
        config = TrackerConfig(image_size=(600, 400), lost_frame_limit=1,
                               emit_forecasts=False, tau=0.9)
        tracker = Tracker(self.model, config)
        seen = []
        for f in range(1, 8):
            rows = tracker.step(f, block(f, [det(f, 10.0 + 90 * (f % 3), 10)]))
            seen.extend(r.track_id for r in rows)
        assert seen == sorted(seen) or len(set(seen)) == len(seen) or True
        # strictly: ids are assigned in increasing order of first appearance
        first_seen = {}
        for i, tid in enumerate(seen):
            first_seen.setdefault(tid, i)
        order = [tid for tid, _ in sorted(first_seen.items(), key=lambda kv: kv[1])]
        assert order == sorted(order)


class TestRunSequence:
    def test_empty_sequence(self):
        model = create_model(8, d_node=8, d_edge=8, seed=1)
        rows, stats = run_sequence({}, model, TrackerConfig())
        assert len(rows) == 0 and stats == []

    def test_single_target_single_trajectory(self):
        # tau below the untrained model's resting score: this asserts the
        # lifecycle plumbing, not the (untrained) scorer.
        model = create_model(8, d_node=8, d_edge=8, rounds=2, seed=2)
        frames = {f: block(f, [det(f, 10, 10)]) for f in range(1, 21)}
        rows, _ = run_sequence(frames, model, TrackerConfig(image_size=(600, 400), tau=0.2))
        # Same location, same feature: one identity should cover everything.
        assert {r.track_id for r in rows} == {1}
        assert len(rows) == 20

    def test_tracker_keeps_only_the_latest_step_stats(self):
        scene = generate(preset("crossing", seed=8, n_frames=300))
        model = create_model(scene.config.feature_dim, seed=3)
        cfg = TrackerConfig(image_size=scene.config.image_size)
        tracker = Tracker(model, cfg)
        stepped = []
        for f in range(1, 301):
            tracker.step(f, scene.frames.get(f, block(f)))
            stepped.append(tracker.last_stats)
        held = [v for v in vars(tracker).values()
                if isinstance(v, StepStats) or isinstance(v, list) and v
                and isinstance(v[0], StepStats)]
        assert held == [tracker.last_stats] and tracker.last_stats.frame == 300
        _, stats = run_sequence(scene.frames, model, cfg)
        assert [(s.frame, s.n_candidates, s.n_edges) for s in stats] == [
            (s.frame, s.n_candidates, s.n_edges) for s in stepped]

    def test_deterministic(self):
        scene = generate(preset("crossing", seed=8, n_frames=40))
        model = create_model(scene.config.feature_dim, seed=3)
        cfg = TrackerConfig(image_size=scene.config.image_size)
        rows_a, _ = run_sequence(scene.frames, model, cfg)
        rows_b, _ = run_sequence(scene.frames, model, cfg)
        assert rows_a == rows_b

    def test_unique_id_per_frame(self):
        scene = generate(preset("crossing", seed=9, n_frames=60))
        model = create_model(scene.config.feature_dim, seed=4)
        cfg = TrackerConfig(image_size=scene.config.image_size)
        rows, _ = run_sequence(scene.frames, model, cfg,
                               feature_source=SceneFeatureSource(scene))
        per_frame = {}
        for r in rows:
            per_frame.setdefault(r.frame, []).append(r.track_id)
        for frame, ids in per_frame.items():
            assert len(ids) == len(set(ids)), f"duplicate id in frame {frame}"

    def test_crowded_property_run_under_ten_seconds(self):
        scene = generate(preset("crowded", seed=10))
        model = create_model(scene.config.feature_dim, seed=5)
        cfg = TrackerConfig(image_size=scene.config.image_size)
        start = time.perf_counter()
        rows, stats = run_sequence(scene.frames, model, cfg)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert len(stats) == scene.config.n_frames
        per_frame = {}
        for r in rows:
            per_frame.setdefault(r.frame, []).append(r.track_id)
        assert all(len(ids) == len(set(ids)) for ids in per_frame.values())

    def test_long_gap_is_skipped_once_nothing_is_alive(self):
        # Two bursts of one moving target. Every trajectory of the first is
        # pruned within lost_frame_limit, after which the empty frames up to
        # the second burst change nothing and are skipped.
        model = create_model(8, d_node=8, d_edge=8, rounds=2, seed=2)
        cfg = TrackerConfig(image_size=(600, 400), tau=0.2, lost_frame_limit=5)

        def bursts(gap):
            frames = {}
            for start in (1, 11 + gap):
                for f in range(start, start + 10):
                    frames[f] = block(f, [det(f, 10 + 3 * (f - start), 10)])
            return frames

        short = bursts(100)
        stepped = Tracker(model, cfg)
        every_frame = [r for f in range(1, max(short) + 1) for r in stepped.step(f, short.get(f, block(f)))]
        short_rows, _ = run_sequence(short, model, cfg)
        assert list(short_rows) == every_frame

        start = time.perf_counter()
        long_rows, stats = run_sequence(bursts(1_000_000), model, cfg)
        assert time.perf_counter() - start < 1.0
        assert len(stats) < 100
        shift = 1_000_000 - 100
        assert list(long_rows) == [r._replace(frame=r.frame + shift) if r.frame > 110 else r
                             for r in short_rows]

    def test_hungarian_mode_runs(self):
        scene = generate(preset("easy", seed=11, n_frames=20))
        model = create_model(scene.config.feature_dim, seed=6)
        cfg = TrackerConfig(image_size=scene.config.image_size, matching="hungarian")
        rows, _ = run_sequence(scene.frames, model, cfg)
        assert rows


@st.composite
def detection_streams(draw):
    """Random frames (with gaps) of random boxes, some partly outside the
    image, with random unit features and confidences."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 4]))
    numbers = sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=25)))
    frames = {}
    for f in numbers:
        frames[f] = block(f, [
            Detection(
                f,
                BoundingBox(*rng.uniform(-50, 600, 2), *rng.uniform(5, 120, 2)),
                float(rng.uniform(0, 1)),
                unit(rng, dim),
            )
            for _ in range(draw(st.integers(0, 7)))
        ])
    config = TrackerConfig(
        image_size=(600, 400),
        tau=draw(st.sampled_from([0.05, 0.5, 0.9])),
        ratio_variant=draw(st.sampled_from(["none", "iou", "app"])),
        integration=draw(st.sampled_from(["none", "lstm", "average", "iou"])),
        lost_frame_limit=draw(st.integers(0, 4)),
        emit_forecasts=draw(st.booleans()),
        forecast_constraints=draw(st.booleans()),
        matching=draw(st.sampled_from(["greedy", "hungarian"])),
    )
    return frames, create_model(dim, d_node=4, d_edge=4, rounds=2, seed=int(rng.integers(100))), config


class TestRandomDetectionStreams:
    @settings(max_examples=60, deadline=None)
    @given(case=detection_streams())
    def test_tracker_invariants(self, case):
        frames, model, cfg = case
        tracker = Tracker(model, cfg)
        every_frame, retired, newest = [], set(), 0
        for f in range(min(frames), max(frames) + 1):
            before = {t.id for t in tracker.trajectories}
            rows = tracker.step(f, frames.get(f, block(f)))
            every_frame += rows
            alive = {t.id for t in tracker.trajectories}
            assert not alive & retired, "an id came back after its trajectory was pruned"
            assert all(i > newest for i in alive - before), "a new trajectory reused an id"
            retired |= before - alive
            newest = max(alive | {newest})
            ids = [r.track_id for r in rows]
            assert len(ids) == len(set(ids)) and set(ids) <= alive
            assert all(np.isfinite([r.x, r.y, r.w, r.h]).all() and r.w > 0 and r.h > 0
                       for r in rows)
            for t in tracker.trajectories:  # lost ones are pruned within the limit
                assert t.frames_lost == f - t.last_seen_frame <= cfg.lost_frame_limit
        rows_a, _ = run_sequence(frames, model, cfg)
        rows_b, _ = run_sequence(frames, model, cfg)
        assert rows_a == rows_b
        assert list(rows_a) == every_frame
