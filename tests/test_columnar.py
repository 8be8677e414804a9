"""The columnar reader and tracker against their per-object references.

read_detections must give the same detections, or the same error, as the
row-by-row reader; Tracker.step must write the same rows and StepStats,
and keep the same trajectory state, as the tracker that held one
Trajectory record per track, in every configuration branch. Neither may
build per-row records, and neither may labelling, training or the ratio
analysis. Track rows stay one TrackRows block from the readers, the
generator and the tracker to the metrics, which build no TrackRow either.
"""

import importlib
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    VERIFIERS,
    max_overlap,
    reference_clear_mot,
    reference_forecast_lost,
    reference_format_track_row,
    reference_idf1,
    reference_read_detections,
    reference_run_sequence,
)

from graphmot import core, motion
from graphmot import tracker as tracker_module
from graphmot.core import BoundingBox, Detection, Detections, Trajectory, frame_overlaps
from graphmot.integration import INTEGRATION_MODES
from graphmot.metrics import clear_mot, idf1, ratio_analysis
from graphmot.motio import (
    TrackRow,
    TrackRows,
    format_track_rows,
    label_detections,
    read_detections,
    read_track_rows,
    write_features,
)
from graphmot.motion import (
    STOP_REASONS,
    FrameContext,
    KalmanState,
    boxes_from_means,
    forecast_gates,
    forecast_lost,
)
from graphmot.mpn import TrainConfig, create_model, load_model, train_model
from graphmot.synth import SceneFeatureSource, generate, preset, write_scene
from graphmot.tracker import Tracker, TrackerConfig, run_sequence


@contextmanager
def forbidden(*classes):
    """Fail on any instance of the classes built inside the block, through
    a constructor or as a snapshot of a block's row (core._record)."""

    def refuse(*args, **kwargs):
        raise AssertionError("built a forbidden record")

    def record(cls, *values):
        if cls in classes:
            raise AssertionError(f"built a {cls.__name__}")
        return real_record(cls, *values)

    real_record = core._record
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_record", record)
        for cls in classes:
            if "__new__" in vars(cls):  # a NamedTuple: __new__ and _make
                mp.setattr(cls, "__new__", refuse)
                mp.setattr(cls, "_make", classmethod(refuse))
            else:
                mp.setattr(cls, "__init__", refuse)
        yield


def exact(value):
    """A value with every float spelled out bit for bit."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(exact(v) for v in value)
    return value


def exact_detection(d):
    return exact((d.frame, (d.box.x, d.box.y, d.box.w, d.box.h), d.confidence, d.feature, d.gt_id))


# ---------------------------------------------------------------------------
# Reader


def outcome(read, det_path, feat_path):
    try:
        frames = read(det_path, feat_path)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", [(f, [exact_detection(d) for d in dets]) for f, dets in frames.items()]


@st.composite
def detection_files(draw):
    """Detection and feature lines, mostly well formed: frames in any order,
    clamped confidences, and now and then a bad box, a bad value, a blank
    line, a missing, repeated, stray or zero feature."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 3]))
    det_lines, keys, counts = [], [], {}
    for _ in range(draw(st.integers(0, 12))):
        frame = draw(st.sampled_from([1, 2, 3, 7]))
        x, y = draw(st.sampled_from([-4.5, 0.0, 10.25, 300.0])), float(rng.uniform(0, 99))
        w = draw(st.sampled_from([12.5, 12.5, 12.5, 0.0, -3.0, float("nan"), float("inf")]))
        h = draw(st.sampled_from([30.0, 30.0, 30.0, 1e-3]))
        conf = draw(st.sampled_from([0.9, 0.25, 0.0, 1.0, -0.5, 1.5, -0.0]))
        det_lines.append(f"{frame},-1,{x!r},{y!r},{w!r},{h!r},{conf!r},-1,-1,-1\n")
        keys.append((frame, counts.get(frame, 0)))
        counts[frame] = counts.get(frame, 0) + 1
        if draw(st.integers(0, 9)) == 0:
            det_lines.append(draw(st.sampled_from(["\n", "  \n", "2,-1,x,0,1,1,0.5\n", "3,-1,1,2\n"])))
    features = [(f, j, rng.normal(size=dim)) for f, j in keys]
    mutation = draw(st.sampled_from(["none"] * 5 + ["drop", "repeat", "stray", "zero", "nan", "shuffle"]))
    if mutation == "drop" and features:
        features.pop(draw(st.integers(0, len(features) - 1)))
    elif mutation == "repeat" and features:
        features.append(features[draw(st.integers(0, len(features) - 1))])
    elif mutation == "stray":
        features.insert(0 if draw(st.booleans()) else len(features), (2, 40, np.ones(dim)))
    elif mutation == "zero" and features:
        f, j, _ = features[-1]
        features[-1] = (f, j, np.zeros(dim))
    elif mutation == "nan" and features:
        f, j, v = features[0]
        features[0] = (f, j, np.full(dim, np.nan))
    elif mutation == "shuffle":
        features = [features[i] for i in rng.permutation(len(features))]
    return "".join(det_lines), features


class TestReaderMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(files=detection_files())
    def test_same_detections_or_same_error(self, tmp_path_factory, files):
        det_text, features = files
        tmp = tmp_path_factory.mktemp("io")
        det_path, feat_path = tmp / "det.txt", tmp / "features.txt"
        det_path.write_text(det_text)
        write_features(feat_path, features)
        assert outcome(read_detections, det_path, feat_path) == outcome(
            reference_read_detections, det_path, feat_path
        )

    def test_builds_no_per_row_records(self, tmp_path):
        scene = generate(preset("crowded", seed=4, n_frames=30))
        write_scene(scene, tmp_path)
        with forbidden(Detection, BoundingBox, TrackRow):
            frames = read_detections(tmp_path / "det.txt", tmp_path / "features.txt")
        want = reference_read_detections(tmp_path / "det.txt", tmp_path / "features.txt")
        assert all(isinstance(dets, Detections) for dets in frames.values())
        assert [(f, [exact_detection(d) for d in dets]) for f, dets in frames.items()] == [
            (f, [exact_detection(d) for d in dets]) for f, dets in want.items()
        ]


class TestLabelledBlocks:
    """Labelling, training and the ratio analysis read the blocks' columns."""

    def test_labelling_training_and_ratio_analysis_build_no_records(self, tmp_path):
        scene = generate(preset("crossing", seed=4, n_frames=30, clutter_rate=0.5))
        write_scene(scene, tmp_path)
        frames = read_detections(tmp_path / "det.txt", tmp_path / "features.txt")
        gt_rows = read_track_rows(tmp_path / "gt.txt")
        cfg = TrainConfig(epochs=1)
        assert cfg.node_dropout > 0.0 and cfg.box_jitter > 0.0
        model = create_model(scene.config.feature_dim, d_node=8, d_edge=8, seed=1)
        with forbidden(Detection, BoundingBox):
            labeled = label_detections(frames, gt_rows)
            history = train_model(model, [labeled], cfg, integration="iou", ratio_variant="app")
            reports = [ratio_analysis([labeled], variant, [0.3, 0.6], integration="iou")
                       for variant in ("iou", "app")]
        assert all(isinstance(dets, Detections) for dets in labeled.values())
        assert history[0]["positive_edges"] > 0
        assert all(rep.n_decisions > 0 for rep in reports)


# ---------------------------------------------------------------------------
# Track rows

DEPLOY_MODEL = Path(__file__).resolve().parent.parent / "perfbench" / "deploy_model.npz"


class TestTrackRowBlocks:
    def test_readers_generator_tracker_and_metrics_build_no_track_rows(self, tmp_path):
        config = preset("crossing", seed=4, n_frames=40, clutter_rate=0.5)
        write_scene(generate(config), tmp_path)
        model = create_model(config.feature_dim, seed=3)
        with forbidden(TrackRow):
            scene = generate(config)
            frames = read_detections(tmp_path / "det.txt", tmp_path / "features.txt")
            gt_rows = read_track_rows(tmp_path / "gt.txt")
            labeled = label_detections(frames, gt_rows)
            rows, _ = run_sequence(frames, model, TrackerConfig(image_size=config.image_size))
            result = clear_mot(gt_rows, rows)
            score = idf1(scene.gt_rows, rows)
        assert all(isinstance(r, TrackRows) for r in (scene.gt_rows, gt_rows, rows))
        assert sum(g is not None for dets in labeled.values() for g in dets.gt_ids) > 0
        want = reference_clear_mot(list(gt_rows), list(rows))
        assert (result.mota, result.fp, result.fn, result.ids) == (want.mota, want.fp, want.fn, want.ids)
        assert score == reference_idf1(list(scene.gt_rows), list(rows))

    def test_block_is_a_read_only_sequence_of_rows(self):
        records = [TrackRow(3, 1, 0.5, 1.0, 2.0, 3.0, 1.0), TrackRow(1, 2, 4.0, 5.0, 6.0, 7.0, 0.25),
                   TrackRow(3, 0, 8.0, 9.0, 1.0, 1.0, 0.5)]
        rows = TrackRows.of(records)
        assert len(rows) == 3 and rows.frames.tolist() == [1, 3, 3]
        assert list(rows) == [records[1], records[0], records[2]]  # a stable sort by frame
        assert rows[-1] == records[2] and [rows[i] for i in range(3)] == list(rows)
        assert rows.frames.dtype == rows.ids.dtype == np.int64
        with pytest.raises(IndexError):
            rows[3]
        for array in (rows.frames, rows.ids, rows.boxes, rows.confidences):
            with pytest.raises(ValueError):
                array[0] = 0
        assert TrackRows.concat([rows, TrackRows.of([])]) == rows
        assert TrackRows.of([]) == TrackRows.concat([]) and len(TrackRows.of([])) == 0
        assert rows != TrackRows.of(records[:2])

    @pytest.mark.parametrize(
        "record, message",
        [
            (TrackRow(0, 1, 0.0, 0.0, 1.0, 1.0, 1.0), "row 1: need frame >= 1"),
            (TrackRow(1, 1, float("nan"), 0.0, 1.0, 1.0, 1.0), "row 1: need frame >= 1"),
            (TrackRow(1, 1, 0.0, 0.0, 1.0, 1.0, float("inf")), "row 1: need frame >= 1"),
            (TrackRow(1, 1, 0.0, 0.0, 0.0, 1.0, 1.0), "row 1: need frame >= 1"),
            (TrackRow(2, 5, 0.0, 0.0, 1.0, 1.0, 1.0), "second row of id 5 in frame 2"),
        ],
    )
    def test_block_checks_its_rows_when_built(self, record, message):
        with pytest.raises(ValueError, match=message):
            TrackRows.of([TrackRow(2, 5, 9.0, 9.0, 1.0, 1.0, 1.0), record])

    def test_metrics_on_a_crowded_scene_stay_small(self):
        # The first scene of the crowded benchmark workload at seed 1,
        # tracked by the deployment checkpoint. Chunking the pair pass
        # keeps clear_mot and idf1 under 3 MB between them.
        scene = generate(preset("crowded", seed=1100, n_targets=25, image_size=(1920, 1080),
                                n_frames=210))
        config = TrackerConfig(image_size=scene.config.image_size, integration="iou",
                               ratio_variant="app")
        rows, _ = run_sequence(scene.frames, load_model(DEPLOY_MODEL), config)
        gt_rows = scene.gt_rows
        assert len(gt_rows) > 5000 and len(rows) > 5000
        tracemalloc.start()
        try:
            result = clear_mot(gt_rows, rows)
            score = idf1(gt_rows, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MB"
        assert result.n_gt == len(gt_rows) and 0.5 < score < 1.0


# ---------------------------------------------------------------------------
# Tracker


class HashedSource:
    """A deterministic appearance source: a fixed unit vector per cell of
    box position, and no feature for one cell in nine."""

    def __init__(self, dim, seed):
        vecs = np.random.default_rng(seed).normal(size=(8, dim))
        self.vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)

    def features_at(self, frame, boxes):
        cells = (boxes[:, 0] // 40 + boxes[:, 1] // 40 + frame).astype(np.int64) % 9
        return self.vecs[np.minimum(cells, 7)], cells != 8


def unit_rows(rng, n, dim):
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@st.composite
def streams(draw):
    """Frames with gaps; per frame a few targets drifting with their own
    features, clutter, and now and then a duplicated box."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([2, 4]))
    n_targets = draw(st.integers(1, 5))
    start = rng.uniform([-30, -30], [560, 360], size=(n_targets, 2))
    velocity = rng.normal(0.0, 6.0, size=(n_targets, 2))
    looks = unit_rows(rng, n_targets, dim)
    frames = {}
    for f in sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=22))):
        dets = []
        for t in range(n_targets):
            if rng.random() < 0.8:
                x, y = start[t] + f * velocity[t] + rng.normal(0.0, 2.0, 2)
                feature = looks[t] + rng.normal(0.0, 0.1, dim)
                dets.append(Detection(f, BoundingBox(float(x), float(y), 30.0, 60.0),
                                      float(rng.uniform(0.3, 1.0)), feature / np.linalg.norm(feature)))
        for _ in range(draw(st.integers(0, 2))):  # clutter
            dets.append(Detection(f, BoundingBox(*rng.uniform(0, 580, 2), *rng.uniform(5, 90, 2)),
                                  float(rng.uniform(0, 1)), unit_rows(rng, 1, dim)[0]))
        if dets and draw(st.integers(0, 3)) == 0:  # a duplicated box with its own feature
            d = dets[int(rng.integers(len(dets)))]
            dets.append(Detection(f, d.box, d.confidence, unit_rows(rng, 1, dim)[0]))
        if dets or not frames or draw(st.booleans()):  # an empty frame, or an absent one
            frames[f] = Detections.of(dets, f)
    model = create_model(dim, d_node=4, d_edge=4, rounds=2, seed=int(rng.integers(100)))
    return frames, model, draw(st.sampled_from([0.05, 0.5])), draw(st.integers(0, 4))


BRANCHES = [
    {"integration": "none"},
    {"integration": "average"},
    {"integration": "iou"},
    {"integration": "lstm"},
    {"ratio_variant": "none"},
    {"ratio_variant": "iou"},
    {"theta_app": 0.0},
    {"emit_forecasts": False},
    {"forecast_constraints": False},
]


def exact_rows(rows):
    return [exact(tuple(r)) for r in rows]


def exact_stats(stats):
    return [(s.frame, s.n_candidates, s.n_edges) for s in stats]


class TestTrackerMatchesReference:
    """Default branches: greedy matching, "app" ratio test, "iou"
    integration, the default verifier, forecasts emitted through the gates."""

    @pytest.mark.parametrize("with_source", [False, True], ids=["no_source", "source"])
    @pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: "-".join(f"{k}={v}" for k, v in b.items()))
    @settings(max_examples=15, deadline=None)
    @given(case=streams())
    def test_same_rows_stats_and_state(self, branch, with_source, case):
        frames, model, tau, limit = case
        config = TrackerConfig(
            **{"tau": tau, "lost_frame_limit": limit, "image_size": (600, 400),
               "integration": "iou", "ratio_variant": "app", **branch}
        )
        source = HashedSource(model.feature_dim, 5) if with_source else None
        want_rows, want_stats, reference = reference_run_sequence(frames, model, config, source)
        tracker = Tracker(model, config, source)
        got_rows = []
        for f in range(min(frames), max(frames) + 1):
            got_rows += tracker.step(f, frames.get(f, Detections.of([], f)))
        # run_sequence skips frames while nothing is alive; stepping through
        # them too changes nothing.
        rows, stats = run_sequence(frames, model, config, source)
        assert exact_rows(rows) == exact_rows(got_rows) == exact_rows(want_rows)
        assert format_track_rows(rows) == "".join(
            reference_format_track_row(r) + "\n" for r in want_rows)
        assert exact_stats(stats) == exact_stats(want_stats)
        live = tracker.trajectories
        assert [t.id for t in reference.trajectories] == live.ids.tolist()
        for t, mean, cov, snapshot in zip(reference.trajectories, reference._means,
                                          reference._covs, live):
            assert exact((t.id, t.last_seen_frame, t.frames_lost, t.forecast_stopped,
                          t.integrated_feature, (t.last_box.x, t.last_box.y, t.last_box.w,
                                                 t.last_box.h), mean, cov)) == exact((
                snapshot.id, snapshot.last_seen_frame, snapshot.frames_lost,
                snapshot.forecast_stopped, snapshot.integrated_feature,
                (snapshot.last_box.x, snapshot.last_box.y, snapshot.last_box.w,
                 snapshot.last_box.h), snapshot.motion.mean, snapshot.motion.cov))


class TestTrackerColumns:
    @pytest.fixture(scope="class")
    def scene(self):
        scene = generate(preset("crossing", seed=9, n_frames=120, dropout=0.2, clutter_rate=0.5))
        return scene, create_model(scene.config.feature_dim, seed=3)

    def test_step_builds_no_trajectory_records(self, scene, tmp_path):
        scene, model = scene
        write_scene(scene, tmp_path)
        frames = read_detections(tmp_path / "det.txt", tmp_path / "features.txt")
        # With the appearance source: the gates ask it for boxes as arrays.
        tracker = Tracker(model, TrackerConfig(image_size=scene.config.image_size),
                          SceneFeatureSource(scene))
        with forbidden(Trajectory, KalmanState, Detection, BoundingBox):
            for f in range(1, scene.config.n_frames + 1):
                tracker.step(f, frames.get(f, Detections.of([], f)))
                assert len(tracker.trajectories) == len(tracker.trajectories.ids)
        assert tracker.next_id > 1

    def test_appearance_source_is_asked_at_most_once_per_frame(self, scene):
        scene, model = scene
        asked = []

        class CountingSource(SceneFeatureSource):
            def features_at(self, frame, boxes):
                asked.append((frame, len(boxes)))
                return super().features_at(frame, boxes)

        config = TrackerConfig(image_size=scene.config.image_size)
        _, stats = run_sequence(scene.frames, model, config, CountingSource(scene))
        frames = [frame for frame, _ in asked]
        assert len(frames) == len(set(frames)) <= len(stats)
        assert sum(n for _, n in asked) > len(frames) > 0  # some frames gate several rows

    def test_columns_hold_exactly_the_live_trajectories(self, scene):
        scene, model = scene
        config = TrackerConfig(image_size=scene.config.image_size, lost_frame_limit=10)
        tracker = Tracker(model, config)
        for f in range(1, scene.config.n_frames + 1):
            tracker.step(f, scene.frames[f])
        _, _, reference = reference_run_sequence(scene.frames, model, config)
        live = tracker.trajectories
        m = len(reference.trajectories)
        assert live.ids.tolist() == [t.id for t in reference.trajectories]
        assert (np.diff(live.ids) > 0).all()
        assert (live.frames_lost == scene.config.n_frames - live.last_seen).all()
        assert (live.frames_lost <= config.lost_frame_limit).all()
        for name in ("features", "last_boxes", "last_seen", "frames_lost", "forecast_stopped",
                     "means", "covs"):
            assert len(getattr(live, name)) == m, name
        assert live.lstm_states is None
        assert tracker.next_id - 1 > m  # some trajectories were pruned on the way


# The one-record twins stay for perfbench/tracing.py, which rebinds them in
# every graphmot module that binds them; tracking, training and the ratio
# analysis work on blocks and must call none of them.
TWINS = {
    "graphmot.motion": ("forecast_lost", "kf_init", "kf_predict", "kf_update", "state_to_box"),
    "graphmot.integration": ("update_trajectory_feature",),
}


@contextmanager
def twins_refused():
    """Every twin raises inside the block, in every graphmot module that binds it."""
    with pytest.MonkeyPatch.context() as mp:
        for module_name, names in TWINS.items():
            for name in names:
                original = getattr(importlib.import_module(module_name), name)

                def refuse(*args, _name=name, **kwargs):
                    raise AssertionError(f"{_name} called")

                for owner_name, owner in list(sys.modules.items()):
                    if owner_name.startswith("graphmot") and getattr(owner, name, None) is original:
                        mp.setattr(owner, name, refuse)
        yield


class TestTwinsOffTheHotPath:
    def test_tracking_training_and_ratio_analysis_call_no_twin(self, monkeypatch):
        scene = generate(preset("crossing", seed=9, n_frames=80, dropout=0.2))
        model = create_model(scene.config.feature_dim, d_node=8, d_edge=8, seed=3)
        gated = []

        def counting(boxes, *args):
            gated.append(len(boxes))
            return forecast_gates(boxes, *args)

        monkeypatch.setattr(tracker_module, "forecast_gates", counting)
        with twins_refused():
            with pytest.raises(AssertionError, match="kf_init called"):
                motion.kf_init(BoundingBox(0.0, 0.0, 1.0, 1.0))
            for mode in INTEGRATION_MODES:
                config = TrackerConfig(image_size=scene.config.image_size, integration=mode)
                rows, _ = run_sequence(scene.frames, model, config, SceneFeatureSource(scene))
                assert len(rows) > 0
            for mode in ("iou", "lstm"):
                train_model(model, [scene.frames], TrainConfig(epochs=1, seed=1), integration=mode)
            assert ratio_analysis([scene.frames], "app", (0.5,)).n_decisions > 0
        assert sum(gated) > 0


class TestForecastGatesMatchForecastLost:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 12),
        verifier=st.sampled_from(["default", "always_keep", "always_stop"]),
        with_source=st.booleans(),
    )
    def test_rows_decide_like_one_trajectory_each(self, seed, n, verifier, with_source):
        rng = np.random.default_rng(seed)
        image_size = (200, 100)
        # Predicted boxes around the borders, on a coarse grid so that edge
        # cases (exactly half visible, exactly on the band) come up.
        means = np.zeros((n, 8))
        means[:, :2] = rng.choice(np.arange(-20.0, 221.0, 2.5), size=(n, 2))
        means[:, 2:4] = rng.choice([4.0, 10.0, 20.0], size=(n, 2))
        boxes = boxes_from_means(means)
        # Area ratios of 1/4 to 4, drifts of exactly 50% included.
        last = np.column_stack([boxes[:, :2], boxes[:, 2:] * rng.choice([0.5, 1.0, 2.0], size=(n, 2))])
        features = unit_rows(rng, n, 3)
        ctx = FrameContext(image_size, 7, HashedSource(3, seed % 7).features_at if with_source else None)
        one_box, rows = VERIFIERS[verifier]
        stops, checked = forecast_gates(boxes, last, features, ctx, 0.6, rows)
        assert stops.dtype == np.int8
        for r in range(n):
            traj = Trajectory(1, features[r], BoundingBox(*last[r]), 1,
                              KalmanState(means[r], np.zeros((3, 4))), frames_lost=1)
            want = reference_forecast_lost(traj, ctx, 0.6, one_box)
            assert (STOP_REASONS[stops[r]], checked[r] if want.keep else False) == (
                want.reason, want.appearance_checked if want.keep else False)
            assert forecast_lost(traj, ctx, 0.6, rows) == want


# ---------------------------------------------------------------------------
# The detections block


def block(n=3, frame=4, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    boxes = np.column_stack([rng.uniform(0, 100, (n, 2)), rng.uniform(1, 50, (n, 2))])
    return Detections(frame, boxes, rng.uniform(0, 1, n), unit_rows(rng, n, dim))


class TestDetectionsBlock:
    def test_items_are_the_rows(self):
        dets = block()
        assert len(dets) == 3 and bool(dets)
        for i, d in enumerate(dets):
            assert d.frame == 4 and d.gt_id is None
            assert d.box.as_xywh().tobytes() == dets.boxes[i].tobytes()
            assert d.confidence == dets.confidences[i]
            assert d.feature.tobytes() == dets.features[i].tobytes()
        assert dets[-1].box == dets[2].box
        with pytest.raises(IndexError):
            dets[3]
        assert Detections.of(list(dets)) == dets

    def test_read_only(self):
        dets = block()
        with pytest.raises(ValueError):
            dets.boxes[0, 0] = 1.0
        with pytest.raises(ValueError):
            dets[0].feature[0] = 1.0

    def test_round_trip_through_records(self):
        dets = block()
        labeled = [Detection(d.frame, d.box, d.confidence, d.feature, gt_id=k) for k, d in enumerate(dets)]
        again = Detections.of(labeled)
        assert again.gt_ids == (0, 1, 2)
        assert [exact_detection(d) for d in again] == [exact_detection(d) for d in labeled]

    @pytest.mark.parametrize(
        "row, message",
        [
            (dict(w=0.0), "box needs positive extent"),
            (dict(h=-1.0), "box needs positive extent"),
            (dict(x=float("inf")), "box coordinates must be finite"),
            (dict(conf=1.5), r"confidence outside \[0, 1\]"),
            (dict(feature=[0.6, 0.6, 0.0]), "feature must be unit norm"),
        ],
    )
    def test_checks_like_a_detection(self, row, message):
        x, y, w, h = row.get("x", 1.0), 2.0, row.get("w", 3.0), row.get("h", 4.0)
        conf, feature = row.get("conf", 0.5), np.array(row.get("feature", [0.6, 0.8, 0.0]))
        with pytest.raises(ValueError, match=message) as want:
            Detection(5, BoundingBox(x, y, w, h), conf, feature)
        good = block(2, frame=5)
        with pytest.raises(ValueError) as got:
            Detections(5, np.vstack([good.boxes, [x, y, w, h]]),
                       np.append(good.confidences, conf), np.vstack([good.features, feature]))
        assert str(got.value) == str(want.value)

    def test_checks_the_frame(self):
        with pytest.raises(ValueError, match="frame numbers start at 1, got 0"):
            block(frame=0)

    def test_one_frame_per_block(self):
        dets = list(block()) + [Detection(5, BoundingBox(0, 0, 1, 1), 0.5, np.array([1.0, 0.0, 0.0]))]
        with pytest.raises(ValueError, match="frames"):
            Detections.of(dets)


@settings(max_examples=100, deadline=None)
@given(
    cells=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 3), st.integers(1, 3)),
                   max_size=10),
    pick=st.lists(st.integers(0, 9), max_size=6),
)
def test_frame_overlaps_of_some_rows_are_those_of_all(cells, pick):
    dets = [Detection(1, BoundingBox(10.0 * x, 10.0 * y, 10.0 * w, 10.0 * h), 0.5, np.array([1.0]))
            for x, y, w, h in cells]
    frame = Detections.of(dets, 1)
    rows = [p for p in pick if p < len(dets)]
    some = frame_overlaps(frame, rows)
    assert some.tobytes() == frame_overlaps(frame)[rows].tobytes()
    for k, j in enumerate(rows):
        assert some[k] == max_overlap(dets[j], dets[:j] + dets[j + 1:])
