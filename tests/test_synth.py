import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import reference_feature_at

from graphmot import kernels
from graphmot.core import BoundingBox, Detections
from graphmot.synth import (
    SceneConfig,
    SceneData,
    SceneFeatureSource,
    generate,
    preset,
    standard_scenarios,
    write_scene,
)
from graphmot.tracker import greedy_match
from graphmot.metrics import idf1
from graphmot.motio import TrackRow, TrackRows, read_detections


class TestDeterminismAndDegenerate:
    def test_zero_noise_detections_equal_gt(self):
        cfg = SceneConfig(n_frames=20, n_targets=4, box_noise=0.0, dropout=0.0,
                          clutter_rate=0.0, feature_noise=0.0, seed=5)
        scene = generate(cfg)
        frames = np.concatenate([np.full(len(b), f) for f, b in scene.frames.items()])
        boxes = np.concatenate([b.boxes for b in scene.frames.values()])
        assert frames.tolist() == scene.gt_rows.frames.tolist()
        assert boxes.tolist() == scene.gt_rows.boxes.tolist()

    def test_full_dropout_empties_detections(self):
        cfg = SceneConfig(n_frames=10, n_targets=3, dropout=1.0, clutter_rate=0.0, seed=6)
        scene = generate(cfg)
        assert len(scene.gt_rows) == 30
        assert sorted(scene.frames) == list(range(1, 11))
        for f, dets in scene.frames.items():
            assert isinstance(dets, Detections) and not dets and dets.frame == f
            assert dets.features.shape == (0, cfg.feature_dim) and dets.gt_ids == ()

    def test_frames_are_labelled_blocks_of_the_written_rows(self, tmp_path):
        scene = generate(preset("crowded", seed=3, n_frames=40, clutter_rate=0.5))
        write_scene(scene, tmp_path)
        written = read_detections(tmp_path / "det.txt", tmp_path / "features.txt")
        assert set(written) <= set(scene.frames)
        for f, dets in scene.frames.items():
            assert isinstance(dets, Detections) and dets.frame == f
            assert dets.features.shape == (len(dets), scene.config.feature_dim)
            assert len(dets.gt_ids) == len(dets)
            if not dets:
                assert f not in written
                continue
            # The files round boxes and confidences to 2 decimals, features to 8.
            assert np.abs(written[f].boxes - dets.boxes).max() <= 0.005
            assert np.abs(written[f].confidences - dets.confidences).max() <= 0.005
            assert np.abs(written[f].features - dets.features).max() <= 1e-8  # renormalised
        labels = [g for dets in scene.frames.values() for g in dets.gt_ids]
        assert None in labels  # clutter
        assert set(labels) - {None} == set(range(1, scene.config.n_targets + 1))

    def test_same_seed_byte_identical_files(self, tmp_path):
        cfg = preset("crossing", seed=9)
        paths_a = write_scene(generate(cfg), tmp_path / "a")
        paths_b = write_scene(generate(cfg), tmp_path / "b")
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_different_seed_differs(self):
        a = generate(preset("easy", seed=1))
        b = generate(preset("easy", seed=2))
        assert a.gt_rows != b.gt_rows
        assert not np.array_equal(a.frames[1].boxes, b.frames[1].boxes)

    # sha256 of the written gt.txt, det.txt and features.txt, recorded when
    # the scene data still carried its detection and feature rows.
    WRITTEN = {
        ("crossing", 3, 0.0, 140): (
            "393979b02ff7137073fc1c77f85fadb46605cce03e5bc4994011eac5ef099b34",
            "0c2967277028242c882327d27e42ac99457d53c6e3f710970a76151ff3608b87",
            "f872a0e635da14c27dd45b46505710a1f7c1671840f58bcd6cf6c6c4bc0237ed",
        ),
        ("crowded", 5, 1.0, 60): (
            "71c89c4eca9701ba3e7c256e2da6ea628573d9ea12bf0f8aa5235eb649ad9795",
            "fc1e39e3deb923741f5b513ae7c1f99600d7cbc94589d5d15505d18977e85a3f",
            "59acbe77a04e9746bf1e5c299fcddf619183a40989dfffc7670dd4dba8be41c5",
        ),
    }

    @pytest.mark.parametrize("key", WRITTEN, ids=lambda key: key[0])
    def test_written_files_pinned(self, tmp_path, key):
        name, seed, clutter_rate, n_frames = key
        paths = write_scene(generate(preset(name, seed=seed, clutter_rate=clutter_rate,
                                            n_frames=n_frames)), tmp_path)
        assert tuple(hashlib.sha256(paths[k].read_bytes()).hexdigest()
                     for k in ("gt", "det", "features")) == self.WRITTEN[key]


class TestSceneStructure:
    def test_gt_ids_consistent_and_within_bounds(self):
        cfg = preset("crowded", seed=3, n_frames=60)
        scene = generate(cfg)
        width, height = cfg.image_size
        ids = set()
        for row in scene.gt_rows:
            ids.add(row.track_id)
            assert row.x >= 0 and row.y >= 0
            assert row.x + row.w <= width and row.y + row.h <= height
        assert ids == set(range(1, cfg.n_targets + 1))

    def test_exit_targets_leave(self):
        cfg = preset("exits", seed=4)
        scene = generate(cfg)
        last_frame = {}
        for row in scene.gt_rows:
            last_frame[row.track_id] = row.frame
        exited = [t for t, f in last_frame.items() if f < cfg.n_frames]
        assert len(exited) >= cfg.exit_targets

    def test_crossing_creates_occlusion_gaps(self):
        cfg = preset("crossing", seed=11)
        scene = generate(cfg)
        det_frames = {}
        for det in (d for dets in scene.frames.values() for d in dets):
            if det.gt_id is not None:
                det_frames.setdefault(det.gt_id, set()).add(det.frame)
        gt_frames = {}
        for row in scene.gt_rows:
            gt_frames.setdefault(row.track_id, set()).add(row.frame)
        # The occluded member of at least one pair must disappear from the
        # detections for a few consecutive frames while its gt continues.
        max_gap = 0
        for tid in gt_frames:
            missing = sorted(gt_frames[tid] - det_frames.get(tid, set()))
            run, best = 0, 0
            prev = None
            for f in missing:
                run = run + 1 if prev == f - 1 else 1
                best = max(best, run)
                prev = f
            max_gap = max(max_gap, best)
        assert 2 <= max_gap <= 20

    def test_feature_identity_consistency(self):
        # Outside occlusions, same-identity features sit closer together
        # than to any other identity (statistically over seeds).
        violations, checks = 0, 0
        for seed in range(3):
            cfg = SceneConfig(n_frames=40, n_targets=6, feature_noise=0.08,
                              box_noise=0.5, seed=seed)
            scene = generate(cfg)
            by_id = {}
            for dets in scene.frames.values():
                for d in dets:
                    if d.gt_id is not None:
                        by_id.setdefault(d.gt_id, []).append(d.feature)
            feats = {g: np.stack(v) for g, v in by_id.items()}
            for g, own in feats.items():
                within = kernels.feature_dist_matrix(own[:10], own[10:20]).mean()
                for other_id, other in feats.items():
                    if other_id == g:
                        continue
                    checks += 1
                    across = kernels.feature_dist_matrix(own[:10], other[:10]).mean()
                    if within >= across:
                        violations += 1
        assert checks > 0
        assert violations == 0

    def test_clutter_has_no_identity(self):
        cfg = SceneConfig(n_frames=30, n_targets=3, clutter_rate=1.0, seed=7)
        scene = generate(cfg)
        clutter = [d for dets in scene.frames.values() for d in dets if d.gt_id is None]
        assert len(clutter) > 10

    def test_infeasible_script_errors(self):
        cfg = SceneConfig(n_frames=12, n_targets=2, n_crossing_pairs=1, seed=8)
        with pytest.raises(ValueError, match="infeasible"):
            generate(cfg)

    def test_too_many_scripted_targets(self):
        with pytest.raises(ValueError, match="not enough targets"):
            generate(SceneConfig(n_targets=3, n_crossing_pairs=2))


class TestPresets:
    def test_preset_list_is_stable(self):
        assert sorted(standard_scenarios()) == ["crossing", "crowded", "easy", "exits"]

    def test_preset_fields(self):
        crowded = standard_scenarios()["crowded"]
        assert crowded.n_targets == 20
        assert crowded.clutter_rate == pytest.approx(0.1)
        assert crowded.dropout == pytest.approx(0.1)
        assert crowded.n_frames == 300
        easy = standard_scenarios()["easy"]
        assert easy.n_targets == 5 and easy.n_crossing_pairs == 0

    def test_preset_override(self):
        cfg = preset("easy", seed=42, n_frames=17)
        assert cfg.seed == 42 and cfg.n_frames == 17
        assert dataclasses.replace(cfg) == cfg

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("hardcore")


class TestEasyBaselineTracking:
    def test_iou_greedy_baseline_gets_perfect_idf1(self):
        # Clean well-separated scene: a plain IoU greedy matcher (no
        # learned scoring) must already keep every identity.
        scene = generate(preset("easy", seed=13))
        hyp_rows = []
        next_id = 1
        tracks = {}  # id -> last box (x, y, w, h)
        for frame in sorted(scene.frames):
            dets = scene.frames[frame]
            boxes = np.array([d.box.as_xywh() for d in dets])
            ids = list(tracks)
            if ids and len(dets):
                overlap = kernels.iou_matrix(
                    np.array([tracks[i] for i in ids]), boxes
                )
                et, ed, sc = [], [], []
                for a in range(len(ids)):
                    for b in range(len(dets)):
                        et.append(a)
                        ed.append(b)
                        sc.append(overlap[a, b])
                matches, _, unmatched_d = greedy_match(
                    et, ed, sc, tau=0.1, n_traj=len(ids), n_det=len(dets)
                )
            else:
                matches, unmatched_d = [], list(range(len(dets)))
            for a, b in matches:
                tracks[ids[a]] = boxes[b]
                d = dets[b]
                hyp_rows.append(TrackRow(frame, ids[a], d.box.x, d.box.y, d.box.w, d.box.h, 1.0))
            for b in unmatched_d:
                tracks[next_id] = boxes[b]
                d = dets[b]
                hyp_rows.append(TrackRow(frame, next_id, d.box.x, d.box.y, d.box.w, d.box.h, 1.0))
                next_id += 1
        assert idf1(scene.gt_rows, TrackRows.of(hyp_rows)) == pytest.approx(1.0)


def scene_of(gt_rows):
    """A scene of the ground truth alone, with a distinct 3-d anchor per id 1-6."""
    return SceneData(SceneConfig(feature_dim=3), gt_rows, {}, np.eye(6, 3) + np.arange(6)[:, None])


class TestFeatureSource:
    def test_returns_anchor_at_target_and_none_elsewhere(self):
        scene = generate(preset("easy", seed=14))
        source = SceneFeatureSource(scene)
        frame, ident, box = scene.gt_rows.frames[0], scene.gt_rows.ids[0], scene.gt_rows.boxes[0]
        features, found = source.features_at(frame, np.array([box, [-500, -500, 10, 10]]))
        assert found.tolist() == [True, False]
        assert np.array_equal(features[0], scene.anchors[ident - 1])
        features, found = source.features_at(scene.config.n_frames + 1, box[None])
        assert features.shape == (1, scene.config.feature_dim) and found.tolist() == [False]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_batched_lookup_equals_one_box_at_a_time(self, data):
        # Frames 1 and 2 have targets on a coarse grid, half the time two
        # of them with the same box (so IoU ties come up); frame 3 has none.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        corners = lambda n, step: rng.choice(np.arange(-20.0, 61.0, step), size=(n, 2))
        sizes = lambda n: rng.choice([1.0, 10.0, 20.0], size=(n, 2))
        frames, ids, gt_boxes = [], [], []
        for frame in (1, 2):
            count = int(rng.integers(1, 5))
            frames += [frame] * count
            ids += sorted(rng.choice(np.arange(1, 7), size=count, replace=False).tolist())
            boxes = np.hstack([corners(count, 10.0), sizes(count)])
            if data.draw(st.booleans()):
                boxes[-1] = boxes[0]
            gt_boxes.append(boxes)
        gt = TrackRows(frames, ids, np.vstack(gt_boxes), np.ones(len(ids)))
        # Zero to eight boxes, every third a ground-truth box, and now and
        # then one of IoU exactly 0.1 with a 10 x 10 box at the origin.
        n = data.draw(st.integers(0, 8))
        boxes = np.hstack([corners(n, 5.0), sizes(n)])
        boxes[::3] = gt.boxes[rng.integers(len(gt), size=n)[::3]]
        if data.draw(st.booleans()):
            boxes = np.vstack([boxes, [[0.0, 0.0, 1.0, 10.0]]])
        scene = scene_of(gt)
        for frame in (1, 2, 3):
            features, found = SceneFeatureSource(scene).features_at(frame, boxes)
            assert features.shape == (len(boxes), 3) and found.dtype == bool
            for r, box in enumerate(boxes):
                want = reference_feature_at(scene, frame, BoundingBox(*box))
                assert found[r] == (want is not None)
                if want is not None:
                    assert np.array_equal(features[r], want)

    def test_ties_go_to_the_last_row_and_an_iou_of_one_tenth_is_found(self):
        # Two targets with the same box; a box of IoU exactly 0.1 with a third.
        gt = TrackRows([4, 4, 4], [2, 5, 6], [[0, 0, 10, 10], [0, 0, 10, 10], [50, 0, 10, 10]],
                       np.ones(3))
        scene = scene_of(gt)
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [50.0, 0.0, 1.0, 10.0], [50.0, 0.0, 0.99, 10.0]])
        features, found = SceneFeatureSource(scene).features_at(4, boxes)
        assert found.tolist() == [True, True, False]
        assert np.array_equal(features[0], scene.anchors[4])
        assert np.array_equal(features[1], scene.anchors[5])
        for box, hit in zip(boxes, found):
            assert (reference_feature_at(scene, 4, BoundingBox(*box)) is not None) == hit
