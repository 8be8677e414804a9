import dataclasses

import numpy as np
import pytest

from graphmot import kernels
from graphmot.core import BoundingBox, Detections
from graphmot.synth import (
    SceneConfig,
    SceneFeatureSource,
    generate,
    preset,
    standard_scenarios,
    write_scene,
)
from graphmot.tracker import greedy_match
from graphmot.metrics import idf1
from graphmot.motio import TrackRow, TrackRows


class TestDeterminismAndDegenerate:
    def test_zero_noise_detections_equal_gt(self):
        cfg = SceneConfig(n_frames=20, n_targets=4, box_noise=0.0, dropout=0.0,
                          clutter_rate=0.0, feature_noise=0.0, seed=5)
        scene = generate(cfg)
        assert len(scene.det_rows) == len(scene.gt_rows)
        for det, gt in zip(scene.det_rows, scene.gt_rows):
            assert det.frame == gt.frame
            assert (det.x, det.y, det.w, det.h) == (gt.x, gt.y, gt.w, gt.h)

    def test_full_dropout_empties_detections(self):
        cfg = SceneConfig(n_frames=10, n_targets=3, dropout=1.0, clutter_rate=0.0, seed=6)
        scene = generate(cfg)
        assert len(scene.det_rows) == 0
        assert len(scene.gt_rows) == 30
        assert sorted(scene.frames) == list(range(1, 11))
        for f, dets in scene.frames.items():
            assert isinstance(dets, Detections) and not dets and dets.frame == f
            assert dets.features.shape == (0, cfg.feature_dim) and dets.gt_ids == ()

    def test_frames_are_labelled_blocks_of_the_written_rows(self):
        scene = generate(preset("crowded", seed=3, n_frames=40, clutter_rate=0.5))
        rows, features = iter(scene.det_rows), iter(scene.feature_rows)
        for f, dets in scene.frames.items():
            assert isinstance(dets, Detections) and dets.frame == f
            assert dets.features.shape == (len(dets), scene.config.feature_dim)
            assert len(dets.gt_ids) == len(dets)
            for j in range(len(dets)):
                row, (feature_frame, index, vec) = next(rows), next(features)
                assert (row.frame, feature_frame, index) == (f, f, j)
                assert dets.boxes[j].tolist() == [row.x, row.y, row.w, row.h]
                assert dets.confidences[j] == row.conf
                assert dets.features[j].tobytes() == vec.tobytes()
        assert next(rows, None) is None
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
        assert a.det_rows != b.det_rows


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


class TestFeatureSource:
    def test_returns_anchor_at_target_and_none_elsewhere(self):
        scene = generate(preset("easy", seed=14))
        source = SceneFeatureSource(scene)
        frame = min(scene.gt_frames)
        ident, box = scene.gt_frames[frame][0]
        feat = source.feature_at(frame, box)
        assert np.allclose(feat, scene.anchors[ident - 1])
        assert source.feature_at(frame, BoundingBox(-500, -500, 10, 10)) is None
