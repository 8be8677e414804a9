"""Per-object reference implementations of the columnar tracker and reader.

ReferenceTracker is the tracker step as it was written before the tracker
kept its trajectories as columns: one Trajectory record and one
KalmanState per live track, forecast gates through motion.forecast_lost
one trajectory at a time, and features integrated through
integration.update_trajectory_feature in "lstm" mode. reference_read_detections
joins the two files row by row into Detection records. The tests require
the columnar code to agree with them byte for byte.
"""

from __future__ import annotations

import bisect

import numpy as np

from graphmot.core import BoundingBox, Detection, Trajectory, box_array, frame_overlaps
from graphmot.graph import build_graph
from graphmot.integration import BATCHED_MODES, integrate_rows, update_trajectory_feature
from graphmot.motio import TrackRow, read_features, read_track_rows
from graphmot.motion import (
    ForecastDecision,
    FrameContext,
    KalmanState,
    boxes_from_means,
    forecast_lost,
    kf_init_batch,
    kf_predict_batch,
    kf_update_batch,
    make_verifier,
    state_to_box,
)
from graphmot.mpn import score_graph
from graphmot.tracker import StepStats, greedy_match, hungarian_match


class ReferenceTracker:
    """Tracker with a list of Trajectory records; same rows, same stats."""

    def __init__(self, model, config, feature_source=None):
        self.model = model
        self.config = config
        self.feature_source = feature_source
        self.trajectories: list[Trajectory] = []
        self._means = np.zeros((0, 8))
        self._covs = np.zeros((0, 8, 8))
        self.next_id = 1
        self.last_frame = None
        self.stats: list[StepStats] = []
        self._verifier = make_verifier(config.verifier)

    def step(self, frame, detections):
        cfg = self.config
        if self.last_frame is not None and frame <= self.last_frame:
            raise ValueError(f"frames must be strictly increasing: {frame} after {self.last_frame}")
        if any(d.frame != frame for d in detections):
            raise ValueError("detections from a different frame passed to step")
        self.last_frame = frame

        if self.trajectories:
            self._means, self._covs = kf_predict_batch(self._means, self._covs)

        graph, (matches, unmatched_t, unmatched_d) = self._associate(frame, detections)

        det_boxes = box_array(detections)
        features = None
        if matches:
            matched_t, matched_d = np.array(matches).T
            self._means[matched_t], self._covs[matched_t] = kf_update_batch(
                self._means[matched_t], self._covs[matched_t], det_boxes[matched_d]
            )
            if cfg.integration in BATCHED_MODES:
                overlaps = None
                if cfg.integration == "iou":
                    overlaps = frame_overlaps(detections)[matched_d]
                features = integrate_rows(
                    cfg.integration, graph.traj_features[matched_t],
                    graph.det_features[matched_d], overlaps,
                )
        for traj, mean, cov in zip(self.trajectories, self._means, self._covs):
            traj.motion = KalmanState(mean, cov)

        rows = []
        for k, (ti, dj) in enumerate(matches):
            traj, det = self.trajectories[ti], detections[dj]
            if features is None:
                update_trajectory_feature(traj, det, detections, cfg.integration, self.model.lstm)
            else:
                traj.integrated_feature = features[k]
            traj.last_box = det.box
            traj.last_seen_frame = frame
            traj.frames_lost = 0
            traj.forecast_stopped = False
            b = det.box
            rows.append(TrackRow(frame, traj.id, b.x, b.y, b.w, b.h, det.confidence))

        spawn = [dj for dj in unmatched_d if detections[dj].confidence >= cfg.spawn_confidence]
        spawn_means, spawn_covs = kf_init_batch(det_boxes[spawn])
        spawned = []
        for dj, mean, cov in zip(spawn, spawn_means, spawn_covs):
            det = detections[dj]
            traj = Trajectory(
                id=self.next_id,
                integrated_feature=det.feature.copy(),
                last_box=det.box,
                last_seen_frame=frame,
                motion=KalmanState(mean, cov),
            )
            self.next_id += 1
            spawned.append(traj)
            b = det.box
            rows.append(TrackRow(frame, traj.id, b.x, b.y, b.w, b.h, det.confidence))

        ctx = FrameContext(cfg.image_size, frame, getattr(self.feature_source, "feature_at", None))
        pruned = set()
        for ti in unmatched_t:
            traj = self.trajectories[ti]
            traj.frames_lost += 1
            if traj.frames_lost > cfg.lost_frame_limit:
                pruned.add(ti)
                continue
            if not cfg.emit_forecasts or traj.forecast_stopped:
                continue
            if cfg.forecast_constraints:
                decision = forecast_lost(traj, ctx, cfg.theta_app, self._verifier)
            else:
                decision = ForecastDecision(True, state_to_box(traj.motion))
            if decision.keep:
                b = decision.box
                rows.append(TrackRow(frame, traj.id, b.x, b.y, b.w, b.h, 1.0))
            else:
                traj.forecast_stopped = True

        if pruned or spawned:
            keep = np.ones(len(self.trajectories), dtype=bool)
            keep[list(pruned)] = False
            self.trajectories = [t for t, kept in zip(self.trajectories, keep) if kept] + spawned
            self._means = np.concatenate([self._means[keep], spawn_means])
            self._covs = np.concatenate([self._covs[keep], spawn_covs])
        rows.sort(key=lambda r: r.track_id)
        return rows

    def _associate(self, frame, detections):
        cfg = self.config
        graph = None
        if self.trajectories and detections:
            graph = build_graph(
                self.trajectories,
                detections,
                k_neighbors=cfg.k_neighbors,
                ratio_variant=cfg.ratio_variant,
                alpha=cfg.resolved_alpha(),
                fps=cfg.fps,
                traj_boxes=boxes_from_means(self._means),
            )
        if graph is None:
            self.stats.append(StepStats(frame, 0, 0, 0.0))
            return None, ([], list(range(len(self.trajectories))), list(range(len(detections))))
        scores = score_graph(self.model, graph)
        if cfg.matching == "hungarian":
            result = hungarian_match(
                graph.edge_traj, graph.edge_det, scores, cfg.tau,
                len(self.trajectories), len(detections),
            )
        else:
            result = greedy_match(
                graph.edge_traj, graph.edge_det, scores, cfg.tau,
                traj_ids=[t.id for t in self.trajectories],
                n_traj=len(self.trajectories), n_det=len(detections),
            )
        self.stats.append(StepStats(frame, graph.n_candidates, graph.n_edges, 0.0))
        return graph, result


def reference_run_sequence(frames, model, config, feature_source=None):
    """tracker.run_sequence over a ReferenceTracker; returns the tracker too."""
    tracker = ReferenceTracker(model, config, feature_source)
    rows = []
    numbers = sorted(frames)
    frame = numbers[0] if numbers else None
    while frame is not None:
        rows.extend(tracker.step(frame, list(frames.get(frame, []))))
        if tracker.trajectories:
            frame = frame + 1 if frame < numbers[-1] else None
        else:
            later = bisect.bisect_right(numbers, frame)
            frame = numbers[later] if later < len(numbers) else None
    return rows, tracker.stats, tracker


def reference_read_detections(det_path, feature_path):
    """The detection file joined with its features one row at a time.

    After the join, a feature line that no detection used is an error
    naming its line, as read_detections reports it.
    """
    rows = read_track_rows(det_path)
    feats = read_features(feature_path)
    frames = {}
    indices = {}
    for row in rows:
        det_index = indices.get(row.frame, 0)
        indices[row.frame] = det_index + 1
        key = (row.frame, det_index)
        if key not in feats:
            raise ValueError(f"missing feature for frame {row.frame} detection {det_index}")
        conf = min(max(row.conf, 0.0), 1.0)
        det = Detection(row.frame, BoundingBox(row.x, row.y, row.w, row.h), conf, feats[key])
        frames.setdefault(row.frame, []).append(det)
    used = {(f, j) for f, n in indices.items() for j in range(n)}
    with open(feature_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            frame, det_index = (int(float(v)) for v in line.split(",")[:2])
            if (frame, det_index) not in used:
                raise ValueError(
                    f"{feature_path}:{lineno}: feature for frame {frame} detection "
                    f"{det_index} names no detection in {det_path}"
                )
    return frames
