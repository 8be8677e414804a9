"""Per-object reference implementations of the columnar tracker, the reader
and the ratio-test analysis.

ReferenceTracker is the tracker step as it was written before the tracker
kept its trajectories as columns: one Trajectory record and one
KalmanState per live track, forecast gates through motion.forecast_lost
one trajectory at a time, and features integrated through
integration.update_trajectory_feature in "lstm" mode. reference_read_detections
joins the two files row by row into Detection records.
reference_ratio_analysis walks a dict of live identities, each filtered
by the single-state Kalman functions, and ratio-tests every trajectory at
every alpha through conclusive_pick. The tests require the columnar code
to agree with them byte for byte.
"""

from __future__ import annotations

import bisect

import numpy as np

from graphmot import kernels
from graphmot.core import BoundingBox, Detection, Trajectory, box_array, frame_overlaps, iou
from graphmot.graph import _check_alpha, build_graph
from graphmot.integration import BATCHED_MODES, integrate, integrate_rows, update_trajectory_feature
from graphmot.metrics import RatioAnalysisReport
from graphmot.motio import TrackRow, read_features, read_track_rows
from graphmot.motion import (
    ForecastDecision,
    FrameContext,
    KalmanState,
    boxes_from_means,
    forecast_lost,
    kf_init,
    kf_init_batch,
    kf_predict_batch,
    kf_update,
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


def max_overlap(target: Detection, others: list[Detection]) -> float:
    """Largest IoU the target box has with any of the other detections.

    Returns 0 for an empty list. The caller is responsible for excluding
    the target itself from `others`.
    """
    best = 0.0
    for other in others:
        v = iou(target.box, other.box)
        if v > best:
            best = v
    return best


def conclusive_pick(dists: np.ndarray, alpha: float) -> int | None:
    """Ratio-test one trajectory's candidate distances.

    Returns the index of the winning candidate when the smallest distance
    is strictly below alpha times the second smallest, None otherwise
    (including the single-candidate case, where the ratio is undefined).
    """
    _check_alpha(alpha)
    if dists.size < 2:
        return None
    order = np.argsort(dists, kind="stable")
    if dists[order[0]] < alpha * dists[order[1]]:
        return int(order[0])
    return None


def _frames_to_walk(seq: dict, tracks: dict[int, dict], lost_frame_limit: int):
    """Every frame number from the first to the last of seq, so that the
    Kalman states predict through frames without detections, like the
    tracker's; frames where no identity is live (tracks, read as the walk
    goes) change nothing and are skipped."""
    numbers = sorted(seq)
    frame = numbers[0] if numbers else None
    while frame is not None:
        yield frame
        newest = max((st["last_frame"] for st in tracks.values()), default=None)
        if frame >= numbers[-1]:
            frame = None
        elif newest is not None and frame + 1 - newest <= lost_frame_limit:
            frame += 1
        else:
            frame = numbers[bisect.bisect_right(numbers, frame)]


def reference_ratio_analysis(
    sequences: list[dict[int, list[Detection]]],
    variant: str,
    alphas,
    *,
    k_neighbors: int = 20,
    integration: str = "average",
    lost_frame_limit: int = 80,
) -> RatioAnalysisReport:
    """metrics.ratio_analysis with a dict of live identities, its own
    per-column candidate sort and one conclusive_pick per trajectory and
    alpha."""
    if variant not in ("iou", "app"):
        raise ValueError(f"ratio analysis needs variant 'iou' or 'app', got {variant!r}")
    if integration not in ("none", "average", "iou"):
        raise ValueError(f"unsupported integration {integration!r} here")
    alphas = tuple(alphas)
    true_c = {a: 0 for a in alphas}
    false_c = {a: 0 for a in alphas}
    inconclusive_c = {a: 0 for a in alphas}
    n_decisions = 0
    for seq in sequences:
        tracks: dict[int, dict] = {}  # identity -> state
        for frame in _frames_to_walk(seq, tracks, lost_frame_limit):
            detections = seq.get(frame, [])
            live = {
                gid: st
                for gid, st in tracks.items()
                if frame - st["last_frame"] <= lost_frame_limit
            }
            order = sorted(live)
            if order:
                means, covs = kf_predict_batch(
                    np.array([live[g]["kf"].mean for g in order]),
                    np.array([live[g]["kf"].cov for g in order]),
                )
                for g, mean, cov in zip(order, means, covs):
                    live[g]["kf"] = KalmanState(mean, cov)
            if detections and live:
                boxes = boxes_from_means(means)
                det_boxes = np.array([d.box.as_xywh() for d in detections])
                centers = kernels.center_dist_matrix(boxes, det_boxes)
                if variant == "iou":
                    dist_all = 1.0 - kernels.iou_matrix(boxes, det_boxes)
                else:
                    feats = np.array([live[g]["feature"] for g in order])
                    det_feats = np.array([d.feature for d in detections])
                    dist_all = kernels.feature_dist_matrix(feats, det_feats)
                take = min(k_neighbors, len(order))
                incident: dict[int, list[int]] = {g: [] for g in order}
                for j in range(len(detections)):
                    nearest = np.argsort(centers[:, j], kind="stable")[:take]
                    for ti in nearest:
                        incident[order[int(ti)]].append(j)
                for ti, gid in enumerate(order):
                    dets_j = incident[gid]
                    if len(dets_j) < 2:
                        continue
                    n_decisions += 1
                    dists = dist_all[ti, dets_j]
                    for a in alphas:
                        pick = conclusive_pick(dists, a)
                        if pick is None:
                            inconclusive_c[a] += 1
                        elif detections[dets_j[pick]].gt_id == gid:
                            true_c[a] += 1
                        else:
                            false_c[a] += 1
            overlaps = frame_overlaps(detections) if integration == "iou" else None
            for j, det in enumerate(detections):
                if det.gt_id is None:
                    continue
                st = tracks.get(det.gt_id)
                if st is None:
                    tracks[det.gt_id] = {
                        "feature": det.feature.copy(),
                        "kf": kf_init(det.box),
                        "last_frame": frame,
                    }
                    continue
                st["kf"] = kf_update(st["kf"], det.box)
                st["feature"], _, _ = integrate(
                    integration, st["feature"], det.feature,
                    overlap=None if overlaps is None else float(overlaps[j]),
                )
                st["last_frame"] = frame
    return RatioAnalysisReport(variant, alphas, true_c, false_c, inconclusive_c, n_decisions)

