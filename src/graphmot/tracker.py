"""Online inference: per-frame graph scoring, thresholded ranked greedy
matching, trajectory lifecycle, and forecasting hand-off.

Each frame: advance every trajectory's motion state, build the sparse
association graph against the frame's detections, score its edges with the
network, and resolve matches greedily from the highest score down (edges
below the threshold are discarded; each trajectory and each detection can
be used once). Matched trajectories absorb their detection; unmatched
detections above a confidence floor spawn new identities; unmatched
trajectories turn lost and, while within the lost-frame limit, emit gated
forecast boxes and keep participating in future graphs at their predicted
position.
"""

from __future__ import annotations

import bisect
import logging
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Detection, Trajectory, box_array, frame_overlaps
from .graph import DEFAULT_ALPHA, RATIO_VARIANTS, build_graph
from .integration import (
    BATCHED_MODES,
    INTEGRATION_MODES,
    integrate_rows,
    update_trajectory_feature,
)
from .motion import (
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
from .motio import TrackRow
from .mpn import MpnModel, score_graph

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrackerConfig:
    tau: float = 0.5  # edge score threshold
    ratio_variant: str = "app"
    alpha: float | None = None  # None: per-variant default
    k_neighbors: int = 20
    integration: str = "iou"
    lost_frame_limit: int = 80
    fps: float = 30.0
    spawn_confidence: float = 0.4
    emit_forecasts: bool = True
    forecast_constraints: bool = True
    theta_app: float = 0.6
    verifier: str = "default"
    image_size: tuple[int, int] = (1920, 1080)
    matching: str = "greedy"  # "hungarian" kept for ablation comparison

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.ratio_variant not in RATIO_VARIANTS:
            raise ValueError(f"unknown ratio variant {self.ratio_variant!r}")
        if self.integration not in INTEGRATION_MODES:
            raise ValueError(f"unknown integration mode {self.integration!r}")
        if self.matching not in ("greedy", "hungarian"):
            raise ValueError(f"unknown matching mode {self.matching!r}")

    def resolved_alpha(self) -> float | None:
        if self.ratio_variant == "none":
            return None
        return DEFAULT_ALPHA[self.ratio_variant] if self.alpha is None else self.alpha


def greedy_match(
    edge_traj,
    edge_det,
    scores,
    tau: float,
    traj_ids=None,
    n_traj: int | None = None,
    n_det: int | None = None,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Rank edges with score >= tau from high to low and accept greedily.

    Each trajectory and each detection is used at most once. Ties are
    broken toward the lower trajectory id, then the lower detection index,
    which makes the result independent of edge storage order. Returns
    (matches, unmatched_traj, unmatched_det) over index ranges n_traj /
    n_det (inferred from the edges when omitted).
    """
    edge_traj = np.asarray(edge_traj, dtype=np.intp)
    edge_det = np.asarray(edge_det, dtype=np.intp)
    scores = np.asarray(scores, dtype=np.float64)
    if n_traj is None:
        n_traj = int(edge_traj.max()) + 1 if edge_traj.size else 0
    if n_det is None:
        n_det = int(edge_det.max()) + 1 if edge_det.size else 0
    ids = edge_traj if traj_ids is None else np.asarray(traj_ids)[edge_traj]
    keep = scores >= tau
    order = np.lexsort((edge_det[keep], ids[keep], -scores[keep]))
    kept_traj = edge_traj[keep][order]
    kept_det = edge_det[keep][order]
    taken_traj = np.zeros(n_traj, dtype=bool)
    taken_det = np.zeros(n_det, dtype=bool)
    matches: list[tuple[int, int]] = []
    for i, j in zip(kept_traj, kept_det):
        if taken_traj[i] or taken_det[j]:
            continue
        taken_traj[i] = True
        taken_det[j] = True
        matches.append((int(i), int(j)))
    unmatched_traj = [i for i in range(n_traj) if not taken_traj[i]]
    unmatched_det = [j for j in range(n_det) if not taken_det[j]]
    return matches, unmatched_traj, unmatched_det


def hungarian_match(edge_traj, edge_det, scores, tau, n_traj, n_det):
    """Optimal assignment alternative to greedy_match (ablation only)."""
    score_mat = np.zeros((n_traj, n_det))
    score_mat[np.asarray(edge_traj, dtype=np.intp), np.asarray(edge_det, dtype=np.intp)] = scores
    rows, cols = linear_sum_assignment(score_mat, maximize=True)
    matches = [(int(i), int(j)) for i, j in zip(rows, cols) if score_mat[i, j] >= tau]
    matched_t = {i for i, _ in matches}
    matched_d = {j for _, j in matches}
    return (
        matches,
        [i for i in range(n_traj) if i not in matched_t],
        [j for j in range(n_det) if j not in matched_d],
    )


@dataclass
class StepStats:
    frame: int
    n_candidates: int
    n_edges: int
    assoc_seconds: float


class Tracker:
    """Stateful per-sequence tracker; one instance per sequence.

    feature_source, when given, provides the appearance gate of the
    forecast constraints (feature_at(frame, box) -> vector or None);
    without it that gate is skipped.
    """

    def __init__(self, model: MpnModel, config: TrackerConfig, feature_source=None):
        self.model = model
        self.config = config
        self.feature_source = feature_source
        self.trajectories: list[Trajectory] = []
        # Kalman means (M, 8) and covariances (M, 8, 8) of self.trajectories,
        # row for row, filtered for all of them at once; every step then
        # points each trajectory's `motion` at its rows.
        self._means = np.zeros((0, 8))
        self._covs = np.zeros((0, 8, 8))
        self.next_id = 1
        self.last_frame: int | None = None
        self.stats: list[StepStats] = []
        self._verifier = make_verifier(config.verifier)
        self._appearance_gate_noted = False

    def step(self, frame: int, detections: list[Detection]) -> list[TrackRow]:
        """Advance one frame; returns this frame's output rows."""
        cfg = self.config
        if self.last_frame is not None and frame <= self.last_frame:
            raise ValueError(
                f"frames must be strictly increasing: {frame} after {self.last_frame}"
            )
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

        rows: list[TrackRow] = []
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
            traj.history.append((frame, det.box))
            b = det.box
            rows.append(TrackRow(frame, traj.id, b.x, b.y, b.w, b.h, det.confidence))

        spawn = [dj for dj in unmatched_d if detections[dj].confidence >= cfg.spawn_confidence]
        spawn_means, spawn_covs = kf_init_batch(det_boxes[spawn])
        spawned: list[Trajectory] = []
        for dj, mean, cov in zip(spawn, spawn_means, spawn_covs):
            det = detections[dj]
            traj = Trajectory(
                id=self.next_id,
                integrated_feature=det.feature.copy(),
                last_box=det.box,
                last_seen_frame=frame,
                motion=KalmanState(mean, cov),
                history=[(frame, det.box)],
            )
            self.next_id += 1
            spawned.append(traj)
            b = det.box
            rows.append(TrackRow(frame, traj.id, b.x, b.y, b.w, b.h, det.confidence))

        ctx = FrameContext(cfg.image_size, frame, getattr(self.feature_source, "feature_at", None))
        pruned: set[int] = set()
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
                if (decision.keep and not decision.appearance_checked
                        and not self._appearance_gate_noted):
                    logger.info("no appearance source: forecast appearance gate skipped")
                    self._appearance_gate_noted = True
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
        """Build, score and resolve the frame's graph; records step stats.

        Returns the graph (None when one side is empty) and
        (matches, unmatched trajectories, unmatched detections).
        """
        cfg = self.config
        t_start = time.perf_counter()
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
            self.stats.append(StepStats(frame, 0, 0, time.perf_counter() - t_start))
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
        self.stats.append(
            StepStats(frame, graph.n_candidates, graph.n_edges, time.perf_counter() - t_start)
        )
        return graph, result


def run_sequence(
    frames: dict[int, list[Detection]],
    model: MpnModel,
    config: TrackerConfig,
    feature_source=None,
) -> tuple[list[TrackRow], list[StepStats]]:
    """Fold Tracker.step over the full frame range; deterministic.

    Frames missing from the dict (every detection dropped) are processed
    as empty so lost-frame counting and motion prediction stay in real
    frame time. While no trajectory is alive an empty frame changes
    nothing, so the run skips ahead to the next frame with detections.
    """
    tracker = Tracker(model, config, feature_source)
    rows: list[TrackRow] = []
    numbers = sorted(frames)
    frame = numbers[0] if numbers else None
    while frame is not None:
        rows.extend(tracker.step(frame, frames.get(frame, [])))
        if tracker.trajectories:
            frame = frame + 1 if frame < numbers[-1] else None
        else:
            later = bisect.bisect_right(numbers, frame)
            frame = numbers[later] if later < len(numbers) else None
    return rows, tracker.stats
