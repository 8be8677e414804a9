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

The tracker keeps its trajectories, Kalman means and covariances included,
as one core.Trajectories block of columns with rows in id order (a
covariance is its four per-coordinate 2x2 blocks; see motion), takes
a frame's detections as one core.Detections block (empty for a frame
without detections) and returns the frame's output as one motio.TrackRows
block in the same row order, spawns last: every stage of a step works on
arrays. Rows start and absorb their matches through integration.start and
integration.absorb, the rule that teacher forcing uses too, and the tracker
keeps only the latest step's StepStats.
"""

from __future__ import annotations

import bisect
import logging
import time
from dataclasses import dataclass

import numpy as np

from .core import Detections, Trajectories
from .fields import check_bool, check_choice, check_count, check_pair, check_real
from .graph import DEFAULT_ALPHA, RATIO_VARIANTS, build_graph
from .integration import INTEGRATION_MODES, absorb, start
from .motion import FrameContext, boxes_from_means, forecast_gates, kf_predict_batch
from .motio import TrackRows
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
    image_size: tuple[int, int] = (1920, 1080)

    def __post_init__(self):
        check_real("tau", self.tau, 0.0, 1.0)
        check_choice("ratio_variant", self.ratio_variant, RATIO_VARIANTS)
        if self.resolved_alpha() is not None:
            check_real("alpha", self.resolved_alpha(), 0.0, 1.0)
        check_count("k_neighbors", self.k_neighbors, 1)
        check_choice("integration", self.integration, INTEGRATION_MODES)
        check_count("lost_frame_limit", self.lost_frame_limit, 0)
        check_real("fps", self.fps, 0.0)
        check_real("spawn_confidence", self.spawn_confidence, 0.0, 1.0, "[]")
        check_bool("emit_forecasts", self.emit_forecasts)
        check_bool("forecast_constraints", self.forecast_constraints)
        check_real("theta_app", self.theta_app, 0.0, ends="[)")
        # The forecast gates measure boxes against the image: any other size
        # would stop every forecast silently.
        check_pair("image_size", self.image_size)

    def resolved_alpha(self) -> float | None:
        if self.ratio_variant == "none":
            return None
        return DEFAULT_ALPHA[self.ratio_variant] if self.alpha is None else self.alpha


def greedy_match(
    edge_traj, edge_det, scores, tau: float, n_traj: int, n_det: int
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """Rank edges with score >= tau from high to low and accept greedily.

    Each of the n_traj trajectories and n_det detections is used at most
    once. Ties are broken toward the lower trajectory index, then the
    lower detection index, which makes the result independent of edge
    storage order (the tracker's rows are in id order, so that is the
    lower id). Returns the (trajectory, detection) index pairs of the
    matches, then the unmatched trajectory and detection indices as
    ascending arrays.
    """
    edge_traj = np.asarray(edge_traj, dtype=np.intp)
    edge_det = np.asarray(edge_det, dtype=np.intp)
    scores = np.asarray(scores, dtype=np.float64)
    keep = scores >= tau
    order = np.lexsort((edge_det[keep], edge_traj[keep], -scores[keep]))
    taken_traj = np.zeros(n_traj, dtype=bool)
    taken_det = np.zeros(n_det, dtype=bool)
    matches: list[tuple[int, int]] = []
    for i, j in zip(edge_traj[keep][order].tolist(), edge_det[keep][order].tolist()):
        if taken_traj[i] or taken_det[j]:
            continue
        taken_traj[i] = True
        taken_det[j] = True
        matches.append((i, j))
    return matches, np.flatnonzero(~taken_traj), np.flatnonzero(~taken_det)


@dataclass
class StepStats:
    frame: int
    n_candidates: int
    n_edges: int
    assoc_seconds: float


class Tracker:
    """Stateful per-sequence tracker; one instance per sequence.

    feature_source, when given, provides the appearance gate of the
    forecast constraints (motion.FrameContext.features_at, asked once per
    frame); without it that gate is skipped.
    """

    def __init__(self, model: MpnModel, config: TrackerConfig, feature_source=None):
        self.model = model
        self.config = config
        self.feature_source = feature_source
        # No trajectories yet; LSTM states are kept in "lstm" integration only.
        self._tracks = Trajectories(
            [], [], [], [], [], [], lstm_states=[] if config.integration == "lstm" else None
        )
        self.next_id = 1
        self.last_frame: int | None = None
        self.last_stats: StepStats | None = None  # of the latest step
        self._appearance_gate_noted = False

    @property
    def trajectories(self) -> Trajectories:
        """The live trajectories, one row each in id order. Read-only: an
        item is a Trajectory snapshot of its row."""
        return self._tracks

    def step(self, frame: int, detections: Detections) -> TrackRows:
        """Advance one frame; returns this frame's output rows, by track id.

        detections is the frame's block, empty when it has none.
        """
        cfg = self.config
        if self.last_frame is not None and frame <= self.last_frame:
            raise ValueError(
                f"frames must be strictly increasing: {frame} after {self.last_frame}"
            )
        if detections and detections.frame != frame:
            raise ValueError("detections from a different frame passed to step")
        self.last_frame = frame
        tracks = self._tracks
        if tracks:
            tracks.means, tracks.covs = kf_predict_batch(tracks.means, tracks.covs)
        predicted = boxes_from_means(tracks.means)  # one box per row

        matches, unmatched_t, unmatched_d = self._associate(frame, detections, predicted)
        matched_t, matched_d = np.array(matches, dtype=np.intp).reshape(-1, 2).T
        if matches:
            absorb(tracks, matched_t, detections, matched_d, frame, cfg.integration,
                   lstm_cell=self.model.lstm)
        # Each row's output: its match's box and confidence, or its forecast
        # box at confidence 1. A copy: the graph holds predicted.
        boxes, confidences = predicted.copy(), np.ones(len(tracks))
        boxes[matched_t] = detections.boxes[matched_d]
        confidences[matched_t] = detections.confidences[matched_d]
        emit = np.zeros(len(tracks), dtype=bool)
        emit[matched_t] = True
        alive = self._lose(frame, unmatched_t, predicted, emit)

        spawn = unmatched_d[detections.confidences[unmatched_d] >= cfg.spawn_confidence]
        spawn_ids = np.arange(self.next_id, self.next_id + spawn.size, dtype=np.int64)
        self.next_id += spawn.size
        # Rows are in id order, and spawned ids come after every live one.
        rows = TrackRows.trusted(
            np.full(np.count_nonzero(emit) + spawn.size, frame, dtype=np.int64),
            np.concatenate([tracks.ids[emit], spawn_ids]),
            np.concatenate([boxes[emit], detections.boxes[spawn]]),
            np.concatenate([confidences[emit], detections.confidences[spawn]]),
        )
        survivors = tracks if alive.all() else tracks.take(np.flatnonzero(alive))
        if spawn.size:
            survivors = survivors.concat(
                start(spawn_ids, detections, spawn, frame, tracks.lstm_states is not None)
            )
        self._tracks = survivors
        return rows

    def _lose(self, frame, lost, predicted, emit):
        """Unmatched rows lose one more frame. Returns the alive mask, false
        on the rows past the lost-frame limit, to prune, and marks in emit the
        other lost rows whose predicted boxes pass the gates (all of them
        without constraints), to forecast; a row whose forecast is rejected
        stops forecasting."""
        cfg, tracks = self.config, self._tracks
        tracks.frames_lost[lost] += 1
        alive = tracks.frames_lost <= cfg.lost_frame_limit  # matched rows are at 0
        forecast = lost[alive[lost] & ~tracks.forecast_stopped[lost]]
        if not cfg.emit_forecasts or not forecast.size:
            return alive
        if cfg.forecast_constraints:
            features_at = getattr(self.feature_source, "features_at", None)
            stops, checked = forecast_gates(
                predicted[forecast], tracks.last_boxes[forecast], tracks.features[forecast],
                FrameContext(cfg.image_size, frame, features_at), cfg.theta_app,
            )
            keep = stops == 0
            if not self._appearance_gate_noted and (keep & ~checked).any():
                logger.info("no appearance source: forecast appearance gate skipped")
                self._appearance_gate_noted = True
            tracks.forecast_stopped[forecast[~keep]] = True
            forecast = forecast[keep]
        emit[forecast] = True
        return alive

    def _associate(self, frame, detections, predicted):
        """Build, score and resolve the frame's graph on the rows' predicted
        boxes; records the step's stats as last_stats. Returns (matches,
        unmatched trajectories, unmatched detections).
        """
        cfg, tracks = self.config, self._tracks
        t_start = time.perf_counter()
        graph = None
        if tracks and detections:
            graph = build_graph(
                tracks,
                detections,
                k_neighbors=cfg.k_neighbors,
                ratio_variant=cfg.ratio_variant,
                alpha=cfg.resolved_alpha(),
                fps=cfg.fps,
                traj_boxes=predicted,
            )
        if graph is None:
            self.last_stats = StepStats(frame, 0, 0, time.perf_counter() - t_start)
            return [], np.arange(len(tracks)), np.arange(len(detections))
        scores = score_graph(self.model, graph)
        result = greedy_match(
            graph.edge_traj, graph.edge_det, scores, cfg.tau, len(tracks), len(detections)
        )
        self.last_stats = StepStats(
            frame, graph.n_candidates, graph.n_edges, time.perf_counter() - t_start
        )
        return result


def run_sequence(
    frames: dict[int, Detections],
    model: MpnModel,
    config: TrackerConfig,
    feature_source=None,
) -> tuple[TrackRows, list[StepStats]]:
    """Fold Tracker.step over the full frame range; deterministic. Returns
    the output rows of every frame as one block, and the step stats.

    Frames missing from the dict (every detection dropped) are processed
    as empty blocks so lost-frame counting and motion prediction stay in real
    frame time. While no trajectory is alive an empty frame changes
    nothing, so the run skips ahead to the next frame with detections.
    """
    tracker = Tracker(model, config, feature_source)
    rows: list[TrackRows] = []
    stats: list[StepStats] = []
    numbers = sorted(frames)
    frame = numbers[0] if numbers else None
    while frame is not None:
        detections = frames[frame] if frame in frames else Detections.of([], frame)
        rows.append(tracker.step(frame, detections))
        stats.append(tracker.last_stats)
        if tracker.trajectories:
            frame = frame + 1 if frame < numbers[-1] else None
        else:
            later = bisect.bisect_right(numbers, frame)
            frame = numbers[later] if later < len(numbers) else None
    return TrackRows.concat(rows), stats
