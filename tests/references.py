"""Per-object reference implementations of the columnar tracker, the reader,
the metrics and the ratio-test analysis.

ReferenceTracker is the tracker step as it was written before the tracker
kept its trajectories as columns: one Trajectory record and one
KalmanState per live track, forecast gates through reference_forecast_lost
one trajectory at a time, with the scalar visible_fraction and
default_verifier and the appearance source asked for one box at a time,
and features integrated one trajectory at a time through
reference_integrate, each as the package computed them before it gated
and integrated rows. reference_feature_at is the scene feature source's
lookup of one box, a loop over the frame's ground-truth boxes.
reference_read_detections joins the two files row by row into Detection
records.
reference_format_track_row formats one TrackRow with an f-string.
reference_ratio_analysis walks a dict of live identities, each filtered
by the single-state Kalman functions, and ratio-tests every trajectory at
every alpha through conclusive_pick. reference_teacher_force teacher-forces
one training sample with a frame walk of its own, as training did before
one walk served every sample of a sequence, along the (index in frame,
detection) lists of window_tracks. reference_clear_mot and reference_idf1
are the metrics as they were written over lists of TrackRow records,
regrouped per frame with one IoU matrix per frame. The tests require the
columnar and batched code to agree with them byte for byte.

oracle_kf_init_batch, oracle_kf_predict_batch and oracle_kf_update_batch
are the Kalman filter on full (M, 8, 8) covariances with a Cholesky and
two solves per update, as motion ran it before it kept per-coordinate
(M, 3, 4) blocks; blocks_to_matrices expands blocks to compare with them.
masked_sigmoid is nn.sigmoid as it was written with boolean masks.

reference_train_model is mpn.train_model as it ran before a batch's graphs
were joined into disjoint unions: one forward and one backward per training
graph, the gradients summed graph by graph. reference_training_union is
mpn.training_union as training built its unions before they were built in
one pass: build_training_graph per sample, then join of the graphs.

concatenated_forward and concatenated_backward are the network's training
pass as it ran before training differentiated the projected rounds: every
round runs edge_update on the per-edge concatenation [t, d, h] and
node_update on [t, h'] and [d, h'], and the backward reverses those MLPs
row by row with np.add.at sums back to the nodes. The tests require
mpn_backward's gradients to agree with them to rounding.
"""

from __future__ import annotations

import bisect

import numpy as np
from scipy.optimize import linear_sum_assignment

from graphmot import kernels, mpn
from graphmot.core import (
    BoundingBox,
    Detection,
    Detections,
    Trajectories,
    Trajectory,
    feature_distance,
    frame_overlaps,
    iou,
)
from graphmot.graph import AssocGraph, _check_alpha, build_graph
from graphmot.metrics import ClearMotResult, FrameDetail, RatioAnalysisReport
from graphmot.motio import TrackRow, _parse_track_line, read_features
from graphmot.motion import (
    _MIN_SIZE,
    DEFAULT_KALMAN,
    INIT_VEL_STD,
    STOP_APPEARANCE,
    STOP_OUT_OF_VIEW,
    STOP_VERIFIER,
    ForecastDecision,
    FrameContext,
    KalmanState,
    _height,
    _measurements,
    boxes_from_means,
    default_verifier_rows,
    kf_init,
    kf_init_batch,
    kf_predict_batch,
    kf_update,
    kf_update_batch,
    state_to_box,
)
from graphmot.mpn import TeacherForced, _LstmChain, score_graph
from graphmot.nn import AdamOptimizer, sigmoid, weighted_bce
from graphmot.tracker import StepStats, greedy_match


_EYE4 = np.eye(4)
_EYE8 = np.eye(8)
_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8)


def blocks_to_matrices(covs: np.ndarray) -> np.ndarray:
    """(M, 3, 4) covariance blocks -> the (M, 8, 8) covariances they stand
    for: position variances p on the first four diagonal entries, velocity
    variances v on the last four, covariances c at (k, k + 4) and (k + 4, k)."""
    full = np.zeros((len(covs), 8, 8))
    k = np.arange(4)
    p, c, v = covs.swapaxes(0, 1)
    full[:, k, k], full[:, k, k + 4], full[:, k + 4, k], full[:, k + 4, k + 4] = p, c, c, v
    return full


def oracle_kf_init_batch(boxes, params=DEFAULT_KALMAN):
    """kf_init_batch on (N, 8, 8) covariances, as motion computed it before
    it kept per-coordinate blocks."""
    means = np.zeros((len(boxes), 8))
    means[:, :4] = _measurements(boxes)
    weights = np.array([2 * params.meas_weight] * 4 + [INIT_VEL_STD] * 4)
    stds = weights * means[:, 3:4]
    return means, stds[:, :, None] ** 2 * _EYE8


def oracle_kf_predict_batch(means, covs, params=DEFAULT_KALMAN):
    """kf_predict_batch on (M, 8, 8) covariances: F P F^T + Q."""
    weights = np.array([params.pos_weight] * 4 + [params.vel_weight] * 4)
    q = weights * _height(means)
    cov = _F @ covs @ _F.T + q[:, :, None] ** 2 * _EYE8
    return means @ _F.T, 0.5 * (cov + cov.swapaxes(1, 2))


def oracle_kf_update_batch(means, covs, boxes, params=DEFAULT_KALMAN):
    """kf_update_batch on (M, 8, 8) covariances: Cholesky of the innovation
    covariance, the gain by two triangular solves and the Joseph form.
    Raises ValueError where the Cholesky refuses."""
    r = np.float_power(params.meas_weight * _height(means), 2)[:, :, None] * _EYE4
    innovation = _measurements(boxes) - means[:, :4]
    s = covs[:, :4, :4] + r
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise ValueError("innovation covariance is not positive definite") from exc
    pht = covs[:, :, :4]
    k = np.linalg.solve(chol.swapaxes(1, 2), np.linalg.solve(chol, pht.swapaxes(1, 2)))
    k = k.swapaxes(1, 2)
    mean = means + (k @ innovation[:, :, None])[:, :, 0]
    ikh = _EYE8 - k @ _H
    cov = ikh @ covs @ ikh.swapaxes(1, 2) + k @ r @ k.swapaxes(1, 2)
    mean[:, 2:4] = np.maximum(mean[:, 2:4], _MIN_SIZE)
    return mean, 0.5 * (cov + cov.swapaxes(1, 2))


def masked_sigmoid(x):
    """nn.sigmoid as it was written with boolean masks: 1 / (1 + e^-x) where
    x >= 0 and e^x / (1 + e^x) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_integrate(mode, f_prev, f_new, overlap=None, cell=None, state=None):
    """One integration step of one trajectory, as integration computed it
    before the batched rule, with np.linalg.norm of the single vector:
    (feature, lstm state, lstm step cache). The modes other than "lstm"
    pass the state through and have no cache."""
    cache = None
    if mode == "none":
        return f_new.copy(), state, None
    if mode == "average":
        blended = 0.5 * (f_prev + f_new)
    elif mode == "iou":
        if overlap is None or not 0.0 <= overlap <= 1.0:
            raise ValueError(f"iou integration needs an overlap in [0, 1], got {overlap}")
        if overlap == 1.0:
            return f_prev.copy(), state, None
        blended = 0.5 * (f_prev * (1.0 + overlap) + f_new * (1.0 - overlap))
    elif mode == "lstm":
        blended, state, cache = cell.step(cell.init_state() if state is None else state, f_new)
    else:
        raise ValueError(f"unknown integration mode {mode!r}")
    norm = float(np.linalg.norm(blended))
    if norm < 1e-12:
        return f_new.copy(), state, cache
    return blended / norm, state, cache


def visible_fraction(box: BoundingBox, image_size) -> float:
    """Fraction of the box area inside the image."""
    width, height = image_size
    ix = min(box.x + box.w, width) - max(box.x, 0.0)
    iy = min(box.y + box.h, height) - max(box.y, 0.0)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    return (ix * iy) / box.area


def default_verifier(box: BoundingBox, last_box: BoundingBox, image_size) -> bool:
    """Rejects boxes that touch the image border band (2% of the smaller
    image side) or whose area changed by more than 50% since the last
    observation."""
    width, height = image_size
    band = 0.02 * min(width, height)
    if box.x < band or box.y < band:
        return False
    if box.x + box.w > width - band or box.y + box.h > height - band:
        return False
    return abs(box.area - last_box.area) <= 0.5 * last_box.area


def keep_all(boxes, last_boxes, image_size):
    """A row verifier that accepts every box."""
    return np.ones(len(boxes), dtype=bool)


def stop_all(boxes, last_boxes, image_size):
    """A row verifier that rejects every box."""
    return np.zeros(len(boxes), dtype=bool)


# Verifiers the gate tests pass to forecast_gates, by name: (the verifier
# of one box, (box, last_box, image_size) -> bool, and its row form).
VERIFIERS = {
    "default": (default_verifier, default_verifier_rows),
    "always_keep": (lambda box, last_box, image_size: True, keep_all),
    "always_stop": (lambda box, last_box, image_size: False, stop_all),
}


def reference_feature_at(scene, frame: int, box: BoundingBox):
    """The anchor of the ground-truth target whose box best overlaps box
    (IoU >= 0.1; the later row of the frame on a tie), or None when
    nothing is there: the scene feature source's lookup of one box."""
    best, best_id = 0.1, None
    for r in np.flatnonzero(scene.gt_rows.frames == frame).tolist():
        row = scene.gt_rows[r]
        v = iou(box, BoundingBox(row.x, row.y, row.w, row.h))
        if v >= best:
            best, best_id = v, row.track_id
    if best_id is None:
        return None
    return scene.anchors[best_id - 1]


def reference_forecast_lost(traj, ctx, theta_app=0.6, verifier=default_verifier) -> ForecastDecision:
    """The gates of one lost trajectory's predicted box, strictly in the
    order out-of-view, verifier, appearance; the first failing gate
    determines the stop reason."""
    if traj.is_active:
        raise ValueError("forecast_lost expects a lost trajectory")
    box = state_to_box(traj.motion)
    if visible_fraction(box, ctx.image_size) < 0.5:
        return ForecastDecision(False, None, STOP_OUT_OF_VIEW)
    if not verifier(box, traj.last_box, ctx.image_size):
        return ForecastDecision(False, None, STOP_VERIFIER)
    checked = False
    if ctx.features_at is not None:
        (feature,), (found,) = ctx.features_at(ctx.frame, box.as_xywh()[None])
        if found:
            checked = True
            if feature_distance(traj.integrated_feature, feature) > theta_app:
                return ForecastDecision(False, None, STOP_APPEARANCE)
    return ForecastDecision(True, box, None, appearance_checked=checked)


def reference_format_track_row(row: TrackRow) -> str:
    return (
        f"{row.frame},{row.track_id},{row.x:.2f},{row.y:.2f},"
        f"{row.w:.2f},{row.h:.2f},{row.conf:.2f},-1,-1,-1"
    )


def box_array(detections) -> np.ndarray:
    """(N, 4) xywh boxes of Detection records."""
    boxes = [(d.box.x, d.box.y, d.box.w, d.box.h) for d in detections]
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


class ReferenceTracker:
    """Tracker with a list of Trajectory records; same rows, same stats."""

    def __init__(self, model, config, feature_source=None):
        self.model = model
        self.config = config
        self.feature_source = feature_source
        self.trajectories: list[Trajectory] = []
        self._means = np.zeros((0, 8))
        self._covs = np.zeros((0, 3, 4))
        self.next_id = 1
        self.last_frame = None
        self.stats: list[StepStats] = []

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
        if matches:
            matched_t, matched_d = np.array(matches).T
            self._means[matched_t], self._covs[matched_t] = kf_update_batch(
                self._means[matched_t], self._covs[matched_t], det_boxes[matched_d]
            )
            overlaps = frame_overlaps(Detections.of(detections, frame))
        for traj, mean, cov in zip(self.trajectories, self._means, self._covs):
            traj.motion = KalmanState(mean, cov)

        rows = []
        for ti, dj in matches:
            traj, det = self.trajectories[ti], detections[dj]
            traj.integrated_feature, traj.lstm_state, _ = reference_integrate(
                cfg.integration, traj.integrated_feature, det.feature, float(overlaps[dj]),
                self.model.lstm, traj.lstm_state,
            )
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

        ctx = FrameContext(cfg.image_size, frame, getattr(self.feature_source, "features_at", None))
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
                decision = reference_forecast_lost(traj, ctx, cfg.theta_app)
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
                Trajectories.of(self.trajectories),
                Detections.of(detections, frame),
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
        # The records are in id order: their indices break ties like ids.
        result = greedy_match(
            graph.edge_traj, graph.edge_det, scores, cfg.tau, len(self.trajectories), len(detections)
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
    with open(det_path) as fh:
        rows = [TrackRow(*_parse_track_line(str(det_path), lineno, line))
                for lineno, line in enumerate(fh, start=1) if line.strip()]
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


def rows_by_frame(rows) -> dict[int, list[TrackRow]]:
    frames: dict[int, list[TrackRow]] = {}
    for row in rows:
        frames.setdefault(row.frame, []).append(row)
    return frames


def _boxes(rows) -> np.ndarray:
    return np.array([[r.x, r.y, r.w, r.h] for r in rows], dtype=np.float64)


def reference_clear_mot(gt_rows, hyp_rows, iou_threshold: float = 0.5) -> ClearMotResult:
    """metrics.clear_mot over lists of TrackRow, one IoU matrix per frame."""
    gt_frames = rows_by_frame(gt_rows)
    hyp_frames = rows_by_frame(hyp_rows)
    all_frames = sorted(set(gt_frames) | set(hyp_frames))
    correspondence: dict[int, int] = {}  # gt id -> hyp id, previous frame
    last_hyp: dict[int, int] = {}  # gt id -> last matched hyp id, any frame
    fp = fn = ids = 0
    details: list[FrameDetail] = []
    for frame in all_frames:
        gts = gt_frames.get(frame, [])
        hyps = hyp_frames.get(frame, [])
        gt_ids = [r.track_id for r in gts]
        hyp_ids = [r.track_id for r in hyps]
        overlap = (
            kernels.iou_matrix(_boxes(gts), _boxes(hyps))
            if gts and hyps
            else np.zeros((len(gts), len(hyps)))
        )
        matched_g: set[int] = set()
        matched_h: set[int] = set()
        matches: list[tuple[int, int]] = []
        # Persist surviving correspondences first.
        for gi, gid in enumerate(gt_ids):
            hid = correspondence.get(gid)
            if hid is None or hid not in hyp_ids:
                continue
            hi = hyp_ids.index(hid)
            if hi in matched_h or overlap[gi, hi] < iou_threshold:
                continue
            matched_g.add(gi)
            matched_h.add(hi)
            matches.append((gid, hid))
        free_g = [gi for gi in range(len(gts)) if gi not in matched_g]
        free_h = [hi for hi in range(len(hyps)) if hi not in matched_h]
        if free_g and free_h:
            sub = overlap[np.ix_(free_g, free_h)]
            rows_idx, cols_idx = linear_sum_assignment(sub, maximize=True)
            for r, c in zip(rows_idx, cols_idx):
                if sub[r, c] < iou_threshold:
                    continue
                gi, hi = free_g[r], free_h[c]
                matched_g.add(gi)
                matched_h.add(hi)
                matches.append((gt_ids[gi], hyp_ids[hi]))
        frame_ids = 0
        for gid, hid in matches:
            if gid in last_hyp and last_hyp[gid] != hid:
                frame_ids += 1
            last_hyp[gid] = hid
        frame_fp = len(hyps) - len(matched_h)
        frame_fn = len(gts) - len(matched_g)
        fp += frame_fp
        fn += frame_fn
        ids += frame_ids
        correspondence = dict(matches)
        details.append(FrameDetail(frame, matches, frame_fp, frame_fn, frame_ids))
    n_gt = len(gt_rows)
    mota = 1.0 - (fp + fn + ids) / n_gt if n_gt else 0.0
    return ClearMotResult(mota, fp, fn, ids, n_gt, details)


def reference_idf1(gt_rows, hyp_rows, iou_threshold: float = 0.5) -> float:
    """metrics.idf1 over lists of TrackRow, the co-occurrences counted pair
    by pair in a double loop."""
    gt_frames, hyp_frames = rows_by_frame(gt_rows), rows_by_frame(hyp_rows)
    gt_index = {g: i for i, g in enumerate(sorted({r.track_id for r in gt_rows}))}
    hyp_index = {h: i for i, h in enumerate(sorted({r.track_id for r in hyp_rows}))}
    co_frames = np.zeros((len(gt_index), len(hyp_index)))
    for frame in set(gt_frames) & set(hyp_frames):
        gts, hyps = gt_frames[frame], hyp_frames[frame]
        overlap = kernels.iou_matrix(_boxes(gts), _boxes(hyps))
        for gi, grow in enumerate(gts):
            for hi, hrow in enumerate(hyps):
                if overlap[gi, hi] >= iou_threshold:
                    co_frames[gt_index[grow.track_id], hyp_index[hrow.track_id]] += 1
    idtp = 0.0
    if co_frames.size:
        rows_idx, cols_idx = linear_sum_assignment(co_frames, maximize=True)
        idtp = float(co_frames[rows_idx, cols_idx].sum())
    denom = 2 * idtp + (len(hyp_rows) - idtp) + (len(gt_rows) - idtp)
    return 2 * idtp / denom if denom else 0.0


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
            detections = seq.get(frame) or Detections.of([], frame)
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
                st["feature"], _, _ = reference_integrate(
                    integration, st["feature"], det.feature,
                    None if overlaps is None else float(overlaps[j]),
                )
                st["last_frame"] = frame
    return RatioAnalysisReport(variant, alphas, true_c, false_c, inconclusive_c, n_decisions)



def _sample_walk(frames, events, last_frame, integration, lstm_cell=None):
    """One sample's frame walk: every identity of events (frame -> (identity,
    index in frame, detection) list) started at its first event, predicted
    through every frame number and updated at each of its events, in one
    batch per frame, up to and including the prediction to last_frame."""
    state = Trajectories([], [], [], [], [], [])
    row: dict[int, int] = {}
    lstm_states: list = []
    lstm_caches: list[list] = []
    frame = min((f for f in events if f <= last_frame), default=last_frame)
    while True:
        if len(state):
            state.means, state.covs = kf_predict_batch(state.means, state.covs)
        if frame >= last_frame:
            return state, lstm_caches
        started: list[tuple[int, Detection]] = []
        passes: list[list[tuple[int, int, Detection]]] = []
        updates_here: dict[int, int] = {}
        for gid, j, det in events.get(frame, ()):
            r = row.get(gid)
            if r is None:
                row[gid] = len(row)
                started.append((gid, det))
                continue
            k = updates_here.get(r, 0)
            updates_here[r] = k + 1
            if k == len(passes):
                passes.append([])
            passes[k].append((r, j, det))
        if started:
            boxes = box_array([det for _, det in started])
            means, covs = kf_init_batch(boxes)
            state = state.concat(Trajectories(
                [gid for gid, _ in started], [det.feature for _, det in started], boxes,
                [frame] * len(started), means, covs,
            ))
            lstm_states += [None] * len(started)
            lstm_caches += [[] for _ in started]
        for batch in passes:
            rows = np.array([r for r, _, _ in batch])
            boxes = box_array([det for _, _, det in batch])
            state.means[rows], state.covs[rows] = kf_update_batch(
                state.means[rows], state.covs[rows], boxes
            )
            overlaps = frame_overlaps(frames[frame], [j for _, j, _ in batch])
            for (r, _, det), overlap in zip(batch, overlaps.tolist()):
                state.features[r], lstm_states[r], cache = reference_integrate(
                    integration, state.features[r], det.feature, overlap, lstm_cell, lstm_states[r]
                )
                if cache is not None:
                    lstm_caches[r].append(cache)
            state.last_boxes[rows] = boxes
            state.last_seen[rows] = frame
        frame += 1


def window_tracks(frames, target_frame, window_frames):
    """Labeled detections of the window before target_frame, as (index in
    frame, detection) lists per identity, identities in first-seen order."""
    tracks: dict[int, list[tuple[int, Detection]]] = {}
    for f in window_frames:
        if f >= target_frame:
            continue
        for j, det in enumerate(frames.get(f, [])):
            if det.gt_id is not None:
                tracks.setdefault(det.gt_id, []).append((j, det))
    return tracks


def reference_teacher_force(frames, target_frame, tracks, integration, lstm_cell=None):
    """One sample of mpn.teacher_force_samples with a walk of its own:
    tracks maps each identity to its (index in frame, detection) list
    (window_tracks)."""
    events: dict[int, list[tuple[int, int, Detection]]] = {}
    for gid, observations in tracks.items():
        for j, det in observations:
            events.setdefault(det.frame, []).append((gid, j, det))
    state, lstm_caches = _sample_walk(frames, events, target_frame, integration, lstm_cell)
    order = np.argsort(state.ids, kind="stable")
    trajectories = state.take(order)
    trajectories.frames_lost = target_frame - trajectories.last_seen - 1
    boxes = boxes_from_means(trajectories.means)
    chains = {}
    for k, r in enumerate(order.tolist()):
        caches = lstm_caches[r]
        if caches:
            h_norm = float(np.linalg.norm(caches[-1].c_tanh * caches[-1].o))
            chains[k] = _LstmChain(caches, h_norm, trajectories.features[k])
    return TeacherForced(list(tracks), trajectories, boxes, chains)


def reference_train_model(model, sequences, cfg, *, integration="average", **graph_kw):
    """mpn.train_model with a forward and a backward per training graph.
    graph_kw are build_training_graph's k_neighbors, ratio_variant, alpha
    and fps. Returns (loss, edge accuracy) per epoch."""
    samples, teachers, _ = mpn._training_samples(sequences, cfg, integration)
    rng = np.random.default_rng(cfg.seed)
    optimizer = AdamOptimizer(model.param_arrays())
    optimizer.step_count = model.step_count
    history = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        order = rng.permutation(len(samples))
        losses, correct, seen = [], 0, 0
        for start in range(0, len(order), cfg.batch_graphs):
            batch = []
            for oi in order[start : start + cfg.batch_graphs]:
                si, t, window = samples[oi]
                tg = mpn.build_training_graph(
                    sequences[si], t, window, model, integration=integration, rng=rng,
                    node_dropout=cfg.node_dropout, box_jitter=cfg.box_jitter,
                    teacher=teachers[oi], **graph_kw,
                )
                if tg is not None:
                    batch.append(tg)
            if not batch:
                continue
            total_edges = sum(tg.labels.size for tg in batch)
            omega = mpn._positive_weight(np.concatenate([tg.labels for tg in batch]), cfg)
            grads_total = [np.zeros_like(p) for p in model.param_arrays()]
            batch_loss = 0.0
            for tg in batch:
                probs, state = mpn.mpn_forward(model, tg.graph)
                edge_losses, dp = weighted_bce(probs, tg.labels, omega)
                dlogits = dp * probs * (1.0 - probs) / total_edges
                flat, d_traj_feats = mpn.mpn_backward(model, state, dlogits)
                mpn._backprop_lstm_chains(model, tg.lstm_chains, d_traj_feats, flat)
                for g_total, g in zip(grads_total, flat):
                    g_total += g
                batch_loss += float(edge_losses.sum())
                correct += int(((probs >= 0.5) == (tg.labels > 0.5)).sum())
                seen += tg.labels.size
            optimizer.step(grads_total, lr)
            losses.append(batch_loss / total_edges)
        model.step_count = optimizer.step_count
        history.append((float(np.mean(losses)) if losses else np.nan, correct / seen if seen else np.nan))
    return history


def join(graphs):
    """The training graph of the disjoint union of training graphs: node and
    edge rows stacked in order, each edge's node indices offset by the rows
    of the graphs before its own, labels stacked and LSTM chains re-keyed
    to their offset trajectory rows. mpn.training_union builds this union
    in one pass."""
    traj_rows = np.cumsum([0] + [len(tg.graph.traj_features) for tg in graphs])
    det_rows = np.cumsum([0] + [len(tg.graph.det_features) for tg in graphs])
    union = AssocGraph(
        np.concatenate([tg.graph.traj_boxes for tg in graphs]),
        np.concatenate([tg.graph.edge_traj + t for tg, t in zip(graphs, traj_rows)]),
        np.concatenate([tg.graph.edge_det + d for tg, d in zip(graphs, det_rows)]),
        edge_features=np.concatenate([tg.graph.edge_features for tg in graphs]),
        traj_features=np.concatenate([tg.graph.traj_features for tg in graphs]),
        det_features=np.concatenate([tg.graph.det_features for tg in graphs]),
    )
    chains = {int(t) + row: chain for tg, t in zip(graphs, traj_rows)
              for row, chain in tg.lstm_chains.items()}
    return mpn._TrainGraph(union, np.concatenate([tg.labels for tg in graphs]), chains)


def reference_training_union(samples, model, **kwargs):
    """mpn.training_union as a loop: build_training_graph of each sample,
    drawing from the same rng, and join of their graphs. Returns (union or
    None, the graphs)."""
    graphs = []
    for frames, target_frame, window_frames, teacher in samples:
        tg = mpn.build_training_graph(frames, target_frame, window_frames, model,
                                      teacher=teacher, **kwargs)
        if tg is not None:
            graphs.append(tg)
    return (join(graphs) if graphs else None), graphs


def concatenated_forward(model, graph):
    """(probabilities, caches) of the training forward pass on the
    concatenated MLP inputs, on an AssocGraph or a union of them."""
    ti, dj = graph.edge_traj, graph.edge_det
    t, t_cache = model.node_encoder.forward(graph.traj_features)
    d, d_cache = model.node_encoder.forward(graph.det_features)
    h, h_cache = model.edge_encoder.forward(graph.edge_features)
    t_plan = mpn.ScatterPlan.of(ti, len(t), t.shape[1])
    d_plan = mpn.ScatterPlan.of(dj, len(d), d.shape[1])
    rounds = []
    for _ in range(model.rounds):
        h, e_cache = model.edge_update.forward(np.concatenate([t[ti], d[dj], h], axis=1))
        x_msg, x_cache = model.node_update.forward(np.concatenate([t[ti], h], axis=1))
        y_msg, y_cache = model.node_update.forward(np.concatenate([d[dj], h], axis=1))
        t = mpn._aggregate(x_msg, t_plan, t, model.aggregation)
        d = mpn._aggregate(y_msg, d_plan, d, model.aggregation)
        rounds.append((e_cache, x_cache, y_cache))
    logits, c_cache = model.classifier.forward(h)
    return sigmoid(logits[:, 0]), (graph, (t_cache, d_cache, h_cache), t_plan, d_plan, rounds,
                                   c_cache)


def concatenated_backward(model, caches, dlogits):
    """(parameter gradients in model.param_arrays() order, trajectory
    feature gradients) of concatenated_forward's pass."""
    graph, (t_cache, d_cache, h_cache), t_plan, d_plan, rounds, c_cache = caches
    ti, dj = graph.edge_traj, graph.edge_det
    dn = model.node_encoder.out_dim
    grads = {name: comp.zero_grads() for name, comp in model.components()}

    def add(name, more):
        for g, m in zip(grads[name], more):
            g += m

    d_edge, more = model.classifier.backward(c_cache, dlogits[:, None])
    add("classifier", more)
    d_traj = np.zeros((len(t_plan.empty), dn))
    d_det = np.zeros((len(d_plan.empty), dn))
    for e_cache, x_cache, y_cache in reversed(rounds):
        scales = []
        for grad, plan in ((d_traj, t_plan), (d_det, d_plan)):
            if model.aggregation == "mean":
                grad = grad / plan.denominators
            scales.append(np.where(plan.empty, 0.0, grad))
        gx, more = model.node_update.backward(x_cache, scales[0][ti])
        add("node_update", more)
        gy, more = model.node_update.backward(y_cache, scales[1][dj])
        add("node_update", more)
        ge, more = model.edge_update.backward(e_cache, d_edge + gx[:, dn:] + gy[:, dn:])
        add("edge_update", more)
        t_prev, d_prev = np.zeros_like(d_traj), np.zeros_like(d_det)
        np.add.at(t_prev, ti, gx[:, :dn] + ge[:, :dn])
        np.add.at(d_prev, dj, gy[:, :dn] + ge[:, dn : 2 * dn])
        np.copyto(t_prev, d_traj, where=t_plan.empty)
        np.copyto(d_prev, d_det, where=d_plan.empty)
        d_traj, d_det, d_edge = t_prev, d_prev, ge[:, 2 * dn :]
    d_traj_feats, more = model.node_encoder.backward(t_cache, d_traj)
    add("node_encoder", more)
    add("node_encoder", model.node_encoder.backward(d_cache, d_det)[1])
    add("edge_encoder", model.edge_encoder.backward(h_cache, d_edge)[1])
    return [g for name, _ in model.components() for g in grads[name]], d_traj_feats
