"""CLEAR-MOT metrics (MOTA, FP, FN, IDS), IDF1, and the ratio-test
true/false/inconclusive analysis.

CLEAR correspondence per frame: matches carried over from the previous
frame persist while both boxes are present and still overlap at or above
the threshold; the remaining boxes are paired by optimal assignment
maximizing total IoU (pairs below the threshold are discarded). Unmatched
hypotheses count as FP, unmatched ground truth as FN, and a matched
ground-truth identity whose hypothesis id differs from its last one
counts an identity switch. MOTA = 1 - (FP + FN + IDS) / total gt boxes.

IDF1 maps ground-truth identities to hypothesis identities one-to-one,
globally, maximizing the number of frames where the mapped pair overlaps
at or above the threshold (IDTP); IDF1 = 2 IDTP / (2 IDTP + IDFP + IDFN).

The ratio analysis walks the labeled detections with training's
teacher-forcing walk (mpn.ground_truth_walk) and tests each frame's
trajectories with the tracker's own candidate edges, distances and
ratio-test runs (graph.candidate_runs), deciding every alpha at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import kernels
from .core import Detection, as_detections
from .graph import AssocGraph, _check_alpha, candidate_edges, candidate_runs, edge_distances
from .integration import BATCHED_MODES
from .motio import TrackRow, rows_by_frame
from .motion import boxes_from_means
from .mpn import ground_truth_walk


@dataclass
class FrameDetail:
    frame: int
    matches: list[tuple[int, int]]  # (gt id, hyp id)
    fp: int
    fn: int
    ids: int


@dataclass
class ClearMotResult:
    mota: float
    fp: int
    fn: int
    ids: int
    n_gt: int
    frames: list[FrameDetail] = field(default_factory=list)


def _boxes(rows: list[TrackRow]) -> np.ndarray:
    return np.array([[r.x, r.y, r.w, r.h] for r in rows], dtype=np.float64)


def clear_mot(
    gt_rows: list[TrackRow],
    hyp_rows: list[TrackRow],
    iou_threshold: float = 0.5,
) -> ClearMotResult:
    """CLEAR-MOT over parsed track rows (see module docstring)."""
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


def idf1(
    gt_rows: list[TrackRow],
    hyp_rows: list[TrackRow],
    iou_threshold: float = 0.5,
) -> float:
    """Identity F1 under the globally optimal one-to-one identity mapping."""
    gt_frames = rows_by_frame(gt_rows)
    hyp_frames = rows_by_frame(hyp_rows)
    gt_ids = sorted({r.track_id for r in gt_rows})
    hyp_ids = sorted({r.track_id for r in hyp_rows})
    gt_index = {g: i for i, g in enumerate(gt_ids)}
    hyp_index = {h: i for i, h in enumerate(hyp_ids)}
    # co_frames[g, h]: frames where gt identity g and hypothesis h overlap
    # at or above the threshold, counted from each frame's thresholded pairs.
    co_frames = np.zeros((len(gt_ids), len(hyp_ids)))
    pair_g, pair_h = [], []
    for frame in set(gt_frames) & set(hyp_frames):
        gts = gt_frames[frame]
        hyps = hyp_frames[frame]
        overlap = kernels.iou_matrix(_boxes(gts), _boxes(hyps))
        gi, hi = np.nonzero(overlap >= iou_threshold)
        pair_g.append(np.array([gt_index[r.track_id] for r in gts])[gi])
        pair_h.append(np.array([hyp_index[r.track_id] for r in hyps])[hi])
    if pair_g:
        np.add.at(co_frames, (np.concatenate(pair_g), np.concatenate(pair_h)), 1.0)
    idtp = 0.0
    if co_frames.size:
        rows_idx, cols_idx = linear_sum_assignment(co_frames, maximize=True)
        idtp = float(co_frames[rows_idx, cols_idx].sum())
    idfn = len(gt_rows) - idtp
    idfp = len(hyp_rows) - idtp
    denom = 2 * idtp + idfp + idfn
    return 2 * idtp / denom if denom else 0.0


# ---------------------------------------------------------------------------
# Ratio-test analysis


@dataclass
class RatioAnalysisReport:
    """True/false/inconclusive counts per alpha.

    Only trajectories with at least two candidate edges enter the counts
    (the ratio is undefined otherwise); n_decisions is that population,
    identical for every alpha: T + F + I = n_decisions.
    """

    variant: str
    alphas: tuple[float, ...]
    true_counts: dict[float, int]
    false_counts: dict[float, int]
    inconclusive_counts: dict[float, int]
    n_decisions: int


def ratio_analysis(
    sequences: list[dict[int, list[Detection]]],
    variant: str,
    alphas,
    *,
    k_neighbors: int = 20,
    integration: str = "average",
    lost_frame_limit: int = 80,
) -> RatioAnalysisReport:
    """Replay the ratio test over teacher-forced ground-truth trajectories.

    Trajectories follow their labeled detections along mpn.ground_truth_walk
    (features integrated per `integration`, motion via the Kalman filter,
    predicted through every frame number, with or without detections,
    while last seen at most lost_frame_limit frames before); at each
    frame, the live trajectories and the frame's detections get the
    tracker's candidate edges and distances, and every trajectory with
    >= 2 candidate edges is ratio-tested at each alpha and scored
    true/false by whether the kept edge connects its own identity.
    """
    if variant not in ("iou", "app"):
        raise ValueError(f"ratio analysis needs variant 'iou' or 'app', got {variant!r}")
    if integration not in BATCHED_MODES:
        raise ValueError(f"unsupported integration {integration!r} here")
    alphas = tuple(alphas)
    for a in alphas:
        _check_alpha(a)
    repeated = next((a for k, a in enumerate(alphas) if a in alphas[:k]), None)
    if repeated is not None:
        raise ValueError(f"alpha {repeated} is given more than once")
    grid = np.array(alphas, dtype=np.float64)
    true_c = np.zeros(grid.size, dtype=np.int64)
    false_c = np.zeros_like(true_c)
    inconclusive_c = np.zeros_like(true_c)
    n_decisions = 0
    for seq in sequences:
        events = {}
        for frame, detections in seq.items():
            labeled = [(d.gt_id, j, d) for j, d in enumerate(detections) if d.gt_id is not None]
            if labeled:
                events[frame] = labeled
        walk = ground_truth_walk(
            seq, events, max(seq, default=0), integration, lost_frame_limit=lost_frame_limit
        )
        for frame, live, state, _ in walk:
            if not live.size or not seq.get(frame):
                continue
            trajectories = state.take(live)
            detections = as_detections(seq[frame])
            edge_traj, edge_det, boxes = candidate_edges(
                trajectories, detections, k_neighbors, boxes_from_means(trajectories.means)
            )
            graph = AssocGraph(trajectories, detections, boxes, edge_traj, edge_det)
            dist = edge_distances(graph, variant)
            order, _, best = candidate_runs(edge_traj, dist)
            dist = dist[order]
            conclusive = dist[best, None] < grid * dist[best + 1, None]  # (decisions, alphas)
            winner = order[best]
            gt_ids = detections.gt_ids or (None,) * len(detections)
            own = np.array(
                [gt_ids[j] == g for j, g in zip(edge_det[winner].tolist(),
                                                trajectories.ids[edge_traj[winner]].tolist())],
                dtype=bool,
            )
            n_decisions += best.size
            true_c += (conclusive & own[:, None]).sum(axis=0)
            false_c += (conclusive & ~own[:, None]).sum(axis=0)
            inconclusive_c += (~conclusive).sum(axis=0)
    return RatioAnalysisReport(
        variant,
        alphas,
        dict(zip(alphas, true_c.tolist())),
        dict(zip(alphas, false_c.tolist())),
        dict(zip(alphas, inconclusive_c.tolist())),
        n_decisions,
    )


def render_ratio_report(reports: list[RatioAnalysisReport]) -> str:
    """Table with one T/F/I block per variant, columns per alpha.

    Counts cover trajectories with >= 2 candidate edges; single-candidate
    trajectories are excluded from all three rows.
    """
    if not reports:
        return "(no ratio reports)\n"
    alphas = reports[0].alphas
    lines = [
        "# ratio test decisions (trajectories with >= 2 candidate edges only)",
        "variant  stat  " + "  ".join(f"a={a:g}" for a in alphas),
    ]
    for rep in reports:
        for stat, counts in (
            ("T", rep.true_counts),
            ("F", rep.false_counts),
            ("I", rep.inconclusive_counts),
        ):
            cells = "  ".join(f"{counts[a]:>6d}" for a in alphas)
            lines.append(f"{rep.variant:<7s}  {stat:<4s}  {cells}")
    return "\n".join(lines) + "\n"
