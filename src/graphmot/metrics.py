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

Both read two motio.TrackRows blocks of columns, neither with a (frame, id)
twice, and refuse a threshold outside (0, 1]. One kernels.iou_pairs pass
finds every same-frame (gt, hyp) row pair at or above the threshold. IDF1
counts those pairs per identity pair in one np.add.at. The CLEAR walk tests
persistence against them, and runs the optimal assignment, on the IoU
matrix of the unmatched rows, only in a frame where a pair of two
unmatched rows is left: the sub-threshold overlaps in that matrix still
steer the assignment.

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
from .core import Detections
from .graph import (
    AssocGraph,
    _check_alpha,
    _check_k,
    candidate_edges,
    candidate_runs,
    edge_distances,
)
from .integration import BATCHED_MODES
from .motio import TrackRows
from .motion import boxes_from_means
from .mpn import ground_truth_walk, labelled_pairs


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


def clear_mot(
    gt_rows: TrackRows,
    hyp_rows: TrackRows,
    iou_threshold: float = 0.5,
) -> ClearMotResult:
    """CLEAR-MOT over two blocks of track rows (see module docstring)."""
    pair_g, pair_h, _ = kernels.iou_pairs(
        gt_rows.frames, gt_rows.boxes, hyp_rows.frames, hyp_rows.boxes, iou_threshold
    )
    frames = np.union1d(gt_rows.frames, hyp_rows.frames)
    gt_starts, gt_ends = gt_rows.frame_bounds(frames)
    hyp_starts, hyp_ends = hyp_rows.frame_bounds(frames)
    # Pairs are ordered by gt row, so a frame's pairs follow the last frame's.
    pair_ends = np.searchsorted(pair_g, gt_ends)
    pair_gid, pair_hid = gt_rows.ids[pair_g].tolist(), hyp_rows.ids[pair_h].tolist()
    pair_g, pair_h = pair_g.tolist(), pair_h.tolist()
    gt_ids, hyp_ids = gt_rows.ids.tolist(), hyp_rows.ids.tolist()
    correspondence: dict[int, int] = {}  # gt id -> hyp id, previous frame
    last_hyp: dict[int, int] = {}  # gt id -> last matched hyp id, any frame
    fp = fn = ids = 0
    details: list[FrameDetail] = []
    first = 0
    for frame, g0, g1, h0, h1, stop in zip(
        *(column.tolist() for column in (frames, gt_starts, gt_ends, hyp_starts, hyp_ends, pair_ends))
    ):
        pairs = range(first, stop)  # the frame's pairs at or above the threshold
        first = stop
        # Surviving correspondences persist first. Ids are unique within a
        # frame, so at most one pair of a gt row carries its last hyp id,
        # and a persisting match is no switch.
        kept = [k for k in pairs if correspondence.get(pair_gid[k]) == pair_hid[k]]
        matches = [(pair_gid[k], pair_hid[k]) for k in kept]
        frame_ids = 0
        if len(kept) < len(pairs):
            matched_g = {pair_g[k] for k in kept}
            matched_h = {pair_h[k] for k in kept}
            # The assignment can only add a match where a free pair is left.
            if any(pair_g[k] not in matched_g and pair_h[k] not in matched_h for k in pairs):
                free_g = [g for g in range(g0, g1) if g not in matched_g]
                free_h = [h for h in range(h0, h1) if h not in matched_h]
                sub = kernels.iou_matrix(gt_rows.boxes[free_g], hyp_rows.boxes[free_h])
                rows_idx, cols_idx = linear_sum_assignment(sub, maximize=True)
                for r, c in zip(rows_idx.tolist(), cols_idx.tolist()):
                    if sub[r, c] >= iou_threshold:
                        gid, hid = gt_ids[free_g[r]], hyp_ids[free_h[c]]
                        matches.append((gid, hid))
                        frame_ids += last_hyp.get(gid, hid) != hid
                        last_hyp[gid] = hid
        frame_fp = h1 - h0 - len(matches)
        frame_fn = g1 - g0 - len(matches)
        fp += frame_fp
        fn += frame_fn
        ids += frame_ids
        correspondence = dict(matches)
        details.append(FrameDetail(frame, matches, frame_fp, frame_fn, frame_ids))
    n_gt = len(gt_rows)
    mota = 1.0 - (fp + fn + ids) / n_gt if n_gt else 0.0
    return ClearMotResult(mota, fp, fn, ids, n_gt, details)


def idf1(
    gt_rows: TrackRows,
    hyp_rows: TrackRows,
    iou_threshold: float = 0.5,
) -> float:
    """Identity F1 under the globally optimal one-to-one identity mapping."""
    pair_g, pair_h, _ = kernels.iou_pairs(
        gt_rows.frames, gt_rows.boxes, hyp_rows.frames, hyp_rows.boxes, iou_threshold
    )
    gt_ids, gt_index = np.unique(gt_rows.ids, return_inverse=True)
    hyp_ids, hyp_index = np.unique(hyp_rows.ids, return_inverse=True)
    # co_frames[g, h]: frames where gt identity g and hypothesis h overlap
    # at or above the threshold; ids are unique within a frame, so each
    # pair is one such frame.
    co_frames = np.zeros((len(gt_ids), len(hyp_ids)))
    np.add.at(co_frames, (gt_index[pair_g], hyp_index[pair_h]), 1.0)
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
    sequences: list[dict[int, Detections]],
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
    _check_k(k_neighbors)
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
        last = max(seq, default=0)
        events = {frame: {last: pairs} for frame, pairs in labelled_pairs(seq).items()}
        walk = ground_truth_walk(seq, events, integration, lost_frame_limit=lost_frame_limit)
        for frame, live, state, _, _ in walk:
            if not live.size or not seq.get(frame):
                continue
            trajectories = state.take(live)
            detections = seq[frame]
            edge_traj, edge_det, boxes = candidate_edges(
                trajectories, detections, k_neighbors, boxes_from_means(trajectories.means)
            )
            graph = AssocGraph.of(trajectories, detections, boxes, edge_traj, edge_det)
            dist = edge_distances(graph, variant)
            order, _, best = candidate_runs(edge_traj, dist)
            dist = dist[order]
            conclusive = dist[best, None] < grid * dist[best + 1, None]  # (decisions, alphas)
            winner = order[best]
            own = detections.labelled_as(edge_det[winner], trajectories.ids[edge_traj[winner]])
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
