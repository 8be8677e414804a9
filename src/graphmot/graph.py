"""Per-frame association graph: candidate edge generation, distance ratio
test, and initial edge feature encoding.

The graph is directed and bipartite, always trajectory -> detection. Each
detection proposes edges to its K nearest trajectories by center distance;
the ratio test then makes a per-trajectory call: when the closest candidate
is decisively closer than the runner-up (min < alpha * second), that edge
becomes the trajectory's only connection and the rest are dropped.
Trajectories with a single candidate, or with an indecisive margin, keep
all their edges. Distances come in two flavors: "iou" (1 - IoU against the
trajectory's motion-predicted box) and "app" (appearance feature distance).

Every stage reads columns: the trajectories as a core.Trajectories block and
the detections as a core.Detections block (lists of records are turned into
blocks once, on the way in), so the tracker and the trainer share one builder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .core import Detections, Trajectories, as_detections, as_trajectories

RATIO_VARIANTS = ("none", "iou", "app")
DEFAULT_ALPHA = {"iou": 0.1, "app": 0.3}
EDGE_FEATURE_DIM = 6


@dataclass
class AssocGraph:
    """Bipartite trajectory/detection graph with per-edge data.

    trajectories (M rows) and detections (N rows) are column blocks; lists
    of records are turned into blocks. edge_traj / edge_det are parallel
    index arrays into their rows. traj_boxes are the (M, 4) xywh boxes
    used for all geometry (the tracker passes motion-predicted boxes; lost
    targets are represented by their forecast position, not the stale
    last observation). traj_features (M, d) and det_features (N, d) are
    the blocks' features unless given, for the distances, the edge
    features and the network's node encoder.
    """

    trajectories: Trajectories
    detections: Detections
    traj_boxes: np.ndarray
    edge_traj: np.ndarray
    edge_det: np.ndarray
    edge_dist: np.ndarray | None = None
    edge_features: np.ndarray | None = None
    n_candidates: int = 0
    traj_features: np.ndarray | None = None
    det_features: np.ndarray | None = None

    def __post_init__(self):
        self.trajectories = as_trajectories(self.trajectories)
        self.detections = as_detections(self.detections)
        if self.traj_features is None:
            self.traj_features = self.trajectories.features
        if self.det_features is None:
            self.det_features = self.detections.features

    @property
    def n_edges(self) -> int:
        return int(self.edge_traj.size)


def candidate_edges(
    trajectories: Trajectories,
    detections: Detections,
    k: int,
    traj_boxes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K nearest trajectories per detection, by center distance.

    Ties are broken toward the lower trajectory id, then the lower row.
    traj_boxes default to the trajectories' last boxes. Returns
    (edge_traj, edge_det, traj_boxes); both index arrays are empty when
    either side is empty.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    trajectories, detections = as_trajectories(trajectories), as_detections(detections)
    if traj_boxes is None:
        traj_boxes = trajectories.last_boxes
    if not trajectories or not detections:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty.copy(), traj_boxes
    dist = kernels.center_dist_matrix(traj_boxes, detections.boxes)  # (M, N)
    # One stable sort by distance breaks ties by row, which is id order for
    # rows sorted by id (the tracker's and the trainer's); other callers'
    # rows are put in id order first.
    ids = trajectories.ids
    rank = np.argsort(ids, kind="stable") if (ids[1:] < ids[:-1]).any() else None
    if rank is not None:
        dist = dist[rank]
    take = min(k, len(trajectories))
    nearest = np.argsort(dist, axis=0, kind="stable")[:take]  # (take, N), one column per detection
    if rank is not None:
        nearest = rank[nearest]
    edge_det = np.repeat(np.arange(len(detections), dtype=np.intp), take)
    return nearest.T.ravel(), edge_det, traj_boxes


def edge_distances(graph: AssocGraph, variant: str) -> np.ndarray:
    """Per-edge distance under the chosen ratio-test variant."""
    if variant == "iou":
        overlap = kernels.iou_matrix(graph.traj_boxes, graph.detections.boxes)
        return 1.0 - overlap[graph.edge_traj, graph.edge_det]
    if variant == "app":
        dist = kernels.feature_dist_matrix(graph.traj_features, graph.det_features)
        return dist[graph.edge_traj, graph.edge_det]
    raise ValueError(f"no distances for variant {variant!r}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def candidate_runs(edge_traj: np.ndarray, edge_dist: np.ndarray):
    """Each trajectory's candidate edges as one run, nearest first.

    One stable sort by (trajectory, distance) lays the runs out, ties in
    edge order. Returns (order, first, best): order sorts the edges into
    runs, first marks the first sorted edge of each run, and best holds
    the sorted positions of the first edges of the runs with a runner-up,
    which sits at best + 1. A run is conclusive at alpha when its first
    distance is strictly below alpha times its runner-up's.
    """
    order = np.lexsort((edge_dist, edge_traj))
    traj = edge_traj[order]
    first = np.ones(traj.size, dtype=bool)
    first[1:] = traj[1:] != traj[:-1]
    best = np.flatnonzero(first[:-1] & ~first[1:])
    return order, first, best


def ratio_test_filter(graph: AssocGraph, alpha: float) -> AssocGraph:
    """Drop every non-winning edge of each conclusive trajectory.

    Requires graph.edge_dist. Idempotent: conclusive trajectories are left
    with one edge, which the single-candidate rule then never touches.
    """
    if graph.edge_dist is None:
        raise ValueError("graph has no edge distances; compute them first")
    _check_alpha(alpha)
    order, first, best = candidate_runs(graph.edge_traj, graph.edge_dist)
    dist = graph.edge_dist[order]
    run = np.cumsum(first) - 1  # run of every sorted edge
    conclusive = np.zeros(np.count_nonzero(first), dtype=bool)
    conclusive[run[best]] = dist[best] < alpha * dist[best + 1]
    # The rest of a conclusive run is dropped.
    keep = np.empty_like(first)
    keep[order] = first | ~conclusive[run]
    return replace(
        graph,
        edge_traj=graph.edge_traj[keep],
        edge_det=graph.edge_det[keep],
        edge_dist=graph.edge_dist[keep],
        edge_features=None if graph.edge_features is None else graph.edge_features[keep],
    )


def init_edge_features(graph: AssocGraph, fps: float) -> AssocGraph:
    """Attach the 6-dim edge feature to every edge.

    Components: center offsets normalized by the mean box height
    (2*dx/(h_t+h_d), 2*dy/(h_t+h_d)), log size ratios (log h_d/h_t,
    log w_d/w_t), the frame gap scaled by 1/fps, and the appearance
    distance between the trajectory and detection features.
    """
    if graph.n_edges == 0:
        return replace(graph, edge_features=np.zeros((0, EDGE_FEATURE_DIM)))
    et, ed = graph.edge_traj, graph.edge_det
    tb = graph.traj_boxes[et]
    db = graph.detections.boxes[ed]
    tcx, tcy = tb[:, 0] + 0.5 * tb[:, 2], tb[:, 1] + 0.5 * tb[:, 3]
    dcx, dcy = db[:, 0] + 0.5 * db[:, 2], db[:, 1] + 0.5 * db[:, 3]
    h_sum = tb[:, 3] + db[:, 3]
    gaps = (graph.detections.frame - graph.trajectories.last_seen[et]).astype(np.float64)
    if np.any(gaps < 1):
        raise ValueError("edge with non-positive frame gap; frames out of order?")
    app = np.linalg.norm(graph.traj_features[et] - graph.det_features[ed], axis=1)
    features = np.column_stack(
        [
            2.0 * (dcx - tcx) / h_sum,
            2.0 * (dcy - tcy) / h_sum,
            np.log(db[:, 3] / tb[:, 3]),
            np.log(db[:, 2] / tb[:, 2]),
            gaps / fps,
            app,
        ]
    )
    return replace(graph, edge_features=features)


def build_graph(
    trajectories: Trajectories,
    detections: Detections,
    *,
    k_neighbors: int = 20,
    ratio_variant: str = "none",
    alpha: float | None = None,
    fps: float = 30.0,
    traj_boxes: np.ndarray | None = None,
) -> AssocGraph | None:
    """Candidate edges -> ratio filter -> edge features; None if one side is empty.

    trajectories (M rows) and detections (N rows) are blocks or lists of
    records; traj_boxes default to the trajectories' last boxes.
    """
    if ratio_variant not in RATIO_VARIANTS:
        raise ValueError(f"unknown ratio variant {ratio_variant!r}")
    if not trajectories or not detections:
        return None
    trajectories, detections = as_trajectories(trajectories), as_detections(detections)
    edge_traj, edge_det, traj_boxes = candidate_edges(
        trajectories, detections, k_neighbors, traj_boxes
    )
    graph = AssocGraph(
        trajectories,
        detections,
        traj_boxes,
        edge_traj,
        edge_det,
        n_candidates=int(edge_traj.size),
    )
    if ratio_variant != "none":
        graph.edge_dist = edge_distances(graph, ratio_variant)
        graph = ratio_test_filter(graph, DEFAULT_ALPHA[ratio_variant] if alpha is None else alpha)
    return init_edge_features(graph, fps)
