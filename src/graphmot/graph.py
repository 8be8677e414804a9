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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .core import Detection, Trajectory, box_array

RATIO_VARIANTS = ("none", "iou", "app")
DEFAULT_ALPHA = {"iou": 0.1, "app": 0.3}
EDGE_FEATURE_DIM = 6


@dataclass
class AssocGraph:
    """Bipartite trajectory/detection graph with per-edge data.

    edge_traj / edge_det are parallel index arrays into the node lists.
    traj_boxes are the (M, 4) xywh boxes used for all geometry (the
    tracker passes motion-predicted boxes; lost targets are represented
    by their forecast position, not the stale last observation).
    traj_features (M, d) and det_features (N, d) stack the trajectories'
    integrated features and the detections' features once, for the
    distances, the edge features and the network's node encoder.
    """

    trajectories: list[Trajectory]
    detections: list[Detection]
    traj_boxes: np.ndarray
    edge_traj: np.ndarray
    edge_det: np.ndarray
    edge_dist: np.ndarray | None = None
    edge_features: np.ndarray | None = None
    n_candidates: int = 0
    traj_features: np.ndarray | None = None
    det_features: np.ndarray | None = None

    def __post_init__(self):
        if self.traj_features is None:
            self.traj_features = np.array([t.integrated_feature for t in self.trajectories])
        if self.det_features is None:
            self.det_features = np.array([d.feature for d in self.detections])

    @property
    def n_edges(self) -> int:
        return int(self.edge_traj.size)


def candidate_edges(
    trajectories: list[Trajectory],
    detections: list[Detection],
    k: int,
    traj_boxes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K nearest trajectories per detection, by center distance.

    Ties are broken toward the lower trajectory id. Returns
    (edge_traj, edge_det, traj_boxes); both index arrays are empty when
    either side is empty.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if traj_boxes is None:
        traj_boxes = np.array([t.last_box.as_xywh() for t in trajectories]).reshape(-1, 4)
    if not trajectories or not detections:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty.copy(), traj_boxes
    dist = kernels.center_dist_matrix(traj_boxes, box_array(detections))  # (M, N)
    ids = np.broadcast_to(np.array([t.id for t in trajectories])[:, None], dist.shape)
    take = min(k, len(trajectories))
    nearest = np.lexsort((ids, dist), axis=0)[:take]  # (take, N), one column per detection
    edge_det = np.repeat(np.arange(len(detections), dtype=np.intp), take)
    return nearest.T.ravel(), edge_det, traj_boxes


def edge_distances(graph: AssocGraph, variant: str) -> np.ndarray:
    """Per-edge distance under the chosen ratio-test variant."""
    if variant == "iou":
        overlap = kernels.iou_matrix(graph.traj_boxes, box_array(graph.detections))
        return 1.0 - overlap[graph.edge_traj, graph.edge_det]
    if variant == "app":
        dist = kernels.feature_dist_matrix(graph.traj_features, graph.det_features)
        return dist[graph.edge_traj, graph.edge_det]
    raise ValueError(f"no distances for variant {variant!r}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


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


def ratio_test_filter(graph: AssocGraph, alpha: float) -> AssocGraph:
    """Drop every non-winning edge of each conclusive trajectory.

    Requires graph.edge_dist. Idempotent: conclusive trajectories are left
    with one edge, which the single-candidate rule then never touches.
    """
    if graph.edge_dist is None:
        raise ValueError("graph has no edge distances; compute them first")
    _check_alpha(alpha)
    # One stable sort by (trajectory, distance) lays each trajectory's
    # candidates out as a run in conclusive_pick's order: nearest first,
    # ties in edge order. A run is conclusive when its first distance is
    # below alpha times its second; the rest of a conclusive run is dropped.
    order = np.lexsort((graph.edge_dist, graph.edge_traj))
    traj = graph.edge_traj[order]
    dist = graph.edge_dist[order]
    first = np.ones(traj.size, dtype=bool)
    first[1:] = traj[1:] != traj[:-1]
    starts = np.flatnonzero(first)
    paired = np.append(~first[1:], False)[starts]  # runs with a runner-up
    best = starts[paired]
    conclusive = np.zeros(starts.size, dtype=bool)
    conclusive[paired] = dist[best] < alpha * dist[best + 1]
    keep = np.empty_like(first)
    keep[order] = first | ~conclusive[np.cumsum(first) - 1]
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
    db = box_array(graph.detections)[ed]
    tcx, tcy = tb[:, 0] + 0.5 * tb[:, 2], tb[:, 1] + 0.5 * tb[:, 3]
    dcx, dcy = db[:, 0] + 0.5 * db[:, 2], db[:, 1] + 0.5 * db[:, 3]
    h_sum = tb[:, 3] + db[:, 3]
    det_frames = np.array([d.frame for d in graph.detections])
    last_seen = np.array([t.last_seen_frame for t in graph.trajectories])
    gaps = (det_frames[ed] - last_seen[et]).astype(np.float64)
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
    trajectories: list[Trajectory],
    detections: list[Detection],
    *,
    k_neighbors: int = 20,
    ratio_variant: str = "none",
    alpha: float | None = None,
    fps: float = 30.0,
    traj_boxes: np.ndarray | None = None,
) -> AssocGraph | None:
    """Candidate edges -> ratio filter -> edge features; None if one side is empty."""
    if ratio_variant not in RATIO_VARIANTS:
        raise ValueError(f"unknown ratio variant {ratio_variant!r}")
    if not trajectories or not detections:
        return None
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
