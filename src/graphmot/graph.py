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

The tracker builds one frame's graph from the columns of a core.Trajectories
and a core.Detections block (build_graph); training builds a batch's graphs
as one disjoint union in one pass (build_union), with the same candidate
rule (nearest_rows), the same per-edge ratio test and the same edge
features. Every stage after the candidates reads the graph's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import Detections, Trajectories
from .fields import check_choice, check_count, check_real

RATIO_VARIANTS = ("none", "iou", "app")
DEFAULT_ALPHA = {"iou": 0.1, "app": 0.3}
EDGE_FEATURE_DIM = 6


@dataclass
class AssocGraph:
    """Bipartite trajectory/detection graph with per-edge data, as arrays.

    edge_traj / edge_det are parallel index arrays into the M trajectory
    and N detection rows. traj_boxes are the (M, 4) xywh boxes used for all
    geometry (the tracker passes motion-predicted boxes; lost targets are
    represented by their forecast position, not the stale last
    observation). traj_features (M, d), det_features (N, d), det_boxes
    (N, 4), last_seen (M,) and det_frames (N,) feed the distances, the
    edge features (whose frame gaps are det_frames minus last_seen) and the
    network's node encoder, which reads only the node features, the edge
    features and the edge indices. One frame's graph (build_graph, of) and
    a disjoint union of several frames' graphs (build_union) hold the same
    arrays.

    A graph of column blocks (of) holds the blocks' arrays, not copies. The
    tracker's graph reads its live Trajectories.features, which
    integration.absorb overwrites after the graph is scored: a graph kept
    past its frame reads other features.
    """

    traj_boxes: np.ndarray
    edge_traj: np.ndarray
    edge_det: np.ndarray
    edge_dist: np.ndarray | None = None
    edge_features: np.ndarray | None = None
    n_candidates: int = 0
    traj_features: np.ndarray | None = None
    det_features: np.ndarray | None = None
    det_boxes: np.ndarray | None = None
    last_seen: np.ndarray | None = None
    det_frames: np.ndarray | None = None

    @classmethod
    def of(cls, trajectories: Trajectories, detections: Detections, traj_boxes, edge_traj,
           edge_det, **kw) -> "AssocGraph":
        """The graph of a Trajectories and a Detections block: their columns,
        and the detections' frame as every detection's det_frames."""
        return cls(traj_boxes, edge_traj, edge_det, traj_features=trajectories.features,
                   det_features=detections.features, det_boxes=detections.boxes,
                   last_seen=trajectories.last_seen,
                   det_frames=np.full(len(detections), detections.frame, dtype=np.int64), **kw)

    @property
    def n_edges(self) -> int:
        return int(self.edge_traj.size)


def nearest_rows(dist: np.ndarray, k: int, heights: np.ndarray | None = None):
    """The candidate rule: the min(k, heights[j]) rows of a distance block
    nearest to each column j, as (rows, columns) index arrays, column by
    column and nearest first.

    One stable sort of each column breaks ties toward the lower row.
    heights default to the block's height; a shorter column holds inf
    below its height, so that one block holds the columns of several
    graphs (build_union), each with its own rows on top.
    """
    take = min(k, len(dist))
    nearest = np.argsort(dist, axis=0, kind="stable")[:take].T  # (N, take), a row per column
    columns = np.arange(dist.shape[1], dtype=np.intp)
    if heights is None:
        return nearest.ravel(), np.repeat(columns, take)
    return nearest[np.arange(take) < heights[:, None]], np.repeat(columns, np.minimum(heights, take))


def candidate_edges(
    trajectories: Trajectories,
    detections: Detections,
    k: int,
    traj_boxes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K nearest trajectories per detection, by center distance (nearest_rows).

    Ties are broken toward the lower trajectory id, then the lower row.
    traj_boxes default to the trajectories' last boxes. Returns
    (edge_traj, edge_det, traj_boxes); both index arrays are empty when
    either side is empty.
    """
    check_count("k", k, 1)
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
    edge_traj, edge_det = nearest_rows(dist, k)
    if rank is not None:
        edge_traj = rank[edge_traj]
    return edge_traj, edge_det, traj_boxes


def edge_distances(graph: AssocGraph, variant: str) -> np.ndarray:
    """Per-edge distance under the chosen ratio-test variant, computed per
    edge: the entry of the full iou_matrix or feature_dist_matrix, bit for
    bit."""
    et, ed = graph.edge_traj, graph.edge_det
    if variant == "iou":
        return 1.0 - kernels.iou_rows(graph.traj_boxes[et], graph.det_boxes[ed])
    if variant == "app":
        return kernels.feature_dist_rows(graph.traj_features[et], graph.det_features[ed])
    raise ValueError(f"no distances for variant {variant!r}")


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
    """Drop every non-winning edge of each conclusive trajectory, in place;
    returns graph.

    Requires graph.edge_dist. Idempotent: conclusive trajectories are left
    with one edge, which the single-candidate rule then never touches.
    """
    if graph.edge_dist is None:
        raise ValueError("graph has no edge distances; compute them first")
    check_real("alpha", alpha, 0.0, 1.0)
    order, first, best = candidate_runs(graph.edge_traj, graph.edge_dist)
    dist = graph.edge_dist[order]
    run = np.cumsum(first) - 1  # run of every sorted edge
    conclusive = np.zeros(np.count_nonzero(first), dtype=bool)
    conclusive[run[best]] = dist[best] < alpha * dist[best + 1]
    # The rest of a conclusive run is dropped.
    keep = np.empty_like(first)
    keep[order] = first | ~conclusive[run]
    graph.edge_traj, graph.edge_det = graph.edge_traj[keep], graph.edge_det[keep]
    graph.edge_dist = graph.edge_dist[keep]
    if graph.edge_features is not None:
        graph.edge_features = graph.edge_features[keep]
    return graph


def init_edge_features(graph: AssocGraph, fps: float) -> AssocGraph:
    """Attach the 6-dim edge feature to every edge, in place; returns graph.

    Components: center offsets normalized by the mean box height
    (2*dx/(h_t+h_d), 2*dy/(h_t+h_d)), log size ratios (log h_d/h_t,
    log w_d/w_t), the frame gap scaled by 1/fps, and the appearance
    distance between the trajectory and detection features.
    """
    et, ed = graph.edge_traj, graph.edge_det
    if not et.size:
        graph.edge_features = np.zeros((0, EDGE_FEATURE_DIM))
        return graph
    tb = graph.traj_boxes[et]
    db = graph.det_boxes[ed]
    tcx, tcy = tb[:, 0] + 0.5 * tb[:, 2], tb[:, 1] + 0.5 * tb[:, 3]
    dcx, dcy = db[:, 0] + 0.5 * db[:, 2], db[:, 1] + 0.5 * db[:, 3]
    h_sum = tb[:, 3] + db[:, 3]
    gaps = (graph.det_frames[ed] - graph.last_seen[et]).astype(np.float64)
    if np.any(gaps < 1):
        raise ValueError("edge with non-positive frame gap; frames out of order?")
    app = np.linalg.norm(graph.traj_features[et] - graph.det_features[ed], axis=1)
    graph.edge_features = np.column_stack(
        [
            2.0 * (dcx - tcx) / h_sum,
            2.0 * (dcy - tcy) / h_sum,
            np.log(db[:, 3] / tb[:, 3]),
            np.log(db[:, 2] / tb[:, 2]),
            gaps / fps,
            app,
        ]
    )
    return graph


def _filter_and_encode(graph: AssocGraph, ratio_variant, alpha, fps) -> AssocGraph:
    """The ratio filter, when ratio_variant asks for one, then the edge features."""
    if ratio_variant != "none":
        graph.edge_dist = edge_distances(graph, ratio_variant)
        ratio_test_filter(graph, DEFAULT_ALPHA[ratio_variant] if alpha is None else alpha)
    return init_edge_features(graph, fps)


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

    traj_boxes default to the trajectories' last boxes.
    """
    check_choice("ratio_variant", ratio_variant, RATIO_VARIANTS)
    check_real("fps", fps, 0.0)
    if not trajectories or not detections:
        return None
    edge_traj, edge_det, traj_boxes = candidate_edges(
        trajectories, detections, k_neighbors, traj_boxes
    )
    graph = AssocGraph.of(trajectories, detections, traj_boxes, edge_traj, edge_det,
                          n_candidates=int(edge_traj.size))
    return _filter_and_encode(graph, ratio_variant, alpha, fps)


def build_union(
    traj_counts: np.ndarray,
    det_counts: np.ndarray,
    *,
    traj_boxes: np.ndarray,
    traj_features: np.ndarray,
    last_seen: np.ndarray,
    det_boxes: np.ndarray,
    det_features: np.ndarray,
    det_frames: np.ndarray,
    k_neighbors: int = 20,
    ratio_variant: str = "none",
    alpha: float | None = None,
    fps: float = 30.0,
) -> AssocGraph:
    """build_graph of several graphs at once, as their disjoint union.

    Graph g holds traj_counts[g] trajectory rows and det_counts[g]
    detection rows, both at least 1, stacked in graph order, each graph's
    trajectories in id order. Every array is per row of the union; the
    edges are the graphs' edges in graph order, indexing the union's rows,
    with the bits build_graph gives each graph.

    One padded (max M, N) center-distance block holds, in column j, the
    distances to its own graph's trajectories on top and inf below, so one
    nearest_rows selects every graph's candidates; the ratio test and the
    edge features are per edge already.
    """
    check_choice("ratio_variant", ratio_variant, RATIO_VARIANTS)
    check_real("fps", fps, 0.0)
    check_count("k_neighbors", k_neighbors, 1)
    traj_counts = np.asarray(traj_counts, dtype=np.intp)
    det_graph = np.repeat(np.arange(len(det_counts)), det_counts)
    heights = traj_counts[det_graph]  # per detection
    first = (np.cumsum(traj_counts) - traj_counts)[det_graph]  # its graph's first trajectory
    below = np.arange(traj_counts.max(initial=0))[:, None]
    padding = below >= heights
    dist = kernels.center_dist(traj_boxes[np.where(padding, 0, first + below)], det_boxes)
    dist[padding] = np.inf
    local, edge_det = nearest_rows(dist, k_neighbors, heights)
    edge_traj = first[edge_det] + local
    graph = AssocGraph(
        traj_boxes, edge_traj, edge_det, n_candidates=int(edge_traj.size),
        traj_features=traj_features, det_features=det_features, det_boxes=det_boxes,
        last_seen=last_seen, det_frames=det_frames,
    )
    return _filter_and_encode(graph, ratio_variant, alpha, fps)
