"""Message passing network over the association graph.

Node and edge encoders lift raw features into embedding space; L rounds of
propagation then alternate a node->edge update (every edge embedding is
recomputed from its endpoints and its previous value) with an edge->node
update (every node aggregates a per-edge message computed from the node
and the fresh edge embedding). Trajectory and detection embeddings are
updated separately so the graph stays bipartite, but both sides share the
same node-update parameters. A small classifier head turns final edge
embeddings into match probabilities.

Gradients are hand-derived reverse-mode, mirroring the forward pass layer
by layer; training minimizes a positive-weighted binary cross-entropy over
edges with teacher-forced trajectory features.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import Detections, Trajectories, frame_overlaps
from .graph import AssocGraph, _check_fps, build_graph
from .integration import absorb, start
from .motion import boxes_from_means, kf_predict_batch
from .nn import AdamOptimizer, LstmCell, Mlp, sigmoid, weighted_bce
from .nn import load_checkpoint, save_checkpoint

AGGREGATIONS = ("mean", "sum")


@dataclass
class MpnModel:
    """Parameters of the encoders, propagation functions and classifier.

    node_update is shared between the trajectory-side and detection-side
    updates by construction. The LSTM cell backs the recurrent integration
    mode and rides along in every checkpoint; it only receives gradient
    when training runs with integration="lstm".
    """

    node_encoder: Mlp
    edge_encoder: Mlp
    edge_update: Mlp
    node_update: Mlp
    classifier: Mlp
    lstm: LstmCell
    rounds: int = 4
    aggregation: str = "mean"
    step_count: int = 0

    @property
    def feature_dim(self) -> int:
        return self.node_encoder.in_dim

    def components(self):
        return [
            ("node_encoder", self.node_encoder),
            ("edge_encoder", self.edge_encoder),
            ("edge_update", self.edge_update),
            ("node_update", self.node_update),
            ("classifier", self.classifier),
            ("lstm", self.lstm),
        ]

    def param_arrays(self) -> list[np.ndarray]:
        out = []
        for _, comp in self.components():
            out.extend(comp.params())
        return out

    def zero_grads(self) -> list[np.ndarray]:
        return [np.zeros_like(p) for p in self.param_arrays()]


def create_model(
    feature_dim: int,
    *,
    d_node: int = 32,
    d_edge: int = 32,
    rounds: int = 4,
    aggregation: str = "mean",
    seed: int = 0,
) -> MpnModel:
    """Fresh model with two-layer ReLU MLPs throughout."""
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    rng = np.random.default_rng(seed)
    return MpnModel(
        node_encoder=Mlp([feature_dim, d_node, d_node], rng),
        edge_encoder=Mlp([6, d_edge, d_edge], rng),
        edge_update=Mlp([2 * d_node + d_edge, d_edge, d_edge], rng),
        node_update=Mlp([d_node + d_edge, d_node, d_node], rng),
        classifier=Mlp([d_edge, d_edge, 1], rng),
        lstm=LstmCell(feature_dim, feature_dim, rng),
        rounds=rounds,
        aggregation=aggregation,
    )


@dataclass
class _RoundCache:
    edge_cache: object
    traj_cache: object
    det_cache: object


@dataclass(frozen=True)
class ScatterPlan:
    """How one side's per-edge messages sum into its (n, width) nodes.

    Computed once per graph and used by every round: `flat` indexes the
    flattened node array with every entry of the (E, width) messages,
    `denominators` is the (n, 1) column max(count, 1) of each node's
    edges, and `empty` the (n, 1) mask of nodes without edges.
    """

    flat: np.ndarray
    denominators: np.ndarray
    empty: np.ndarray

    @classmethod
    def of(cls, index: np.ndarray, n: int, width: int) -> "ScatterPlan":
        flat = (index[:, None] * width + np.arange(width)).ravel()
        counts = np.bincount(index, minlength=n)[:, None]
        return cls(flat, np.maximum(counts, 1).astype(np.float64), counts == 0)


@dataclass
class MpnState:
    """Per-layer embeddings plus the caches the backward pass needs.

    Without caches (keep_caches False, as score_graph runs) no backward
    cache is kept and the layer lists hold only the latest layer.
    """

    graph: AssocGraph
    traj_layers: list[np.ndarray]
    det_layers: list[np.ndarray]
    edge_layers: list[np.ndarray]
    traj_plan: ScatterPlan
    det_plan: ScatterPlan
    keep_caches: bool = True
    encoder_caches: tuple | None = None
    round_caches: list[_RoundCache] = field(default_factory=list)
    classifier_cache: object = None
    logits: np.ndarray | None = None


def _run(mlp: Mlp, x: np.ndarray, caches: bool):
    """(output, cache) of mlp on x; the cache is None with caches off."""
    if caches:
        return mlp.forward(x)
    return mlp.apply(x), None


def encode(model: MpnModel, graph: AssocGraph, *, caches: bool = True) -> MpnState:
    """Layer-0 embeddings from the node and edge encoders."""
    if graph.edge_features is None:
        raise ValueError("graph has no edge features; run init_edge_features first")
    t0, t_cache = _run(model.node_encoder, graph.traj_features, caches)
    d0, d_cache = _run(model.node_encoder, graph.det_features, caches)
    h0, h_cache = _run(model.edge_encoder, graph.edge_features, caches)
    width = t0.shape[1]
    return MpnState(
        graph=graph,
        traj_layers=[t0],
        det_layers=[d0],
        edge_layers=[h0],
        traj_plan=ScatterPlan.of(graph.edge_traj, len(graph.trajectories), width),
        det_plan=ScatterPlan.of(graph.edge_det, len(graph.detections), width),
        keep_caches=caches,
        encoder_caches=(t_cache, d_cache, h_cache) if caches else None,
    )


def _aggregate(messages, plan: ScatterPlan, previous, aggregation):
    # One flat bincount sums each node's messages in edge order from zero,
    # exactly as np.add.at would, at a fraction of its cost. (Without edges
    # bincount returns integers.) Dividing by max(count, 1) leaves an empty
    # node's zero sum at zero; the copy then restores its previous value.
    out = np.bincount(plan.flat, weights=messages.ravel(), minlength=previous.size)
    out = out.astype(previous.dtype, copy=False).reshape(previous.shape)
    if aggregation == "mean":
        out /= plan.denominators
    np.copyto(out, previous, where=plan.empty)
    return out


def propagate(model: MpnModel, state: MpnState) -> MpnState:
    """Run the model's propagation rounds, extending the layer lists
    (replacing their one layer when the state keeps no caches)."""
    ti, dj = state.graph.edge_traj, state.graph.edge_det
    caches = state.keep_caches
    t_prev, d_prev, h_prev = state.traj_layers[-1], state.det_layers[-1], state.edge_layers[-1]
    n_edges, dn = ti.size, t_prev.shape[1]
    e_in = None
    for _ in range(model.rounds):
        # The MLP inputs [t, d, h], [t, h'] and [d, h'] are filled in place;
        # the backward pass keeps them, so with caches every round has its own.
        if caches or e_in is None:
            e_in = np.empty((n_edges, 2 * dn + h_prev.shape[1]))
            x_in = np.empty((n_edges, dn + h_prev.shape[1]))
            y_in = np.empty_like(x_in)
        np.take(t_prev, ti, axis=0, out=x_in[:, :dn], mode="clip")
        np.take(d_prev, dj, axis=0, out=y_in[:, :dn], mode="clip")
        e_in[:, :dn] = x_in[:, :dn]
        e_in[:, dn : 2 * dn] = y_in[:, :dn]
        e_in[:, 2 * dn :] = h_prev
        h_prev, e_cache = _run(model.edge_update, e_in, caches)
        x_in[:, dn:] = h_prev
        y_in[:, dn:] = h_prev
        x_msg, x_cache = _run(model.node_update, x_in, caches)
        t_prev = _aggregate(x_msg, state.traj_plan, t_prev, model.aggregation)
        y_msg, y_cache = _run(model.node_update, y_in, caches)
        d_prev = _aggregate(y_msg, state.det_plan, d_prev, model.aggregation)
        if caches:
            state.traj_layers.append(t_prev)
            state.det_layers.append(d_prev)
            state.edge_layers.append(h_prev)
            state.round_caches.append(_RoundCache(e_cache, x_cache, y_cache))
    if not caches:
        state.traj_layers[-1], state.det_layers[-1], state.edge_layers[-1] = t_prev, d_prev, h_prev
    return state


def classify_edges(model: MpnModel, state: MpnState) -> np.ndarray:
    """Match probability per edge from the final edge embeddings."""
    logits, state.classifier_cache = _run(model.classifier, state.edge_layers[-1], state.keep_caches)
    state.logits = logits[:, 0]
    return sigmoid(state.logits)


def mpn_forward(model: MpnModel, graph: AssocGraph) -> tuple[np.ndarray, MpnState]:
    """Edge probabilities plus the state mpn_backward needs."""
    state = encode(model, graph)
    propagate(model, state)
    probs = classify_edges(model, state)
    return probs, state


def score_graph(model: MpnModel, graph: AssocGraph) -> np.ndarray:
    """Edge probabilities for inference: mpn_forward's encode, propagate and
    classify_edges with the backward caches off, giving the same bits."""
    state = encode(model, graph, caches=False)
    propagate(model, state)
    return classify_edges(model, state)


def _scatter_rows(target, index, rows):
    np.add.at(target, index, rows)


def mpn_backward(model: MpnModel, state: MpnState, dlogits: np.ndarray):
    """Reverse the full forward pass.

    dlogits is dLoss/dlogit per edge. Returns (grads, dtraj_features) where
    grads aligns with model.param_arrays() and dtraj_features is the
    gradient w.r.t. the trajectories' input appearance features (used to
    continue backprop into the recurrent integrator).
    """
    if not state.keep_caches:
        raise ValueError("state was computed without caches (score_graph)")
    graph = state.graph
    ti, dj = graph.edge_traj, graph.edge_det
    dn = model.node_encoder.out_dim
    grads = {name: comp.zero_grads() for name, comp in model.components()}

    g_hl, cls_grads = model.classifier.backward(state.classifier_cache, dlogits[:, None])
    _acc(grads["classifier"], cls_grads)

    d_traj = np.zeros_like(state.traj_layers[-1])
    d_det = np.zeros_like(state.det_layers[-1])
    d_edge = g_hl
    for level in range(model.rounds, 0, -1):
        caches = state.round_caches[level - 1]
        t_prev = state.traj_layers[level - 1]
        d_prev = state.det_layers[level - 1]
        d_traj_prev = np.zeros_like(t_prev)
        d_det_prev = np.zeros_like(d_prev)

        # Aggregation adjoints; empty-neighborhood nodes pass straight through.
        t_empty, d_empty = state.traj_plan.empty, state.det_plan.empty
        if model.aggregation == "mean":
            t_scale = np.where(t_empty, 0.0, d_traj / state.traj_plan.denominators)
            d_scale = np.where(d_empty, 0.0, d_det / state.det_plan.denominators)
        else:
            t_scale = np.where(t_empty, 0.0, d_traj)
            d_scale = np.where(d_empty, 0.0, d_det)
        np.copyto(d_traj_prev, d_traj, where=t_empty)
        np.copyto(d_det_prev, d_det, where=d_empty)

        gx_in, vx_grads = model.node_update.backward(caches.traj_cache, t_scale[ti])
        _acc(grads["node_update"], vx_grads)
        _scatter_rows(d_traj_prev, ti, gx_in[:, :dn])
        d_edge_total = d_edge + gx_in[:, dn:]

        gy_in, vy_grads = model.node_update.backward(caches.det_cache, d_scale[dj])
        _acc(grads["node_update"], vy_grads)
        _scatter_rows(d_det_prev, dj, gy_in[:, :dn])
        d_edge_total = d_edge_total + gy_in[:, dn:]

        ge_in, e_grads = model.edge_update.backward(caches.edge_cache, d_edge_total)
        _acc(grads["edge_update"], e_grads)
        _scatter_rows(d_traj_prev, ti, ge_in[:, :dn])
        _scatter_rows(d_det_prev, dj, ge_in[:, dn : 2 * dn])

        d_traj, d_det, d_edge = d_traj_prev, d_det_prev, ge_in[:, 2 * dn :]

    t_cache, d_cache, h_cache = state.encoder_caches
    d_traj_feats, nt_grads = model.node_encoder.backward(t_cache, d_traj)
    _acc(grads["node_encoder"], nt_grads)
    _, nd_grads = model.node_encoder.backward(d_cache, d_det)
    _acc(grads["node_encoder"], nd_grads)
    _, ee_grads = model.edge_encoder.backward(h_cache, d_edge)
    _acc(grads["edge_encoder"], ee_grads)

    flat = []
    for name, _ in model.components():
        flat.extend(grads[name])
    return flat, d_traj_feats


def _acc(into: list[np.ndarray], add: list[np.ndarray]) -> None:
    for a, b in zip(into, add):
        a += b


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainConfig:
    batch_graphs: int = 8
    frames_per_graph: int = 15
    epochs: int = 25
    lr: float = 1e-3
    lr_decay_every: int = 7
    lr_decay_factor: float = 0.1
    pos_weight: float | None = None  # None: negatives/positives per batch
    node_dropout: float = 0.1
    box_jitter: float = 0.05  # detection shift, fraction of box height
    frame_stride: int = 1
    seed: int = 0

    def __post_init__(self):
        for name, least in (("batch_graphs", 1), ("frames_per_graph", 2), ("frame_stride", 1),
                            ("epochs", 0), ("lr_decay_every", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("lr", "lr_decay_factor"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 <= self.node_dropout < 1.0:
            raise ValueError(f"node_dropout must be in [0, 1), got {self.node_dropout}")
        if not self.box_jitter >= 0.0:
            raise ValueError(f"box_jitter must be >= 0, got {self.box_jitter}")
        if self.pos_weight is not None and not self.pos_weight > 0.0:
            raise ValueError(f"pos_weight must be None or > 0, got {self.pos_weight}")


@dataclass
class _LstmChain:
    """Step caches for one teacher-forced trajectory, for backprop."""

    caches: list
    h_norm: float
    feature: np.ndarray  # renormalized output = integrated feature


@dataclass
class _TrainGraph:
    graph: AssocGraph
    labels: np.ndarray
    lstm_chains: dict[int, _LstmChain]  # trajectory row -> chain


@dataclass
class TeacherForced:
    """Teacher-forced trajectories of one training sample.

    trajectories are columns with rows sorted by identity, and boxes
    (K, 4) are their predicted xywh boxes at the target frame; identities
    lists the same ids in the order the window first shows them, which
    node dropout draws in. Training reuses one instance across epochs, so
    every array in it is read-only.
    """

    identities: list[int]
    trajectories: Trajectories
    boxes: np.ndarray
    lstm_chains: dict[int, _LstmChain]  # trajectory row -> chain, "lstm" only

    def select(self, identities) -> tuple[Trajectories, np.ndarray, dict[int, _LstmChain]]:
        """Trajectories, boxes and chains of a subset of the identities, by identity."""
        row = {g: r for r, g in enumerate(self.trajectories.ids.tolist())}
        rows = sorted(row[g] for g in identities)
        chains = {k: self.lstm_chains[r] for k, r in enumerate(rows) if r in self.lstm_chains}
        return self.trajectories.take(rows), self.boxes[rows], chains


def labelled_pairs(frames: dict[int, Detections]) -> dict[int, tuple[tuple[int, int], ...]]:
    """(identity, index in frame) of every labelled detection, read from the
    gt_ids columns, for each frame that has one."""
    labels = {}
    for frame, detections in frames.items():
        pairs = tuple((g, j) for j, g in enumerate(detections.gt_ids or ()) if g is not None)
        if pairs:
            labels[frame] = pairs
    return labels


def _first_seen(frames: dict[int, Detections], target_frame: int, window_frames) -> list[int]:
    """Identities labelled in the window frames before target_frame, in the
    order the window first shows them."""
    seen: dict[int, None] = {}
    for f in window_frames:
        if f < target_frame and f in frames:
            seen.update(dict.fromkeys(g for g in frames[f].gt_ids or () if g is not None))
    return list(seen)


def ground_truth_walk(
    frames: dict[int, Detections],
    events: dict[int, dict[int, tuple[tuple[int, int], ...]]],
    integration: str,
    *,
    lstm_cell: LstmCell | None = None,
    lost_frame_limit: int | None = None,
):
    """Filter and integrate rows of ground truth along their labeled detections.

    frames maps a frame number to its Detections block and events a frame
    number to its labeled detections, as a dict from end frame to
    (identity, index in the frame) pairs (labelled_pairs). A row is one
    (end, identity) pair: it starts at its first event with that event's
    box and feature, is updated at each later one and ends at frame
    `end`; an event at or after its row's end is ignored. One walk from
    the first event to the last end: each frame predicts the live rows in
    one batch and yields (frame, live, trajectories, lstm_caches, ending),
    trajectories holding every row started and not yet ended in start
    order (with their LSTM states in "lstm" integration), live indexing
    the predicted rows (a slice without a limit), ending the rows whose
    end is this frame, which retire after the yield, and lstm_caches each
    row's "lstm" step caches (None in other modes). The walk then starts
    the rows first seen in the frame (integration.start) and updates the
    observed ones in one batch (integration.absorb, the tracker's rule),
    with one frame_overlaps of the frame for "iou"; a second detection of
    a row's identity in the frame is a further update without a predict.

    Rows never interact, so every row gets the predicts, updates and
    integration steps it would get in a walk of its own, with the same
    bits: training teacher-forces all samples of a sequence in one walk,
    a row per (sample, identity) that ends at the sample's target frame.

    A row is live while its last observation is at most lost_frame_limit
    frames old (always, when None); the rest are neither predicted nor
    yielded, and an update resumes from their last state. While nothing
    is live the walk jumps to the next frame with events.
    """
    lstm = integration == "lstm"
    state = Trajectories([], [], [], [], [], [], lstm_states=[] if lstm else None)
    ends = np.zeros(0, dtype=np.int64)  # per row
    starts = np.zeros(0, dtype=np.int64)  # per row: its start number, ascending
    start_of: dict[tuple[int, int], int] = {}  # (end, identity) of a row -> start number
    n_started = 0
    lstm_caches: list[list] | None = [] if lstm else None  # per row
    numbers = sorted(events)
    if not numbers:
        return
    frame = numbers[0]
    while True:
        if lost_frame_limit is None:
            live = slice(0, len(state))
        else:
            live = np.flatnonzero(frame - state.last_seen <= lost_frame_limit)
        means, covs = state.means[live], state.covs[live]
        if len(means):
            state.means[live], state.covs[live] = kf_predict_batch(means, covs)
        ending = np.flatnonzero(ends == frame)
        yield frame, live, state, lstm_caches, ending
        if ending.size:
            for gid in state.ids[ending].tolist():
                del start_of[frame, gid]
            keep = np.flatnonzero(ends != frame)
            state, ends, starts = state.take(keep), ends[keep], starts[keep]
            if lstm:
                lstm_caches = [lstm_caches[r] for r in keep.tolist()]

        started: list[tuple[int, int, int]] = []
        passes: list[tuple[list[int], list[int]]] = []  # k-th update of a row here
        updates_here: dict[int, int] = {}
        for end, pairs in events.get(frame, {}).items():
            if end <= frame:
                continue
            for gid, j in pairs:
                number = start_of.get((end, gid))
                if number is None:
                    start_of[end, gid] = n_started + len(started)
                    started.append((end, gid, j))
                    continue
                k = updates_here.get(number, 0)
                updates_here[number] = k + 1
                if k == len(passes):
                    passes.append(([], []))
                passes[k][0].append(number)
                passes[k][1].append(j)
        if started or passes:
            detections = frames[frame]
        if started:
            state = state.concat(start([gid for _, gid, _ in started], detections,
                                       [j for _, _, j in started], frame, lstm))
            ends = np.concatenate([ends, [end for end, _, _ in started]])
            starts = np.concatenate([starts, np.arange(n_started, n_started + len(started))])
            n_started += len(started)
            if lstm:
                lstm_caches += [[] for _ in started]
        overlaps = frame_overlaps(detections) if passes and integration == "iou" else None
        for batch, index in passes:
            rows = np.searchsorted(starts, batch)
            caches = absorb(state, rows, detections, index, frame, integration,
                            overlaps=None if overlaps is None else overlaps[index],
                            lstm_cell=lstm_cell)
            for r, cache in zip(rows.tolist(), caches or ()):
                lstm_caches[r].append(cache)

        if len(state) and (
            lost_frame_limit is None or frame + 1 - state.last_seen.max() <= lost_frame_limit
        ):
            frame += 1
        else:
            later = bisect.bisect_right(numbers, frame)
            if later == len(numbers):
                return
            frame = numbers[later]


def _teacher_forced(state, rows, lstm_caches, target_frame, identities) -> TeacherForced:
    """The TeacherForced of the given rows of a walk at the target frame."""
    rows = rows[np.argsort(state.ids[rows], kind="stable")]
    trajectories = state.take(rows)
    trajectories.frames_lost = target_frame - trajectories.last_seen - 1
    boxes = boxes_from_means(trajectories.means)
    for array in (boxes, trajectories.features, trajectories.means, trajectories.covs):
        array.flags.writeable = False
    chains: dict[int, _LstmChain] = {}
    if lstm_caches is not None:
        for k, r in enumerate(rows.tolist()):
            caches = lstm_caches[r]
            if caches:
                h_norm = float(np.linalg.norm(caches[-1].c_tanh * caches[-1].o))
                chains[k] = _LstmChain(caches, h_norm, trajectories.features[k])
    return TeacherForced(identities, trajectories, boxes, chains)


def teacher_force_samples(
    frames: dict[int, Detections],
    samples,
    integration: str,
    lstm_cell: LstmCell | None = None,
) -> list[TeacherForced]:
    """Teacher-force the samples of one sequence in one ground_truth_walk.

    samples is an iterable of (target frame, window frames) pairs with
    distinct target frames. A sample's identities are those labelled in
    its window frames before the target frame, and each (sample,
    identity) pair is one row of the walk, from the identity's first
    labelled detection there to the target frame, so each sample gets the
    bits a walk of its own would give. Each window frame's labelled pairs
    are read from its gt_ids once, and one tuple of them serves every
    sample whose window holds the frame.
    """
    samples = list(samples)
    labels = labelled_pairs({f: frames[f] for t, window in samples for f in window
                             if f < t and f in frames})
    identities: dict[int, list[int]] = {}  # target frame -> identities
    events: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}
    for t, window in samples:
        if t in identities:
            raise ValueError("samples of one walk need distinct target frames")
        identities[t] = _first_seen(frames, t, window)
        for f in window:
            if f < t and f in labels:
                events.setdefault(f, {})[t] = labels[f]
    forced: dict[int, TeacherForced] = {}
    walk = ground_truth_walk(frames, events, integration, lstm_cell=lstm_cell)
    for frame, _, state, lstm_caches, ending in walk:
        if ending.size:
            forced[frame] = _teacher_forced(state, ending, lstm_caches, frame, identities[frame])
    # A sample without a labelled detection before its target frame has no rows.
    empty = Trajectories([], [], [], [], [], [])
    return [
        forced.get(t) or _teacher_forced(empty, np.zeros(0, np.intp), None, t, ids)
        for t, ids in identities.items()
    ]


def build_training_graph(
    frames: dict[int, Detections],
    target_frame: int,
    window_frames: list[int],
    model: MpnModel,
    *,
    integration: str = "average",
    k_neighbors: int = 20,
    ratio_variant: str = "none",
    alpha: float | None = None,
    fps: float = 30.0,
    rng: np.random.Generator | None = None,
    node_dropout: float = 0.0,
    box_jitter: float = 0.0,
    teacher: TeacherForced | None = None,
) -> _TrainGraph | None:
    """One training graph: teacher-forced trajectories vs. one frame's detections.

    Trajectories are assembled from the ground-truth identities seen in the
    window frames before the target frame, with features integrated along
    their own labeled detections (so training never depends on earlier
    matching decisions). Edge labels are identity equality. Node dropout
    draws one uniform per detection, then one per identity in first-seen
    order; box jitter shifts each kept detection by a normal draw of
    box_jitter times its height per axis.

    `teacher` is this sample's teacher_force_samples result over all its
    identities, computed once and reused; without it they are
    teacher-forced here. "lstm" features depend on the weights being
    trained, so that mode takes none.
    """
    if teacher is not None and integration == "lstm":
        raise ValueError("lstm integration cannot reuse teacher-forced features")
    detections = frames.get(target_frame) or Detections.of([], target_frame)
    identities = _first_seen(frames, target_frame, window_frames) if teacher is None \
        else teacher.identities
    rows = np.arange(len(detections))
    if rng is not None and node_dropout > 0.0:
        rows = rows[rng.random(rows.size) >= node_dropout]
        draws = rng.random(len(identities)).tolist()
        identities = [g for g, u in zip(identities, draws) if u >= node_dropout]
    boxes = detections.boxes[rows]
    if rng is not None and box_jitter > 0.0:
        boxes[:, :2] += rng.normal(0.0, box_jitter * boxes[:, 3:4], size=(rows.size, 2))
    if not rows.size or not identities:
        return None
    if teacher is None:
        sample = [(target_frame, window_frames)]
        (teacher,) = teacher_force_samples(frames, sample, integration, model.lstm)
    trajectories, traj_boxes, chains = teacher.select(identities)
    gt_ids = detections.gt_ids
    detections = Detections.trusted(
        target_frame, boxes, detections.confidences[rows], detections.features[rows],
        None if gt_ids is None else [gt_ids[j] for j in rows.tolist()],
    )

    graph = build_graph(
        trajectories,
        detections,
        k_neighbors=k_neighbors,
        ratio_variant=ratio_variant,
        alpha=alpha,
        fps=fps,
        traj_boxes=traj_boxes,
    )
    if graph is None or graph.n_edges == 0:
        return None
    labels = graph.detections.labelled_as(graph.edge_det, graph.trajectories.ids[graph.edge_traj])
    return _TrainGraph(graph, labels.astype(np.float64), chains)


def _backprop_lstm_chains(model, chains, d_traj_feats, grads_flat):
    """Continue gradients from trajectory input features into the LSTM."""
    if not chains:
        return
    lstm_offset = sum(len(comp.params()) for name, comp in model.components() if name != "lstm")
    lstm_grads = grads_flat[lstm_offset : lstm_offset + 3]
    for row, chain in chains.items():
        if chain.h_norm < 1e-12:
            continue
        df = d_traj_feats[row]
        # Through the renormalization F = h / |h|.
        dh = (df - chain.feature * float(chain.feature @ df)) / chain.h_norm
        dc = None
        for cache in reversed(chain.caches):
            _, dh, dc, step_grads = model.lstm.backward(cache, dh, dc)
            for g, s in zip(lstm_grads, step_grads):
                g += s
    return


def train_model(
    model: MpnModel,
    sequences: list[dict[int, Detections]],
    cfg: TrainConfig,
    *,
    integration: str = "average",
    k_neighbors: int = 20,
    ratio_variant: str = "none",
    alpha: float | None = None,
    fps: float = 30.0,
) -> list[dict]:
    """Train in place; returns one telemetry row per epoch.

    Each sample pairs one target frame with trajectories teacher-forced
    from the preceding frames of its window. Except in "lstm" mode, every
    sample of a sequence is teacher-forced once per call, all in one
    teacher_force_samples walk. Batches average the weighted BCE over all
    edges; the positive weight defaults to the batch's negative/positive
    ratio.

    A row holds the epoch, learning rate, mean batch loss and edge
    accuracy, the seconds spent teacher-forcing (on the first epoch; 0
    after), building graphs, in forward and backward passes and in
    optimizer steps, and the positive and negative edges trained on.
    """
    _check_fps(fps)
    labelled = [set(labelled_pairs(seq)) for seq in sequences]  # labelled frames
    if not any(labelled):
        raise ValueError("training requires ground-truth labels on the detections")
    samples = []
    teachers: list[TeacherForced | None] = []
    teacher_force_s = 0.0
    for si, seq in enumerate(sequences):
        frames_sorted = sorted(seq)
        seq_samples = []
        for t in frames_sorted:
            window = [
                f
                for f in frames_sorted
                if t - (cfg.frames_per_graph - 1) * cfg.frame_stride <= f < t
                and (t - f) % cfg.frame_stride == 0
            ]
            if seq[t] and any(f in labelled[si] for f in window):
                seq_samples.append((si, t, window))
        samples += seq_samples
        # Dropout and jitter leave the teacher-forced states alone, so every
        # sample is teacher-forced once; "lstm" features move with the weights.
        t0 = time.perf_counter()
        if integration == "lstm":
            teachers += [None] * len(seq_samples)
        else:
            windows = ((t, window) for _, t, window in seq_samples)
            teachers += teacher_force_samples(seq, windows, integration)
        teacher_force_s += time.perf_counter() - t0
    if not samples:
        raise ValueError("no trainable samples in the given sequences")

    rng = np.random.default_rng(cfg.seed)
    optimizer = AdamOptimizer(model.param_arrays())
    optimizer.step_count = model.step_count
    history = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        order = rng.permutation(len(samples))
        losses = []
        correct = 0
        seen = 0
        positive_edges = 0
        spans = dict.fromkeys(("graph_s", "forward_s", "backward_s", "optimizer_s"), 0.0)
        for start in range(0, len(order), cfg.batch_graphs):
            batch = []
            t0 = time.perf_counter()
            for oi in order[start : start + cfg.batch_graphs]:
                si, t, window = samples[oi]
                tg = build_training_graph(
                    sequences[si], t, window, model,
                    integration=integration, k_neighbors=k_neighbors,
                    ratio_variant=ratio_variant, alpha=alpha, fps=fps,
                    rng=rng, node_dropout=cfg.node_dropout, box_jitter=cfg.box_jitter,
                    teacher=teachers[oi],
                )
                if tg is not None:
                    batch.append(tg)
            spans["graph_s"] += time.perf_counter() - t0
            if not batch:
                continue
            total_edges = sum(tg.labels.size for tg in batch)
            positives = sum(int(tg.labels.sum()) for tg in batch)
            if cfg.pos_weight is not None:
                omega = cfg.pos_weight
            elif positives > 0:
                omega = (total_edges - positives) / positives
            else:
                omega = 1.0
            if omega <= 0.0:  # all-positive batch
                omega = 1.0
            grads_total = model.zero_grads()
            batch_loss = 0.0
            for tg in batch:
                t0 = time.perf_counter()
                probs, state = mpn_forward(model, tg.graph)
                edge_losses, dp = weighted_bce(probs, tg.labels, omega)
                t1 = time.perf_counter()
                dlogits = dp * probs * (1.0 - probs) / total_edges
                flat, d_traj_feats = mpn_backward(model, state, dlogits)
                _backprop_lstm_chains(model, tg.lstm_chains, d_traj_feats, flat)
                for g_total, g in zip(grads_total, flat):
                    g_total += g
                spans["forward_s"] += t1 - t0
                spans["backward_s"] += time.perf_counter() - t1
                batch_loss += float(edge_losses.sum())
                correct += int(((probs >= 0.5) == (tg.labels > 0.5)).sum())
                seen += tg.labels.size
            t0 = time.perf_counter()
            optimizer.step(grads_total, lr)
            spans["optimizer_s"] += time.perf_counter() - t0
            losses.append(batch_loss / total_edges)
            positive_edges += positives
        model.step_count = optimizer.step_count
        history.append(
            {
                "epoch": epoch + 1,
                "lr": lr,
                "loss": float(np.mean(losses)) if losses else math.nan,
                "edge_accuracy": correct / seen if seen else math.nan,
                "teacher_force_s": teacher_force_s if epoch == 0 else 0.0,
                **spans,
                "positive_edges": positive_edges,
                "negative_edges": seen - positive_edges,
            }
        )
    return history


# ---------------------------------------------------------------------------
# Checkpoints


def save_model(path, model: MpnModel) -> None:
    arrays = {}
    sizes = {}
    for name, comp in model.components():
        if isinstance(comp, Mlp):
            sizes[name] = comp.layer_sizes
            for k, p in enumerate(comp.params()):
                arrays[f"{name}.{k}"] = p
        else:  # LstmCell
            sizes[name] = [comp.input_dim, comp.hidden_dim]
            for k, p in enumerate(comp.params()):
                arrays[f"{name}.{k}"] = p
    meta = {
        "layer_sizes": sizes,
        "rounds": model.rounds,
        "aggregation": model.aggregation,
        "step_count": model.step_count,
    }
    save_checkpoint(path, arrays, meta)


def load_model(path) -> MpnModel:
    arrays, meta = load_checkpoint(path)
    sizes = meta["layer_sizes"]
    rng = np.random.default_rng(0)
    parts = {}
    for name in ("node_encoder", "edge_encoder", "edge_update", "node_update", "classifier"):
        parts[name] = Mlp(sizes[name], rng)
    lstm = LstmCell(sizes["lstm"][0], sizes["lstm"][1], rng)
    model = MpnModel(
        node_encoder=parts["node_encoder"],
        edge_encoder=parts["edge_encoder"],
        edge_update=parts["edge_update"],
        node_update=parts["node_update"],
        classifier=parts["classifier"],
        lstm=lstm,
        rounds=int(meta["rounds"]),
        aggregation=meta["aggregation"],
        step_count=int(meta["step_count"]),
    )
    for name, comp in model.components():
        for k, p in enumerate(comp.params()):
            stored = arrays[f"{name}.{k}"]
            if stored.shape != p.shape:
                raise ValueError(f"checkpoint array {name}.{k} has shape {stored.shape}")
            p[...] = stored
    return model
