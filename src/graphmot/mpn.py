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
from dataclasses import dataclass, field

import numpy as np

from .core import BoundingBox, Detection, Trajectories, box_array, frame_overlaps
from .graph import AssocGraph, build_graph
from .integration import BATCHED_MODES, integrate, integrate_rows
from .motion import (
    boxes_from_means,
    kf_init_batch,
    kf_predict_batch,
    kf_update_batch,
)
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


def _window_tracks(frames, target_frame, window_frames):
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


def ground_truth_walk(
    frames: dict[int, list[Detection]],
    events: dict[int, list[tuple[int, int, Detection]]],
    last_frame: int,
    integration: str,
    *,
    lstm_cell: LstmCell | None = None,
    lost_frame_limit: int | None = None,
):
    """Filter and integrate each identity along its own labeled detections.

    events maps a frame number to its labeled detections as (identity,
    index in the frame, detection); "iou" integration reads the whole
    frame from frames. One walk from the first event to last_frame: each
    frame predicts the live rows in one batch and yields (frame, live,
    trajectories, lstm_caches), every identity started so far as one row
    of trajectories in start order, live indexing the predicted rows (a
    slice without a limit) and lstm_caches holding each row's "lstm" step
    caches. Before last_frame, the walk then starts the identities first
    seen in the frame and updates the observed ones in one batch ("lstm"
    steps them one by one); a second detection of an identity in the
    frame is a further update without a predict. Every identity thus gets
    the predicts, updates and integration steps it would get on its own,
    with the same bits.

    A row is live while its last observation is at most lost_frame_limit
    frames old (always, when None); the rest are neither predicted nor
    yielded, and an update resumes from their last state. While nothing
    is live the walk jumps to the next frame with events.
    """
    state = Trajectories([], [], [], [], [], [])
    row: dict[int, int] = {}  # identity -> row
    lstm_states: list = []
    lstm_caches: list[list] = []
    numbers = sorted(f for f in events if f <= last_frame)
    frame = numbers[0] if numbers else last_frame
    while True:
        if lost_frame_limit is None:
            live = slice(0, len(state))
        else:
            live = np.flatnonzero(frame - state.last_seen <= lost_frame_limit)
        means, covs = state.means[live], state.covs[live]
        if len(means):
            state.means[live], state.covs[live] = kf_predict_batch(means, covs)
        yield frame, live, state, lstm_caches
        if frame >= last_frame:
            return

        started: list[tuple[int, Detection]] = []
        passes: list[list[tuple[int, int, Detection]]] = []  # k-th update of an identity here
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
            if integration in BATCHED_MODES:
                overlaps = None
                if integration == "iou":
                    overlaps = frame_overlaps(frames[frame], [j for _, j, _ in batch])
                fresh = np.array([det.feature for _, _, det in batch])
                state.features[rows] = integrate_rows(
                    integration, state.features[rows], fresh, overlaps
                )
            else:
                for r, _, det in batch:
                    state.features[r], lstm_states[r], cache = integrate(
                        integration, state.features[r], det.feature,
                        lstm_cell=lstm_cell, lstm_state=lstm_states[r],
                    )
                    lstm_caches[r].append(cache)
            state.last_boxes[rows] = boxes
            state.last_seen[rows] = frame

        if len(state) and (
            lost_frame_limit is None or frame + 1 - state.last_seen.max() <= lost_frame_limit
        ):
            frame += 1
        else:
            later = bisect.bisect_right(numbers, frame)
            if later == len(numbers):
                return
            frame = numbers[later]


def teacher_force(
    frames: dict[int, list[Detection]],
    target_frame: int,
    tracks: dict[int, list[tuple[int, Detection]]],
    integration: str,
    lstm_cell: LstmCell | None = None,
) -> TeacherForced:
    """ground_truth_walk of the identities of tracks (identity -> (index in
    frame, detection) list), run to the target frame."""
    events: dict[int, list[tuple[int, int, Detection]]] = {}
    for gid, observations in tracks.items():
        for j, det in observations:
            events.setdefault(det.frame, []).append((gid, j, det))
    walk = ground_truth_walk(frames, events, target_frame, integration, lstm_cell=lstm_cell)
    for _, _, state, lstm_caches in walk:
        pass
    order = np.argsort(state.ids, kind="stable")
    trajectories = state.take(order)
    trajectories.frames_lost = target_frame - trajectories.last_seen - 1
    boxes = boxes_from_means(trajectories.means)
    for array in (boxes, trajectories.features, trajectories.means, trajectories.covs):
        array.flags.writeable = False
    chains: dict[int, _LstmChain] = {}
    for k, r in enumerate(order.tolist()):
        caches = lstm_caches[r]
        if caches:
            h_norm = float(np.linalg.norm(caches[-1].c_tanh * caches[-1].o))
            chains[k] = _LstmChain(caches, h_norm, trajectories.features[k])
    return TeacherForced(list(tracks), trajectories, boxes, chains)


def build_training_graph(
    frames: dict[int, list[Detection]],
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
    matching decisions). Edge labels are identity equality.

    `teacher` is this sample's teacher_force result over all its
    identities, computed once and reused; without it the kept identities
    are teacher-forced here. "lstm" features depend on the weights being
    trained, so that mode takes none.
    """
    if teacher is not None and integration == "lstm":
        raise ValueError("lstm integration cannot reuse teacher-forced features")
    detections = list(frames.get(target_frame, []))
    if teacher is None:
        tracks = _window_tracks(frames, target_frame, window_frames)
        identities = list(tracks)
    else:
        identities = teacher.identities
    if rng is not None and node_dropout > 0.0:
        detections = [d for d in detections if rng.random() >= node_dropout]
        identities = [g for g in identities if rng.random() >= node_dropout]
    if rng is not None and box_jitter > 0.0:
        jittered = []
        for det in detections:
            b = det.box
            dx, dy = rng.normal(0.0, box_jitter * b.h, size=2)
            jittered.append(
                Detection(det.frame, BoundingBox(b.x + dx, b.y + dy, b.w, b.h),
                          det.confidence, det.feature, det.gt_id)
            )
        detections = jittered
    if not detections or not identities:
        return None
    if teacher is None:
        kept = {g: tracks[g] for g in identities}
        teacher = teacher_force(frames, target_frame, kept, integration, model.lstm)
    trajectories, traj_boxes, chains = teacher.select(identities)

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
    det_ids = graph.detections.gt_ids or (None,) * len(graph.detections)
    traj_ids = graph.trajectories.ids.tolist()
    labels = np.array(
        [
            1.0 if det_ids[j] == traj_ids[i] else 0.0
            for i, j in zip(graph.edge_traj.tolist(), graph.edge_det.tolist())
        ]
    )
    return _TrainGraph(graph, labels, chains)


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
    sequences: list[dict[int, list[Detection]]],
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
    from the preceding frames of its window, once per call except in
    "lstm" mode. Batches average the weighted
    BCE over all edges; the positive weight defaults to the batch's
    negative/positive ratio.
    """
    if not any(
        det.gt_id is not None for seq in sequences for dets in seq.values() for det in dets
    ):
        raise ValueError("training requires ground-truth labels on the detections")
    samples = []
    for si, seq in enumerate(sequences):
        frames_sorted = sorted(seq)
        for t in frames_sorted:
            window = [
                f
                for f in frames_sorted
                if t - (cfg.frames_per_graph - 1) * cfg.frame_stride <= f < t
                and (t - f) % cfg.frame_stride == 0
            ]
            if seq.get(t) and any(
                det.gt_id is not None for f in window for det in seq.get(f, [])
            ):
                samples.append((si, t, window))
    if not samples:
        raise ValueError("no trainable samples in the given sequences")
    # Dropout and jitter leave the teacher-forced states alone, so every
    # sample is teacher-forced once; "lstm" features move with the weights.
    teachers = [None] * len(samples)
    if integration != "lstm":
        teachers = [
            teacher_force(sequences[si], t, _window_tracks(sequences[si], t, window), integration)
            for si, t, window in samples
        ]

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
        for start in range(0, len(order), cfg.batch_graphs):
            batch = []
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
                probs, state = mpn_forward(model, tg.graph)
                edge_losses, dp = weighted_bce(probs, tg.labels, omega)
                dlogits = dp * probs * (1.0 - probs) / total_edges
                flat, d_traj_feats = mpn_backward(model, state, dlogits)
                _backprop_lstm_chains(model, tg.lstm_chains, d_traj_feats, flat)
                for g_total, g in zip(grads_total, flat):
                    g_total += g
                batch_loss += float(edge_losses.sum())
                correct += int(((probs >= 0.5) == (tg.labels > 0.5)).sum())
                seen += tg.labels.size
            optimizer.step(grads_total, lr)
            losses.append(batch_loss / total_edges)
        model.step_count = optimizer.step_count
        history.append(
            {
                "epoch": epoch + 1,
                "lr": lr,
                "loss": float(np.mean(losses)) if losses else math.nan,
                "edge_accuracy": correct / seen if seen else math.nan,
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
