"""Message passing network over the association graph.

Node and edge encoders lift raw features into embedding space; L rounds of
propagation then alternate a node->edge update (every edge embedding is
recomputed from its endpoints and its previous value) with an edge->node
update (every node aggregates a per-edge message computed from the node
and the fresh edge embedding). Trajectory and detection embeddings are
updated separately so the graph stays bipartite, but both sides share the
same node-update parameters. A small classifier head turns final edge
embeddings into match probabilities.

The rounds run projected: the first-layer weights split by input block, so
node embeddings are projected per node rather than per edge, and
node_update's linear output layer runs per node after aggregation. Training
(mpn_forward) and inference (score_graph) run the same rounds, with and
without the references the backward pass reads, so they give the same bits.

Gradients are hand-derived reverse-mode, mirroring the projected forward
pass layer by layer; training minimizes a positive-weighted binary
cross-entropy over edges with teacher-forced trajectory features. A batch's
graphs are small, so training builds each batch's graphs as one disjoint
union in one pass (training_union, graph.build_union) and runs one forward
and one backward on the union, so a step's memory is set by
TrainConfig.batch_graphs.
"""

from __future__ import annotations

import bisect
import math
import numbers
import time
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

from .core import Detections, Trajectories, frame_overlaps
from .graph import EDGE_FEATURE_DIM, AssocGraph, _check_fps, build_union
from .integration import absorb, start
from .motion import boxes_from_means, kf_predict_batch
from .nn import AdamOptimizer, LstmCell, Mlp, sigmoid, weighted_bce
from .nn import load_checkpoint, save_checkpoint

AGGREGATIONS = ("mean", "sum")
MLPS = ("node_encoder", "edge_encoder", "edge_update", "node_update", "classifier")


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
    sizes = {
        "node_encoder": [feature_dim, d_node, d_node],
        "edge_encoder": [EDGE_FEATURE_DIM, d_edge, d_edge],
        "edge_update": [2 * d_node + d_edge, d_edge, d_edge],
        "node_update": [d_node + d_edge, d_node, d_node],
        "classifier": [d_edge, d_edge, 1],
        "lstm": [feature_dim, feature_dim],
    }
    return _assemble(sizes, rounds, aggregation, np.random.default_rng(seed))


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_rounds(rounds) -> None:
    """Refuse a number of propagation rounds the network cannot run."""
    if not _is_count(rounds) or rounds < 0:
        raise ValueError(f"rounds must be an integer >= 0, got {rounds!r}")


def _check_shape(sizes, rounds, aggregation) -> None:
    """Refuse, naming the field, layer sizes that do not chain into one
    network, a negative number of rounds or an unknown aggregation."""
    check_rounds(rounds)
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")
    if not isinstance(sizes, dict):
        raise ValueError(f"layer_sizes must be a mapping, got {sizes!r}")
    for name in MLPS + ("lstm",):
        layers = sizes.get(name)
        if (not isinstance(layers, list) or len(layers) < 2 or (name == "lstm" and len(layers) != 2)
                or not all(_is_count(s) and s > 0 for s in layers)):
            raise ValueError(f"layer_sizes.{name} must be a list of positive sizes, got {layers!r}")
    node, edge = sizes["node_encoder"][-1], sizes["edge_encoder"][-1]
    chain = (
        ("edge_encoder", 0, EDGE_FEATURE_DIM, "the edge feature width"),
        ("edge_update", 0, 2 * node + edge, "2 node_encoder outputs + the edge_encoder output"),
        ("edge_update", -1, edge, "the edge_encoder output"),
        ("node_update", 0, node + edge, "the node_encoder output + the edge_encoder output"),
        ("node_update", -1, node, "the node_encoder output"),
        ("classifier", 0, edge, "the edge_encoder output"),
        ("classifier", -1, 1, "one logit"),
        ("lstm", 0, sizes["node_encoder"][0], "the node_encoder input"),
        ("lstm", 1, sizes["node_encoder"][0], "the node_encoder input"),
    )
    for name, k, want, what in chain:
        if sizes[name][k] != want:
            side = "input" if k == 0 else "output"
            raise ValueError(
                f"layer_sizes.{name} {side} is {sizes[name][k]}, but must be {what} ({want})"
            )


def _assemble(sizes, rounds, aggregation, rng, step_count: int = 0) -> MpnModel:
    """A model of the checked layer sizes, its weights drawn from rng in
    component order."""
    _check_shape(sizes, rounds, aggregation)
    return MpnModel(
        **{name: Mlp(sizes[name], rng) for name in MLPS},
        lstm=LstmCell(*sizes["lstm"], rng),
        rounds=rounds,
        aggregation=aggregation,
        step_count=step_count,
    )


@dataclass(frozen=True)
class ScatterPlan:
    """How (k, width) rows of messages sum into (n, width) nodes, row i
    into node index[i].

    Computed once per graph and used by every round: `flat` indexes the
    flattened node array with every entry of the messages, `denominators`
    is the (n, 1) column max(count, 1) of each node's messages, and
    `empty` the (n, 1) mask of nodes without any.
    """

    flat: np.ndarray
    denominators: np.ndarray
    empty: np.ndarray

    @classmethod
    def of(cls, index: np.ndarray, n: int, width: int) -> "ScatterPlan":
        counts = np.bincount(index, minlength=n)[:, None]
        return cls(_flat(index, width), np.maximum(counts, 1).astype(np.float64), counts == 0)


def _flat(index: np.ndarray, width: int) -> np.ndarray:
    """The entries of (k, width) rows in a flattened (n, width) array, row
    i landing in row index[i]."""
    return (index[:, None] * width + np.arange(width)).ravel()


@dataclass
class MpnState:
    """Per-layer embeddings plus what the backward pass reads.

    Each node_layers entry stacks the trajectory rows (the first n_traj)
    over the detection rows. With caches the layer lists hold every layer,
    so round r reads node_layers[r] and edge_layers[r], and per round
    edge_hidden and message_hidden keep the hidden activations of
    edge_update per edge and of node_update per message, and aggregated
    the node rows node_update's output layer read (None for a one-layer
    node_update); all are references to the forward's arrays, not copies.
    projection is the stacked node-side weights the rounds ran with
    (_projection), which the backward reuses.
    Without caches (score_graph) the layer lists hold only the latest layer
    and nothing else is kept, so mpn_backward refuses the state.
    """

    graph: AssocGraph
    node_layers: list[np.ndarray]
    edge_layers: list[np.ndarray]
    caches: bool = True
    encoder_caches: tuple | None = None
    plan: ScatterPlan | None = None
    projection: np.ndarray | None = None
    edge_hidden: list[list[np.ndarray]] = field(default_factory=list)
    message_hidden: list[list[np.ndarray]] = field(default_factory=list)
    aggregated: list[np.ndarray | None] = field(default_factory=list)
    classifier_cache: object = None
    logits: np.ndarray | None = None

    @property
    def n_traj(self) -> int:
        return len(self.graph.traj_features)


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
    return MpnState(
        graph=graph,
        node_layers=[np.concatenate([t0, d0])],
        edge_layers=[h0],
        caches=caches,
        encoder_caches=(t_cache, d_cache, h_cache) if caches else None,
    )


def _scatter_sum(rows, flat: np.ndarray, n: int) -> np.ndarray:
    # One flat bincount (over a ScatterPlan's flat index) sums each node's
    # rows in row order from zero, exactly as np.add.at would, at a fraction
    # of its cost. (Without edges bincount returns integers.)
    out = np.bincount(flat, weights=rows.ravel(), minlength=n * rows.shape[1])
    return out.astype(np.float64, copy=False).reshape(n, rows.shape[1])


def _aggregate(messages, plan: ScatterPlan, previous, aggregation):
    # Dividing by max(count, 1) leaves an empty node's zero sum at zero;
    # the copy then restores its previous value.
    out = _scatter_sum(messages, plan.flat, len(previous))
    if aggregation == "mean":
        out /= plan.denominators
    np.copyto(out, previous, where=plan.empty)
    return out


def _projection(model: MpnModel, dn: int) -> tuple[np.ndarray, np.ndarray]:
    """(project, bias): node rows times project are the node rows times
    [edge_update's trajectory block | its detection block | node_update's
    node block] of the first-layer weights. Each edge gathers one
    projection per block, so bias carries the first layers' biases."""
    w_edge, w_node = model.edge_update.weights[0], model.node_update.weights[0]
    project = np.hstack([w_edge[:, :dn].T, w_edge[:, dn : 2 * dn].T, w_node[:, :dn].T])
    bias = np.concatenate([model.edge_update.biases[0], np.zeros(len(w_edge)),
                           model.node_update.biases[0]])
    return project, bias


def propagate(model: MpnModel, state: MpnState) -> MpnState:
    """Run the model's propagation rounds on node-side projections.

    Nodes are the stacked trajectory and detection rows (MpnState), and
    each edge has two messages, one to each end. The first layers' weights
    split by input block (_projection), so every node is
    projected once by the blocks that take node embeddings, and the
    projections are gathered to the edges; node_update's projection of the
    edge embedding is shared by both messages of an edge, and its output
    layer runs per node (_update_nodes). The weights are read from the
    model on every call, so training updates show.

    With caches each round appends its layers and keeps references to what
    mpn_backward reads (MpnState); without them the state's one layer is
    replaced by the last. Both run the same arithmetic, so they give the
    same bits.
    """
    ti, dj = state.graph.edge_traj, state.graph.edge_det
    nodes, h, n_traj = state.node_layers[-1], state.edge_layers[-1], state.n_traj
    dn = nodes.shape[1]
    edge_update, node_update = model.edge_update, model.node_update
    project, bias = _projection(model, dn)
    eh = len(edge_update.weights[0])
    # Contiguous copies multiply E rows faster than the strided views.
    e_h = np.ascontiguousarray(edge_update.weights[0][:, 2 * dn :].T)
    n_h = np.ascontiguousarray(node_update.weights[0][:, dn:].T)
    dk = dj + n_traj  # each edge's detection row in the node array
    ends = np.concatenate([ti, dk])  # message k goes to node ends[k]
    width = node_update.layer_sizes[-2] if len(node_update.weights) > 1 else dn
    plan = ScatterPlan.of(ends, len(nodes), width)
    for _ in range(model.rounds):
        edge_hidden, message_hidden = ([], []) if state.caches else (None, None)
        projected = nodes @ project
        projected += bias
        z = h @ e_h
        z += projected[ti, :eh]
        z += projected[dk, eh : 2 * eh]
        h_next = _layers_after_first(edge_update, z, len(edge_update.weights), edge_hidden)
        shared = h_next @ n_h
        messages = projected[ends, 2 * eh :]
        to_ends = messages.reshape(2, len(h_next), messages.shape[1])  # a view
        to_ends += shared
        nodes_next, hidden = _update_nodes(node_update, messages, plan, nodes, model.aggregation,
                                           message_hidden)
        if state.caches:
            state.edge_hidden.append(edge_hidden)
            state.message_hidden.append(message_hidden)
            state.aggregated.append(hidden)
            state.node_layers.append(nodes_next)
            state.edge_layers.append(h_next)
        nodes, h = nodes_next, h_next
    state.plan, state.projection = plan, project
    if not state.caches:
        state.node_layers[-1], state.edge_layers[-1] = nodes, h
    return state


def _layers_after_first(mlp: Mlp, z: np.ndarray, stop: int, kept: list | None = None) -> np.ndarray:
    """The input of layer `stop` of mlp (its output when stop is the layer
    count) from the first layer's pre-activation z, which it overwrites.
    Every ReLU output is appended to kept, when given."""
    last = len(mlp.weights) - 1
    for k in range(1, stop):
        np.maximum(z, 0.0, out=z)
        if kept is not None:
            kept.append(z)
        z = z @ mlp.weights[k].T
        z += mlp.biases[k]
    if stop - 1 != last:
        np.maximum(z, 0.0, out=z)
        if kept is not None:
            kept.append(z)
    return z


def _layers_after_first_backward(mlp: Mlp, stop: int, kept: list, g: np.ndarray,
                                 grads) -> np.ndarray:
    """The gradient of the first layer's pre-activation, from the gradient
    g of what _layers_after_first(mlp, z, stop, kept) returned, which it
    may overwrite; the gradients of layers 1 to stop - 1 add into grads
    (mlp.params order)."""
    if stop - 1 != len(mlp.weights) - 1:
        g *= kept[-1] > 0.0
    for k in range(stop - 1, 0, -1):
        grads[2 * k] += g.T @ kept[k - 1]
        grads[2 * k + 1] += g.sum(axis=0)
        g = g @ mlp.weights[k]
        g *= kept[k - 1] > 0.0
    return g


def _update_nodes(node_update: Mlp, z, plan: ScatterPlan, previous, aggregation, kept=None):
    """(nodes, hidden): _aggregate of node_update's per-edge messages, from
    their first-layer pre-activations z, and the node rows its output layer
    read (None for one layer). The output layer is linear, like the mean
    and the sum, so it runs once per node on the aggregated input to it;
    with "sum" its bias counts once per edge. The hidden activations go to
    kept, when given."""
    layers = len(node_update.weights)
    if layers == 1:  # z is the message
        return _aggregate(z, plan, previous, aggregation), None
    hidden = _scatter_sum(_layers_after_first(node_update, z, layers - 1, kept), plan.flat,
                          len(previous))
    w, b = node_update.weights[-1], node_update.biases[-1]
    if aggregation == "mean":
        hidden /= plan.denominators
        out = hidden @ w.T
        out += b
    else:
        out = hidden @ w.T
        out += plan.denominators * b  # the edge count where it is not 0
    np.copyto(out, previous, where=plan.empty)
    return out, hidden


def classify_edges(model: MpnModel, state: MpnState) -> np.ndarray:
    """Match probability per edge from the final edge embeddings."""
    logits, state.classifier_cache = _run(model.classifier, state.edge_layers[-1], state.caches)
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
    classify_edges with the backward caches off, which gives mpn_forward's
    bits."""
    state = encode(model, graph, caches=False)
    propagate(model, state)
    return classify_edges(model, state)


def mpn_backward(model: MpnModel, state: MpnState, dlogits: np.ndarray):
    """Reverse the full forward pass.

    dlogits is dLoss/dlogit per edge. Returns (grads, dtraj_features) where
    grads aligns with model.param_arrays() and dtraj_features is the
    gradient w.r.t. the trajectories' input appearance features (used to
    continue backprop into the recurrent integrator).

    Each round is reversed in its projected form: node_update's output
    layer per node, its hidden layers and edge_update's per edge; the
    gradients of the gathered projections then sum back to the nodes with
    one bincount per gather, and the node-side blocks of both first layers
    take their gradient from one product over the node rows.
    """
    if not state.caches:
        raise ValueError("state was computed without caches (score_graph)")
    edge_update, node_update = model.edge_update, model.node_update
    n_traj, dn = state.n_traj, state.node_layers[0].shape[1]
    n_edges = state.graph.edge_traj.size
    e_grads, n_grads = edge_update.zero_grads(), node_update.zero_grads()
    d_edge, cls_grads = model.classifier.backward(state.classifier_cache, dlogits[:, None])

    d_nodes = np.zeros_like(state.node_layers[0])
    plan, ti, dj = state.plan, state.graph.edge_traj, state.graph.edge_det
    ends = np.concatenate([ti, dj + n_traj])
    project = state.projection
    eh, nh = len(edge_update.weights[0]), len(node_update.weights[0])
    t_flat, d_flat, m_flat = _flat(ti, eh), _flat(dj, eh), _flat(ends, nh)
    # What each node adds to node_update's output-layer bias: once under
    # "mean", once per message under "sum", nothing without messages.
    counts = np.where(plan.empty, 0.0, plan.denominators)[:, 0]
    bias_weight = np.minimum(counts, 1.0) if model.aggregation == "mean" else counts
    for r in range(model.rounds - 1, -1, -1):
        # node_update's output layer, per node. Its input rows are zero on
        # nodes without messages, and no message reads their gradient.
        d_out = d_nodes
        hidden = state.aggregated[r]
        if hidden is not None:
            n_grads[-2] += d_nodes.T @ hidden
            n_grads[-1] += bias_weight @ d_nodes
            d_out = d_nodes @ node_update.weights[-1]
        if model.aggregation == "mean":
            d_out = d_out / plan.denominators
        g_msg = d_out[ends]
        if hidden is not None:
            g_msg = _layers_after_first_backward(node_update, len(node_update.weights) - 1,
                                                 state.message_hidden[r], g_msg, n_grads)
        # Both messages of an edge share its projection of the edge embedding.
        d_shared = g_msg[:n_edges] + g_msg[n_edges:]
        n_grads[0][:, dn:] += d_shared.T @ state.edge_layers[r + 1]
        d_edge += d_shared @ node_update.weights[0][:, dn:]
        g_edge = _layers_after_first_backward(edge_update, len(edge_update.weights),
                                              state.edge_hidden[r], d_edge, e_grads)
        e_grads[0][:, 2 * dn :] += g_edge.T @ state.edge_layers[r]
        d_edge = g_edge @ edge_update.weights[0][:, 2 * dn :]

        # The gathered projections' gradients, summed back to the nodes.
        d_projected = np.zeros((len(d_nodes), project.shape[1]))
        d_projected[:n_traj, :eh] = _scatter_sum(g_edge, t_flat, n_traj)
        d_projected[n_traj:, eh : 2 * eh] = _scatter_sum(g_edge, d_flat, len(d_nodes) - n_traj)
        d_projected[:, 2 * eh :] = _scatter_sum(g_msg, m_flat, len(d_nodes))
        d_blocks = d_projected.T @ state.node_layers[r]
        e_grads[0][:, :dn] += d_blocks[:eh]
        e_grads[0][:, dn : 2 * dn] += d_blocks[eh : 2 * eh]
        n_grads[0][:, :dn] += d_blocks[2 * eh :]
        d_bias = d_projected.sum(axis=0)
        e_grads[1] += d_bias[:eh]
        n_grads[1] += d_bias[2 * eh :]
        # A node without messages is read by no edge, so its gradient, which
        # would pass straight through, stays zero.
        d_nodes = d_projected @ project.T

    t_cache, d_cache, h_cache = state.encoder_caches
    d_traj_feats, traj_grads = model.node_encoder.backward(t_cache, d_nodes[:n_traj])
    _, det_grads = model.node_encoder.backward(d_cache, d_nodes[n_traj:])
    grads = {
        "node_encoder": [t + d for t, d in zip(traj_grads, det_grads)],
        "edge_encoder": model.edge_encoder.backward(h_cache, d_edge)[1],
        "edge_update": e_grads,
        "node_update": n_grads,
        "classifier": cls_grads,
        "lstm": model.lstm.zero_grads(),
    }
    return [g for name, _ in model.components() for g in grads[name]], d_traj_feats


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainConfig:
    # A batch's graphs train as one union in one forward and backward pass, so
    # batch_graphs sets a step's memory. With the benchmark's recipe one
    # train_model call's tracemalloc peak is 3.8 MB on `crossing` (at most 204
    # edges per batch) and 16.7 MB on `crowded` (median 1,032, at most 1,299
    # edges per batch), the same for 2 and 6 epochs.
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
                            ("epochs", 0), ("lr_decay_every", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_count(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
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

    def select(self, identities) -> tuple[np.ndarray, dict[int, _LstmChain]]:
        """The rows of a subset of the identities, in id order, and their
        chains keyed by position among those rows."""
        rows = np.searchsorted(self.trajectories.ids, np.sort(np.asarray(identities, np.int64)))
        chains = {k: self.lstm_chains[r] for k, r in enumerate(rows.tolist())
                  if r in self.lstm_chains} if self.lstm_chains else {}
        return rows, chains


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
    Every event's row and update pass are found before the walk, with one
    sort of all events by their (end, identity) keys (_walk_events).

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
    lstm_caches: list[list] | None = [] if lstm else None  # per row
    numbers = sorted(events)
    if not numbers:
        return
    event_frames, event_ends, gids, index, rows, passes = _walk_events(events, numbers)
    bounds = np.searchsorted(event_frames, numbers).tolist() + [event_frames.size]
    events_of = {f: (lo, hi) for f, lo, hi in zip(numbers, bounds, bounds[1:]) if lo < hi}
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
            keep = np.flatnonzero(ends != frame)
            state, ends, starts = state.take(keep), ends[keep], starts[keep]
            if lstm:
                lstm_caches = [lstm_caches[r] for r in keep.tolist()]

        if frame in events_of:
            lo, hi = events_of[frame]
            here_passes = passes[lo:hi]
            started = lo + np.flatnonzero(here_passes < 0)
            if started.size:
                state = state.concat(start(gids[started], frames[frame], index[started], frame,
                                           lstm))
                ends = np.concatenate([ends, event_ends[started]])
                starts = np.concatenate([starts, rows[started]])
                if lstm:
                    lstm_caches += [[] for _ in started]
            last_pass = here_passes.max()
            if last_pass >= 0:
                detections = frames[frame]
                overlaps = frame_overlaps(detections) if integration == "iou" else None
                for k in range(last_pass + 1):
                    here = lo + np.flatnonzero(here_passes == k)
                    batch = np.searchsorted(starts, rows[here])
                    caches = absorb(state, batch, detections, index[here], frame, integration,
                                    overlaps=None if overlaps is None else overlaps[index[here]],
                                    lstm_cell=lstm_cell)
                    for r, cache in zip(batch.tolist(), caches or ()):
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


def _walk_events(events, numbers):
    """Every event of a ground_truth_walk in walk order (its frames in the
    ascending order of numbers, each frame's events in dict order), without
    those at or after their row's end, as columns (frames, ends,
    identities, indices in the frame, rows, passes).

    rows numbers each (end, identity) row in the order the walk starts
    them. passes ranks each event among its row's events in its frame,
    less one in the frame where the row starts: -1 marks the event that
    starts a row, and k a row's k-th update in its frame (from 0). One
    stable sort of the events by their (end, identity) keys lays out each
    row's events in walk order.
    """
    per_frame = [events[f] for f in numbers]
    counts = [len(pairs) for found in per_frame for pairs in found.values()]
    ends = np.repeat(np.fromiter(chain.from_iterable(per_frame), np.int64), counts)
    frames = np.repeat(np.repeat(numbers, [len(found) for found in per_frame]), counts)
    flat = chain.from_iterable(chain.from_iterable(chain.from_iterable(
        found.values() for found in per_frame)))
    pairs = np.fromiter(flat, np.int64, 2 * ends.size).reshape(-1, 2)
    kept = ends > frames
    frames, ends, gids, index = frames[kept], ends[kept], pairs[kept, 0], pairs[kept, 1]
    order = np.lexsort((gids, ends))
    at = np.arange(order.size)
    first = np.ones(order.size, dtype=bool)  # a row's first event, in key order
    first[1:] = (np.diff(ends[order]) != 0) | (np.diff(gids[order]) != 0)
    row = np.cumsum(first) - 1  # the row of each event, in key order
    heads = order[first]  # the walk position of each row's first event
    number = np.empty(heads.size, dtype=np.int64)
    number[np.argsort(heads)] = np.arange(heads.size)
    sorted_frames = frames[order]
    run = first.copy()  # an event opening a row's events in one frame
    run[1:] |= sorted_frames[1:] != sorted_frames[:-1]
    rank = at - np.maximum.accumulate(np.where(run, at, 0))
    rows, passes = np.empty_like(at), np.empty_like(at)
    rows[order] = number[row]
    passes[order] = rank - (sorted_frames == frames[heads][row])
    return frames, ends, gids, index, rows, passes


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


@dataclass
class _Sample:
    """One training sample after its augmentation draws: the rows of its
    teacher-forced trajectories (TeacherForced.select) and their chains,
    and its kept detections with their jittered boxes."""

    teacher: TeacherForced
    traj_rows: np.ndarray
    chains: dict[int, _LstmChain]
    detections: Detections
    det_rows: np.ndarray
    det_boxes: np.ndarray


def _draw_sample(frames, target_frame, window_frames, model, teacher, integration,
                 rng, node_dropout, box_jitter) -> _Sample | None:
    """A sample's augmentation draws (build_training_graph) and its
    teacher-forced rows; None when no detection or no identity is kept.
    Without a teacher the sample is teacher-forced first, which draws
    nothing from rng."""
    if teacher is not None and integration == "lstm":
        raise ValueError("lstm integration cannot reuse teacher-forced features")
    if teacher is None:
        sample = [(target_frame, window_frames)]
        (teacher,) = teacher_force_samples(frames, sample, integration, model.lstm)
    detections = frames.get(target_frame) or Detections.of([], target_frame)
    identities = teacher.identities
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
    traj_rows, chains = teacher.select(identities)
    return _Sample(teacher, traj_rows, chains, detections, rows, boxes)


def _union(parts: list[_Sample], graph_kw) -> _TrainGraph:
    """The training graph of the samples' graphs, built as one disjoint
    union (graph.build_union), with edge labels and the chains keyed by
    union row."""
    traj_counts = np.array([p.traj_rows.size for p in parts])
    det_counts = np.array([p.det_rows.size for p in parts])

    def traj(column):
        return np.concatenate([getattr(p.teacher.trajectories, column)[p.traj_rows] for p in parts])

    graph = build_union(
        traj_counts,
        det_counts,
        traj_boxes=np.concatenate([p.teacher.boxes[p.traj_rows] for p in parts]),
        traj_features=traj("features"),
        last_seen=traj("last_seen"),
        det_boxes=np.concatenate([p.det_boxes for p in parts]),
        det_features=np.concatenate([p.detections.features[p.det_rows] for p in parts]),
        det_frames=np.repeat([p.detections.frame for p in parts], det_counts),
        **graph_kw,
    )
    gt_ids = []
    for p in parts:
        labelled = p.detections.gt_ids
        gt_ids += [None] * p.det_rows.size if labelled is None \
            else [labelled[j] for j in p.det_rows.tolist()]
    has_id = np.array([g is not None for g in gt_ids])
    det_ids = np.array([0 if g is None else g for g in gt_ids], dtype=np.int64)
    et, ed = graph.edge_traj, graph.edge_det
    labels = (has_id[ed] & (det_ids[ed] == traj("ids")[et])).astype(np.float64)
    first = np.cumsum(traj_counts) - traj_counts
    chains = {int(t) + row: chain for p, t in zip(parts, first) for row, chain in p.chains.items()}
    return _TrainGraph(graph, labels, chains)


def training_union(
    samples,
    model: MpnModel,
    *,
    integration: str = "average",
    rng: np.random.Generator | None = None,
    node_dropout: float = 0.0,
    box_jitter: float = 0.0,
    **graph_kw,
) -> _TrainGraph | None:
    """A batch's training graphs as one disjoint union, built in one pass.

    samples are (frames, target frame, window frames, teacher) tuples, each
    as build_training_graph takes them, and graph_kw its k_neighbors,
    ratio_variant, alpha and fps. Each sample draws its augmentation in
    order from rng, as build_training_graph would; a sample without a kept
    detection or identity has no graph. The graphs' candidate edges, ratio
    test, edge features and labels are then built for all of them at once,
    and the union holds their rows and edges in sample order, with the bits
    of a join of build_training_graph's graphs; None without graphs.
    """
    parts = []
    for frames, target_frame, window_frames, teacher in samples:
        part = _draw_sample(frames, target_frame, window_frames, model, teacher, integration,
                            rng, node_dropout, box_jitter)
        if part is not None:
            parts.append(part)
    return _union(parts, graph_kw) if parts else None


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

    This is training_union of the one sample.
    """
    return training_union([(frames, target_frame, window_frames, teacher)], model,
                          integration=integration, rng=rng, node_dropout=node_dropout,
                          box_jitter=box_jitter, k_neighbors=k_neighbors,
                          ratio_variant=ratio_variant, alpha=alpha, fps=fps)


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


def _training_samples(sequences: list[dict[int, Detections]], cfg: TrainConfig, integration: str):
    """(samples, teachers, seconds) of train_model: one (sequence index,
    target frame, window frames) sample per target frame with a labelled
    window frame, each sample's TeacherForced (None in "lstm" mode), and the
    seconds spent teacher-forcing."""
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
    return samples, teachers, teacher_force_s


def _positive_weight(labels: np.ndarray, cfg: TrainConfig) -> float:
    """The BCE weight of a batch's positive edges: cfg.pos_weight, or the
    batch's negative/positive ratio (1 without positives or negatives)."""
    positives = int(labels.sum())
    if cfg.pos_weight is not None:
        return cfg.pos_weight
    if 0 < positives < labels.size:
        return (labels.size - positives) / positives
    return 1.0


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
    ratio. A batch's graphs are built as one disjoint union in one pass
    (training_union), which runs one forward and one backward pass, so
    cfg.batch_graphs sets a step's memory. Each graph's edges score as in a
    pass of its own, to rounding; the weight gradients sum the union's
    edges in one product.

    A row holds the epoch, learning rate, mean batch loss and edge
    accuracy, the seconds spent teacher-forcing (on the first epoch; 0
    after), building graphs and their unions, in forward and backward
    passes and in optimizer steps, and the positive and negative edges
    trained on.
    """
    _check_fps(fps)
    samples, teachers, teacher_force_s = _training_samples(sequences, cfg, integration)
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
            t0 = time.perf_counter()
            batch = []
            for oi in order[start : start + cfg.batch_graphs]:
                si, t, window = samples[oi]
                batch.append((sequences[si], t, window, teachers[oi]))
            union = training_union(
                batch, model, integration=integration, rng=rng, node_dropout=cfg.node_dropout,
                box_jitter=cfg.box_jitter, k_neighbors=k_neighbors,
                ratio_variant=ratio_variant, alpha=alpha, fps=fps,
            )
            spans["graph_s"] += time.perf_counter() - t0
            if union is None:
                continue
            labels = union.labels
            t0 = time.perf_counter()
            probs, state = mpn_forward(model, union.graph)
            edge_losses, dp = weighted_bce(probs, labels, _positive_weight(labels, cfg))
            t1 = time.perf_counter()
            dlogits = dp * probs * (1.0 - probs) / labels.size
            grads, d_traj_feats = mpn_backward(model, state, dlogits)
            _backprop_lstm_chains(model, union.lstm_chains, d_traj_feats, grads)
            t2 = time.perf_counter()
            optimizer.step(grads, lr)
            spans["forward_s"] += t1 - t0
            spans["backward_s"] += t2 - t1
            spans["optimizer_s"] += time.perf_counter() - t2
            losses.append(float(edge_losses.sum()) / labels.size)
            correct += int(((probs >= 0.5) == (labels > 0.5)).sum())
            seen += labels.size
            positive_edges += int(labels.sum())
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
    """The model save_model wrote to path; a checkpoint whose layer sizes,
    rounds or aggregation the network cannot run is refused."""
    arrays, meta = load_checkpoint(path)
    try:
        model = _assemble(meta.get("layer_sizes"), meta.get("rounds"), meta.get("aggregation"),
                          np.random.default_rng(0), int(meta["step_count"]))
    except ValueError as err:
        raise ValueError(f"checkpoint {path}: {err}") from None
    for name, comp in model.components():
        for k, p in enumerate(comp.params()):
            stored = arrays[f"{name}.{k}"]
            if stored.shape != p.shape:
                raise ValueError(f"checkpoint array {name}.{k} has shape {stored.shape}")
            p[...] = stored
    return model
