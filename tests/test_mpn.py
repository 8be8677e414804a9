import hashlib
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from references import (
    concatenated_backward,
    concatenated_forward,
    join,
    max_overlap,
    reference_integrate,
    reference_teacher_force,
    reference_train_model,
    reference_training_union,
    window_tracks,
)

from graphmot import integration, mpn
from graphmot.core import BoundingBox, Detection, Detections, Trajectories, Trajectory
from graphmot.graph import AssocGraph, build_graph
from graphmot.motion import kf_init, kf_predict, kf_update, state_to_box
from graphmot.mpn import (
    TrainConfig,
    build_training_graph,
    classify_edges,
    create_model,
    encode,
    load_model,
    mpn_backward,
    mpn_forward,
    propagate,
    save_model,
    score_graph,
    train_model,
)
from graphmot.nn import Mlp, grad_check, load_checkpoint, save_checkpoint, weighted_bce
from graphmot.synth import generate, preset


def traj_rows(state, layer):
    return state.node_layers[layer][: state.n_traj]


def det_rows(state, layer):
    return state.node_layers[layer][state.n_traj :]


def unit_vec(dim, axis):
    v = np.zeros(dim)
    v[axis] = 1.0
    return v


def make_traj(tid, box, feature, last_seen=1):
    return Trajectory(tid, np.asarray(feature, float), box, last_seen, kf_init(box))


def make_det(box, feature, frame=2, conf=0.9, gt_id=None):
    return Detection(frame, box, conf, np.asarray(feature, float), gt_id)


def grid_graph(n_traj, n_det, dim=6, seed=0, spread=120.0, **build_kw):
    rng = np.random.default_rng(seed)
    trajs, dets = [], []
    for i in range(n_traj):
        f = rng.normal(size=dim)
        b = BoundingBox(spread * i, 80.0, 28, 56)
        trajs.append(make_traj(i + 1, b, f / np.linalg.norm(f)))
    for j in range(n_det):
        f = rng.normal(size=dim)
        b = BoundingBox(spread * j + rng.uniform(-4, 4), 82.0, 28, 56)
        dets.append(make_det(b, f / np.linalg.norm(f), gt_id=j + 1))
    build_kw.setdefault("k_neighbors", 20)
    build_kw.setdefault("ratio_variant", "none")
    return build_graph(Trajectories.of(trajs), Detections.of(dets), **build_kw)


def tiny_linear_model(d_feat=2, rounds=1):
    """Single-layer (purely linear) components with hand-set weights."""
    dn = de = 2
    model = create_model(d_feat, d_node=dn, d_edge=de, rounds=rounds, seed=0)
    model.node_encoder = Mlp([d_feat, dn])
    model.node_encoder.weights[0][...] = np.eye(dn)
    model.edge_encoder = Mlp([6, de])
    model.edge_encoder.weights[0][...] = 0.1 * np.arange(12).reshape(de, 6)
    model.edge_update = Mlp([2 * dn + de, de])
    model.edge_update.weights[0][...] = 0.05 * (np.arange(12).reshape(de, 6) - 5)
    model.edge_update.biases[0][...] = np.array([0.01, -0.02])
    model.node_update = Mlp([dn + de, dn])
    model.node_update.weights[0][...] = 0.1 * np.array(
        [[1.0, -1.0, 0.5, 0.25], [0.0, 2.0, -0.5, 1.0]]
    )
    model.node_update.biases[0][...] = np.array([0.03, -0.01])
    model.classifier = Mlp([de, 1])
    model.classifier.weights[0][...] = np.array([[0.7, -0.4]])
    model.classifier.biases[0][...] = np.array([0.05])
    return model


class TestEncode:
    def test_identity_encoders_pass_through(self):
        model = tiny_linear_model()
        g = grid_graph(2, 2, dim=2)
        state = encode(model, g)
        feats = np.array([t.integrated_feature for t in g.trajectories])
        assert np.allclose(traj_rows(state, 0), feats)

    def test_identical_detections_identical_embeddings(self):
        model = create_model(4, d_node=8, d_edge=8, seed=1)
        f = unit_vec(4, 1)
        dets = [make_det(BoundingBox(0, 0, 10, 20), f), make_det(BoundingBox(100, 0, 10, 20), f)]
        trajs = [make_traj(1, BoundingBox(50, 0, 10, 20), unit_vec(4, 0))]
        g = build_graph(Trajectories.of(trajs), Detections.of(dets), k_neighbors=5)
        state = encode(model, g)
        assert np.array_equal(det_rows(state, 0)[0], det_rows(state, 0)[1])

    def test_re_encode_bit_identical(self):
        model = create_model(6, seed=2)
        g = grid_graph(3, 3)
        s1, s2 = encode(model, g), encode(model, g)
        assert np.array_equal(traj_rows(s1, 0), traj_rows(s2, 0))
        assert np.array_equal(s1.edge_layers[0], s2.edge_layers[0])

    def test_requires_edge_features(self):
        model = create_model(6, seed=0)
        g = grid_graph(2, 2)
        g.edge_features = None
        with pytest.raises(ValueError):
            encode(model, g)


class TestPropagate:
    def test_zero_rounds_is_identity(self):
        model = create_model(6, rounds=0, seed=3)
        g = grid_graph(3, 2)
        state = propagate(model, encode(model, g))
        assert len(state.node_layers) == 1
        probs = classify_edges(model, state)
        assert probs.shape == (g.n_edges,)

    def test_single_edge_mean_equals_message(self):
        model = tiny_linear_model()
        trajs = [make_traj(1, BoundingBox(0, 0, 10, 20), unit_vec(2, 0))]
        dets = [make_det(BoundingBox(2, 0, 10, 20), unit_vec(2, 1))]
        g = build_graph(Trajectories.of(trajs), Detections.of(dets), k_neighbors=5)
        state = propagate(model, encode(model, g))
        t0 = traj_rows(state, 0)[0]
        h1 = state.edge_layers[1][0]
        expected, _ = model.node_update.forward(np.concatenate([t0, h1]))
        assert np.allclose(traj_rows(state, 1)[0], expected, atol=1e-12)

    def test_two_by_two_matches_hand_loop(self):
        # Independent scalar re-computation of one propagation round over
        # the complete 2x2 bipartite graph, using explicit per-edge loops.
        model = tiny_linear_model()
        g = grid_graph(2, 2, dim=2, seed=5)
        assert g.n_edges == 4
        state = propagate(model, encode(model, g))

        t0, d0, h0 = traj_rows(state, 0), det_rows(state, 0), state.edge_layers[0]
        we, be = model.edge_update.weights[0], model.edge_update.biases[0]
        wv, bv = model.node_update.weights[0], model.node_update.biases[0]
        edges = list(zip(g.edge_traj.tolist(), g.edge_det.tolist()))
        h1 = {}
        for e, (i, j) in enumerate(edges):
            h1[e] = we @ np.concatenate([t0[i], d0[j], h0[e]]) + be
        t1, d1 = {}, {}
        for i in range(2):
            msgs = [wv @ np.concatenate([t0[i], h1[e]]) + bv
                    for e, (ti, _) in enumerate(edges) if ti == i]
            t1[i] = np.mean(msgs, axis=0)
        for j in range(2):
            msgs = [wv @ np.concatenate([d0[j], h1[e]]) + bv
                    for e, (_, dj) in enumerate(edges) if dj == j]
            d1[j] = np.mean(msgs, axis=0)
        for e in range(4):
            assert np.allclose(state.edge_layers[1][e], h1[e], atol=1e-12)
        for i in range(2):
            assert np.allclose(traj_rows(state, 1)[i], t1[i], atol=1e-12)
        for j in range(2):
            assert np.allclose(det_rows(state, 1)[j], d1[j], atol=1e-12)

    def test_empty_neighborhood_keeps_embedding(self):
        # Detection 1 has its only candidate stolen by a conclusive pick,
        # leaving it edgeless; its embedding must persist across rounds.
        model = create_model(4, d_node=8, d_edge=8, rounds=2, seed=4)
        trajs = [make_traj(1, BoundingBox(0, 0, 10, 20), unit_vec(4, 0))]
        dets = [
            make_det(BoundingBox(1, 0, 10, 20), unit_vec(4, 0), gt_id=1),
            make_det(BoundingBox(300, 0, 10, 20), unit_vec(4, 2), gt_id=2),
        ]
        g = build_graph(Trajectories.of(trajs), Detections.of(dets), k_neighbors=5,
                        ratio_variant="app", alpha=0.3)
        assert g.n_edges == 1
        state = propagate(model, encode(model, g))
        assert np.array_equal(det_rows(state, 0)[1], det_rows(state, -1)[1])

    def test_sum_aggregation_runs(self):
        model = create_model(6, rounds=2, aggregation="sum", seed=6)
        g = grid_graph(3, 3)
        probs, _ = mpn_forward(model, g)
        assert probs.shape == (g.n_edges,)


def add_at_aggregate(messages, index, counts, previous, aggregation):
    """The aggregation as np.add.at computes it, for reference."""
    out = np.zeros_like(previous)
    np.add.at(out, index, messages)
    occupied = counts > 0
    if aggregation == "mean":
        out[occupied] /= counts[occupied, None]
    out[~occupied] = previous[~occupied]
    return out


@st.composite
def aggregation_cases(draw):
    n = draw(st.integers(1, 8))
    width = draw(st.integers(1, 6))
    n_edges = draw(st.integers(0, 30))
    floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64)
    index = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n_edges, max_size=n_edges)),
                     dtype=np.int64)
    messages = draw(hnp.arrays(np.float64, (n_edges, width), elements=floats))
    previous = draw(hnp.arrays(np.float64, (n, width), elements=floats))
    return messages, index, previous


class TestAggregate:
    @settings(max_examples=200, deadline=None)
    @given(case=aggregation_cases(), aggregation=st.sampled_from(mpn.AGGREGATIONS))
    def test_equals_add_at_exactly(self, case, aggregation):
        messages, index, previous = case
        counts = np.bincount(index, minlength=len(previous))
        plan = mpn.ScatterPlan.of(index, *previous.shape)
        got = mpn._aggregate(messages, plan, previous, aggregation)
        want = add_at_aggregate(messages, index, counts, previous, aggregation)
        assert got.tobytes() == want.tobytes()


def draw_model(draw, rng):
    """A perturbed untrained model: the update MLPs are create_model's two
    layers, or one, or three with hidden widths other than the embeddings'."""
    dim = draw(st.sampled_from([1, 3, 8, 17, 33]))
    dn, de = draw(st.sampled_from([2, 8, 32])), draw(st.sampled_from([3, 32]))
    model = create_model(
        dim,
        d_node=dn,
        d_edge=de,
        rounds=draw(st.integers(0, 4)),
        aggregation=draw(st.sampled_from(mpn.AGGREGATIONS)),
        seed=int(rng.integers(1000)),
    )
    hidden = draw(st.sampled_from([None, [], [5, 7]]))
    if hidden is not None:
        model.edge_update = Mlp([2 * dn + de, *hidden, de], rng)
        model.node_update = Mlp([dn + de, *hidden, dn], rng)
    for p in model.param_arrays():  # non-zero biases too
        p += rng.normal(scale=0.2, size=p.shape)
    return model


def draw_graph(draw, rng, dim, max_edges):
    """A random graph: any number of nodes left without edges, and
    duplicate edges."""
    n_traj, n_det = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    n_edges = draw(st.integers(0, max_edges))
    trajs = [make_traj(i + 1, BoundingBox(0, 0, 10, 20), f)
             for i, f in enumerate(rng.normal(size=(n_traj, dim)))]
    dets = [Detection(2, BoundingBox(0, 0, 10, 20), 0.9, unit_vec(dim, 0))] * n_det
    return AssocGraph(
        Trajectories.of(trajs), Detections.of(dets), np.zeros((n_traj, 4)),
        rng.integers(0, max(1, n_traj // draw(st.integers(1, 4))), n_edges),
        rng.integers(0, n_det, n_edges),
        edge_features=rng.normal(size=(n_edges, 6)),
        det_features=rng.normal(size=(n_det, dim)),
    )


@st.composite
def random_scoring_cases(draw):
    """A perturbed untrained model (draw_model) and a random graph for it
    (draw_graph) of 0 to 400 edges: OpenBLAS takes other kernels for few
    rows than for many."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = draw_model(draw, rng)
    return model, draw_graph(draw, rng, model.feature_dim, 400)


def reference_mlp(mlp, x):
    """Mlp.forward as plain expressions: a fresh array for every bias and ReLU."""
    last = len(mlp.weights) - 1
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = x @ w.T + b
        x = z if k == last else np.maximum(z, 0.0)
    return x


def reference_logits(model, graph):
    """The forward pass with concatenated MLP inputs and np.add.at sums."""
    ti, dj = graph.edge_traj, graph.edge_det
    t = reference_mlp(model.node_encoder, np.array([x.integrated_feature for x in graph.trajectories]))
    d = reference_mlp(model.node_encoder, graph.det_features)
    h = reference_mlp(model.edge_encoder, graph.edge_features)
    t_counts = np.bincount(ti, minlength=len(t))
    d_counts = np.bincount(dj, minlength=len(d))
    for _ in range(model.rounds):
        h = reference_mlp(model.edge_update, np.concatenate([t[ti], d[dj], h], axis=1))
        x_msg = reference_mlp(model.node_update, np.concatenate([t[ti], h], axis=1))
        y_msg = reference_mlp(model.node_update, np.concatenate([d[dj], h], axis=1))
        t = add_at_aggregate(x_msg, ti, t_counts, t, model.aggregation)
        d = add_at_aggregate(y_msg, dj, d_counts, d, model.aggregation)
    return reference_mlp(model.classifier, h)[:, 0]


class TestScoreGraph:
    @settings(max_examples=150, deadline=None)
    @given(case=random_scoring_cases())
    def test_forward_bytes_and_inference_logits_match_reference(self, case):
        """mpn_forward gives score_graph's bits, and both give the
        reference's logits to within 1e-9 of the largest magnitude."""
        model, graph = case
        want = reference_logits(model, graph)
        probs, forward = mpn_forward(model, graph)
        inference = propagate(model, encode(model, graph, caches=False))
        got = score_graph(model, graph)
        assert got.tobytes() == classify_edges(model, inference).tobytes()
        assert probs.tobytes() == got.tobytes()
        assert forward.logits.tobytes() == inference.logits.tobytes()
        scale = np.abs(want).max(initial=0.0)
        for logits in (forward.logits, inference.logits):
            assert np.abs(logits - want).max(initial=0.0) <= 1e-9 * scale

        # Nodes without edges keep their encoder embeddings on both paths.
        for rows, index in ((traj_rows, graph.edge_traj), (det_rows, graph.edge_det)):
            first = rows(forward, 0)
            empty = np.bincount(index, minlength=len(first)) == 0
            assert np.array_equal(rows(forward, -1)[empty], first[empty])
            assert np.array_equal(rows(inference, -1)[empty], first[empty])

    def test_keeps_no_caches(self):
        model = create_model(6, rounds=3, seed=2)
        g = grid_graph(3, 4)
        state = propagate(model, encode(model, g, caches=False))
        assert state.encoder_caches is None
        assert state.edge_hidden == state.message_hidden == state.aggregated == []
        assert len(state.node_layers) == len(state.edge_layers) == 1
        classify_edges(model, state)
        assert state.classifier_cache is None
        with pytest.raises(ValueError, match="without caches"):
            mpn_backward(model, state, np.zeros(g.n_edges))

    def test_caches_keep_references_per_round(self):
        """A cached forward keeps every layer and each round's hidden
        activations and aggregated rows."""
        model = create_model(6, rounds=3, seed=2)
        g = grid_graph(3, 4)
        _, state = mpn_forward(model, g)
        assert len(state.node_layers) == len(state.edge_layers) == 4
        assert [nodes.shape for nodes in state.node_layers] == [(7, 32)] * 4
        assert len(state.edge_hidden) == len(state.message_hidden) == len(state.aggregated) == 3
        assert [len(kept) for kept in state.edge_hidden] == [1, 1, 1]
        assert [kept[0].shape for kept in state.message_hidden] == [(2 * g.n_edges, 32)] * 3
        assert [rows.shape for rows in state.aggregated] == [(7, 32)] * 3


class TestClassify:
    def test_zero_classifier_gives_half(self):
        model = create_model(6, seed=7)
        for p in model.classifier.params():
            p[...] = 0.0
        g = grid_graph(3, 3)
        probs, _ = mpn_forward(model, g)
        assert np.array_equal(probs, np.full(g.n_edges, 0.5))

    def test_edge_storage_order_invariance(self):
        model = create_model(6, rounds=3, seed=8)
        g = grid_graph(3, 4)
        probs, _ = mpn_forward(model, g)
        rng = np.random.default_rng(0)
        perm = rng.permutation(g.n_edges)
        shuffled = AssocGraph(
            g.trajectories, g.detections, g.traj_boxes,
            g.edge_traj[perm], g.edge_det[perm],
            edge_features=g.edge_features[perm], n_candidates=g.n_candidates,
        )
        probs_shuffled, _ = mpn_forward(model, shuffled)
        assert np.allclose(probs_shuffled, probs[perm], atol=1e-10)

    def test_node_relabeling_equivariance(self):
        model = create_model(6, rounds=3, seed=9)
        g = grid_graph(4, 4)
        probs, _ = mpn_forward(model, g)
        scores = {(g.trajectories[i].id, g.detections[j].gt_id): p
                  for i, j, p in zip(g.edge_traj, g.edge_det, probs)}
        pt = [2, 0, 3, 1]
        pd = [1, 3, 0, 2]
        trajs2 = [g.trajectories[i] for i in pt]
        dets2 = [g.detections[j] for j in pd]
        g2 = build_graph(Trajectories.of(trajs2), Detections.of(dets2), k_neighbors=20,
                         ratio_variant="none")
        probs2, _ = mpn_forward(model, g2)
        scores2 = {(g2.trajectories[i].id, g2.detections[j].gt_id): p
                   for i, j, p in zip(g2.edge_traj, g2.edge_det, probs2)}
        assert scores.keys() == scores2.keys()
        for key in scores:
            assert scores2[key] == pytest.approx(scores[key], abs=1e-10)

    def test_bipartite_separation_without_edge_channel(self):
        # Killing the edge update output removes the only path between
        # trajectories: another trajectory's input must not matter.
        model = create_model(4, d_node=8, d_edge=8, rounds=3, seed=10)
        model.edge_update.weights[-1][...] = 0.0
        model.edge_update.biases[-1][...] = 0.0
        g1 = grid_graph(3, 3, dim=4, seed=11)
        state1 = propagate(model, encode(model, g1))
        g1.traj_features[2] = unit_vec(4, 3)  # the node encoder reads the graph's matrix
        state2 = propagate(model, encode(model, g1))
        assert not np.allclose(traj_rows(state1, -1)[2], traj_rows(state2, -1)[2])
        assert np.allclose(traj_rows(state1, -1)[0], traj_rows(state2, -1)[0], atol=1e-12)
        assert np.allclose(traj_rows(state1, -1)[1], traj_rows(state2, -1)[1], atol=1e-12)


class TestGradients:
    def test_full_loss_matches_finite_differences(self):
        model = create_model(6, d_node=8, d_edge=8, rounds=4, seed=12)
        g = grid_graph(3, 3, dim=6, seed=13)
        labels = np.array(
            [1.0 if g.detections[j].gt_id == g.trajectories[i].id else 0.0
             for i, j in zip(g.edge_traj, g.edge_det)]
        )
        omega = 2.0

        def loss():
            probs, _ = mpn_forward(model, g)
            return float(weighted_bce(probs, labels, omega)[0].mean())

        probs, state = mpn_forward(model, g)
        _, dp = weighted_bce(probs, labels, omega)
        dlogits = dp * probs * (1.0 - probs) / labels.size
        grads, _ = mpn_backward(model, state, dlogits)
        report = grad_check(loss, model.param_arrays(), grads)
        assert report.passed, (report.max_rel_error, report.worst_param, report.worst_coord)

    def test_gradients_with_empty_neighborhood(self):
        # Ratio filtering can strand a detection without edges; its
        # pass-through embedding path must backpropagate correctly too.
        model = create_model(4, d_node=6, d_edge=6, rounds=3, seed=22)
        trajs = [make_traj(1, BoundingBox(0, 0, 10, 20), unit_vec(4, 0))]
        dets = [
            make_det(BoundingBox(1, 0, 10, 20), unit_vec(4, 0), gt_id=1),
            make_det(BoundingBox(300, 0, 10, 20), unit_vec(4, 2), gt_id=2),
        ]
        g = build_graph(Trajectories.of(trajs), Detections.of(dets), k_neighbors=5,
                        ratio_variant="app", alpha=0.3)
        assert g.n_edges == 1 and len(g.detections) == 2
        labels = np.array([1.0])

        def loss():
            probs, _ = mpn_forward(model, g)
            return float(weighted_bce(probs, labels, 1.5)[0].mean())

        probs, state = mpn_forward(model, g)
        _, dp = weighted_bce(probs, labels, 1.5)
        dlogits = dp * probs * (1.0 - probs) / labels.size
        grads, _ = mpn_backward(model, state, dlogits)
        report = grad_check(loss, model.param_arrays(), grads)
        assert report.passed, report.max_rel_error


def grad_check_graph(rng, dim, edges):
    """A graph of four trajectories and five detections with the given
    (trajectory, detection) edges, as the arrays of a graph without blocks."""
    ti, dj = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    traj_features, det_features = rng.normal(size=(4, dim)), rng.normal(size=(5, dim))
    return AssocGraph(None, None, np.zeros((4, 4)), ti, dj,
                      edge_features=rng.normal(size=(len(edges), 6)),
                      traj_features=traj_features, det_features=det_features)


class TestProjectedBackward:
    @pytest.mark.parametrize("aggregation", mpn.AGGREGATIONS)
    @pytest.mark.parametrize("hidden", [[], None, [4, 5]], ids=["1-layer", "2-layer", "3-layer"])
    @pytest.mark.parametrize("edges", [
        [],
        # Trajectory 3 and detections 1 and 4 have no edge; one edge is doubled.
        [(0, 0), (0, 2), (1, 2), (1, 3), (2, 0), (2, 0)],
    ], ids=["no-edges", "edgeless-nodes"])
    def test_matches_finite_differences(self, aggregation, hidden, edges):
        rng = np.random.default_rng(len(edges) + len(hidden or [0, 0, 0]))
        dn, de = 3, 2
        model = create_model(3, d_node=dn, d_edge=de, rounds=2, aggregation=aggregation, seed=5)
        if hidden is not None:
            model.edge_update = Mlp([2 * dn + de, *hidden, de], rng)
            model.node_update = Mlp([dn + de, *hidden, dn], rng)
        for p in model.param_arrays():
            p += rng.normal(scale=0.3, size=p.shape)
        graph = grad_check_graph(rng, 3, edges)
        weights = rng.normal(size=len(edges))

        def loss():
            return float(weights @ mpn_forward(model, graph)[1].logits)

        _, state = mpn_forward(model, graph)
        grads, d_traj_feats = mpn_backward(model, state, weights)
        report = grad_check(loss, model.param_arrays() + [graph.traj_features],
                            grads + [d_traj_feats])
        assert report.passed, (report.max_rel_error, report.worst_param, report.worst_coord)

    @settings(max_examples=150, deadline=None)
    @given(case=random_scoring_cases(), seed=st.integers(0, 2**32 - 1))
    def test_gradients_match_the_concatenated_oracle(self, case, seed):
        """Parameter and trajectory-feature gradients agree with the
        concatenated rounds' to 1e-12 of each array's largest magnitude."""
        model, graph = case
        dlogits = np.random.default_rng(seed).normal(size=graph.n_edges)
        probs, state = mpn_forward(model, graph)
        got = mpn_backward(model, state, dlogits)
        want_probs, caches = concatenated_forward(model, graph)
        want = concatenated_backward(model, caches, dlogits)
        assert np.abs(probs - want_probs).max(initial=0.0) <= 1e-12
        for g, w in zip(got[0] + [got[1]], want[0] + [want[1]]):
            assert g.shape == w.shape
            assert np.abs(g - w).max(initial=0.0) <= 1e-12 * np.abs(w).max(initial=0.0)


class TestTraining:
    def test_initial_loss_is_log_two_with_zero_classifier(self):
        model = create_model(6, seed=14)
        for p in model.classifier.params():
            p[...] = 0.0
        g = grid_graph(3, 3, seed=15)
        labels = np.array([1.0, 0.0] * (g.n_edges // 2) + [1.0] * (g.n_edges % 2))
        probs, _ = mpn_forward(model, g)
        loss = weighted_bce(probs, labels, 1.0)[0].mean()
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_separable_toy_converges(self):
        # A 30-frame toy gives only ~4 batches per epoch, so hold the
        # learning rate flat instead of decaying it mid-run.
        scene = generate(preset("easy", seed=21, n_frames=30))
        model = create_model(scene.config.feature_dim, d_node=16, d_edge=16, seed=16)
        cfg = TrainConfig(epochs=25, seed=1, node_dropout=0.05, lr=0.005, lr_decay_every=25)
        history = train_model(model, [scene.frames], cfg)
        assert len(history) == 25
        assert history[-1]["loss"] < 0.1
        # Held-out scene: true edges must outscore false ones on average.
        held_out = generate(preset("easy", seed=22, n_frames=20))
        frames = sorted(held_out.frames)
        true_p, false_p = [], []
        for prev_f, cur_f in zip(frames, frames[1:]):
            trajs = Trajectories.of([
                make_traj(d.gt_id, d.box, d.feature, last_seen=prev_f)
                for d in held_out.frames[prev_f]
                if d.gt_id is not None
            ])
            dets = held_out.frames[cur_f]
            g = build_graph(trajs, dets, k_neighbors=20)
            if g is None:
                continue
            probs, _ = mpn_forward(model, g)
            for i, j, p in zip(g.edge_traj, g.edge_det, probs):
                target = true_p if g.detections[j].gt_id == g.trajectories[i].id else false_p
                target.append(p)
        assert np.mean(true_p) > np.mean(false_p) + 0.2

    def test_training_without_labels_errors(self):
        scene = generate(preset("easy", seed=23, n_frames=10))
        stripped = {
            f: Detections(f, dets.boxes, dets.confidences, dets.features)
            for f, dets in scene.frames.items()
        }
        model = create_model(scene.config.feature_dim, seed=17)
        with pytest.raises(ValueError):
            train_model(model, [stripped], TrainConfig(epochs=1, seed=0))

    def test_lstm_mode_trains_the_cell(self):
        scene = generate(preset("easy", seed=24, n_frames=15))
        model = create_model(scene.config.feature_dim, d_node=8, d_edge=8, seed=18)
        before = [p.copy() for p in model.lstm.params()]
        history = train_model(
            model, [scene.frames], TrainConfig(epochs=2, seed=2), integration="lstm"
        )
        assert all(math.isfinite(row["loss"]) for row in history)
        assert any(
            not np.array_equal(b, p) for b, p in zip(before, model.lstm.params())
        )

    def test_step_counter_resumes(self):
        scene = generate(preset("easy", seed=25, n_frames=12))
        model = create_model(scene.config.feature_dim, d_node=8, d_edge=8, seed=19)
        train_model(model, [scene.frames], TrainConfig(epochs=1, seed=3))
        first = model.step_count
        assert first > 0
        train_model(model, [scene.frames], TrainConfig(epochs=1, seed=4))
        assert model.step_count > first


class TestTrainConfigChecks:
    # Each of these used to fail late and obscurely (a zero range step, a
    # zero division, "no trainable samples") or to train silently to a
    # wrong model (negative learning rate, NaN loss past full dropout).
    @pytest.mark.parametrize("field, value", [
        ("batch_graphs", 0), ("frames_per_graph", 1), ("frame_stride", 0), ("epochs", -1),
        ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")), ("lr_decay_every", 0),
        ("lr_decay_factor", 0.0), ("node_dropout", 1.0), ("node_dropout", 1.5),
        ("node_dropout", -0.1), ("box_jitter", -0.01), ("pos_weight", 0.0),
        ("pos_weight", -2.0),
    ])
    def test_refused_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_bounds_are_accepted(self):
        TrainConfig(batch_graphs=1, frames_per_graph=2, frame_stride=1, epochs=0,
                    lr_decay_every=1, node_dropout=0.0, box_jitter=0.0, pos_weight=None)

    @pytest.mark.parametrize("fps", [0.0, -30.0])
    def test_training_refuses_non_positive_fps(self, fps):
        scene = generate(preset("easy", seed=25, n_frames=12))
        model = create_model(scene.config.feature_dim, d_node=8, d_edge=8, seed=19)
        with pytest.raises(ValueError, match="fps must be > 0"):
            train_model(model, [scene.frames], TrainConfig(epochs=1), fps=fps)


class TestCheckpointRoundTrip:
    def test_save_load_forward_identical(self, tmp_path):
        model = create_model(6, rounds=3, seed=20)
        model.step_count = 17
        g = grid_graph(3, 3, seed=26)
        probs, _ = mpn_forward(model, g)
        path = tmp_path / "model.npz"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.step_count == 17
        assert loaded.rounds == 3
        for p1, p2 in zip(model.param_arrays(), loaded.param_arrays()):
            assert np.array_equal(p1, p2)
            assert p1.tobytes() == p2.tobytes()
        probs2, _ = mpn_forward(loaded, g)
        assert np.array_equal(probs, probs2)

    @pytest.mark.parametrize("field, value", [
        ("aggregation", "max"),
        ("rounds", -2),
        ("rounds", 2.5),
        ("layer_sizes", None),
        ("layer_sizes.classifier", None),
        ("layer_sizes.node_update", [40]),
        ("layer_sizes.lstm", [6, 6, 6]),
        ("layer_sizes.edge_encoder", [5, 32, 32]),
        ("layer_sizes.edge_update", [95, 32, 32]),
        ("layer_sizes.edge_update", [96, 32, 31]),
        ("layer_sizes.node_update", [63, 32, 32]),
        ("layer_sizes.node_update", [64, 32, 31]),
        ("layer_sizes.classifier", [31, 32, 1]),
        ("layer_sizes.classifier", [32, 32, 2]),
        ("layer_sizes.lstm", [6, 5]),
    ])
    def test_load_refuses_what_the_network_cannot_run(self, tmp_path, field, value):
        path = tmp_path / "model.npz"
        save_model(path, create_model(6, seed=20))
        arrays, meta = load_checkpoint(path)
        *parents, key = field.split(".")
        target = meta
        for name in parents:
            target = target[name]
        target[key] = value
        save_checkpoint(path, arrays, meta)
        with pytest.raises(ValueError, match=rf"^checkpoint {re.escape(f'{path}: {field} ')}"):
            load_model(path)

    def test_shared_node_update(self):
        # One shared node-update function serves both sides: perturbing it
        # moves trajectory and detection embeddings alike.
        model = create_model(4, d_node=8, d_edge=8, rounds=1, seed=21)
        g = grid_graph(2, 2, dim=4, seed=27)
        state_a = propagate(model, encode(model, g))
        model.node_update.biases[-1][...] += 1.0
        state_b = propagate(model, encode(model, g))
        assert not np.allclose(traj_rows(state_a, -1), traj_rows(state_b, -1))
        assert not np.allclose(det_rows(state_a, -1), det_rows(state_b, -1))


# ---------------------------------------------------------------------------
# Teacher forcing against a sequential reference


def teacher_step(feat, lstm_state, det, others, mode, cell, caches):
    """One teacher-forced integration step, one identity at a time; others
    are the other detections of its frame."""
    feat, lstm_state, cache = reference_integrate(
        mode, feat, det.feature, max_overlap(det, others), cell, lstm_state)
    if cache is not None:
        caches.append(cache)
    return feat, lstm_state


def reference_training_graph(frames, target_frame, window_frames, model, *, integration,
                             rng=None, node_dropout=0.0, box_jitter=0.0, **graph_kw):
    """build_training_graph as a loop over identities, each filtered by the
    single-state Kalman functions along its own detections."""
    detections = list(frames.get(target_frame, []))
    tracks = {}
    for f in window_frames:
        if f >= target_frame:
            continue
        for j, det in enumerate(frames.get(f, [])):
            if det.gt_id is not None:
                tracks.setdefault(det.gt_id, []).append((j, det))
    if rng is not None and node_dropout > 0.0:
        detections = [d for d in detections if rng.random() >= node_dropout]
        tracks = {g: dets for g, dets in tracks.items() if rng.random() >= node_dropout}
    if rng is not None and box_jitter > 0.0:
        jittered = []
        for det in detections:
            b = det.box
            dx, dy = rng.normal(0.0, box_jitter * b.h, size=2)
            jittered.append(Detection(det.frame, BoundingBox(b.x + dx, b.y + dy, b.w, b.h),
                                      det.confidence, det.feature, det.gt_id))
        detections = jittered
    if not detections or not tracks:
        return None
    trajectories, chains = [], {}
    for gid in sorted(tracks):
        observed = sorted(tracks[gid], key=lambda jd: jd[1].frame)
        dets = [det for _, det in observed]
        feat, lstm_state, caches = dets[0].feature.copy(), None, []
        kf, last_frame = kf_init(dets[0].box), dets[0].frame
        for j, det in observed[1:]:
            for _ in range(det.frame - last_frame):
                kf = kf_predict(kf)
            kf = kf_update(kf, det.box)
            frame_dets = list(frames[det.frame])
            feat, lstm_state = teacher_step(
                feat, lstm_state, det, frame_dets[:j] + frame_dets[j + 1:], integration,
                model.lstm, caches)
            last_frame = det.frame
        for _ in range(target_frame - last_frame):
            kf = kf_predict(kf)
        if integration == "lstm" and caches:
            h_norm = float(np.linalg.norm(caches[-1].c_tanh * caches[-1].o))
            chains[len(trajectories)] = (caches, h_norm, feat)
        trajectories.append(Trajectory(gid, feat, dets[-1].box, last_frame, kf,
                                       frames_lost=target_frame - last_frame - 1))
    traj_boxes = np.array([state_to_box(t.motion).as_xywh() for t in trajectories])
    graph = build_graph(Trajectories.of(trajectories), Detections.of(detections, target_frame),
                        traj_boxes=traj_boxes, **graph_kw)
    if graph is None or graph.n_edges == 0:
        return None
    labels = np.array([1.0 if graph.detections[j].gt_id == graph.trajectories[i].id else 0.0
                       for i, j in zip(graph.edge_traj, graph.edge_det)])
    return graph, labels, chains


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_training_graph(got, want):
    if want is None:
        assert got is None
        return
    graph, labels, chains = want
    assert got is not None
    assert_same_bits(got.labels, labels)
    for name in ("traj_boxes", "edge_traj", "edge_det", "edge_features"):
        assert_same_bits(getattr(got.graph, name), getattr(graph, name))
    assert got.graph.detections == graph.detections
    assert len(got.graph.trajectories) == len(graph.trajectories)
    for t_got, t_want in zip(got.graph.trajectories, graph.trajectories):
        assert (t_got.id, t_got.last_box, t_got.last_seen_frame, t_got.frames_lost) == (
            t_want.id, t_want.last_box, t_want.last_seen_frame, t_want.frames_lost)
        assert_same_bits(t_got.integrated_feature, t_want.integrated_feature)
        assert_same_bits(t_got.motion.mean, t_want.motion.mean)
        assert_same_bits(t_got.motion.cov, t_want.motion.cov)
    assert got.lstm_chains.keys() == chains.keys()
    for row, (caches, h_norm, feature) in chains.items():
        assert_same_chain(got.lstm_chains[row], caches, h_norm, feature)


def assert_same_chain(chain, caches, h_norm, feature):
    assert chain.h_norm == h_norm
    assert_same_bits(chain.feature, feature)
    assert len(chain.caches) == len(caches)
    for c_got, c_want in zip(chain.caches, caches):
        for name in ("x", "h_prev", "c_prev", "i", "f", "o", "g", "c_new", "c_tanh"):
            assert_same_bits(getattr(c_got, name), getattr(c_want, name))


@pytest.fixture(scope="module")
def teacher_scene():
    """Missed detections (frame gaps), clutter, and one identity detected
    twice in frame 9 and in frame 14."""
    scene = generate(preset("crowded", seed=8, n_targets=10, n_frames=30,
                            dropout=0.25, clutter_rate=0.5))
    frames = {f: list(dets) for f, dets in scene.frames.items()}
    for f in (9, 14):
        det = next(d for d in frames[f] if d.gt_id is not None)
        b = det.box
        frames[f].append(Detection(f, BoundingBox(b.x + 3.0, b.y - 2.0, b.w, b.h * 1.1),
                                   det.confidence, det.feature, det.gt_id))
    # Frame 20 is missing altogether.
    frames.pop(20, None)
    return {f: Detections.of(dets, f) for f, dets in frames.items()}, scene.config.feature_dim


def sample_windows(frames, stride, per_graph=6):
    # Targets 14 and 19 open their stride-1 windows on a frame with a
    # duplicate; 21 and 22 reach across the missing frame 20.
    numbers = sorted(frames)
    for t in sorted(set(numbers[3::4]) | {14, 19, 21, 22}):
        yield t, [f for f in numbers
                  if t - (per_graph - 1) * stride <= f < t and (t - f) % stride == 0]


GRAPH_KW = dict(k_neighbors=5, ratio_variant="app", alpha=0.6, fps=30.0)


class TestTeacherForcing:
    @pytest.mark.parametrize("integration", ["none", "average", "iou", "lstm"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_sequential_reference(self, teacher_scene, integration, stride):
        frames, dim = teacher_scene
        model = create_model(dim, d_node=8, d_edge=8, seed=3)
        checked = 0
        for t, window in sample_windows(frames, stride):
            want = reference_training_graph(frames, t, window, model,
                                            integration=integration, **GRAPH_KW)
            got = build_training_graph(frames, t, window, model,
                                       integration=integration, **GRAPH_KW)
            assert_same_training_graph(got, want)
            checked += want is not None
        assert checked >= 4

    @pytest.mark.parametrize("integration", ["none", "average", "iou", "lstm"])
    def test_dropout_and_jitter_match_reference(self, teacher_scene, integration):
        frames, dim = teacher_scene
        model = create_model(dim, d_node=8, d_edge=8, seed=4)
        aug = dict(node_dropout=0.3, box_jitter=0.05)
        for t, window in sample_windows(frames, 1):
            want = reference_training_graph(frames, t, window, model, integration=integration,
                                            rng=np.random.default_rng(t), **aug, **GRAPH_KW)
            got = build_training_graph(frames, t, window, model, integration=integration,
                                       rng=np.random.default_rng(t), **aug, **GRAPH_KW)
            assert_same_training_graph(got, want)

    @pytest.mark.parametrize("integration", ["none", "average", "iou"])
    def test_cached_teacher_matches_reference(self, teacher_scene, integration):
        # One teacher-forced sample serves every draw of the augmentation.
        frames, dim = teacher_scene
        model = create_model(dim, d_node=8, d_edge=8, seed=5)
        aug = dict(node_dropout=0.3, box_jitter=0.05)
        for t, window in sample_windows(frames, 2):
            (teacher,) = mpn.teacher_force_samples(frames, [(t, window)], integration)
            for draw in range(3):
                want = reference_training_graph(
                    frames, t, window, model, integration=integration,
                    rng=np.random.default_rng(draw), **aug, **GRAPH_KW)
                got = build_training_graph(
                    frames, t, window, model, integration=integration, teacher=teacher,
                    rng=np.random.default_rng(draw), **aug, **GRAPH_KW)
                assert_same_training_graph(got, want)

    def test_unsorted_window_draws_dropout_in_first_seen_order(self, teacher_scene):
        frames, dim = teacher_scene
        model = create_model(dim, d_node=8, d_edge=8, seed=6)
        t = sorted(frames)[12]
        window = [f for f in sorted(frames) if t - 8 <= f < t][::-1]
        for seed in range(4):
            want = reference_training_graph(frames, t, window, model, integration="average",
                                            rng=np.random.default_rng(seed), node_dropout=0.4,
                                            **GRAPH_KW)
            got = build_training_graph(frames, t, window, model, integration="average",
                                       rng=np.random.default_rng(seed), node_dropout=0.4,
                                       **GRAPH_KW)
            assert_same_training_graph(got, want)

    def test_training_walks_each_sequence_once(self, teacher_scene, monkeypatch):
        frames, dim = teacher_scene
        second = {f: dets for f, dets in frames.items() if f > 5}
        walks, teachers = [], {}
        original_walk, original_union = mpn.ground_truth_walk, mpn.training_union

        def counting_walk(frames_, *args, **kwargs):
            walks.append(frames_)
            return original_walk(frames_, *args, **kwargs)

        def recording(samples, *args, **kwargs):
            for frames_, target_frame, _, teacher in samples:
                assert teacher is not None
                teachers.setdefault((id(frames_), target_frame), set()).add(id(teacher))
            return original_union(samples, *args, **kwargs)

        monkeypatch.setattr(mpn, "ground_truth_walk", counting_walk)
        monkeypatch.setattr(mpn, "training_union", recording)
        model = create_model(dim, d_node=8, d_edge=8, seed=7)
        train_model(model, [frames, second], TrainConfig(epochs=3, seed=1), integration="iou")
        assert [id(w) for w in walks] == [id(frames), id(second)]
        # Every sample kept one TeacherForced of its own through all epochs.
        assert all(len(ids) == 1 for ids in teachers.values())
        assert len({i for ids in teachers.values() for i in ids}) == len(teachers) > 0

    def test_teacher_forcing_update_work_is_bounded_by_the_frames(self, teacher_scene,
                                                                   monkeypatch):
        # One walk updates each labeled frame at most once per pass, where a
        # frame has as many passes as its most often detected identity has
        # detections; a walk per sample would repeat every frame for each
        # window holding it.
        frames, dim = teacher_scene
        labeled = [Counter(d.gt_id for d in dets if d.gt_id is not None)
                   for dets in frames.values()]
        bound = sum(1 for c in labeled if c) * max(max(c.values(), default=0) for c in labeled)
        calls = []
        original = integration.kf_update_batch

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(integration, "kf_update_batch", counting)
        model = create_model(dim, d_node=8, d_edge=8, seed=7)
        train_model(model, [frames], TrainConfig(epochs=1, seed=1), integration="average")
        assert 0 < len(calls) <= bound
        assert max(calls) > 1  # rows of several samples share the calls


@st.composite
def labeled_stream(draw, first_frame=1, coarse=False):
    """Frames from first_frame on, each absent, empty or holding detections
    of identities 1-4 (an identity may be detected twice, and identities
    leave and return) and clutter without gt_id. Coarse boxes lie on a
    grid, so that equal distances are common."""
    frames = {}
    for f in range(first_frame, first_frame + draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["absent", "empty", "detections", "detections", "detections"]))
        if kind == "absent":
            continue
        dets = []
        for _ in range(0 if kind == "empty" else draw(st.integers(1, 6))):
            if coarse:
                x, y = draw(st.sampled_from([0.0, 10.0, 20.0])), draw(st.sampled_from([0.0, 10.0]))
                w, h = 10.0, draw(st.sampled_from([20.0, 40.0]))
            else:
                x, y = draw(st.floats(0.0, 200.0)), draw(st.floats(0.0, 100.0))
                w, h = draw(st.floats(5.0, 40.0)), draw(st.floats(10.0, 80.0))
            feature = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3)))
            dets.append(Detection(f, BoundingBox(x, y, w, h), 0.9,
                                  feature / np.linalg.norm(feature),
                                  draw(st.one_of(st.none(), st.integers(1, 4)))))
        frames[f] = Detections.of(dets, f)
    return frames


def training_samples(frames, per_graph, stride):
    """(target frame, window frames) of every sample train_model draws from frames."""
    numbers = sorted(frames)
    for t in numbers:
        window = [f for f in numbers
                  if t - (per_graph - 1) * stride <= f < t and (t - f) % stride == 0]
        if frames[t] and window_tracks(frames, t, window):
            yield t, window


def assert_same_teacher(got, want):
    assert got.identities == want.identities
    for name in ("ids", "features", "last_boxes", "last_seen", "means", "covs", "frames_lost"):
        assert_same_bits(getattr(got.trajectories, name), getattr(want.trajectories, name))
    assert_same_bits(got.boxes, want.boxes)
    assert got.lstm_chains.keys() == want.lstm_chains.keys()
    for row, chain in want.lstm_chains.items():
        assert_same_chain(got.lstm_chains[row], chain.caches, chain.h_norm, chain.feature)


class TestBatchedTeacherForcing:
    @settings(max_examples=150, deadline=None)
    @given(frames=labeled_stream(), per_graph=st.integers(2, 6), stride=st.sampled_from([1, 2]),
           integration=st.sampled_from(["none", "average", "iou", "lstm"]))
    def test_equals_one_walk_per_sample(self, frames, per_graph, stride, integration):
        samples = list(training_samples(frames, per_graph, stride))
        cell = create_model(3, d_node=4, d_edge=4, seed=per_graph).lstm
        got = mpn.teacher_force_samples(frames, samples, integration, cell)
        assert len(got) == len(samples)
        for teacher, (t, window) in zip(got, samples):
            tracks = window_tracks(frames, t, window)
            assert_same_teacher(teacher,
                                reference_teacher_force(frames, t, tracks, integration, cell))

    @settings(max_examples=40, deadline=None)
    @given(first=labeled_stream(), second=labeled_stream(first_frame=3),
           stride=st.sampled_from([1, 2]), integration=st.sampled_from(["none", "average", "iou"]))
    def test_training_keeps_sequences_apart(self, first, second, stride, integration):
        # The two sequences share frame numbers and identities, so rows that
        # leaked from one walk into the other would change some sample.
        sequences = [first, second]
        want = {(id(seq), t): reference_teacher_force(seq, t, window_tracks(seq, t, window),
                                                      integration)
                for seq in sequences for t, window in training_samples(seq, 4, stride)}
        assume(want)
        got = {}

        def recording(samples, *args, **kwargs):
            for frames_, target_frame, _, teacher in samples:
                got[id(frames_), target_frame] = teacher
            return None, np.zeros((0, 3), dtype=np.intp)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mpn, "training_union", recording)
            train_model(create_model(3, d_node=4, d_edge=4), sequences,
                        TrainConfig(epochs=1, frames_per_graph=4, frame_stride=stride),
                        integration=integration)
        assert got.keys() == want.keys()
        for key, teacher in want.items():
            assert_same_teacher(got[key], teacher)

    def test_sample_without_earlier_detections_has_no_rows(self, teacher_scene):
        frames, _ = teacher_scene
        t = sorted(frames)[5]
        later = [t, t + 1, t + 2]  # labelled, but not before the target frame
        assert window_tracks(frames, t + 3, later)
        (got,) = mpn.teacher_force_samples(frames, [(t, later)], "average")
        assert len(got.trajectories) == 0 and got.identities == []
        assert_same_teacher(got, reference_teacher_force(frames, t, {}, "average"))

    def test_repeated_target_frame_is_refused(self, teacher_scene):
        frames, _ = teacher_scene
        (t, window), *_ = training_samples(frames, 4, 1)
        with pytest.raises(ValueError, match="distinct target frames"):
            mpn.teacher_force_samples(frames, [(t, window), (t, window)], "average")


class TestTrainingUnion:
    @settings(max_examples=200, deadline=None)
    @given(frames=st.one_of(labeled_stream(), labeled_stream(coarse=True)),
           integration=st.sampled_from(["average", "iou", "lstm"]),
           variant=st.sampled_from(["none", "iou", "app"]), k=st.integers(1, 3),
           dropout=st.sampled_from([0.0, 0.3, 0.3, 0.9]), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_join_of_the_per_graph_graphs(self, frames, integration, variant, k,
                                                     dropout, seed):
        # Every frame is a target, also an empty one and one without labelled
        # frames before it; with four identities, k < M is common.
        numbers = sorted(frames)
        targets = numbers + [max(numbers, default=0) + 1]
        samples = [(t, [f for f in numbers if t - 6 <= f < t]) for t in targets]
        model = create_model(3, d_node=4, d_edge=4, seed=seed % 7)
        teachers = [None] * len(samples) if integration == "lstm" else \
            mpn.teacher_force_samples(frames, samples, integration)
        batch = [(frames, t, window, teacher) for (t, window), teacher in zip(samples, teachers)]
        kwargs = dict(integration=integration, k_neighbors=k, ratio_variant=variant,
                      node_dropout=dropout, box_jitter=0.05)
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, sizes = mpn.training_union(batch, model, rng=rng, **kwargs)
        want, graphs = reference_training_union(batch, model, rng=want_rng, **kwargs)
        assert rng.bit_generator.state == want_rng.bit_generator.state
        if want is None:
            assert got is None and sizes.shape == (0, 3)
            return
        for name in ("traj_features", "det_features", "edge_traj", "edge_det", "edge_features"):
            assert_same_bits(getattr(got.graph, name), getattr(want.graph, name))
        assert_same_bits(got.labels, want.labels)
        assert got.lstm_chains.keys() == want.lstm_chains.keys()
        for row, chain in want.lstm_chains.items():
            assert_same_chain(got.lstm_chains[row], chain.caches, chain.h_norm, chain.feature)
        assert sizes.tolist() == [[len(tg.graph.traj_features), len(tg.graph.det_features),
                                   tg.labels.size] for tg in graphs]
        # Cut into runs of at most 8 edges, each run is the join of its graphs.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mpn, "UNION_EDGES", 8)
            runs = mpn.split_by_edges(sizes[:, 2].tolist())
        for run in runs:
            cut, joined = mpn._cut(got, sizes, run), join([graphs[i] for i in run])
            for name in ("traj_features", "det_features", "edge_traj", "edge_det",
                         "edge_features"):
                assert_same_bits(getattr(cut.graph, name), getattr(joined.graph, name))
            assert_same_bits(cut.labels, joined.labels)
            assert cut.lstm_chains.keys() == joined.lstm_chains.keys()


def test_training_history_reports_stage_times_and_edges(monkeypatch):
    scene = generate(preset("crossing", seed=101))
    prefix = {f: dets for f, dets in scene.frames.items() if f <= 25}
    edges = []  # (edges, positives) per batch
    original = mpn.training_union

    def counting(*args, **kwargs):
        union, sizes = original(*args, **kwargs)
        edges.append((0, 0) if union is None else (union.labels.size, int(union.labels.sum())))
        return union, sizes

    monkeypatch.setattr(mpn, "training_union", counting)
    model = create_model(scene.config.feature_dim, d_node=8, d_edge=8, seed=7)
    history = train_model(model, [prefix], TrainConfig(seed=11, epochs=2), ratio_variant="app")
    per_epoch = len(edges) // 2
    for row, epoch_edges in zip(history, (edges[:per_epoch], edges[per_epoch:])):
        assert row["positive_edges"] == sum(p for _, p in epoch_edges) > 0
        assert row["negative_edges"] == sum(n - p for n, p in epoch_edges) > 0
        for key in ("graph_s", "forward_s", "backward_s", "optimizer_s"):
            assert row[key] > 0.0
    assert history[0]["teacher_force_s"] > 0.0 and history[1]["teacher_force_s"] == 0.0


def param_digest(model):
    h = hashlib.sha256()
    for p in model.param_arrays():
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


# sha256 of every parameter after two epochs, recorded with the
# identity-by-identity teacher forcing this module keeps as its reference
# (NumPy 2.4, OpenBLAS, x86-64); tests/test_golden.py covers "iou".
# TRAINED_WEIGHTS trains on disjoint unions of each batch's graphs;
# PER_GRAPH_WEIGHTS are the same trainings with one forward and backward per
# graph (references.reference_train_model), as train_model ran before.
TRAINED_WEIGHTS = {
    "average": "e68aeb986c26a2b2d8ceb4ec0e8a3218d2a2bf3292182b566107fe177982b98d",
    "lstm": "ad310c651f12366818900aed90105e9e8e83cd609f0a8595ef60319505796b08",
}
PER_GRAPH_WEIGHTS = {
    "average": "6ad7afe7bf312dc0660270ffb19a3612e0aed1b597ab61c90d6e7bdfd043b066",
    "lstm": "feb4d22fcd4222e12e67254009d47d48f782537f203f3c143a16d9603fac956e",
}


def pinned_training(integration, train=train_model, **cfg):
    """(model, history) of the pinned two-epoch training."""
    scene = generate(preset("crossing", seed=101))
    prefix = {f: dets for f, dets in scene.frames.items() if f <= 40}
    model = create_model(scene.config.feature_dim, d_node=8, d_edge=8, seed=7)
    history = train(model, [prefix], TrainConfig(seed=11, epochs=2, **cfg),
                    integration=integration, ratio_variant="app")
    return model, history


@pytest.mark.parametrize("integration", sorted(TRAINED_WEIGHTS))
def test_trained_weights_pinned(integration):
    model, _ = pinned_training(integration)
    assert param_digest(model) == TRAINED_WEIGHTS[integration]


@pytest.mark.parametrize("integration", sorted(PER_GRAPH_WEIGHTS))
def test_reference_training_keeps_the_per_graph_weights(integration):
    model, _ = pinned_training(integration, reference_train_model)
    assert param_digest(model) == PER_GRAPH_WEIGHTS[integration]


# ---------------------------------------------------------------------------
# Training on disjoint unions


@pytest.mark.parametrize("integration", sorted(TRAINED_WEIGHTS))
def test_one_graph_batches_train_as_the_per_graph_loop(integration):
    model, history = pinned_training(integration, batch_graphs=1)
    reference, want = pinned_training(integration, reference_train_model, batch_graphs=1)
    assert param_digest(model) == param_digest(reference)
    assert [(row["loss"], row["edge_accuracy"]) for row in history] == want


@pytest.mark.parametrize("integration", sorted(TRAINED_WEIGHTS))
def test_unions_train_the_per_graph_model_to_rounding(integration):
    """Whole batches join into one union here; only the order in which the
    weight gradients sum the batch's edges differs from the per-graph loop."""
    model, _ = pinned_training(integration)
    reference, _ = pinned_training(integration, reference_train_model)
    for got, want in zip(model.param_arrays(), reference.param_arrays()):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def random_chains(cell, rng, rows):
    """An LSTM chain of one to three steps on random inputs for each row."""
    chains = {}
    for row in rows:
        state, caches = cell.init_state(), []
        for _ in range(int(rng.integers(1, 4))):
            h, state, cache = cell.step(state, rng.normal(size=cell.input_dim))
            caches.append(cache)
        h_norm = float(np.linalg.norm(h))
        chains[row] = mpn._LstmChain(caches, h_norm, h / h_norm)
    return chains


@st.composite
def union_cases(draw):
    """A perturbed model (draw_model), one to four random training graphs
    for it (draw_graph) with LSTM chains on some trajectory rows, and a
    loss gradient per edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = draw_model(draw, rng)
    graphs = []
    for _ in range(draw(st.integers(1, 4))):
        graph = draw_graph(draw, rng, model.feature_dim, 60)
        rows = np.flatnonzero(rng.random(len(graph.traj_features)) < 0.3).tolist()
        labels = (rng.random(graph.n_edges) < 0.3).astype(np.float64)
        graphs.append(mpn._TrainGraph(graph, labels, random_chains(model.lstm, rng, rows)))
    return model, graphs, [rng.normal(size=tg.labels.size) for tg in graphs]


def gradients(model, tg, dlogits):
    """(forward state, parameter gradients, trajectory feature gradients) of
    one training graph, through the LSTM chains."""
    _, state = mpn_forward(model, tg.graph)
    grads, d_traj_feats = mpn_backward(model, state, dlogits)
    mpn._backprop_lstm_chains(model, tg.lstm_chains, d_traj_feats, grads)
    return state, grads, d_traj_feats


def logit_terms(model, state):
    """Per edge, |b| + Σ|w·a| over the classifier's output layer: the size of
    the terms each logit sums."""
    a = state.classifier_cache.activations[-2]
    w, b = model.classifier.weights[-1], model.classifier.biases[-1]
    return (np.abs(a) @ np.abs(w).T + np.abs(b)).ravel()


class TestUnion:
    @settings(max_examples=100, deadline=None)
    @given(case=union_cases())
    def test_gradients_are_the_sum_of_the_graphs(self, case):
        model, graphs, dlogits = case
        union = join(graphs)
        assert np.array_equal(union.labels, np.concatenate([tg.labels for tg in graphs]))
        got_state, got, got_feats = gradients(model, union, np.concatenate(dlogits))

        want = model.zero_grads()
        logits, terms, feats = [], [], []
        for tg, dl in zip(graphs, dlogits):
            state, grads, d_traj_feats = gradients(model, tg, dl)
            for total, g in zip(want, grads):
                total += g
            logits.append(state.logits)
            terms.append(logit_terms(model, state))
            feats.append(d_traj_feats)
        # Nodes of different graphs share no edge, so each graph scores as on
        # its own, up to BLAS rounding products of more rows differently.
        # Each edge's logit is held to the size of the terms it sums: a logit
        # that cancels larger terms keeps their rounding, which no bound
        # relative to the logit itself or to its probability can hold.
        assert np.all(np.abs(got_state.logits - np.concatenate(logits))
                      <= 1e-12 * np.concatenate(terms))
        for g, w in zip(got, want):
            assert np.abs(g - w).max(initial=0.0) <= 1e-12 * np.abs(w).max(initial=0.0)
        want_feats = np.concatenate(feats)
        assert np.abs(got_feats - want_feats).max(initial=0.0) \
            <= 1e-12 * np.abs(want_feats).max(initial=0.0)

    def test_chains_are_keyed_by_their_offset_rows(self):
        rng = np.random.default_rng(3)
        model = create_model(4, d_node=4, d_edge=4, seed=3)
        sizes = [(3, 2), (1, 4), (5, 1)]
        graphs = []
        for n_traj, n_det in sizes:
            graph = AssocGraph(
                Trajectories.of([make_traj(i + 1, BoundingBox(0, 0, 10, 20), unit_vec(4, 0))
                                 for i in range(n_traj)]),
                Detections.of([make_det(BoundingBox(0, 0, 10, 20), unit_vec(4, 1))] * n_det),
                np.zeros((n_traj, 4)), np.arange(n_traj) % n_traj, np.arange(n_traj) % n_det,
                edge_features=rng.normal(size=(n_traj, 6)),
            )
            chains = random_chains(model.lstm, rng, [n_traj - 1])
            graphs.append(mpn._TrainGraph(graph, np.ones(n_traj), chains))
        union = join(graphs)
        assert list(union.lstm_chains) == [2, 3, 8]
        assert [union.lstm_chains[k] for k in (2, 3, 8)] == \
            [tg.lstm_chains[len(tg.labels) - 1] for tg in graphs]
        assert union.graph.edge_traj.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8]
        assert union.graph.edge_det.tolist() == [0, 1, 0, 2, 6, 6, 6, 6, 6]
        assert len(union.graph.traj_features) == 9 and len(union.graph.det_features) == 7


def sized(runs, edges):
    """The edge counts of each run of graph positions."""
    return [[edges[i] for i in run] for run in runs]


class TestSplitByEdges:
    def test_runs_fill_the_budget_greedily_in_order(self):
        edges = [100, 100, 56, 1, 300, 10, 246, 1, 256, 3]
        runs = mpn.split_by_edges(edges)
        assert sized(runs, edges) == \
            [[100, 100, 56], [1], [300], [10, 246], [1], [256], [3]]
        assert [i for run in runs for i in run] == list(range(len(edges)))

    @settings(max_examples=200, deadline=None)
    @given(edges=st.lists(st.integers(1, 600), max_size=12))
    def test_runs_hold_the_budget_or_one_graph(self, edges):
        runs = mpn.split_by_edges(edges)
        assert [i for run in runs for i in run] == list(range(len(edges)))
        assert [n for run in sized(runs, edges) for n in run] == edges
        sums = [sum(run) for run in sized(runs, edges)]
        for run, total in zip(runs, sums):
            assert total <= mpn.UNION_EDGES or len(run) == 1
        # Greedy: no run could have taken the next run's first graph.
        for total, after in zip(sums, runs[1:]):
            assert total + edges[after[0]] > mpn.UNION_EDGES

    def test_training_runs_one_forward_per_run(self, monkeypatch):
        """train_model cuts each batch with split_by_edges, here under a
        budget of 30 edges, and a larger graph trains alone."""
        scene = generate(preset("crossing", seed=101))
        prefix = {f: dets for f, dets in scene.frames.items() if f <= 25}
        built, forwards = [], []  # edges per graph of each batch; per forward pass
        build, forward = mpn.training_union, mpn.mpn_forward

        def recording_build(*args, **kwargs):
            union, sizes = build(*args, **kwargs)
            built.append(sizes[:, 2].tolist())
            return union, sizes

        def recording_forward(model, graph):
            forwards.append(graph.edge_traj.size)
            return forward(model, graph)

        monkeypatch.setattr(mpn, "UNION_EDGES", 30)
        monkeypatch.setattr(mpn, "training_union", recording_build)
        monkeypatch.setattr(mpn, "mpn_forward", recording_forward)
        model = create_model(scene.config.feature_dim, d_node=8, d_edge=8, seed=7)
        cfg = TrainConfig(seed=11, epochs=2)
        train_model(model, [prefix], cfg, ratio_variant="app")
        want = [sum(run) for edges in built for run in sized(mpn.split_by_edges(edges), edges)]
        assert forwards == want
        assert any(n > 30 for n in forwards) and any(n < 30 for n in forwards)
