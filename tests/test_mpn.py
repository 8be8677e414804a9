import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from references import max_overlap, reference_integrate, reference_teacher_force, window_tracks

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
from graphmot.nn import Mlp, grad_check, weighted_bce
from graphmot.synth import generate, preset


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
        assert np.allclose(state.traj_layers[0], feats)

    def test_identical_detections_identical_embeddings(self):
        model = create_model(4, d_node=8, d_edge=8, seed=1)
        f = unit_vec(4, 1)
        dets = [make_det(BoundingBox(0, 0, 10, 20), f), make_det(BoundingBox(100, 0, 10, 20), f)]
        trajs = [make_traj(1, BoundingBox(50, 0, 10, 20), unit_vec(4, 0))]
        g = build_graph(Trajectories.of(trajs), Detections.of(dets), k_neighbors=5)
        state = encode(model, g)
        assert np.array_equal(state.det_layers[0][0], state.det_layers[0][1])

    def test_re_encode_bit_identical(self):
        model = create_model(6, seed=2)
        g = grid_graph(3, 3)
        s1, s2 = encode(model, g), encode(model, g)
        assert np.array_equal(s1.traj_layers[0], s2.traj_layers[0])
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
        assert len(state.traj_layers) == 1
        probs = classify_edges(model, state)
        assert probs.shape == (g.n_edges,)

    def test_single_edge_mean_equals_message(self):
        model = tiny_linear_model()
        trajs = [make_traj(1, BoundingBox(0, 0, 10, 20), unit_vec(2, 0))]
        dets = [make_det(BoundingBox(2, 0, 10, 20), unit_vec(2, 1))]
        g = build_graph(Trajectories.of(trajs), Detections.of(dets), k_neighbors=5)
        state = propagate(model, encode(model, g))
        t0 = state.traj_layers[0][0]
        h1 = state.edge_layers[1][0]
        expected, _ = model.node_update.forward(np.concatenate([t0, h1]))
        assert np.allclose(state.traj_layers[1][0], expected, atol=1e-12)

    def test_two_by_two_matches_hand_loop(self):
        # Independent scalar re-computation of one propagation round over
        # the complete 2x2 bipartite graph, using explicit per-edge loops.
        model = tiny_linear_model()
        g = grid_graph(2, 2, dim=2, seed=5)
        assert g.n_edges == 4
        state = propagate(model, encode(model, g))

        t0, d0, h0 = state.traj_layers[0], state.det_layers[0], state.edge_layers[0]
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
            assert np.allclose(state.traj_layers[1][i], t1[i], atol=1e-12)
        for j in range(2):
            assert np.allclose(state.det_layers[1][j], d1[j], atol=1e-12)

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
        assert np.array_equal(state.det_layers[0][1], state.det_layers[-1][1])

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


@st.composite
def random_scoring_cases(draw):
    """A perturbed untrained model and a random graph for it: 1 to 400
    edges (OpenBLAS takes other kernels for few rows than for many), any
    number of nodes left without edges, and duplicate edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 3, 8, 17, 33]))
    model = create_model(
        dim,
        d_node=draw(st.sampled_from([2, 8, 32])),
        d_edge=draw(st.sampled_from([3, 32])),
        rounds=draw(st.integers(0, 4)),
        aggregation=draw(st.sampled_from(mpn.AGGREGATIONS)),
        seed=int(rng.integers(1000)),
    )
    for p in model.param_arrays():  # non-zero biases too
        p += rng.normal(scale=0.2, size=p.shape)
    n_traj, n_det = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    n_edges = draw(st.integers(1, 400))
    trajs = [make_traj(i + 1, BoundingBox(0, 0, 10, 20), f)
             for i, f in enumerate(rng.normal(size=(n_traj, dim)))]
    dets = [Detection(2, BoundingBox(0, 0, 10, 20), 0.9, unit_vec(dim, 0))] * n_det
    graph = AssocGraph(
        Trajectories.of(trajs), Detections.of(dets), np.zeros((n_traj, 4)),
        rng.integers(0, max(1, n_traj // draw(st.integers(1, 4))), n_edges),
        rng.integers(0, n_det, n_edges),
        edge_features=rng.normal(size=(n_edges, 6)),
        det_features=rng.normal(size=(n_det, dim)),
    )
    return model, graph


def reference_mlp(mlp, x):
    """Mlp.forward as plain expressions: a fresh array for every bias and ReLU."""
    last = len(mlp.weights) - 1
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = x @ w.T + b
        x = z if k == last else np.maximum(z, 0.0)
    return x


def reference_scores(model, graph):
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
    return mpn.sigmoid(reference_mlp(model.classifier, h)[:, 0])


class TestScoreGraph:
    @settings(max_examples=150, deadline=None)
    @given(case=random_scoring_cases())
    def test_equals_cached_forward_bytes(self, case):
        model, graph = case
        want = reference_scores(model, graph)
        assert mpn_forward(model, graph)[0].tobytes() == want.tobytes()
        assert score_graph(model, graph).tobytes() == want.tobytes()

    def test_keeps_no_caches(self):
        model = create_model(6, rounds=3, seed=2)
        g = grid_graph(3, 4)
        state = propagate(model, encode(model, g, caches=False))
        assert state.round_caches == [] and state.encoder_caches is None
        assert len(state.traj_layers) == len(state.edge_layers) == 1
        classify_edges(model, state)
        assert state.classifier_cache is None
        with pytest.raises(ValueError, match="without caches"):
            mpn_backward(model, state, np.zeros(g.n_edges))


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
        assert not np.allclose(state1.traj_layers[-1][2], state2.traj_layers[-1][2])
        assert np.allclose(state1.traj_layers[-1][0], state2.traj_layers[-1][0], atol=1e-12)
        assert np.allclose(state1.traj_layers[-1][1], state2.traj_layers[-1][1], atol=1e-12)


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

    def test_shared_node_update(self):
        # One shared node-update function serves both sides: perturbing it
        # moves trajectory and detection embeddings alike.
        model = create_model(4, d_node=8, d_edge=8, rounds=1, seed=21)
        g = grid_graph(2, 2, dim=4, seed=27)
        state_a = propagate(model, encode(model, g))
        model.node_update.biases[-1][...] += 1.0
        state_b = propagate(model, encode(model, g))
        assert not np.allclose(state_a.traj_layers[-1], state_b.traj_layers[-1])
        assert not np.allclose(state_a.det_layers[-1], state_b.det_layers[-1])


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
        original_walk, original_graph = mpn.ground_truth_walk, mpn.build_training_graph

        def counting_walk(frames_, *args, **kwargs):
            walks.append(frames_)
            return original_walk(frames_, *args, **kwargs)

        def recording(frames_, target_frame, *args, teacher=None, **kwargs):
            assert teacher is not None
            teachers.setdefault((id(frames_), target_frame), set()).add(id(teacher))
            return original_graph(frames_, target_frame, *args, teacher=teacher, **kwargs)

        monkeypatch.setattr(mpn, "ground_truth_walk", counting_walk)
        monkeypatch.setattr(mpn, "build_training_graph", recording)
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
def labeled_stream(draw, first_frame=1):
    """Frames from first_frame on, each absent, empty or holding detections
    of identities 1-4 (an identity may be detected twice, and identities
    leave and return) and clutter without gt_id."""
    frames = {}
    for f in range(first_frame, first_frame + draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["absent", "empty", "detections", "detections", "detections"]))
        if kind == "absent":
            continue
        dets = []
        for _ in range(0 if kind == "empty" else draw(st.integers(1, 6))):
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

        def recording(frames_, target_frame, window, model, *, teacher=None, **kwargs):
            got[id(frames_), target_frame] = teacher
            return None

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mpn, "build_training_graph", recording)
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


def test_training_history_reports_stage_times_and_edges(monkeypatch):
    scene = generate(preset("crossing", seed=101))
    prefix = {f: dets for f, dets in scene.frames.items() if f <= 25}
    edges = []
    original = mpn.build_training_graph

    def counting(*args, **kwargs):
        tg = original(*args, **kwargs)
        if tg is not None:
            edges.append((tg.labels.size, int(tg.labels.sum())))
        return tg

    monkeypatch.setattr(mpn, "build_training_graph", counting)
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
TRAINED_WEIGHTS = {
    "average": "0c1e588d1e027805326f1b94961ffa1583d9995648c705b172e1666d4db69e13",
    "lstm": "b5f190fbf2dfd2b84bab9b4236c383751a58a287db8c9972ffaae7b9d2b97e50",
}


@pytest.mark.parametrize("integration", sorted(TRAINED_WEIGHTS))
def test_trained_weights_pinned(integration):
    scene = generate(preset("crossing", seed=101))
    prefix = {f: dets for f, dets in scene.frames.items() if f <= 40}
    model = create_model(scene.config.feature_dim, d_node=8, d_edge=8, seed=7)
    train_model(model, [prefix], TrainConfig(seed=11, epochs=2),
                integration=integration, ratio_variant="app")
    assert param_digest(model) == TRAINED_WEIGHTS[integration]
