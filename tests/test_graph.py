import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import conclusive_pick

from graphmot.core import BoundingBox, Detection, Detections, Trajectories, Trajectory
from graphmot.graph import (
    AssocGraph,
    build_graph,
    candidate_edges,
    edge_distances,
    init_edge_features,
    ratio_test_filter,
)
from graphmot.kernels import center_dist_matrix
from graphmot.motion import kf_init


def unit_vec(dim, axis):
    v = np.zeros(dim)
    v[axis] = 1.0
    return v


def make_traj(tid, box, feature, last_seen=1):
    return Trajectory(tid, np.asarray(feature, float), box, last_seen, kf_init(box))


def make_det(box, feature, frame=2, conf=0.9, gt_id=None):
    return Detection(frame, box, conf, np.asarray(feature, float), gt_id)


def simple_pair(n_traj=2, n_det=2, spread=300.0, dim=4):
    """Far-separated identity pairs, as blocks: trajectory i sits next to
    detection i."""
    trajs, dets = [], []
    for i in range(n_traj):
        b = BoundingBox(spread * i, 50, 20, 40)
        trajs.append(make_traj(i + 1, b, unit_vec(dim, i % dim)))
    for j in range(n_det):
        b = BoundingBox(spread * j + 3, 52, 20, 40)
        dets.append(make_det(b, unit_vec(dim, j % dim), gt_id=j + 1))
    return Trajectories.of(trajs), Detections.of(dets)


class TestCandidateEdges:
    def test_single_pair(self):
        trajs, dets = simple_pair(1, 1)
        et, ed, _ = candidate_edges(trajs, dets, 20)
        assert len(et) == 1 and ed[0] == 0

    def test_k_truncates(self):
        rng = np.random.default_rng(0)
        trajs = Trajectories.of([
            make_traj(i + 1, BoundingBox(10 * i, 10, 10, 20), unit_vec(4, 0))
            for i in range(30)
        ])
        dets = Detections.of([make_det(BoundingBox(0, 10, 10, 20), unit_vec(4, 0))])
        et, ed, _ = candidate_edges(trajs, dets, 20)
        assert len(et) == 20
        # the 20 nearest are trajectories 0..19 (by construction, sorted)
        assert sorted(et.tolist()) == list(range(20))
        del rng

    def test_equidistant_tie_prefers_lower_id(self):
        b_left = BoundingBox(0, 0, 10, 10)
        b_right = BoundingBox(20, 0, 10, 10)
        trajs = Trajectories.of([
            make_traj(3, b_left, unit_vec(4, 0)),
            make_traj(1, b_right, unit_vec(4, 1)),
        ])
        dets = Detections.of([make_det(BoundingBox(10, 0, 10, 10), unit_vec(4, 2))])
        et, _, _ = candidate_edges(trajs, dets, 1)
        assert trajs[et[0]].id == 1

    def test_empty_trajectories(self):
        dets = Detections.of([make_det(BoundingBox(0, 0, 5, 5), unit_vec(4, 0))])
        et, ed, _ = candidate_edges(Trajectories.of([]), dets, 5)
        assert et.size == 0 and ed.size == 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            candidate_edges(Trajectories.of([]), Detections.of([], 2), 0)


class TestConclusivePick:
    def test_decisive(self):
        assert conclusive_pick(np.array([0.2, 0.9]), 0.3) == 0  # 0.2 < 0.27

    def test_indecisive(self):
        assert conclusive_pick(np.array([0.2, 0.5]), 0.3) is None  # 0.2 >= 0.15

    def test_single_candidate_undefined(self):
        assert conclusive_pick(np.array([0.1]), 0.5) is None

    def test_exact_tie_is_inconclusive(self):
        assert conclusive_pick(np.array([0.4, 0.4]), 0.9) is None

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            conclusive_pick(np.array([0.1, 0.5]), 1.0)


def graph_with_distances(edges, dists, n_traj, n_det):
    trajs = [
        make_traj(i + 1, BoundingBox(100 * i, 10, 10, 20), unit_vec(4, i % 4))
        for i in range(n_traj)
    ]
    dets = [
        make_det(BoundingBox(100 * j, 12, 10, 20), unit_vec(4, j % 4))
        for j in range(n_det)
    ]
    et = np.array([e[0] for e in edges], dtype=np.intp)
    ed = np.array([e[1] for e in edges], dtype=np.intp)
    boxes = np.array([t.last_box.as_xywh() for t in trajs])
    return AssocGraph(Trajectories.of(trajs), Detections.of(dets), boxes, et, ed,
                      edge_dist=np.asarray(dists, float), n_candidates=len(edges))


class TestRatioFilter:
    def test_conclusive_keeps_single_edge(self):
        g = graph_with_distances([(0, 0), (0, 1)], [0.2, 0.9], 1, 2)
        out = ratio_test_filter(g, 0.3)
        assert out.n_edges == 1
        assert (out.edge_traj[0], out.edge_det[0]) == (0, 0)

    def test_inconclusive_keeps_all(self):
        g = graph_with_distances([(0, 0), (0, 1)], [0.2, 0.5], 1, 2)
        assert ratio_test_filter(g, 0.3).n_edges == 2

    def test_single_edge_untouched(self):
        g = graph_with_distances([(0, 0)], [0.7], 1, 1)
        assert ratio_test_filter(g, 0.3).n_edges == 1

    def test_idempotent_on_random_graphs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_traj, n_det = rng.integers(1, 8), rng.integers(1, 8)
            edges = [(i, j) for i in range(n_traj) for j in range(n_det)]
            dists = rng.uniform(0.05, 1.5, size=len(edges))
            g = graph_with_distances(edges, dists, n_traj, n_det)
            once = ratio_test_filter(g, 0.4)
            kept = once.edge_traj.copy(), once.edge_det.copy()  # filtered in place
            twice = ratio_test_filter(once, 0.4)
            assert np.array_equal(kept[0], twice.edge_traj)
            assert np.array_equal(kept[1], twice.edge_det)

    def test_scale_invariance_per_trajectory(self):
        rng = np.random.default_rng(2)
        edges = [(i, j) for i in range(4) for j in range(5)]
        dists = rng.uniform(0.1, 1.0, size=len(edges))
        g1 = graph_with_distances(edges, dists, 4, 5)
        scaled = dists.copy()
        mask = g1.edge_traj == 2
        scaled[mask] *= 17.5
        g2 = graph_with_distances(edges, scaled, 4, 5)
        out1 = ratio_test_filter(g1, 0.35)
        out2 = ratio_test_filter(g2, 0.35)
        assert np.array_equal(out1.edge_traj, out2.edge_traj)
        assert np.array_equal(out1.edge_det, out2.edge_det)

    def test_never_adds_edges_and_stays_bipartite(self):
        rng = np.random.default_rng(3)
        edges = [(i, j) for i in range(6) for j in range(6)]
        dists = rng.uniform(0.01, 2.0, size=len(edges))
        g = graph_with_distances(edges, dists, 6, 6)
        before = set(zip(g.edge_traj, g.edge_det))  # filtered in place
        out = ratio_test_filter(g, 0.3)
        assert out.n_edges <= len(before)
        assert set(zip(out.edge_traj, out.edge_det)) <= before


class TestEdgeFeatures:
    def test_identical_box_one_frame_gap(self):
        b = BoundingBox(10, 20, 30, 60)
        f = unit_vec(4, 1)
        trajs = Trajectories.of([make_traj(1, b, f, last_seen=1)])
        dets = Detections.of([make_det(b, f, frame=2)])
        et, ed, boxes = candidate_edges(trajs, dets, 5)
        g = AssocGraph(trajs, dets, boxes, et, ed, n_candidates=1)
        g = init_edge_features(g, fps=30.0)
        assert np.allclose(g.edge_features[0], [0, 0, 0, 0, 1 / 30, 0], atol=1e-12)

    def test_one_height_below(self):
        b_t = BoundingBox(0, 0, 30, 60)
        b_d = BoundingBox(0, 60, 30, 60)  # centered one height below
        trajs = Trajectories.of([make_traj(1, b_t, unit_vec(4, 0))])
        dets = Detections.of([make_det(b_d, unit_vec(4, 0), frame=2)])
        et, ed, boxes = candidate_edges(trajs, dets, 5)
        g = init_edge_features(AssocGraph(trajs, dets, boxes, et, ed), fps=30.0)
        assert g.edge_features[0][1] == pytest.approx(1.0)
        assert g.edge_features[0][0] == pytest.approx(0.0)

    def test_matches_independent_scalar_recompute(self):
        rng = np.random.default_rng(4)
        trajs, dets = [], []
        for i in range(5):
            bt = BoundingBox(*rng.uniform(10, 300, 2), *rng.uniform(10, 80, 2))
            f = rng.normal(size=6)
            trajs.append(make_traj(i + 1, bt, f / np.linalg.norm(f), last_seen=int(rng.integers(1, 3))))
        for j in range(6):
            bd = BoundingBox(*rng.uniform(10, 300, 2), *rng.uniform(10, 80, 2))
            f = rng.normal(size=6)
            dets.append(make_det(bd, f / np.linalg.norm(f), frame=4))
        g = build_graph(Trajectories.of(trajs), Detections.of(dets), k_neighbors=20,
                        ratio_variant="none", fps=25.0)
        for e in range(g.n_edges):
            t = trajs[g.edge_traj[e]]
            d = dets[g.edge_det[e]]
            tb, db = t.last_box, d.box
            h_sum = tb.h + db.h
            expected = [
                2 * (db.cx - tb.cx) / h_sum,
                2 * (db.cy - tb.cy) / h_sum,
                math.log(db.h / tb.h),
                math.log(db.w / tb.w),
                (d.frame - t.last_seen_frame) / 25.0,
                math.sqrt(sum((a - b) ** 2 for a, b in zip(t.integrated_feature, d.feature))),
            ]
            assert np.allclose(g.edge_features[e], expected, atol=1e-12)

    def test_rejects_non_positive_gap(self):
        b = BoundingBox(0, 0, 10, 10)
        trajs = Trajectories.of([make_traj(1, b, unit_vec(4, 0), last_seen=5)])
        dets = Detections.of([make_det(b, unit_vec(4, 0), frame=5)])
        et, ed, boxes = candidate_edges(trajs, dets, 5)
        with pytest.raises(ValueError):
            init_edge_features(AssocGraph(trajs, dets, boxes, et, ed), fps=30.0)


class TestBuildGraph:
    def test_empty_detections_is_none(self):
        trajs, _ = simple_pair()
        assert build_graph(trajs, Detections.of([], 2), k_neighbors=5) is None

    def test_empty_trajectories_is_none(self):
        _, dets = simple_pair()
        assert build_graph(Trajectories.of([]), dets, k_neighbors=5) is None

    def test_two_separated_pairs_conclusive(self):
        trajs, dets = simple_pair(2, 2)
        g = build_graph(trajs, dets, k_neighbors=20, ratio_variant="app", alpha=0.3)
        assert g.n_edges == 2
        assert g.n_candidates == 4
        matched = {(trajs[i].id, dets[j].gt_id) for i, j in zip(g.edge_traj, g.edge_det)}
        assert matched == {(1, 1), (2, 2)}

    def test_deterministic(self):
        trajs, dets = simple_pair(4, 4)
        g1 = build_graph(trajs, dets, k_neighbors=3, ratio_variant="iou", alpha=0.2)
        g2 = build_graph(trajs, dets, k_neighbors=3, ratio_variant="iou", alpha=0.2)
        assert np.array_equal(g1.edge_traj, g2.edge_traj)
        assert np.array_equal(g1.edge_features, g2.edge_features)

    def test_unknown_variant(self):
        trajs, dets = simple_pair()
        with pytest.raises(ValueError):
            build_graph(trajs, dets, ratio_variant="appearance")

    @pytest.mark.parametrize("fps", [0.0, -30.0])
    def test_refuses_non_positive_fps(self, fps):
        trajs, dets = simple_pair()
        with pytest.raises(ValueError, match="fps must be > 0"):
            build_graph(trajs, dets, fps=fps)

    def test_iou_distance_uses_predicted_boxes(self):
        trajs, dets = simple_pair(2, 2)
        g = build_graph(trajs, dets, k_neighbors=20, ratio_variant="iou", alpha=0.3)
        dist = edge_distances(g, "iou")
        assert ((dist >= 0) & (dist <= 1)).all()


class TestCrossingSceneStructure:
    def test_filtering_only_starves_detections_via_conclusive_steals(self):
        # Teacher-forced graphs over a dense crossing scene: filtering must
        # shrink the edge set, and a detection may end up edgeless only
        # when every one of its candidate trajectories conclusively picked
        # some other detection.
        from graphmot.synth import generate, preset

        scene = generate(preset("crossing", seed=6, n_frames=60))
        frames = sorted(scene.frames)
        shrank = False
        for prev_f, cur_f in zip(frames, frames[1:]):
            trajs = Trajectories.of([
                make_traj(d.gt_id, d.box, d.feature, last_seen=prev_f)
                for d in scene.frames[prev_f]
                if d.gt_id is not None
            ])
            dets = scene.frames[cur_f]
            g = build_graph(trajs, dets, k_neighbors=20, ratio_variant="app", alpha=0.3)
            if g is None:
                continue
            if g.n_edges < g.n_candidates:
                shrank = True
            dense_t, dense_d, _ = candidate_edges(trajs, dets, 20)
            kept_per_traj = {
                int(i): np.flatnonzero(g.edge_traj == i) for i in np.unique(g.edge_traj)
            }
            for j in range(len(dets)):
                if (g.edge_det == j).any():
                    continue
                for ti in dense_t[dense_d == j]:
                    kept = kept_per_traj.get(int(ti), [])
                    assert len(kept) == 1, "edgeless detection not explained by a conclusive pick"
                    assert g.edge_det[kept[0]] != j
        assert shrank, "ratio filter never removed an edge on a crossing scene"


class TestSeparatedIdentitiesSweep:
    def test_app_filter_removes_edges_with_no_wrong_picks(self):
        # Well-separated identities, feature noise sigma = 0.05: the
        # appearance ratio test at alpha = 0.3 must prune heavily and
        # never make a wrong conclusive pick (checked against gt_id).
        rng = np.random.default_rng(7)
        dim = 16
        n_ids = 12
        anchors = np.linalg.qr(rng.normal(size=(dim, n_ids)))[0].T
        trajs, dets = [], []
        for i in range(n_ids):
            b = BoundingBox(90.0 * i, 100.0, 30, 60)
            f = anchors[i] + 0.05 * rng.normal(size=dim)
            trajs.append(make_traj(i + 1, b, f / np.linalg.norm(f)))
            bd = BoundingBox(90.0 * i + rng.normal(0, 2), 100 + rng.normal(0, 2), 30, 60)
            f = anchors[i] + 0.05 * rng.normal(size=dim)
            dets.append(make_det(bd, f / np.linalg.norm(f), frame=2, gt_id=i + 1))
        g = build_graph(Trajectories.of(trajs), Detections.of(dets), k_neighbors=20,
                        ratio_variant="app", alpha=0.3)
        assert g.n_candidates == n_ids * n_ids
        assert g.n_edges <= 0.6 * g.n_candidates  # >= 40% removed
        # Conclusive trajectories ended up with exactly one edge: check it.
        counts = np.bincount(g.edge_traj, minlength=n_ids)
        for i in np.flatnonzero(counts == 1):
            j = g.edge_det[g.edge_traj == i][0]
            assert dets[j].gt_id == trajs[i].id


# Reference implementations: the per-detection and per-trajectory loops the
# sort-based builder replaced. The builder must agree with them exactly.


def reference_candidate_edges(trajectories, detections, k, traj_boxes):
    det_boxes = np.array([d.box.as_xywh() for d in detections])
    dist = center_dist_matrix(traj_boxes, det_boxes)
    ids = np.array([t.id for t in trajectories])
    edge_traj, edge_det = [], []
    take = min(k, len(trajectories))
    for j in range(len(detections)):
        order = np.lexsort((ids, dist[:, j]))[:take]
        edge_traj.extend(int(i) for i in order)
        edge_det.extend([j] * take)
    return np.asarray(edge_traj, dtype=np.intp), np.asarray(edge_det, dtype=np.intp)


def reference_ratio_keep(edge_traj, edge_dist, alpha):
    keep = np.ones(edge_traj.size, dtype=bool)
    for ti in np.unique(edge_traj):
        mask = edge_traj == ti
        pick = conclusive_pick(edge_dist[mask], alpha)
        if pick is not None:
            keep[mask] = False
            keep[np.flatnonzero(mask)[pick]] = True
    return keep


# Coarse grids, so that equal distances and equal ids are common.
grid_boxes = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 3), st.integers(1, 3)),
    min_size=1,
    max_size=12,
)


class TestSortBasedBuilderMatchesLoops:
    @settings(max_examples=200, deadline=None)
    @given(
        traj_cells=grid_boxes,
        det_cells=grid_boxes,
        ids=st.lists(st.integers(1, 4), min_size=12, max_size=12),
        k=st.integers(1, 14),
    )
    def test_candidate_edges(self, traj_cells, det_cells, ids, k):
        trajs = [
            make_traj(ids[i], BoundingBox(10.0 * x, 10.0 * y, 10.0 * w, 10.0 * h), unit_vec(4, 0))
            for i, (x, y, w, h) in enumerate(traj_cells)
        ]
        dets = [
            make_det(BoundingBox(10.0 * x, 10.0 * y, 10.0 * w, 10.0 * h), unit_vec(4, 0))
            for x, y, w, h in det_cells
        ]
        traj_boxes = np.array([t.last_box.as_xywh() for t in trajs])
        edge_traj, edge_det, _ = candidate_edges(
            Trajectories.of(trajs), Detections.of(dets), k, traj_boxes
        )
        ref_traj, ref_det = reference_candidate_edges(trajs, dets, k, traj_boxes)
        assert edge_traj.dtype == ref_traj.dtype and edge_det.dtype == ref_det.dtype
        assert np.array_equal(edge_traj, ref_traj)
        assert np.array_equal(edge_det, ref_det)

    @settings(max_examples=300, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])),
            max_size=30,
        ),
        alpha=st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.9]),
    )
    def test_ratio_test_filter(self, edges, alpha):
        et = [e[0] for e in edges]
        ed = [e[1] for e in edges]
        dists = [e[2] for e in edges]
        g = graph_with_distances(list(zip(et, ed)), dists, 6, 6)
        out = ratio_test_filter(g, alpha)
        keep = reference_ratio_keep(g.edge_traj, g.edge_dist, alpha)
        assert np.array_equal(out.edge_traj, g.edge_traj[keep])
        assert np.array_equal(out.edge_det, g.edge_det[keep])
        assert np.array_equal(out.edge_dist, g.edge_dist[keep])
