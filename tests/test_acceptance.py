"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The trained-model
fixtures are session-scoped: the integration ablation (criterion 5) trains
three models with the default training configuration, and the deployment
configuration (criteria 4 and 6) trains one more with the appearance
ratio test enabled, matching how it is used at inference.
"""

import math
import time

import numpy as np
import pytest

from graphmot.cli import main as cli_main
from graphmot.core import BoundingBox
from graphmot.graph import build_graph
from graphmot.integration import integrate_rows
from graphmot.metrics import clear_mot, idf1, ratio_analysis
from graphmot.motio import TrackRow, TrackRows
from graphmot.motion import KalmanParams, kf_init, kf_predict, kf_update, state_to_box
from graphmot.mpn import TrainConfig, create_model, mpn_backward, mpn_forward, train_model
from graphmot.nn import LstmCell, LstmState, Mlp, grad_check, weighted_bce
from graphmot.synth import SceneFeatureSource, generate, preset
from graphmot.tracker import TrackerConfig, greedy_match, run_sequence

TRAIN_SEEDS = (101, 102)
EVAL_SEEDS = range(1, 11)
ALPHA_GRID = (0.2, 0.3, 0.4, 0.5, 0.6)


def _report(number, description):
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def _train(integration, ratio_variant):
    scenes = [generate(preset("crossing", seed=s)) for s in TRAIN_SEEDS]
    model = create_model(scenes[0].config.feature_dim, seed=7)
    train_model(
        model,
        [s.frames for s in scenes],
        TrainConfig(seed=11),
        integration=integration,
        ratio_variant=ratio_variant,
    )
    return model


@pytest.fixture(scope="session")
def ablation_models():
    """Integration-mode ablation models (dense graphs, like the ablation rows)."""
    start = time.perf_counter()
    models = {mode: _train(mode, "none") for mode in ("none", "average", "iou")}
    return models, time.perf_counter() - start


@pytest.fixture(scope="session")
def deploy_model():
    """Best-configuration model: overlap-guided integration + appearance ratio."""
    return _train("iou", "app")


def test_c01_gradient_integrity():
    start = time.perf_counter()

    rng = np.random.default_rng(0)
    mlp = Mlp([5, 8, 3], rng)
    x = rng.normal(size=(4, 5))
    coeff = rng.normal(size=(4, 3))

    def mlp_loss():
        out, _ = mlp.forward(x)
        return float((coeff * out).sum() + 0.5 * (out**2).sum())

    out, cache = mlp.forward(x)
    _, mlp_grads = mlp.backward(cache, coeff + out)
    report = grad_check(mlp_loss, mlp.params(), mlp_grads, h=1e-5, tolerance=1e-4)
    assert report.passed, f"MLP gradients off by {report.max_rel_error}"

    cell = LstmCell(3, 4, rng)
    x1, x2 = rng.normal(size=3), rng.normal(size=3)
    h0, c0 = 0.3 * rng.normal(size=4), 0.3 * rng.normal(size=4)

    def lstm_loss():
        s = LstmState(h0, c0)
        _, s, _ = cell.step(s, x1)
        h, s, _ = cell.step(s, x2)
        return float((h**2).sum() + 0.5 * (s.c**2).sum())

    s = LstmState(h0, c0)
    _, s1, cache1 = cell.step(s, x1)
    h2, s2, cache2 = cell.step(s1, x2)
    _, dh, dc, g2 = cell.backward(cache2, 2.0 * h2, s2.c)
    _, _, _, g1 = cell.backward(cache1, dh, dc)
    lstm_grads = [a + b for a, b in zip(g1, g2)]
    report = grad_check(lstm_loss, cell.params(), lstm_grads, h=1e-5, tolerance=1e-4)
    assert report.passed, f"LSTM gradients off by {report.max_rel_error}"

    model = create_model(6, d_node=8, d_edge=8, rounds=4, seed=12)
    trajs, dets = [], []
    from graphmot.core import Detection, Detections, Trajectories, Trajectory

    for i in range(3):
        f = rng.normal(size=6)
        box = BoundingBox(120.0 * i, 80.0, 28, 56)
        trajs.append(Trajectory(i + 1, f / np.linalg.norm(f), box, 1, kf_init(box)))
        f = rng.normal(size=6)
        dbox = BoundingBox(120.0 * i + 3.0, 82.0, 28, 56)
        dets.append(Detection(2, dbox, 0.9, f / np.linalg.norm(f), gt_id=i + 1))
    graph = build_graph(Trajectories.of(trajs), Detections.of(dets), k_neighbors=20,
                        ratio_variant="none")
    labels = np.array(
        [1.0 if graph.detections[j].gt_id == graph.trajectories[i].id else 0.0
         for i, j in zip(graph.edge_traj, graph.edge_det)]
    )

    def mpn_loss():
        probs, _ = mpn_forward(model, graph)
        return float(weighted_bce(probs, labels, 2.0)[0].mean())

    probs, state = mpn_forward(model, graph)
    _, dp = weighted_bce(probs, labels, 2.0)
    dlogits = dp * probs * (1.0 - probs) / labels.size
    grads, _ = mpn_backward(model, state, dlogits)
    report = grad_check(mpn_loss, model.param_arrays(), grads, h=1e-5, tolerance=1e-4)
    assert report.passed, f"MPN gradients off by {report.max_rel_error}"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"
    _report(1, f"gradient checks < 1e-4 (MLP, LSTM, MPN 3x3 L=4) in {elapsed:.1f}s")


def test_c02_overlap_guided_identities():
    rng = np.random.default_rng(1)
    for _ in range(200):
        f_prev = rng.normal(size=(1, 16))
        f_prev /= np.linalg.norm(f_prev)
        f_new = rng.normal(size=(1, 16))
        f_new /= np.linalg.norm(f_new)
        guided = integrate_rows("iou", f_prev, f_new, np.array([0.0]))
        plain = integrate_rows("average", f_prev, f_new)
        assert np.array_equal(guided, plain), "overlap 0 must equal plain averaging bit-for-bit"
        frozen = integrate_rows("iou", f_prev, f_new, np.array([1.0]))
        assert np.array_equal(frozen, f_prev), "overlap 1 must return the history unchanged"
    _report(2, "overlap-guided blend: I=0 equals averaging bitwise, I=1 freezes history")


def test_c03_ratio_test_laws():
    false_counts = {}
    for variant in ("iou", "app"):
        agg_t = {a: 0 for a in ALPHA_GRID}
        agg_f = {a: 0 for a in ALPHA_GRID}
        agg_i = {a: 0 for a in ALPHA_GRID}
        for seed in range(1, 6):
            scene = generate(preset("crowded", seed=seed))
            rep = ratio_analysis([scene.frames], variant, ALPHA_GRID)
            t_seq = [rep.true_counts[a] for a in ALPHA_GRID]
            i_seq = [rep.inconclusive_counts[a] for a in ALPHA_GRID]
            assert all(b >= a for a, b in zip(t_seq, t_seq[1:])), \
                f"{variant} seed {seed}: T not non-decreasing in alpha"
            assert all(b <= a for a, b in zip(i_seq, i_seq[1:])), \
                f"{variant} seed {seed}: I not non-increasing in alpha"
            for a in ALPHA_GRID:
                agg_t[a] += rep.true_counts[a]
                agg_f[a] += rep.false_counts[a]
                agg_i[a] += rep.inconclusive_counts[a]
        false_counts[variant] = agg_f
    for a in ALPHA_GRID:
        assert false_counts["app"][a] <= false_counts["iou"][a], \
            f"F_app > F_iou at alpha={a}"
    clean_f = {0.2: 0, 0.3: 0}
    for seed in range(1, 6):
        scene = generate(preset("crowded", seed=seed, feature_noise=0.02))
        rep = ratio_analysis([scene.frames], "app", [0.2, 0.3])
        for a in (0.2, 0.3):
            clean_f[a] += rep.false_counts[a]
    assert clean_f[0.2] == 0 and clean_f[0.3] == 0, \
        f"clean features produced false appearance matches: {clean_f}"
    _report(3, "ratio-test laws: T/I monotone in alpha, F_app <= F_iou, clean F_app = 0")


def test_c04_sparsity(deploy_model):
    start = time.perf_counter()
    scene = generate(preset("crowded", seed=1))
    source = SceneFeatureSource(scene)
    variants = ("none", "iou", "app")
    configs = {
        v: TrackerConfig(ratio_variant=v, integration="iou", image_size=scene.config.image_size)
        for v in variants
    }
    # The association time is the best of three runs' means, so that one
    # run slowed by another process on the machine does not decide it. The
    # variants take turns within each repetition, so that a slow spell of
    # the machine slows all of them alike.
    assoc_seconds = {v: [] for v in variants}
    steps = {}
    for _ in range(3):
        for variant in variants:
            _, stats = run_sequence(scene.frames, deploy_model, configs[variant], source)
            steps[variant] = [s for s in stats if s.n_candidates > 0]
            assoc_seconds[variant].append(
                float(np.mean([s.assoc_seconds for s in steps[variant]])))
    stats_by_variant = {
        v: (
            float(np.mean([s.n_candidates for s in steps[v]])),
            float(np.mean([s.n_edges for s in steps[v]])),
            min(assoc_seconds[v]),
        )
        for v in variants
    }
    removal = {
        v: 1.0 - edges / cand for v, (cand, edges, _) in stats_by_variant.items()
    }
    assert removal["app"] >= 0.40, f"appearance ratio removed only {removal['app']:.1%}"
    assert removal["iou"] >= 0.60, f"overlap ratio removed only {removal['iou']:.1%}"
    dense_time = stats_by_variant["none"][2]
    for variant in ("iou", "app"):
        assert stats_by_variant[variant][2] <= dense_time, \
            f"{variant} association slower than dense graph"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"sparsity run took {elapsed:.1f}s"
    _report(
        4,
        "sparsity: removal iou {:.0%} / app {:.0%}, association {:.2f} -> "
        "{:.2f} / {:.2f} ms".format(
            removal["iou"], removal["app"], dense_time * 1e3,
            stats_by_variant["iou"][2] * 1e3, stats_by_variant["app"][2] * 1e3,
        ),
    )


def test_c05_integration_ablation(ablation_models):
    models, train_seconds = ablation_models
    start = time.perf_counter()
    mean_idf1 = {}
    total_ids = {}
    for mode, model in models.items():
        scores, switches = [], 0
        for seed in EVAL_SEEDS:
            scene = generate(preset("crossing", seed=seed))
            cfg = TrackerConfig(
                ratio_variant="none", integration=mode,
                image_size=scene.config.image_size,
            )
            rows, _ = run_sequence(scene.frames, model, cfg, SceneFeatureSource(scene))
            scores.append(idf1(scene.gt_rows, rows))
            switches += clear_mot(scene.gt_rows, rows).ids
        mean_idf1[mode] = float(np.mean(scores))
        total_ids[mode] = switches
    assert mean_idf1["iou"] >= mean_idf1["average"] >= mean_idf1["none"], (
        f"IDF1 ordering violated: {mean_idf1}"
    )
    gap = 100.0 * (mean_idf1["iou"] - mean_idf1["none"])
    assert gap >= 3.0, f"overlap-guided mode beats vanilla by only {gap:.2f} IDF1 points"
    assert total_ids["iou"] <= total_ids["none"], f"IDS ordering violated: {total_ids}"
    assert total_ids["none"] >= 1, "vanilla mode should switch at least once on crossings"
    elapsed = train_seconds + time.perf_counter() - start
    assert elapsed < 600.0, f"ablation incl. training took {elapsed:.0f}s"
    _report(
        5,
        "ablation IDF1 iou {:.1f} >= avg {:.1f} >= none {:.1f} (gap {:.1f} pts), "
        "IDS {} <= {}, {:.0f}s incl. training".format(
            100 * mean_idf1["iou"], 100 * mean_idf1["average"], 100 * mean_idf1["none"],
            gap, total_ids["iou"], total_ids["none"], elapsed,
        ),
    )


def test_c06_forecast_constraints(deploy_model):
    settings = {
        "constrained": dict(emit_forecasts=True, forecast_constraints=True),
        "no_forecast": dict(emit_forecasts=False),
        "unconstrained": dict(emit_forecasts=True, forecast_constraints=False),
    }
    mota = {}
    fp = {}
    for name, kwargs in settings.items():
        motas, fps = [], 0
        for seed in range(1, 6):
            scene = generate(preset("exits", seed=seed))
            cfg = TrackerConfig(
                ratio_variant="app", integration="iou",
                image_size=scene.config.image_size, **kwargs,
            )
            rows, _ = run_sequence(scene.frames, deploy_model, cfg, SceneFeatureSource(scene))
            res = clear_mot(scene.gt_rows, rows)
            motas.append(res.mota)
            fps += res.fp
        mota[name] = float(np.mean(motas))
        fp[name] = fps
    assert mota["constrained"] > mota["no_forecast"], f"MOTA: {mota}"
    assert mota["constrained"] > mota["unconstrained"], f"MOTA: {mota}"
    assert fp["unconstrained"] > fp["constrained"], f"FP: {fp}"
    assert fp["unconstrained"] > fp["no_forecast"], f"FP: {fp}"
    _report(
        6,
        "forecasting MOTA constrained {:.1f} > none {:.1f} > unconstrained {:.1f}; "
        "FP {} / {} / {}".format(
            100 * mota["constrained"], 100 * mota["no_forecast"],
            100 * mota["unconstrained"], fp["constrained"], fp["no_forecast"],
            fp["unconstrained"],
        ),
    )


def test_c07_matching_invariants():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n_traj = int(rng.integers(1, 10))
        n_det = int(rng.integers(1, 10))
        edges = [(i, j) for i in range(n_traj) for j in range(n_det) if rng.random() < 0.6]
        if not edges:
            edges = [(0, 0)]
        et = np.array([e[0] for e in edges])
        ed = np.array([e[1] for e in edges])
        scores = rng.uniform(0, 1, size=len(edges))
        taus = sorted(rng.uniform(0.05, 0.95, size=4))
        counts = []
        for tau in taus:
            matches, ut, ud = greedy_match(et, ed, scores, tau, n_traj=n_traj, n_det=n_det)
            used_t = [i for i, _ in matches]
            used_d = [j for _, j in matches]
            assert len(set(used_t)) == len(used_t) and len(set(used_d)) == len(used_d)
            assert sorted(used_t + ut.tolist()) == list(range(n_traj))
            assert sorted(used_d + ud.tolist()) == list(range(n_det))
            perm = rng.permutation(len(edges))
            matches_p, _, _ = greedy_match(
                et[perm], ed[perm], scores[perm], tau, n_traj=n_traj, n_det=n_det
            )
            assert matches_p == matches, "greedy match depends on edge storage order"
            counts.append(len(matches))
        assert all(b <= a for a, b in zip(counts, counts[1:])), \
            "match count increased with tau"
    _report(7, "greedy matching: one-to-one, order-independent, monotone in tau (100 graphs)")


def test_c08_metrics_oracle():
    # Perfect case.
    gt = []
    for f in range(1, 5):
        gt.append(TrackRow(f, 1, 10.0 * f, 0.0, 20.0, 40.0, 1.0))
        gt.append(TrackRow(f, 2, 500.0 + 10.0 * f, 0.0, 20.0, 40.0, 1.0))
    gt = TrackRows.of(gt)
    res = clear_mot(gt, gt)
    assert (res.mota, res.fp, res.fn, res.ids) == (1.0, 0, 0, 0)
    assert idf1(gt, gt) == 1.0

    # Mid-sequence swap: IDS = 2, MOTA = 1 - 2/8 = 0.75 (hand enumerated).
    hyp = []
    for f in range(1, 5):
        a, b = (10, 20) if f <= 2 else (20, 10)
        hyp.append(TrackRow(f, a, 10.0 * f, 0.0, 20.0, 40.0, 1.0))
        hyp.append(TrackRow(f, b, 500.0 + 10.0 * f, 0.0, 20.0, 40.0, 1.0))
    res = clear_mot(gt, TrackRows.of(hyp))
    assert res.ids == 2 and res.fp == 0 and res.fn == 0
    assert res.mota == 0.75

    # Split track: IDTP = IDFP = IDFN = 5 -> IDF1 = 0.5 (hand enumerated).
    gt_single = [TrackRow(f, 1, 3.0 * f, 0.0, 20.0, 40.0, 1.0) for f in range(1, 11)]
    hyp_split = [
        TrackRow(f, 100 if f <= 5 else 200, 3.0 * f, 0.0, 20.0, 40.0, 1.0)
        for f in range(1, 11)
    ]
    assert idf1(TrackRows.of(gt_single), TrackRows.of(hyp_split)) == 0.5
    _report(8, "metrics reproduce hand-enumerated cases exactly (MOTA 0.75, IDF1 0.5, perfect)")


def test_c09_kalman_correctness():
    params = KalmanParams(0.0, 0.0, 0.0)
    vx, vy = 3.0, -1.5

    def cv_box(t):
        return BoundingBox(100 + vx * t - 15, 200 + vy * t - 30, 30, 60)

    state = kf_init(cv_box(0), params)
    state = kf_predict(state, params)
    state = kf_update(state, cv_box(1), params)
    for k in range(2, 8):
        state = kf_predict(state, params)
        box = state_to_box(state)
        assert box.cx == pytest.approx(100 + vx * k, abs=1e-9)
        assert box.cy == pytest.approx(200 + vy * k, abs=1e-9)

    errors = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        state = None
        for t in range(50):
            tx, ty = 100 + 3.0 * t, 100 + 1.5 * t
            obs = BoundingBox(tx - 15 + rng.normal(0, 1), ty - 30 + rng.normal(0, 1), 30, 60)
            if state is None:
                state = kf_init(obs)
                continue
            state = kf_predict(state)
            if t >= 10:
                b = state_to_box(state)
                errors.append(math.hypot(b.cx - tx, b.cy - ty))
            state = kf_update(state, obs)
    mean_error = float(np.mean(errors))
    assert mean_error < 2.0, f"mean prediction error {mean_error:.2f}px"
    _report(9, f"Kalman: noiseless exact after 2 updates; noisy mean error {mean_error:.2f}px < 2px")


def test_spec_example_two_identity_crossing(ablation_models):
    # A plain two-identity crossing (no appearance corruption beyond the
    # overlap blend, no scripted turn): the trained model must keep both
    # identities with zero switches, one output id per ground-truth id.
    models, _ = ablation_models
    model = models["iou"]
    for seed in (3, 6, 8):
        scene = generate(preset(
            "crossing", seed=seed, n_targets=2, n_crossing_pairs=1,
            occlusion_blend=1.0, crossing_turn=0.0, feature_noise=0.03, dropout=0.0,
        ))
        cfg = TrackerConfig(
            ratio_variant="none", integration="iou", image_size=scene.config.image_size
        )
        rows, _ = run_sequence(scene.frames, model, cfg, SceneFeatureSource(scene))
        assert clear_mot(scene.gt_rows, rows).ids == 0
        assert len({r.track_id for r in rows}) == 2


def test_c10_end_to_end_determinism(tmp_path):
    data_dir = tmp_path / "scene"
    assert cli_main(["synth", "--preset", "easy", "--seed", "31", "--frames", "40",
                     "--out", str(data_dir)]) == 0
    ckpt = tmp_path / "model.npz"
    assert cli_main(["train", "--data", str(data_dir), "--out", str(ckpt),
                     "--seed", "2", "--epochs", "1"]) == 0
    outputs = []
    for name in ("run_a.txt", "run_b.txt"):
        out = tmp_path / name
        assert cli_main([
            "track", "--detections", str(data_dir / "det.txt"),
            "--features", str(data_dir / "features.txt"),
            "--checkpoint", str(ckpt), "--out", str(out),
            "--image-size", "960x600",
        ]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "tracking output differs between identical runs"
    assert len(outputs[0]) > 0
    _report(10, "cmd_track is byte-identical across reruns on identical inputs")
