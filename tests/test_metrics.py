import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import reference_clear_mot, reference_idf1, reference_ratio_analysis

from graphmot import kernels
from graphmot.core import BoundingBox, Detection, Detections
from graphmot.metrics import (
    RatioAnalysisReport,
    clear_mot,
    idf1,
    ratio_analysis,
    render_ratio_report,
)
from graphmot.motio import TrackRow, TrackRows
from graphmot.synth import generate, preset


def row(frame, tid, x, y=0.0, w=20.0, h=40.0):
    return TrackRow(frame, tid, x, y, w, h, 1.0)


def two_identity_swap_case():
    """Two parallel gt tracks over 4 frames; the hypothesis swaps its two
    ids from frame 3 on. Hand enumeration: every box is matched (FP = FN
    = 0); at frame 3 both gt identities change hypothesis id -> IDS = 2;
    MOTA = 1 - 2/8 = 0.75."""
    gt, hyp = [], []
    for f in range(1, 5):
        gt.append(row(f, 1, x=10.0 * f))
        gt.append(row(f, 2, x=500.0 + 10.0 * f))
        hyp_a, hyp_b = (10, 20) if f <= 2 else (20, 10)
        hyp.append(row(f, hyp_a, x=10.0 * f))
        hyp.append(row(f, hyp_b, x=500.0 + 10.0 * f))
    return TrackRows.of(gt), TrackRows.of(hyp)


def shuffled(rows, seed):
    records = list(rows)
    np.random.default_rng(seed).shuffle(records)
    return TrackRows.of(records)


class TestClearMot:
    def test_perfect_hypothesis(self):
        gt = TrackRows.of([row(f, 1, x=5.0 * f) for f in range(1, 6)])
        res = clear_mot(gt, gt)
        assert (res.mota, res.fp, res.fn, res.ids) == (1.0, 0, 0, 0)

    def test_empty_hypothesis(self):
        gt = TrackRows.of([row(f, 1, x=5.0 * f) for f in range(1, 9)])
        res = clear_mot(gt, TrackRows.of([]))
        assert res.mota == 0.0
        assert res.fn == len(gt)
        assert res.fp == 0 and res.ids == 0

    def test_mid_sequence_swap_hand_enumerated(self):
        gt, hyp = two_identity_swap_case()
        res = clear_mot(gt, hyp)
        assert res.ids == 2
        assert res.fp == 0 and res.fn == 0
        assert res.mota == pytest.approx(0.75)

    def test_false_positive_counting(self):
        gt = TrackRows.of([row(f, 1, x=0.0) for f in range(1, 4)])
        hyp = TrackRows.of([row(f, 9, x=0.0) for f in range(1, 4)] + [row(2, 8, x=900.0)])
        res = clear_mot(gt, hyp)
        assert res.fp == 1 and res.fn == 0 and res.ids == 0
        assert res.mota == pytest.approx(1 - 1 / 3)

    def test_persistence_beats_better_overlap(self):
        # An established match persists while above threshold even if a
        # fresh hypothesis overlaps slightly better.
        gt = TrackRows.of([row(1, 1, x=0.0), row(2, 1, x=0.0)])
        hyp = TrackRows.of([row(1, 10, x=2.0), row(2, 10, x=2.0), row(2, 11, x=0.0)])
        res = clear_mot(gt, hyp)
        assert res.ids == 0
        assert res.fp == 1  # the interloper goes unmatched

    def test_row_order_invariance(self):
        gt, hyp = two_identity_swap_case()
        a = clear_mot(gt, hyp)
        b = clear_mot(shuffled(gt, 0), shuffled(hyp, 1))
        assert (a.mota, a.fp, a.fn, a.ids) == (b.mota, b.fp, b.fn, b.ids)

    def test_gt_against_itself_on_generated_scene(self):
        scene = generate(preset("crossing", seed=3, n_frames=60))
        res = clear_mot(scene.gt_rows, scene.gt_rows)
        assert (res.mota, res.fp, res.fn, res.ids) == (1.0, 0, 0, 0)
        assert idf1(scene.gt_rows, scene.gt_rows) == pytest.approx(1.0)


class TestIdf1:
    def test_perfect(self):
        gt = TrackRows.of([row(f, 1, x=3.0 * f) for f in range(1, 11)])
        assert idf1(gt, gt) == pytest.approx(1.0)

    def test_split_track_hand_enumerated(self):
        # One 10-frame identity answered by two 5-frame ids: the best
        # mapping picks one half, IDTP = 5, IDFP = IDFN = 5, IDF1 = 0.5.
        gt = TrackRows.of([row(f, 1, x=3.0 * f) for f in range(1, 11)])
        hyp = TrackRows.of([row(f, 100 if f <= 5 else 200, x=3.0 * f) for f in range(1, 11)])
        assert idf1(gt, hyp) == pytest.approx(0.5)

    def test_empty_hypothesis(self):
        gt = TrackRows.of([row(f, 1, x=3.0 * f) for f in range(1, 11)])
        assert idf1(gt, TrackRows.of([])) == 0.0

    def test_row_order_invariance(self):
        gt, hyp = two_identity_swap_case()
        assert idf1(gt, shuffled(hyp, 1)) == pytest.approx(idf1(gt, hyp))


class TestThreshold:
    # At threshold 0 a box 500 px away used to match: MOTA 0.5, IDF1 0.667.
    far = TrackRows.of([row(1, 1, x=0.0), row(2, 1, x=0.0)]), TrackRows.of([row(2, 7, x=500.0)])

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
    @pytest.mark.parametrize("metric", [clear_mot, idf1], ids=["clear_mot", "idf1"])
    def test_outside_unit_interval_refused(self, metric, threshold):
        with pytest.raises(ValueError, match=rf"iou_threshold must be in \(0, 1\], got {threshold}"):
            metric(*self.far, threshold)

    def test_far_box_never_matches(self):
        res = clear_mot(*self.far, 1e-9)
        assert (res.fp, res.fn, res.mota) == (1, 2, -0.5)
        assert idf1(*self.far, 1e-9) == 0.0

    def test_overlap_at_the_threshold_matches(self):
        # 20 px boxes 10 px apart: IoU = 400 / 1200, exactly 1/3 in floats.
        gt = TrackRows.of([row(1, 1, x=0.0)])
        hyp = TrackRows.of([row(1, 5, x=10.0)])
        assert kernels.iou_matrix(gt.boxes, hyp.boxes)[0, 0] == 1 / 3
        assert clear_mot(gt, hyp, 1 / 3).frames[0].matches == [(1, 5)]
        assert idf1(gt, hyp, 1 / 3) == 1.0
        assert clear_mot(gt, hyp, np.nextafter(1 / 3, 1.0)).fp == 1


class TestRepeatedRows:
    def test_block_refuses_a_second_row_of_one_frame_and_id(self):
        # Id 1 twice in frame 2 used to score IDF1 = 1.2 and MOTA 0.667.
        with pytest.raises(ValueError, match="second row of id 1 in frame 2"):
            TrackRows.of([row(1, 1, x=0.0), row(2, 1, x=0.0), row(2, 1, x=1.0)])

    def test_same_id_in_other_frames_and_other_ids_in_one_frame_pass(self):
        rows = TrackRows.of([row(2, 1, x=0.0), row(1, 1, x=0.0), row(2, 2, x=0.0)])
        assert rows.frames.tolist() == [1, 2, 2]
        assert rows.ids.tolist() == [1, 1, 2]


# Boxes on a coarse grid, so that overlaps of exactly the threshold and
# assignments steered by sub-threshold overlaps both occur; few ids, so
# that correspondences persist and switch. Rows come in any frame order,
# with frames on one side only, and either side may be empty.
track_rows = st.lists(
    st.builds(row, st.integers(1, 6), st.integers(1, 5), st.integers(0, 4).map(lambda k: 10.0 * k),
              y=st.sampled_from([0.0, 10.0]), w=st.sampled_from([20.0, 30.0])),
    max_size=40,
    unique_by=lambda r: (r.frame, r.track_id),
)
thresholds = st.sampled_from([0.2, 1 / 3, 0.5, 0.6, 1.0])


def exact_clear(result):
    return (result.mota, result.fp, result.fn, result.ids, result.n_gt,
            [(d.frame, d.matches, d.fp, d.fn, d.ids) for d in result.frames])


def with_budgets(metric, *args):
    """metric(*args) with the pair pass in one chunk, then in one chunk per
    frame; both results."""
    results = []
    for budget in (kernels.PAIR_BUDGET, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "PAIR_BUDGET", budget)
            results.append(metric(*args))
    return results


class TestIdf1Counting:
    @settings(max_examples=300, deadline=None)
    @given(gt=track_rows, hyp=track_rows, threshold=thresholds)
    def test_equals_double_loop(self, gt, hyp, threshold):
        want = reference_idf1(gt, hyp, threshold)
        assert with_budgets(idf1, TrackRows.of(gt), TrackRows.of(hyp), threshold) == [want, want]


class TestClearMotAgainstListOracle:
    """clear_mot on blocks equals the list implementation exactly, every
    FrameDetail included, with the pair pass in one chunk or one chunk per
    frame."""

    @settings(max_examples=300, deadline=None)
    @given(gt=track_rows, hyp=track_rows, threshold=thresholds)
    def test_equals_list_oracle(self, gt, hyp, threshold):
        want = exact_clear(reference_clear_mot(gt, hyp, threshold))
        got = with_budgets(clear_mot, TrackRows.of(gt), TrackRows.of(hyp), threshold)
        assert [exact_clear(r) for r in got] == [want, want]

    def test_sub_threshold_overlaps_steer_the_assignment(self):
        # g1 overlaps h1 at 0.6 and h2 at 0.48; g2 overlaps h1 at 0.48 and
        # h2 at 0.03. The assignment maximising total IoU takes g1-h2 and
        # g2-h1 (0.96 over 0.63), so at threshold 0.55 neither is kept and
        # both gt rows go unmatched, although g1-h1 alone would pass.
        gt = [row(1, 1, x=0.0, w=10.0, h=10.0), row(1, 2, x=6.0, w=10.0, h=10.0)]
        hyp = [row(1, 7, x=2.5, w=10.0, h=10.0), row(1, 8, x=-3.5, w=10.0, h=10.0)]
        overlap = kernels.iou_matrix([r[2:6] for r in gt], [r[2:6] for r in hyp])
        assert overlap[0, 0] == 0.6 and overlap[0, 1] < 0.55 and overlap[1, 0] < 0.55
        want = reference_clear_mot(gt, hyp, 0.55)
        assert (want.fp, want.fn) == (2, 2)
        got = clear_mot(TrackRows.of(gt), TrackRows.of(hyp), 0.55)
        assert exact_clear(got) == exact_clear(want)

    @pytest.mark.parametrize("name", ["crossing", "crowded"])
    def test_generated_scene_against_noisy_copy(self, name):
        # A hypothesis from the scene's own detections: ids follow the gt
        # labels, with clutter given fresh ids and some ids swapped midway.
        scene = generate(preset(name, seed=2, n_frames=80, clutter_rate=0.5))
        hyp, fresh = [], 1000
        for f, dets in scene.frames.items():
            for box, gt_id in zip(dets.boxes.tolist(), dets.gt_ids):
                if gt_id is None:
                    fresh += 1
                hid = fresh if gt_id is None else (gt_id ^ 1 if f > 40 else gt_id)
                hyp.append(TrackRow(f, hid, *box, 0.9))
        gt, hyp_block = scene.gt_rows, TrackRows.of(hyp)
        want = reference_clear_mot(list(gt), hyp)
        assert exact_clear(clear_mot(gt, hyp_block)) == exact_clear(want)
        assert want.ids > 0 and want.fp > 0 and want.fn > 0
        assert idf1(gt, hyp_block) == reference_idf1(list(gt), hyp)


def orthogonal_sequence(n_ids=4, n_frames=12, noise=0.0, seed=0):
    """Labeled detections with exactly orthogonal identity features."""
    rng = np.random.default_rng(seed)
    frames = {}
    dim = max(8, n_ids)
    for f in range(1, n_frames + 1):
        dets = []
        for i in range(n_ids):
            feat = np.zeros(dim)
            feat[i] = 1.0
            if noise:
                feat = feat + noise * rng.normal(size=dim)
            feat = feat / np.linalg.norm(feat)
            box = BoundingBox(150.0 * i + 2.0 * f, 50.0, 25, 50)
            dets.append(Detection(f, box, 0.95, feat, gt_id=i + 1))
        frames[f] = Detections.of(dets, f)
    return frames


class TestRatioAnalysis:
    def test_orthogonal_features_no_false_matches(self):
        frames = orthogonal_sequence()
        for alpha_list in ([0.2, 0.5, 0.8],):
            rep = ratio_analysis([frames], "app", alpha_list)
            assert all(rep.false_counts[a] == 0 for a in alpha_list)
            assert rep.true_counts[0.8] > 0

    def test_counts_partition_decisions(self):
        frames = orthogonal_sequence(noise=0.1, seed=2)
        alphas = [0.2, 0.4, 0.6]
        rep = ratio_analysis([frames], "app", alphas)
        for a in alphas:
            total = rep.true_counts[a] + rep.false_counts[a] + rep.inconclusive_counts[a]
            assert total == rep.n_decisions

    def test_monotone_in_alpha(self):
        scene = generate(preset("crossing", seed=5, n_frames=80))
        alphas = [0.2, 0.3, 0.4, 0.5, 0.6]
        for variant in ("app", "iou"):
            rep = ratio_analysis([scene.frames], variant, alphas)
            conclusive = [rep.true_counts[a] + rep.false_counts[a] for a in alphas]
            inconclusive = [rep.inconclusive_counts[a] for a in alphas]
            assert all(b >= a for a, b in zip(conclusive, conclusive[1:]))
            assert all(b <= a for a, b in zip(inconclusive, inconclusive[1:]))

    def test_single_candidate_excluded(self):
        frames = orthogonal_sequence(n_ids=1)
        rep = ratio_analysis([frames], "app", [0.5])
        assert rep.n_decisions == 0
        assert rep.true_counts[0.5] == 0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ratio_analysis([{}], "center", [0.5])

    def test_render_mentions_exclusion_rule(self):
        frames = orthogonal_sequence()
        rep = ratio_analysis([frames], "app", [0.3])
        text = render_ratio_report([rep])
        assert ">= 2 candidate edges" in text
        assert "a=0.3" in text
        assert isinstance(rep, RatioAnalysisReport)

    def test_absent_frames_predict_like_empty_ones(self):
        # Frames missing from the dict advance the Kalman states exactly as
        # frames present without detections do.
        scene = generate(preset("crossing", seed=3))
        absent = {f: dets for f, dets in scene.frames.items() if f % 10 != 5}
        empty = {f: dets if f % 10 != 5 else Detections.of([], f)
                 for f, dets in scene.frames.items()}
        reports = [ratio_analysis([frames], "iou", [0.6], integration="average")
                   for frames in (absent, empty)]
        for rep in reports:
            assert (rep.false_counts[0.6], rep.inconclusive_counts[0.6]) == (13, 70)
        assert reports[0].true_counts == reports[1].true_counts

    def test_repeated_alpha_rejected(self):
        # A repeated alpha would count every decision twice, so that
        # T + F + I no longer equals n_decisions.
        frames = orthogonal_sequence()
        with pytest.raises(ValueError, match="alpha 0.3 is given more than once"):
            ratio_analysis([frames], "app", [0.2, 0.3, 0.3])

    @pytest.mark.parametrize("alpha", [1.5, 0.0, 1.0])
    def test_alphas_checked_without_decisions(self, alpha):
        # One detection per frame: no trajectory ever has two candidates.
        frames = orthogonal_sequence(n_ids=1)
        assert ratio_analysis([frames], "app", [0.5]).n_decisions == 0
        with pytest.raises(ValueError, match="alpha must be in"):
            ratio_analysis([frames], "app", [0.5, alpha])

    def test_k_checked_without_decisions(self):
        frames = orthogonal_sequence(n_ids=1)
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            ratio_analysis([frames], "app", [0.5], k_neighbors=0)

    def test_identity_returning_after_the_limit_matches_reference(self):
        # Identity 1 is missing for 16 frames: past a limit of 5 it is
        # neither predicted nor tested, and its return updates its old state.
        scene = generate(preset("crossing", seed=3, n_frames=80))
        frames = {f: Detections.of([d for d in dets if d.gt_id != 1 or not 30 <= f < 46], f)
                  for f, dets in scene.frames.items()}
        reports = {}
        for limit in (5, 80):
            for variant in ("iou", "app"):
                got = ratio_analysis([frames], variant, [0.3, 0.6], lost_frame_limit=limit)
                want = reference_ratio_analysis([frames], variant, [0.3, 0.6],
                                                lost_frame_limit=limit)
                assert got == want
                reports[limit, variant] = got
        assert reports[5, "iou"].n_decisions != reports[80, "iou"].n_decisions


# Few features and coarse boxes, so that distances tie.
STREAM_FEATURES = [np.array(v) for v in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                                          (0.6, 0.8, 0.0))]


@st.composite
def labeled_streams(draw):
    """Frames 1..n, each absent, empty or holding detections of identities
    1-4 (an identity may be detected twice) and clutter without gt_id."""
    frames = {}
    for f in range(1, draw(st.integers(1, 14)) + 1):
        kind = draw(st.sampled_from(["absent", "empty", "detections", "detections"]))
        if kind == "absent":
            continue
        dets = []
        for _ in range(0 if kind == "empty" else draw(st.integers(1, 6))):
            box = BoundingBox(10.0 * draw(st.integers(0, 5)), 10.0 * draw(st.integers(0, 3)),
                              draw(st.sampled_from([10.0, 20.0])),
                              draw(st.sampled_from([20.0, 40.0])))
            feature = STREAM_FEATURES[draw(st.integers(0, len(STREAM_FEATURES) - 1))]
            gt_id = draw(st.one_of(st.none(), st.integers(1, 4)))
            dets.append(Detection(f, box, 0.9, feature, gt_id))
        frames[f] = Detections.of(dets, f)
    return frames


class TestRatioAnalysisAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        sequences=st.lists(labeled_streams(), min_size=1, max_size=2),
        variant=st.sampled_from(["iou", "app"]),
        integration=st.sampled_from(["none", "average", "iou"]),
        k=st.sampled_from([1, 2, 3, 20]),
        limit=st.integers(1, 4),
        alphas=st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9, 0.999]),
                        min_size=1, max_size=4, unique=True),
    )
    def test_equals_reference(self, sequences, variant, integration, k, limit, alphas):
        kw = dict(k_neighbors=k, integration=integration, lost_frame_limit=limit)
        got = ratio_analysis(sequences, variant, alphas, **kw)
        assert got == reference_ratio_analysis(sequences, variant, alphas, **kw)
