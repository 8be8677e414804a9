import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import reference_ratio_analysis
from scipy.optimize import linear_sum_assignment

from graphmot import kernels
from graphmot.core import BoundingBox, Detection, Detections
from graphmot.metrics import (
    RatioAnalysisReport,
    clear_mot,
    idf1,
    ratio_analysis,
    render_ratio_report,
)
from graphmot.motio import TrackRow, rows_by_frame
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
    return gt, hyp


class TestClearMot:
    def test_perfect_hypothesis(self):
        gt = [row(f, 1, x=5.0 * f) for f in range(1, 6)]
        res = clear_mot(gt, list(gt))
        assert (res.mota, res.fp, res.fn, res.ids) == (1.0, 0, 0, 0)

    def test_empty_hypothesis(self):
        gt = [row(f, 1, x=5.0 * f) for f in range(1, 9)]
        res = clear_mot(gt, [])
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
        gt = [row(f, 1, x=0.0) for f in range(1, 4)]
        hyp = [row(f, 9, x=0.0) for f in range(1, 4)] + [row(2, 8, x=900.0)]
        res = clear_mot(gt, hyp)
        assert res.fp == 1 and res.fn == 0 and res.ids == 0
        assert res.mota == pytest.approx(1 - 1 / 3)

    def test_persistence_beats_better_overlap(self):
        # An established match persists while above threshold even if a
        # fresh hypothesis overlaps slightly better.
        gt = [row(1, 1, x=0.0), row(2, 1, x=0.0)]
        hyp = [row(1, 10, x=2.0), row(2, 10, x=2.0), row(2, 11, x=0.0)]
        res = clear_mot(gt, hyp)
        assert res.ids == 0
        assert res.fp == 1  # the interloper goes unmatched

    def test_row_order_invariance(self):
        gt, hyp = two_identity_swap_case()
        rng = np.random.default_rng(0)
        hyp_shuffled = list(hyp)
        rng.shuffle(hyp_shuffled)
        gt_shuffled = list(gt)
        rng.shuffle(gt_shuffled)
        a = clear_mot(gt, hyp)
        b = clear_mot(gt_shuffled, hyp_shuffled)
        assert (a.mota, a.fp, a.fn, a.ids) == (b.mota, b.fp, b.fn, b.ids)

    def test_gt_against_itself_on_generated_scene(self):
        scene = generate(preset("crossing", seed=3, n_frames=60))
        res = clear_mot(scene.gt_rows, list(scene.gt_rows))
        assert (res.mota, res.fp, res.fn, res.ids) == (1.0, 0, 0, 0)
        assert idf1(scene.gt_rows, list(scene.gt_rows)) == pytest.approx(1.0)


class TestIdf1:
    def test_perfect(self):
        gt = [row(f, 1, x=3.0 * f) for f in range(1, 11)]
        assert idf1(gt, list(gt)) == pytest.approx(1.0)

    def test_split_track_hand_enumerated(self):
        # One 10-frame identity answered by two 5-frame ids: the best
        # mapping picks one half, IDTP = 5, IDFP = IDFN = 5, IDF1 = 0.5.
        gt = [row(f, 1, x=3.0 * f) for f in range(1, 11)]
        hyp = [row(f, 100 if f <= 5 else 200, x=3.0 * f) for f in range(1, 11)]
        assert idf1(gt, hyp) == pytest.approx(0.5)

    def test_empty_hypothesis(self):
        gt = [row(f, 1, x=3.0 * f) for f in range(1, 11)]
        assert idf1(gt, []) == 0.0

    def test_row_order_invariance(self):
        gt, hyp = two_identity_swap_case()
        rng = np.random.default_rng(1)
        shuffled = list(hyp)
        rng.shuffle(shuffled)
        assert idf1(gt, shuffled) == pytest.approx(idf1(gt, hyp))


def reference_idf1(gt_rows, hyp_rows, iou_threshold=0.5):
    """idf1 with the co-occurrences counted pair by pair in a double loop."""
    gt_frames, hyp_frames = rows_by_frame(gt_rows), rows_by_frame(hyp_rows)
    gt_index = {g: i for i, g in enumerate(sorted({r.track_id for r in gt_rows}))}
    hyp_index = {h: i for i, h in enumerate(sorted({r.track_id for r in hyp_rows}))}
    co_frames = np.zeros((len(gt_index), len(hyp_index)))
    for frame in set(gt_frames) & set(hyp_frames):
        gts, hyps = gt_frames[frame], hyp_frames[frame]
        boxes = [np.array([[r.x, r.y, r.w, r.h] for r in rows]) for rows in (gts, hyps)]
        overlap = kernels.iou_matrix(*boxes)
        for gi, grow in enumerate(gts):
            for hi, hrow in enumerate(hyps):
                if overlap[gi, hi] >= iou_threshold:
                    co_frames[gt_index[grow.track_id], hyp_index[hrow.track_id]] += 1
    idtp = 0.0
    if co_frames.size:
        rows_idx, cols_idx = linear_sum_assignment(co_frames, maximize=True)
        idtp = float(co_frames[rows_idx, cols_idx].sum())
    denom = 2 * idtp + (len(hyp_rows) - idtp) + (len(gt_rows) - idtp)
    return 2 * idtp / denom if denom else 0.0


# Boxes on a coarse grid, so that overlaps of exactly the threshold and
# repeated (frame, id) rows both occur.
track_rows = st.lists(
    st.builds(row, st.integers(1, 6), st.integers(1, 5), st.integers(0, 4).map(lambda k: 10.0 * k),
              w=st.sampled_from([20.0, 30.0])),
    max_size=40,
)


class TestIdf1Counting:
    @settings(max_examples=300, deadline=None)
    @given(gt=track_rows, hyp=track_rows, threshold=st.sampled_from([0.2, 1 / 3, 0.5]))
    def test_equals_double_loop(self, gt, hyp, threshold):
        assert idf1(gt, hyp, threshold) == reference_idf1(gt, hyp, threshold)


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
