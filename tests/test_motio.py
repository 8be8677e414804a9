import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import reference_format_track_row

from graphmot.core import BoundingBox, Detection, Detections
from graphmot.motio import (
    TrackRow,
    TrackRows,
    format_track_row,
    format_track_rows,
    label_detections,
    parse_track_rows,
    read_detections,
    read_features,
    read_track_rows,
    write_features,
    write_track_rows,
)
from graphmot.synth import generate, preset, write_scene


def unit(rng, dim=8):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def reference_parse_track_rows(lines, source):
    """parse_track_rows one line at a time with Python float(), for
    reference; rows in file order."""
    rows, seen, repeat = [], set(), None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.strip().split(",")
        if len(parts) < 7:
            raise ValueError(f"{source}:{lineno}: expected at least 7 fields, got {len(parts)}")
        try:
            frame = int(float(parts[0]))
            track_id = int(float(parts[1]))
            x, y, w, h, conf = (float(v) for v in parts[2:7])
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in (x, y, w, h, conf)):
            raise ValueError(f"{source}:{lineno}: non-finite box or confidence")
        if frame < 1:
            raise ValueError(f"{source}:{lineno}: frame must be >= 1, got {frame}")
        if w <= 0 or h <= 0:
            raise ValueError(f"{source}:{lineno}: non-positive box size {w}x{h}")
        if frame >= 2**63:
            raise ValueError(f"{source}:{lineno}: frame number out of range")
        if not -(2**63) <= track_id < 2**63:
            raise ValueError(f"{source}:{lineno}: track id out of range")
        rows.append(TrackRow(frame, track_id, x, y, w, h, conf))
        if repeat is None and (frame, track_id) in seen:
            repeat = f"{source}:{lineno}: second row of id {track_id} in frame {frame}"
        seen.add((frame, track_id))
    if repeat is not None:  # reported after every malformed line
        raise ValueError(repeat)
    return rows


@st.composite
def track_lines(draw):
    """Mostly valid rows: fractional frames and ids, 7 to 10 fields, blank
    lines, and now and then a value that fails a check."""
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from(["", "  ", "1,2,3", "1,1,x,0,5,5,1", "0.5,1,0,0,5,5,1",
                                     "1,1,0,0,-5,5,1", "1,1,nan,0,5,5,1", "inf,1,0,0,5,5,1",
                                     "1e30,1,0,0,5,5,1", " 2 , 3 ,1,1,5,5,1"]))
    coord = st.floats(-2e3, 2e3, allow_nan=False)
    size = st.floats(0.01, 500.0)
    fields = [
        draw(st.floats(1.0, 5e4)),
        draw(st.floats(-2.0, 500.0)),
        draw(coord), draw(coord), draw(size), draw(size), draw(st.floats(0.0, 1.0)),
    ]
    text = [repr(v) if draw(st.booleans()) else f"{v:.2f}" for v in fields]
    text += ["-1"] * draw(st.integers(0, 3))
    return ",".join(text) + draw(st.sampled_from(["", "\n"]))


@st.composite
def track_files(draw):
    """Lists of track_lines, now and then with one line given again later."""
    lines = draw(st.lists(track_lines(), max_size=12))
    if lines and draw(st.integers(0, 3)) == 0:
        copy = lines[draw(st.integers(0, len(lines) - 1))]
        lines.insert(draw(st.integers(0, len(lines))), copy)
    return lines


class TestTrackRows:
    def test_round_trip(self, tmp_path):
        rows = [
            TrackRow(1, 3, 10.25, 20.5, 30.0, 40.0, 0.9),
            TrackRow(2, -1, 5.0, 6.0, 7.0, 8.0, 1.0),
        ]
        path = tmp_path / "rows.txt"
        write_track_rows(path, rows)
        loaded = read_track_rows(path)
        assert loaded == TrackRows.of(rows)

    def test_format_matches_layout(self):
        line = format_track_row(TrackRow(3, 7, 1.0, 2.0, 3.0, 4.0, 0.5))
        assert line == "3,7,1.00,2.00,3.00,4.00,0.50,-1,-1,-1"

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(ValueError, match="det.txt:2"):
            parse_track_rows(["1,1,0,0,5,5,1,-1,-1,-1", "1,1,bad,0,5,5,1"], source="det.txt")

    def test_too_few_fields_reports_line_number(self):
        with pytest.raises(ValueError, match=":1"):
            parse_track_rows(["1,2,3"])

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match=":1"):
            parse_track_rows(["1,1,0,0,0,5,1"])

    def test_skips_blank_lines(self):
        rows = parse_track_rows(["", "1,1,0,0,5,5,1", "   "])
        assert len(rows) == 1

    @pytest.mark.parametrize("field", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_box_or_confidence(self, field, value):
        # A NaN box would otherwise score as a perfect match: nan < 0.5 is false.
        parts = "1,1,0,0,5,5,1".split(",")
        parts[field] = value
        with pytest.raises(ValueError, match="hyp.txt:2: non-finite"):
            parse_track_rows(["1,1,0,0,5,5,1", ",".join(parts)], source="hyp.txt")

    def test_infinite_frame_reports_line_number(self):
        with pytest.raises(ValueError, match="hyp.txt:1"):
            parse_track_rows(["inf,1,0,0,5,5,1"], source="hyp.txt")

    @pytest.mark.parametrize("blank", ["", "  "], ids=["table", "line_by_line"])
    def test_second_row_of_a_frame_and_id_reports_its_line(self, blank):
        # A whitespace-only line makes np.loadtxt refuse the table, so each
        # line is parsed on its own. Id 1 twice in frame 2 used to score
        # IDF1 = 1.2 against the rows it repeats.
        lines = ["1,1,0,0,5,5,1", "2,1,0,0,5,5,1", blank, "2,2,0,0,5,5,1", "2.0,1,3,0,5,5,1"]
        with pytest.raises(ValueError, match="gt.txt:5: second row of id 1 in frame 2"):
            parse_track_rows(lines, source="gt.txt")

    def test_detection_file_is_not_track_rows(self, tmp_path):
        # Every detection has id -1; read_detections reads detection files.
        scene = generate(preset("easy", seed=1, n_frames=5))
        write_scene(scene, tmp_path)
        with pytest.raises(ValueError, match=r"det.txt:2: second row of id -1 in frame 1"):
            read_track_rows(tmp_path / "det.txt")

    def test_rows_come_in_frame_order(self):
        rows = parse_track_rows(["3,1,0,0,5,5,1", "1,2,0,0,5,5,1", "3,0,1,0,5,5,1", "1,1,0,0,5,5,1"])
        assert [(r.frame, r.track_id) for r in rows] == [(1, 2), (1, 1), (3, 1), (3, 0)]

    @settings(max_examples=200, deadline=None)
    @given(lines=track_files())
    def test_equals_line_by_line_parse(self, lines):
        try:
            want = reference_parse_track_rows(lines, "det.txt")
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                parse_track_rows(lines, source="det.txt")
            assert str(got.value) == str(exc)
            return
        got = parse_track_rows(lines, source="det.txt")
        assert list(got) == sorted(want, key=lambda r: r.frame)  # a stable sort
        assert all(type(r.frame) is int and type(r.track_id) is int for r in got)
        assert all(type(v) is float for r in got for v in r[2:])


two_decimal_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.005, 0.015, 0.125, 1.005, 2.675, -2.675, 1e6 + 0.005, -0.001]),
    st.floats(-1e7, 1e7, allow_nan=False),
)


class TestFormatTrackRows:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.tuples(st.integers(1, 5), st.integers(-1, 10**6),
                                     *[two_decimal_values] * 2, *[st.floats(0.01, 1e4)] * 2,
                                     two_decimal_values), max_size=12))
    def test_equals_one_line_per_record(self, values):
        records = [TrackRow(*v) for v in values]
        want = "".join(reference_format_track_row(r) + "\n" for r in records)
        assert format_track_rows(records) == want
        block = TrackRows.trusted(
            np.array([r.frame for r in records], dtype=np.int64),
            np.array([r.track_id for r in records], dtype=np.int64),
            np.array([r[2:6] for r in records], dtype=np.float64).reshape(-1, 4),
            np.array([r.conf for r in records], dtype=np.float64),
        )
        assert format_track_rows(block) == "".join(
            reference_format_track_row(r) + "\n" for r in block)
        for r in records:
            assert format_track_row(r) == reference_format_track_row(r)

    def test_signed_zero_and_halves(self):
        block = TrackRows.of([TrackRow(2, 5, -0.0, 2.675, 1.005, 0.125, -0.0)])
        assert format_track_rows(block) == "2,5,-0.00,2.67,1.00,0.12,-0.00,-1,-1,-1\n"

    def test_empty(self):
        assert format_track_rows(TrackRows.of([])) == format_track_rows([]) == ""


class TestFeatures:
    def test_round_trip_renormalizes(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [(1, 0, unit(rng)), (1, 1, unit(rng)), (2, 0, unit(rng))]
        path = tmp_path / "features.txt"
        write_features(path, rows)
        loaded = read_features(path)
        assert set(loaded) == {(1, 0), (1, 1), (2, 0)}
        for key, vec in loaded.items():
            assert np.isclose(np.linalg.norm(vec), 1.0, atol=1e-12)
            original = dict(((f, i), v) for f, i, v in rows)[key]
            assert np.allclose(vec, original, atol=1e-7)

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "features.txt"
        path.write_text("1,0,0.5,0.5\n1,1,1.0\n")
        with pytest.raises(ValueError, match=":2"):
            read_features(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("2,0,0.5,nan", "non-finite"),
            ("2,0,inf,0.5", "non-finite"),
            ("nan,0,0.5,0.5", "non-finite"),
            ("2,0,0.0,0.0", "zero feature vector"),
            ("2,0,0.5,x", "could not convert"),
            ("2,0", "expected frame,det_index"),
            ("2,0,0.5,0.5,0.5", "feature dimension 3 != 2"),
        ],
    )
    def test_bad_line_reports_its_number(self, tmp_path, line, message):
        # A blank line before the fault: numbers count file lines, not rows.
        path = tmp_path / "features.txt"
        path.write_text(f"1,0,0.6,0.8\n\n{line}\n1,1,1.0,0.0\n")
        with pytest.raises(ValueError, match=f"features.txt:3: {message}"):
            read_features(path)

    def test_normalizes_each_row_like_a_single_vector_norm(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [(f, i, rng.normal(size=32)) for f in range(1, 40) for i in range(3)]
        path = tmp_path / "features.txt"
        write_features(path, rows)
        loaded = read_features(path)
        for f, i, _ in rows:
            line = next(l for l in path.read_text().splitlines() if l.startswith(f"{f},{i},"))
            vec = np.array([float(v) for v in line.split(",")[2:]])
            assert np.array_equal(loaded[(f, i)], vec / np.linalg.norm(vec))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "features.txt"
        path.write_text("\n")
        assert read_features(path) == {}

    def test_repeated_key_reports_the_second_line(self, tmp_path):
        # The last of two lines for one detection used to win silently.
        path = tmp_path / "features.txt"
        path.write_text("1,0,0.6,0.8\n1,1,1.0,0.0\n\n1.0,0,0.0,1.0\n1,1,0.0,1.0\n")
        with pytest.raises(ValueError, match="features.txt:4: second feature for frame 1 detection 0"):
            read_features(path)


class TestReadDetections:
    def test_joins_by_frame_order(self, tmp_path):
        rng = np.random.default_rng(1)
        det_path, feat_path = tmp_path / "det.txt", tmp_path / "features.txt"
        write_track_rows(
            det_path,
            [
                TrackRow(1, -1, 0, 0, 10, 20, 0.9),
                TrackRow(1, -1, 50, 0, 10, 20, 0.8),
                TrackRow(2, -1, 5, 0, 10, 20, 0.7),
            ],
        )
        f10, f11, f20 = unit(rng), unit(rng), unit(rng)
        write_features(feat_path, [(1, 0, f10), (1, 1, f11), (2, 0, f20)])
        frames = read_detections(det_path, feat_path)
        assert sorted(frames) == [1, 2]
        assert len(frames[1]) == 2
        assert np.allclose(frames[1][1].feature, f11, atol=1e-7)
        assert frames[2][0].confidence == pytest.approx(0.7)

    def test_feature_naming_no_detection_errors(self, tmp_path):
        # A feature line without its detection used to be ignored.
        rng = np.random.default_rng(5)
        det_path, feat_path = tmp_path / "det.txt", tmp_path / "features.txt"
        write_track_rows(det_path, [TrackRow(1, -1, 0, 0, 10, 20, 0.9), TrackRow(2, -1, 0, 0, 10, 20, 0.9)])
        write_features(feat_path, [(1, 0, unit(rng)), (1, 1, unit(rng)), (2, 0, unit(rng))])
        with pytest.raises(ValueError, match="features.txt:2: feature for frame 1 detection 1 names no detection"):
            read_detections(det_path, feat_path)

    def test_repeated_feature_errors(self, tmp_path):
        rng = np.random.default_rng(6)
        det_path, feat_path = tmp_path / "det.txt", tmp_path / "features.txt"
        write_track_rows(det_path, [TrackRow(1, -1, 0, 0, 10, 20, 0.9)])
        write_features(feat_path, [(1, 0, unit(rng)), (1, 0, unit(rng))])
        with pytest.raises(ValueError, match="features.txt:2: second feature"):
            read_detections(det_path, feat_path)

    def test_missing_feature_errors(self, tmp_path):
        det_path, feat_path = tmp_path / "det.txt", tmp_path / "features.txt"
        write_track_rows(det_path, [TrackRow(1, -1, 0, 0, 10, 20, 0.9)])
        write_features(feat_path, [])
        with pytest.raises(ValueError, match="missing feature"):
            read_detections(det_path, feat_path)


class TestLabelDetections:
    def test_labels_by_overlap(self):
        rng = np.random.default_rng(2)
        frames = {
            1: Detections.of([
                Detection(1, BoundingBox(0, 0, 20, 40), 0.9, unit(rng)),
                Detection(1, BoundingBox(200, 0, 20, 40), 0.9, unit(rng)),
                Detection(1, BoundingBox(500, 500, 20, 40), 0.4, unit(rng)),  # clutter
            ])
        }
        gt = TrackRows.of([
            TrackRow(1, 11, 1, 1, 20, 40, 1.0),
            TrackRow(1, 22, 201, 0, 20, 40, 1.0),
        ])
        labeled = label_detections(frames, gt)
        assert labeled[1].gt_ids == (11, 22, None)
        assert labeled[1].boxes is frames[1].boxes  # the columns are shared

    def test_one_to_one_even_when_overlapping(self):
        rng = np.random.default_rng(3)
        # Two detections near one gt box: only the better one is labeled.
        frames = {
            1: Detections.of([
                Detection(1, BoundingBox(0, 0, 20, 40), 0.9, unit(rng)),
                Detection(1, BoundingBox(2, 0, 20, 40), 0.9, unit(rng)),
            ])
        }
        gt = TrackRows.of([TrackRow(1, 5, 0, 0, 20, 40, 1.0)])
        labeled = label_detections(frames, gt)
        ids = labeled[1].gt_ids
        assert ids.count(5) == 1 and ids.count(None) == 1
        assert ids[0] == 5

    def test_input_unmodified(self):
        rng = np.random.default_rng(4)
        det = Detection(1, BoundingBox(0, 0, 20, 40), 0.9, unit(rng))
        frames = {1: Detections.of([det])}
        labeled = label_detections(frames, TrackRows.of([TrackRow(1, 9, 0, 0, 20, 40, 1.0)]))
        assert labeled[1].gt_ids == (9,)
        assert frames[1].gt_ids is None and det.gt_id is None

    @pytest.mark.parametrize("threshold", [0.0, 1.01])
    def test_threshold_outside_unit_interval_refused(self, threshold):
        rng = np.random.default_rng(4)
        frames = {1: Detections.of([Detection(1, BoundingBox(0, 0, 20, 40), 0.9, unit(rng))])}
        gt = TrackRows.of([TrackRow(1, 9, 500, 0, 20, 40, 1.0)])
        with pytest.raises(ValueError, match=f"iou_threshold must be in \\(0, 1\\], got {threshold}"):
            label_detections(frames, gt, threshold)

    @pytest.mark.parametrize("name", ["crossing", "crowded"])
    def test_read_back_labels_give_the_scene_frames(self, name, tmp_path):
        # Boxes and confidences are written with two decimals and features
        # with eight, then renormalized: a component moves by at most
        # 2 * 5e-9 * sqrt(d). Identities come back from the IoU labelling.
        scene = generate(preset(name, seed=1))
        paths = write_scene(scene, tmp_path)
        labeled = label_detections(read_detections(paths["det"], paths["features"]),
                                   read_track_rows(paths["gt"]))
        frames = {f: dets for f, dets in scene.frames.items() if dets}
        assert list(labeled) == list(frames)
        for f, want in frames.items():
            got = labeled[f]
            assert got.frame == want.frame == f
            assert got.gt_ids == want.gt_ids
            assert np.abs(got.boxes - want.boxes).max() <= 0.005 + 1e-9
            assert np.abs(got.confidences - want.confidences).max() <= 0.005 + 1e-9
            bound = 1e-8 * math.sqrt(scene.config.feature_dim)
            assert np.abs(got.features - want.features).max() <= bound
