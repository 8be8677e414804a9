"""What the benchmark in perfbench/ reads of the program.

The traced pass rebinds every function named in tracing.TRACED and
TRAINING_ONLY and would crash on a name that no longer resolves; its
counters read Tracker.trajectories before every step, and the timed pass
takes len(tracker.trajectories) inside the timed run_sequence. The checks
in checks.py iterate the tracker's and the reader's track rows as TrackRow
items, and the tracer counts the rows read with len().
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from graphmot import core, mpn
from graphmot import tracker as tracker_module
from graphmot.core import BoundingBox, Trajectory
from graphmot.metrics import clear_mot
from graphmot.motio import read_detections, read_track_rows, write_track_rows
from graphmot.motion import KalmanState
from graphmot.mpn import create_model
from graphmot.synth import SceneFeatureSource, generate, preset, write_scene
from graphmot.tracker import Tracker, TrackerConfig, run_sequence

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


@pytest.fixture(scope="module")
def checks():
    return load("checks")


@pytest.fixture(scope="module")
def scene():
    scene = generate(preset("crossing", seed=2, n_frames=40))
    return scene, create_model(scene.config.feature_dim, seed=4)


def test_every_traced_name_resolves(tracing):
    for module_name, attr, _ in tracing.TRACED + tracing.TRAINING_ONLY:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{module_name}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr} is not callable"


def test_traced_run_counts_every_frame_without_violations(tracing, scene):
    scene, model = scene
    config = TrackerConfig(image_size=scene.config.image_size, integration="iou", ratio_variant="app")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rows, stats = run_sequence(scene.frames, model, config, SceneFeatureSource(scene))
    finally:
        tracer.uninstall()
    assert rows
    assert tracer.violations == []
    assert tracer.counts["tracker.frames"] == len(stats) == tracer.calls["tracker.step"]
    assert tracer.counts["graph.candidates"] == sum(s.n_candidates for s in stats)
    assert tracer.metrics()["tracker.live_trajectories"] > 0


def test_scoring_runs_each_traced_network_stage_once(scene, monkeypatch):
    # The tracer times inference through these three module-level names
    # (mpn.encode_s, mpn.propagate_s, mpn.classify_edges_s) and counts
    # mpn.edges_scored from classify_edges.
    scene, model = scene
    calls = Counter()
    for module, name in ((mpn, "encode"), (mpn, "propagate"), (mpn, "classify_edges"),
                         (tracker_module, "score_graph")):
        def counted(*args, _name=name, _inner=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    config = TrackerConfig(image_size=scene.config.image_size)
    run_sequence({f: scene.frames[f] for f in range(1, 11) if f in scene.frames}, model, config)
    assert calls["score_graph"] > 0
    assert calls == dict.fromkeys(("encode", "propagate", "classify_edges", "score_graph"),
                                  calls["score_graph"])


def test_trajectory_count_builds_no_records(scene, monkeypatch):
    scene, model = scene
    tracker = Tracker(model, TrackerConfig(image_size=scene.config.image_size))
    for f in range(1, 21):
        tracker.step(f, scene.frames.get(f, []))
    lost = tracker.trajectories.frames_lost.tolist()
    assert len(lost) > 0

    def refuse(*args, **kwargs):
        raise AssertionError("len() built a record")

    with monkeypatch.context() as mp:
        mp.setattr(core, "_record", refuse)
        for cls in (Trajectory, KalmanState, BoundingBox):
            mp.setattr(cls, "__init__", refuse)
        assert len(tracker.trajectories) == len(lost)
    assert [t.frames_lost for t in tracker.trajectories] == lost


def test_checks_pass_on_the_tracker_block_and_its_round_trip(checks, scene, tmp_path):
    # As the two workloads score them: the block run_sequence returns for
    # the generated frames, and the block read back from the written track
    # file for the frames read back from the scene's files.
    scene, model = scene
    config = TrackerConfig(image_size=scene.config.image_size, integration="iou", ratio_variant="app")
    write_scene(scene, tmp_path)
    read_frames = read_detections(tmp_path / "det.txt", tmp_path / "features.txt")
    rows, _ = run_sequence(scene.frames, model, config, SceneFeatureSource(scene))
    write_track_rows(tmp_path / "hyp.txt", run_sequence(read_frames, model, config)[0])
    read_back = read_track_rows(tmp_path / "hyp.txt")
    assert len(read_back) == len((tmp_path / "hyp.txt").read_text().splitlines()) > 0
    for frames, hyp in ((scene.frames, rows), (read_frames, read_back)):
        assert checks.check_track_rows(hyp, frames, scene.config.image_size) == []
        assert checks.check_clear(clear_mot(scene.gt_rows, hyp), scene.gt_rows, hyp) == []
