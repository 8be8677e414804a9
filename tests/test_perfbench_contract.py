"""What the benchmark in perfbench/ reads of the program.

The traced pass rebinds every function named in tracing.TRACED and
TRAINING_ONLY and would crash on a name that no longer resolves; its
counters read Tracker.trajectories before every step, and the timed pass
takes len(tracker.trajectories) inside the timed run_sequence.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from graphmot import core
from graphmot.core import BoundingBox, Trajectory
from graphmot.motion import KalmanState
from graphmot.mpn import create_model
from graphmot.synth import SceneFeatureSource, generate, preset
from graphmot.tracker import Tracker, TrackerConfig, run_sequence

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
