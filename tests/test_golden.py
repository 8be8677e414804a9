"""Golden tracking outputs: a fixed model and two fixed scenes.

A small model is trained with fixed seeds, then tracks one `crossing`
scene (appearance gate fed by SceneFeatureSource) and one `crowded`
scene scaled to 25 targets in 1920x1080 (detections read back from
files, no appearance source). The sha256 of the rows as
motio.format_track_row writes them, MOTA and IDF1 are pinned. A
refactor of the tracker must keep them; one that changes them on
purpose updates them here and says why.

The values were recorded with NumPy 2.4 and OpenBLAS on x86-64; a
different BLAS may round the network's matrix products differently.
"""

import hashlib

import pytest

from graphmot.metrics import clear_mot, idf1
from graphmot.motio import format_track_row, read_detections
from graphmot.mpn import TrainConfig, create_model, train_model
from graphmot.synth import SceneFeatureSource, generate, preset, write_scene
from graphmot.tracker import TrackerConfig, run_sequence

RECIPE = dict(integration="iou", ratio_variant="app")

# (sha256 of the written rows, MOTA, IDF1). Two epochs leave the model
# weak, so many detections spawn new identities and hundreds of lost
# trajectories stay in the graph: the crowded scene exercises large M.
GOLDEN = {
    "crossing": (
        "64cf4249086d4b891552ffd2f16b57836b1608e22e4738a8d5263fc4493991d2",
        -1.0901785714285714,
        0.37906772207563766,
    ),
    "crowded": (
        "464bcac1949f21ab846454c05ff4861c27d4ff99688b465339412b2880f1ecab",
        -0.32499999999999996,
        0.5757162346521146,
    ),
}


@pytest.fixture(scope="module")
def model():
    scene = generate(preset("crossing", seed=101))
    prefix = {f: dets for f, dets in scene.frames.items() if f <= 40}
    model = create_model(scene.config.feature_dim, seed=7)
    train_model(model, [prefix], TrainConfig(seed=11, epochs=2), **RECIPE)
    return model


def track(model, scene, frames, source):
    cfg = TrackerConfig(image_size=scene.config.image_size, **RECIPE)
    rows, _ = run_sequence(frames, model, cfg, source)
    text = "".join(format_track_row(r) + "\n" for r in rows)
    result = clear_mot(scene.gt_rows, rows)
    mota = 1.0 - (result.fp + result.fn + result.ids) / result.n_gt
    return hashlib.sha256(text.encode()).hexdigest(), mota, idf1(scene.gt_rows, rows)


def test_crossing_output_pinned(model):
    scene = generate(preset("crossing", seed=3))
    assert track(model, scene, scene.frames, SceneFeatureSource(scene)) == GOLDEN["crossing"]


def test_crowded_output_pinned(model, tmp_path):
    scene = generate(preset("crowded", seed=5, n_targets=25, image_size=(1920, 1080), n_frames=80))
    write_scene(scene, tmp_path)
    frames = read_detections(tmp_path / "det.txt", tmp_path / "features.txt")
    assert track(model, scene, frames, None) == GOLDEN["crowded"]
