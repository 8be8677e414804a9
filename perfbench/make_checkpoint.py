#!/usr/bin/env python3
"""Build the benchmark's tracking checkpoint, perfbench/deploy_model.npz.

The recipe is the acceptance suite's deployment model: crossing scenes
101 and 102, create_model(seed=7), TrainConfig(seed=11) (25 epochs),
integration "iou", ratio test "app". Training is deterministic, so the
tracking workloads load this committed file instead of retraining on
every run, and a change to training is compared checkpoint to checkpoint.

    python3 perfbench/make_checkpoint.py           # (re)write the checkpoint
    python3 perfbench/make_checkpoint.py --check   # retrain, compare arrays byte for byte

Run from the root of the repository. --check exits 1 when any array, its
dtype or shape, or the metadata differs from the committed file.
"""

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, CHECKPOINT, RECIPE, import_graphmot

RECIPE_SEEDS = (101, 102)  # the deployment model's training scenes


def build(path: Path) -> None:
    import_graphmot()
    from graphmot.mpn import TrainConfig, create_model, save_model, train_model
    from graphmot.synth import generate, preset

    scenes = [generate(preset("crossing", seed=s)) for s in RECIPE_SEEDS]
    model = create_model(scenes[0].config.feature_dim, seed=7)
    history = train_model(model, [s.frames for s in scenes], TrainConfig(seed=11), **RECIPE)
    save_model(path, model)
    last = history[-1]
    print(f"trained {last['epoch']} epochs: loss {last['loss']:.6f}, "
          f"edge accuracy {last['edge_accuracy']:.6f}; wrote {path}")


def differences(path_a: Path, path_b: Path) -> list[str]:
    """Names of the arrays (or metadata) that are not byte-identical."""
    import numpy as np

    with np.load(path_a) as a, np.load(path_b) as b:
        names = sorted(set(a.files) | set(b.files))
        return [
            name for name in names
            if name not in a.files or name not in b.files
            or a[name].dtype != b[name].dtype or a[name].shape != b[name].shape
            or a[name].tobytes() != b[name].tobytes()
        ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="retrain and compare with the committed checkpoint")
    args = parser.parse_args()
    if not args.check:
        build(CHECKPOINT)
        return 0
    if not CHECKPOINT.is_file():
        print(f"error: {CHECKPOINT} does not exist", file=sys.stderr)
        return 1
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        rebuilt = tmp / "deploy_model.npz"
        build(rebuilt)
        diff = differences(CHECKPOINT, rebuilt)
    finally:
        shutil.rmtree(tmp)
    if diff:
        print(f"checkpoint differs from the recipe in: {', '.join(diff)}", file=sys.stderr)
        return 1
    print(f"{CHECKPOINT.name}: every array is byte-identical to a fresh build")
    return 0


if __name__ == "__main__":
    sys.exit(main())
