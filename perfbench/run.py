#!/usr/bin/env python3
"""graphmot benchmark: one workload per process.

    python3 perfbench/run.py --workload {crossing,crowded} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; graphmot is imported from its src/.
Inputs are generated from --seed, written to files and read back through
graphmot.motio, like `graphmot synth` followed by `graphmot track`.

A run repeats rounds while the next one is expected to end within
--seconds, and at least MIN_ROUNDS times. A round tracks and scores every
scene of the workload once (at least MIN_FRAMES frames); REPS times in
a round, spread evenly among the scenes, it sets up (loads the
checkpoint, reads the inputs) and trains a fresh model for EPOCHS epochs.
Rounds repeat the same work, so every timing is a median over many
repetitions spread over the whole run (per frame and per sequence for
tracking): the shared machine switches between a fast and a slow speed
(about 1.8x apart) from milliseconds to seconds at a time, and a median
over samples taken all through the run moves less than one measurement.

With --trace 0 every round is timed: nothing is wrapped but one timer per
Tracker.step call, and the last line holds the end-to-end metrics. With
--trace 1 the run does three rounds, the middle one with every layer
traced (see tracing.py), and the last line holds the per-layer metrics of
that round, including the tracing overhead: its tracking time over the
mean of the untraced rounds', minus 1.

Every operation (one epoch trained, one sequence tracked and scored) is
checked (see checks.py). The last line is one JSON object with the keys
correct, attempted, failed and metrics; a run with a failed operation
reports no metrics.
"""

import os

# One BLAS/OpenMP thread, set before NumPy is imported: threads would
# compete with the other processes on a shared two-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing

BENCH = Path(__file__).resolve().parent
CHECKPOINT = BENCH / "deploy_model.npz"
MIN_ROUNDS = 3  # every timing is a median over the rounds
MIN_FRAMES = 1000  # per round: frame_ms_p99 needs at least ten frames beyond it
REPS = 3  # set-ups and trainings per round, spread evenly among the scenes
EPOCHS = 2  # per training: the fewest for which "the loss falls" can be checked
K_NEIGHBORS = 20  # TrackerConfig default, used by every workload
RECIPE = dict(integration="iou", ratio_variant="app")


@dataclass(frozen=True)
class Workload:
    preset: str
    overrides: dict
    n_scenes: int  # tracked and scored per round
    appearance: bool  # SceneFeatureSource feeds the forecast appearance gate
    roundtrip: bool  # output written and read back through motio before scoring
    train_frames: int  # prefix of the first scene to train on


WORKLOADS = {
    "crossing": Workload("crossing", {}, 8, True, False, 70),
    "crowded": Workload("crowded", {"n_targets": 25, "image_size": (1920, 1080), "n_frames": 210},
                        5, False, True, 20),
}


def scene_seed(seed: int, index: int) -> int:
    """Scene seeds start at 1000, away from the checkpoint's training seeds (101, 102)."""
    return 1000 + 100 * seed + index


def import_graphmot():
    """Import graphmot from this checkout's src/ and nowhere else."""
    src = BENCH.parent / "src"
    if not (src / "graphmot" / "__init__.py").is_file():
        sys.exit(f"error: no graphmot sources under {src}")
    sys.path.insert(0, str(src))
    import graphmot

    if Path(graphmot.__file__).resolve().parent != (src / "graphmot").resolve():
        sys.exit(f"error: imported graphmot from {graphmot.__file__}, not {src}")


@dataclass
class Inputs:
    model: object  # the checkpoint
    scenes: list  # (detections by frame, gt rows, image size)
    train_seqs: list  # labeled detections by frame


@dataclass
class Round:
    setup_s: list = field(default_factory=list)  # per set-up
    train_s: list = field(default_factory=list)  # per training
    accuracy: float = float("nan")  # last epoch's edge accuracy
    track_s: list = field(default_factory=list)  # per scene
    latencies: list = field(default_factory=list)  # per frame, all scenes
    eval_s: list = field(default_factory=list)  # per scene
    errors: int = 0  # FP + FN + IDS over the scenes
    gt_boxes: int = 0
    idf1: list = field(default_factory=list)  # per scene

    def quality(self):
        """MOTA pooled over the scenes, mean IDF1, edge accuracy (NaN where missing)."""
        if not self.gt_boxes:  # every scene failed
            return float("nan"), float("nan"), self.accuracy
        return 1.0 - self.errors / self.gt_boxes, statistics.fmean(self.idf1), self.accuracy


class StepTimer:
    """The one wrapper of the timed pass: a timer around Tracker.step that
    also notes M (trajectories) and N (detections) for the graph check."""

    def __init__(self, tracker_cls):
        self.records = []  # (seconds, M, N)
        original = tracker_cls.step
        records = self.records

        def step(tracker, frame, detections):
            m = len(tracker.trajectories)
            start = time.perf_counter()
            rows = original(tracker, frame, detections)
            records.append((time.perf_counter() - start, m, len(detections)))
            return rows

        tracker_cls.step = step

    def take(self):
        out = self.records[:]
        self.records.clear()
        return out


class Bench:
    def __init__(self, name: str, seed: int, workdir: Path):
        from graphmot import metrics, motio, mpn, synth, tracker

        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.metrics, self.motio, self.mpn, self.synth, self.tracker = metrics, motio, mpn, synth, tracker
        self.timer = StepTimer(tracker.Tracker)
        self.phase = lambda name: None
        self.scene_data = []  # generator output; SceneFeatureSource reads it
        self.scene_dirs = []
        self.majority_share = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _tally(self, operations: int, problems: list[str]) -> None:
        self.attempted += operations
        if problems:
            self.failed += operations
            self.problems += problems[:5]

    # -- inputs ---------------------------------------------------------------

    def generate(self) -> float:
        """Write the workload's scenes as gt/det/features files; returns seconds."""
        wl, synth = self.wl, self.synth
        start = time.perf_counter()
        for i in range(wl.n_scenes):
            scene = synth.generate(synth.preset(wl.preset, seed=scene_seed(self.seed, i), **wl.overrides))
            self.scene_data.append(scene)
            self.scene_dirs.append(self.workdir / f"scene{i}")
            synth.write_scene(scene, self.scene_dirs[-1])
        return time.perf_counter() - start

    def setup(self) -> Inputs:
        """Checkpoint load and input reads, up to the first epoch."""
        wl, motio = self.wl, self.motio
        model = self.mpn.load_model(CHECKPOINT)
        scenes = []
        for d, data in zip(self.scene_dirs, self.scene_data):
            frames = motio.read_detections(d / "det.txt", d / "features.txt")
            scenes.append((frames, motio.read_track_rows(d / "gt.txt"), data.config.image_size))
        frames, gt_rows, _ = scenes[0]
        labeled = motio.label_detections(frames, gt_rows)
        return Inputs(model, scenes, [{f: dets for f, dets in labeled.items() if f <= wl.train_frames}])

    def training_majority_share(self, train_seqs) -> float:
        """Majority-class share of the training edges, without augmentation."""
        cfg = self.mpn.TrainConfig()
        model = self.mpn.create_model(1)  # only its LSTM cell is passed along, unused by "iou"
        pos = total = 0
        for seq in train_seqs:
            frames = sorted(seq)
            for t in frames:
                window = [f for f in frames if t - cfg.frames_per_graph < f < t]
                tg = self.mpn.build_training_graph(seq, t, window, model, **RECIPE)
                if tg is not None:
                    pos += int(tg.labels.sum())
                    total += tg.labels.size
        return max(pos, total - pos) / total

    # -- operations -----------------------------------------------------------

    def run_round(self) -> Round:
        """Track and score every scene once; set up and train REPS times
        among them. Each set-up feeds the training and the scenes after it.

        Every timed step starts from a collected heap, so that a garbage
        collection owed by the step before does not land in it.
        """
        rnd = Round()
        n = len(self.scene_dirs)
        for rep in range(REPS):
            self.phase("setup")
            inputs = None  # one copy of the inputs alive at a time
            gc.collect()
            start = time.perf_counter()
            inputs = self.setup()
            rnd.setup_s.append(time.perf_counter() - start)
            if self.majority_share is None:
                self.majority_share = self.training_majority_share(inputs.train_seqs)
            self.train(inputs, rnd)
            for i in range(rep * n // REPS, (rep + 1) * n // REPS):
                frames, gt_rows, image_size = inputs.scenes[i]
                try:
                    problems = self.track_and_score(i, frames, gt_rows, image_size, inputs.model, rnd)
                except Exception as exc:  # a fault in the program fails the operation, not the run
                    traceback.print_exc()
                    problems = [f"raised {exc!r}"]
                self._tally(1, [f"scene {i}: {p}" for p in problems])
        return rnd

    def train(self, inputs: Inputs, rnd: Round):
        """Train create_model(seed=7) on the first scene's prefix with the
        recipe's settings; each epoch is an operation."""
        mpn = self.mpn
        self.phase("train")
        model = mpn.create_model(self.scene_data[0].config.feature_dim, seed=7)
        gc.collect()
        start = time.perf_counter()
        try:
            history = mpn.train_model(
                model, inputs.train_seqs, mpn.TrainConfig(seed=11, epochs=EPOCHS), **RECIPE)
            rnd.train_s.append(time.perf_counter() - start)
            accuracy = history[-1]["edge_accuracy"]
            problems = checks.check_training(history, self.majority_share)
            if len(rnd.train_s) > 1 and accuracy != rnd.accuracy:
                problems.append(f"edge accuracy {accuracy} differs from the round's first, {rnd.accuracy}")
            rnd.accuracy = accuracy
        except Exception as exc:
            traceback.print_exc()
            problems = [f"training raised {exc!r}"]
        self._tally(EPOCHS, problems)

    def track_and_score(self, i, frames, gt_rows, image_size, model, rnd: Round) -> list[str]:
        tracker, motio, metrics = self.tracker, self.motio, self.metrics
        cfg = tracker.TrackerConfig(image_size=image_size, k_neighbors=K_NEIGHBORS, **RECIPE)
        source = self.synth.SceneFeatureSource(self.scene_data[i]) if self.wl.appearance else None
        self.phase("track")
        gc.collect()
        start = time.perf_counter()
        rows, stats = tracker.run_sequence(frames, model, cfg, source)
        rnd.track_s.append(time.perf_counter() - start)
        steps = self.timer.take()
        rnd.latencies += [seconds for seconds, _, _ in steps]
        if self.wl.roundtrip:
            self.phase("io")
            path = self.workdir / f"hyp{i}.txt"
            motio.write_track_rows(path, rows)
            rows = motio.read_track_rows(path)
        self.phase("eval")
        gc.collect()
        start = time.perf_counter()
        clear = metrics.clear_mot(gt_rows, rows)
        score = metrics.idf1(gt_rows, rows)
        rnd.eval_s.append(time.perf_counter() - start)
        rnd.errors += clear.fp + clear.fn + clear.ids
        rnd.gt_boxes += clear.n_gt
        rnd.idf1.append(score)
        self.phase("check")
        return (checks.check_track_rows(rows, frames, image_size)
                + checks.check_graphs(steps, stats, K_NEIGHBORS)
                + checks.check_clear(clear, gt_rows, rows))

    def result(self, rounds: list[Round], extra_problems: list[str], metrics) -> dict:
        """The result line; metrics() is called only when every check passed.

        Rounds repeat the same work, so their MOTA, IDF1 and edge accuracy
        must agree exactly. A problem found across operations fails them all.
        """
        first = rounds[0].quality()
        extra_problems = extra_problems + [
            f"round {n} gave {r.quality()}, round 0 gave {first}"
            for n, r in enumerate(rounds[1:], start=1) if r.quality() != first
        ]
        problems = self.problems + extra_problems
        for p in problems[:20]:
            print(f"check failed: {p}", file=sys.stderr)
        return {
            "correct": not problems,
            "attempted": self.attempted,
            "failed": self.attempted if extra_problems else self.failed,
            "metrics": {} if problems else metrics(),
        }


def per_scene_median(rounds: list[Round], attr: str) -> float:
    """Seconds of one pass over the scenes, each scene's time the median over rounds."""
    return sum(statistics.median(times) for times in zip(*(getattr(r, attr) for r in rounds)))


def timed_run(bench: Bench, seconds: float) -> dict:
    import numpy as np

    bench.generate()
    rounds = []
    start = time.perf_counter()
    # Start a round only while it is expected to end within the run.
    while len(rounds) < MIN_ROUNDS or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append(bench.run_round())
    frames = len(rounds[0].latencies)
    if frames < MIN_FRAMES:
        sys.exit(f"error: {bench.name} tracks {frames} frames per round, fewer than {MIN_FRAMES}")
    print(f"# {len(rounds)} rounds of {REPS} x {EPOCHS} epochs and {frames} frames, "
          f"{time.perf_counter() - start:.1f} s")

    def metrics():
        latencies_ms = 1e3 * np.median([r.latencies for r in rounds], axis=0)
        mota, idf1, accuracy = rounds[0].quality()
        values = {
            "setup_s": (statistics.median(s for r in rounds for s in r.setup_s), "s"),
            "track_fps": (frames / per_scene_median(rounds, "track_s"), "1/s"),
            "frame_ms_p50": (float(np.percentile(latencies_ms, 50)), "ms"),
            "frame_ms_p99": (float(np.percentile(latencies_ms, 99)), "ms"),
            "eval_s": (per_scene_median(rounds, "eval_s"), "s"),
            "mota": (mota, "ratio"),
            "idf1": (idf1, "ratio"),
            "train_s_per_epoch": (statistics.median(s for r in rounds for s in r.train_s) / EPOCHS, "s"),
            "train_edge_accuracy": (accuracy, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    return bench.result(rounds, [], metrics)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("graph.edges_kept_ratio", "trace.overhead"):
        return "ratio"
    if name in ("tracker.live_trajectories", "tracker.lost_trajectories"):
        return "count/frame"
    return "count"


def traced_run(bench: Bench) -> dict:
    generate_s = bench.generate()
    tracer = tracing.Tracer()
    bench.phase = lambda name: setattr(tracer, "phase", name)
    rounds = [bench.run_round()]
    tracer.install()
    try:
        rounds.append(bench.run_round())
    finally:
        tracer.uninstall()
    rounds.append(bench.run_round())
    for line in tracer.phase_table():
        print(line)

    def metrics():
        values = tracer.metrics()
        values["synth.generate_s"] = generate_s
        plain_s = statistics.fmean(sum(rounds[i].track_s) for i in (0, 2))
        values["trace.overhead"] = sum(rounds[1].track_s) / plain_s - 1.0
        return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}

    return bench.result(rounds, tracer.violations, metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_graphmot()
    # Let a termination request unwind through the clean-up below.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        result = traced_run(bench) if args.trace else timed_run(bench, args.seconds)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
