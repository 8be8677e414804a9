"""Deterministic synthetic multi-target scenes: ground truth, noisy
detections, and identity-consistent appearance features.

Targets move with constant velocity inside the image, bouncing off a
margin unless scripted to exit. Crossing pairs are scripted so one target
passes behind the other: while the pair overlaps, the occluded target's
appearance is blended toward the occluder proportionally to the overlap,
and above a drop threshold its detection disappears entirely. The occluded
target may also turn as it re-emerges, which makes re-association depend
on appearance rather than motion extrapolation alone. Clutter boxes carry
fresh random features, the worst case for appearance gating.

Each frame's detections are one core.Detections block labelled with
ground-truth identities (gt_id None for clutter), empty for a frame
without detections. The ground truth is one motio.TrackRows block;
write_scene writes it, and the detection and feature rows of the blocks,
as the scene's files.

Everything is driven by one seeded generator: the same config produces
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import kernels
from .core import BoundingBox, Detections, iou
from .motio import TrackRows, write_features, write_track_rows


@dataclass(frozen=True)
class SceneConfig:
    image_size: tuple[int, int] = (1280, 720)
    n_frames: int = 100
    n_targets: int = 5
    speed_range: tuple[float, float] = (2.0, 5.0)
    direction_change_prob: float = 0.0
    direction_change_max: float = 0.5  # radians
    box_width_range: tuple[float, float] = (44.0, 60.0)
    box_aspect: float = 2.1  # height = aspect * width
    n_crossing_pairs: int = 0
    crossing_turn: float = 0.0  # radians applied to the occluded target after re-emerging
    occlusion_drop_iou: float = 0.45  # detection dropped above this overlap
    occlusion_blend: float = 1.0  # feature corruption per unit of overlap
    box_noise: float = 1.0  # sigma, px
    dropout: float = 0.0
    clutter_rate: float = 0.0  # expected clutter boxes per frame
    feature_dim: int = 32
    feature_noise: float = 0.05
    exit_targets: int = 0
    margin: float = 10.0
    lanes: bool = False  # one target per horizontal lane: no overlaps ever
    seed: int = 0


@dataclass
class SceneData:
    config: SceneConfig
    gt_rows: TrackRows
    frames: dict[int, Detections]  # every frame's block, labelled with gt_ids
    anchors: np.ndarray  # (n_targets, feature_dim) identity anchors


@dataclass
class _Target:
    ident: int
    w: float
    h: float
    cx: float
    cy: float
    vx: float
    vy: float
    bounce: bool = True
    wanders: bool = True
    pair_front: int | None = None  # index of the target that occludes this one
    turn: float = 0.0
    was_overlapping: bool = False
    turned: bool = False
    active: bool = True

    def box(self) -> BoundingBox:
        return BoundingBox(self.cx - 0.5 * self.w, self.cy - 0.5 * self.h, self.w, self.h)


def _identity_anchors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Unit anchor per identity; exactly orthogonal whenever count <= dim."""
    if count <= dim:
        q, _ = np.linalg.qr(rng.normal(size=(dim, count)))
        return q.T.copy()
    vecs = rng.normal(size=(count, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _rotate(vx: float, vy: float, angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return c * vx - s * vy, s * vx + c * vy


def _spawn_free(cfg: SceneConfig, rng: np.random.Generator, ident: int, bounce=True) -> _Target:
    width, height = cfg.image_size
    w = rng.uniform(*cfg.box_width_range)
    h = cfg.box_aspect * w
    if cfg.lanes:
        lane = height / cfg.n_targets
        if h >= lane:
            raise ValueError(f"boxes of height {h:.0f} do not fit {cfg.n_targets} lanes")
        cx = rng.uniform(cfg.margin + 0.5 * w, width - cfg.margin - 0.5 * w)
        speed = rng.uniform(*cfg.speed_range) * (1.0 if rng.random() < 0.5 else -1.0)
        return _Target(ident, w, h, cx, (ident + 0.5) * lane, speed, 0.0, wanders=False)
    cx = rng.uniform(cfg.margin + 0.5 * w, width - cfg.margin - 0.5 * w)
    cy = rng.uniform(cfg.margin + 0.5 * h, height - cfg.margin - 0.5 * h)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    speed = rng.uniform(*cfg.speed_range)
    return _Target(ident, w, h, cx, cy, speed * math.cos(theta), speed * math.sin(theta),
                   bounce=bounce)


def _spawn_crossing_pair(cfg: SceneConfig, rng: np.random.Generator, front_id: int):
    """Two targets meeting at a scripted point and frame, moving head-on."""
    width, height = cfg.image_size
    w = rng.uniform(*cfg.box_width_range)
    h = cfg.box_aspect * w
    lane_y = rng.uniform(0.3 * height, 0.7 * height)
    cross_x = rng.uniform(0.42 * width, 0.58 * width)
    cross_frame = int(rng.uniform(0.35, 0.6) * cfg.n_frames)
    if cross_frame < 10:
        raise ValueError("occlusion script infeasible: crossing frame too early")
    steps = cross_frame - 1
    targets = []
    for ident, sign in ((front_id, 1.0), (front_id + 1, -1.0)):
        speed = rng.uniform(*cfg.speed_range)
        if sign > 0:
            room = cross_x - cfg.margin - 0.5 * w
        else:
            room = width - cfg.margin - 0.5 * w - cross_x
        speed = min(speed, 0.95 * room / steps)
        if speed < 0.5:
            raise ValueError(
                "occlusion script infeasible: no room to reach the crossing point"
            )
        cy = lane_y + rng.uniform(-0.05, 0.05) * h
        targets.append(
            _Target(ident, w, h, cross_x - sign * speed * steps, cy, sign * speed, 0.0,
                    wanders=False)
        )
    behind = targets[1]
    behind.pair_front = front_id
    behind.turn = cfg.crossing_turn * (1.0 if rng.random() < 0.5 else -1.0)
    return targets


def _spawn_exiting(cfg: SceneConfig, rng: np.random.Generator, ident: int) -> _Target:
    """A target on a straight outbound course; it leaves mid-sequence."""
    width, height = cfg.image_size
    target = _spawn_free(cfg, rng, ident, bounce=False)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    speed = rng.uniform(*cfg.speed_range)
    exit_frame = rng.uniform(0.45, 0.7) * cfg.n_frames
    # Walk the exit course backwards from a border point so the target
    # leaves around exit_frame.
    if abs(math.cos(theta)) > abs(math.sin(theta)):
        border_x = width if math.cos(theta) > 0 else 0.0
        border_y = rng.uniform(0.3 * height, 0.7 * height)
    else:
        border_x = rng.uniform(0.3 * width, 0.7 * width)
        border_y = height if math.sin(theta) > 0 else 0.0
    target.cx = border_x - speed * math.cos(theta) * exit_frame
    target.cy = border_y - speed * math.sin(theta) * exit_frame
    target.cx = min(max(target.cx, cfg.margin + 0.5 * target.w), width - cfg.margin - 0.5 * target.w)
    target.cy = min(max(target.cy, cfg.margin + 0.5 * target.h), height - cfg.margin - 0.5 * target.h)
    target.vx = speed * math.cos(theta)
    target.vy = speed * math.sin(theta)
    target.wanders = False
    return target


def _advance(target: _Target, cfg: SceneConfig) -> None:
    width, height = cfg.image_size
    target.cx += target.vx
    target.cy += target.vy
    if target.bounce:
        lo_x, hi_x = cfg.margin + 0.5 * target.w, width - cfg.margin - 0.5 * target.w
        lo_y, hi_y = cfg.margin + 0.5 * target.h, height - cfg.margin - 0.5 * target.h
        if target.cx < lo_x:
            target.cx, target.vx = lo_x, abs(target.vx)
        elif target.cx > hi_x:
            target.cx, target.vx = hi_x, -abs(target.vx)
        if target.cy < lo_y:
            target.cy, target.vy = lo_y, abs(target.vy)
        elif target.cy > hi_y:
            target.cy, target.vy = hi_y, -abs(target.vy)


def generate(cfg: SceneConfig) -> SceneData:
    """Simulate the scene; deterministic for a fixed config (incl. seed)."""
    if 2 * cfg.n_crossing_pairs + cfg.exit_targets > cfg.n_targets:
        raise ValueError("not enough targets for the scripted pairs and exits")
    width, height = cfg.image_size
    rng = np.random.default_rng(cfg.seed)
    anchors = _identity_anchors(rng, cfg.n_targets, cfg.feature_dim)

    targets: list[_Target] = []
    for pair in range(cfg.n_crossing_pairs):
        targets.extend(_spawn_crossing_pair(cfg, rng, front_id=2 * pair))
    n_scripted = 2 * cfg.n_crossing_pairs
    for ident in range(n_scripted, cfg.n_targets - cfg.exit_targets):
        targets.append(_spawn_free(cfg, rng, ident))
    for ident in range(cfg.n_targets - cfg.exit_targets, cfg.n_targets):
        targets.append(_spawn_exiting(cfg, rng, ident))

    gt: list[tuple] = []  # (frame, id, x, y, w, h) per ground-truth row
    frames: dict[int, Detections] = {}

    for frame in range(1, cfg.n_frames + 1):
        if frame > 1:
            for target in targets:
                if not target.active:
                    continue
                if target.wanders and rng.random() < cfg.direction_change_prob:
                    angle = rng.uniform(-cfg.direction_change_max, cfg.direction_change_max)
                    target.vx, target.vy = _rotate(target.vx, target.vy, angle)
                _advance(target, cfg)
                box = target.box()
                if (box.x + box.w <= 0 or box.x >= width
                        or box.y + box.h <= 0 or box.y >= height):
                    target.active = False

        active = [t for t in targets if t.active]
        boxes = {t.ident: t.box() for t in active}
        for t in active:
            b = boxes[t.ident]
            gt.append((frame, t.ident + 1, b.x, b.y, b.w, b.h))

        # Overlap bookkeeping: a target is occluded by any lower-id target.
        occlusion: dict[int, float] = {}
        occluder: dict[int, int] = {}
        for t in active:
            best, who = 0.0, -1
            for other in active:
                if other.ident >= t.ident:
                    continue
                v = iou(boxes[t.ident], boxes[other.ident])
                if v > best:
                    best, who = v, other.ident
            occlusion[t.ident] = best
            occluder[t.ident] = who
            if t.pair_front is not None:
                if best > 0.02:
                    t.was_overlapping = True
                elif t.was_overlapping and not t.turned and t.turn != 0.0:
                    t.vx, t.vy = _rotate(t.vx, t.vy, t.turn)
                    t.turned = True

        det_boxes: list[tuple] = []
        det_features: list[np.ndarray] = []
        det_conf: list[float] = []
        gt_ids: list[int | None] = []
        for t in active:
            overlap = occlusion[t.ident]
            if overlap > cfg.occlusion_drop_iou:
                continue
            if rng.random() < cfg.dropout:
                continue
            b = boxes[t.ident]
            x = b.x + rng.normal(0.0, cfg.box_noise)
            y = b.y + rng.normal(0.0, cfg.box_noise)
            w = max(4.0, b.w + rng.normal(0.0, 0.5 * cfg.box_noise))
            h = max(4.0, b.h + rng.normal(0.0, 0.5 * cfg.box_noise))
            blend = min(0.95, cfg.occlusion_blend * overlap)
            mix = anchors[t.ident]
            if blend > 0.0 and occluder[t.ident] >= 0:
                mix = (1.0 - blend) * anchors[t.ident] + blend * anchors[occluder[t.ident]]
            vec = mix + cfg.feature_noise * rng.normal(size=cfg.feature_dim)
            vec = vec / np.linalg.norm(vec)
            det_boxes.append((x, y, w, h))
            det_conf.append(rng.uniform(0.85, 0.99))
            det_features.append(vec)
            gt_ids.append(t.ident + 1)

        for _ in range(rng.poisson(cfg.clutter_rate)):
            w = rng.uniform(*cfg.box_width_range)
            h = cfg.box_aspect * w
            x = rng.uniform(0.0, width - w)
            y = rng.uniform(0.0, height - h)
            vec = rng.normal(size=cfg.feature_dim)
            vec = vec / np.linalg.norm(vec)
            det_boxes.append((x, y, w, h))
            det_conf.append(rng.uniform(0.3, 0.7))
            det_features.append(vec)
            gt_ids.append(None)

        features = np.array(det_features).reshape(-1, cfg.feature_dim)
        frames[frame] = Detections(frame, det_boxes, det_conf, features, gt_ids)

    table = np.array(gt, dtype=np.float64).reshape(-1, 6)
    gt_rows = TrackRows(table[:, 0], table[:, 1], table[:, 2:], np.ones(len(table)))
    return SceneData(cfg, gt_rows, frames, anchors)


# A predicted box shows a ground-truth target's feature only when their
# IoU reaches this.
SOURCE_MIN_IOU = 0.1


class SceneFeatureSource:
    """Appearance lookup backed by scene ground truth.

    features_at gives each box the anchor of the ground-truth target whose
    box overlaps it most, the last such row of the frame on a tie; a box
    is found only when that IoU is at least SOURCE_MIN_IOU. One IoU matrix
    of the boxes against the frame's ground truth. Used as the appearance
    gate's feature source in synthetic runs.
    """

    def __init__(self, scene: SceneData):
        self.scene = scene

    def features_at(self, frame: int, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(L, d) anchors at the (L, 4) xywh boxes, and the (L,) bool rows found."""
        gt, anchors = self.scene.gt_rows, self.scene.anchors
        (lo,), (hi,) = gt.frame_bounds([frame])
        if lo == hi:
            return np.zeros((len(boxes), anchors.shape[1])), np.zeros(len(boxes), dtype=bool)
        # argmax takes the first maximum: of the reversed columns, the last.
        overlap = kernels.iou_matrix(boxes, gt.boxes[lo:hi])[:, ::-1]
        best = overlap.argmax(axis=1)
        found = overlap[np.arange(len(best)), best] >= SOURCE_MIN_IOU
        return anchors[gt.ids[hi - 1 - best] - 1], found


def write_scene(scene: SceneData, out_dir) -> dict[str, Path]:
    """Write gt.txt / det.txt / features.txt; returns the paths.

    det.txt has one row per detection, id -1, and features.txt its
    feature, keyed by frame and index in the frame.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "gt": out / "gt.txt",
        "det": out / "det.txt",
        "features": out / "features.txt",
    }
    blocks = scene.frames.items()
    write_track_rows(paths["gt"], scene.gt_rows)
    # Ids repeat (-1 on every row), so this is never a checked block.
    write_track_rows(paths["det"], TrackRows.concat(
        TrackRows.trusted(np.full(len(b), f, dtype=np.int64), np.full(len(b), -1, dtype=np.int64),
                          b.boxes, b.confidences)
        for f, b in blocks
    ))
    write_features(paths["features"],
                   ((f, j, vec) for f, b in blocks for j, vec in enumerate(b.features)))
    return paths


def standard_scenarios() -> dict[str, SceneConfig]:
    """Named presets used throughout the tests and the CLI.

    easy      five well-separated targets, clean detections
    crossing  scripted occlusions: pairs cross, features corrupt, the
              occluded target turns as it re-emerges
    crowded   twenty targets with clutter and dropout over 300 frames
    exits     crossing plus targets that leave the scene, for exercising
              the forecast gates
    """
    return {
        "easy": SceneConfig(
            image_size=(960, 600),
            n_frames=100,
            n_targets=5,
            box_width_range=(36.0, 48.0),
            box_noise=0.5,
            feature_noise=0.03,
            lanes=True,
        ),
        "crossing": SceneConfig(
            image_size=(1280, 720),
            n_frames=140,
            n_targets=8,
            n_crossing_pairs=3,
            crossing_turn=0.8,
            occlusion_drop_iou=0.35,
            occlusion_blend=2.0,
            box_noise=1.0,
            dropout=0.02,
            feature_noise=0.05,
            direction_change_prob=0.01,
        ),
        "crowded": SceneConfig(
            image_size=(1280, 720),
            n_frames=300,
            n_targets=20,
            clutter_rate=0.1,
            dropout=0.1,
            box_noise=0.5,
            feature_noise=0.05,
            direction_change_prob=0.02,
            direction_change_max=0.3,
        ),
        "exits": SceneConfig(
            image_size=(1280, 720),
            n_frames=140,
            n_targets=8,
            n_crossing_pairs=2,
            crossing_turn=0.8,
            occlusion_drop_iou=0.35,
            occlusion_blend=2.0,
            box_noise=1.0,
            dropout=0.02,
            feature_noise=0.05,
            exit_targets=3,
        ),
    }


def preset(name: str, seed: int | None = None, **overrides) -> SceneConfig:
    """Look up a standard scenario, optionally overriding fields."""
    presets = standard_scenarios()
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(presets)}")
    cfg = presets[name]
    if seed is not None:
        overrides["seed"] = seed
    return replace(cfg, **overrides) if overrides else cfg
