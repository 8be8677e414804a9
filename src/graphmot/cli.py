"""Command-line entry point.

Subcommands: synth (generate a scene), train, track, eval, ratio (the
true/false/inconclusive ratio-test analysis), sparsity (edge counts and
association timing, dense vs. the two ratio variants).

Every command takes --config pointing to a JSON file with optional
"tracker", "train" and "scene" sections whose keys mirror the respective
config dataclasses; unknown keys are rejected. Command-line flags override
config-file values. Each command echoes the effective configuration next
to its outputs so a run can be reproduced exactly, and writes outputs
atomically (no partial files on failure).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .metrics import clear_mot, idf1, ratio_analysis, render_ratio_report
from .motio import (
    format_track_rows,
    label_detections,
    read_detections,
    read_track_rows,
)
from .fields import check_count
from .mpn import TrainConfig, create_model, load_model, save_model, train_model
from .synth import SceneConfig, generate, preset, standard_scenarios, write_scene
from .tracker import TrackerConfig, run_sequence

CONFIG_SECTIONS = {"tracker": TrackerConfig, "train": TrainConfig, "scene": SceneConfig}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    for section, payload in data.items():
        if section not in CONFIG_SECTIONS:
            raise ValueError(f"unknown config section {section!r}")
        if not isinstance(payload, dict):
            raise ValueError(f"config section {section!r} must be a JSON object")
        valid = {f.name for f in dataclasses.fields(CONFIG_SECTIONS[section])}
        for key in payload:
            if key not in valid:
                raise ValueError(f"unknown key {key!r} in config section {section!r}")
    return data


def _build_section(section: str, file_config: dict, overrides: dict, base: dict | None = None):
    """Config dataclass from defaults <- base (a preset's values) <- config
    file <- CLI flags."""
    cls = CONFIG_SECTIONS[section]
    values = {**(base or {}), **file_config.get(section, {})}
    values.update({k: v for k, v in overrides.items() if v is not None})
    for key in ("image_size", "speed_range", "box_width_range"):
        if key in values and isinstance(values[key], list):
            values[key] = tuple(values[key])
    return cls(**values)


def _echo_config(path: Path, command: str, args_dict: dict, sections: dict) -> None:
    payload = {
        "command": command,
        "args": {k: v for k, v in args_dict.items() if k != "func" and not callable(v)},
    }
    for name, cfg in sections.items():
        payload[name] = dataclasses.asdict(cfg)
    _atomic_write_text(path, json.dumps(payload, indent=2, default=str) + "\n")


def _parse_image_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise ValueError(f"--image-size expects WxH, got {text!r}") from None


def cmd_synth(args) -> int:
    file_config = _load_config_file(args.config)
    overrides = {"seed": args.seed, "n_frames": args.frames, "n_targets": args.targets}
    base = dataclasses.asdict(preset(args.preset)) if args.preset else None
    cfg = _build_section("scene", file_config, overrides, base)
    out_dir = Path(args.out)
    targets = [out_dir / name for name in ("gt.txt", "det.txt", "features.txt")]
    if not args.force:
        existing = [str(p) for p in targets if p.exists()]
        if existing:
            return _fail(f"refusing to overwrite {', '.join(existing)} (use --force)")
    scene = generate(cfg)
    write_scene(scene, out_dir)
    _echo_config(out_dir / "effective-config.json", "synth",
                 {"preset": args.preset, "seed": args.seed, "out": str(out_dir)},
                 {"scene": cfg})
    print(f"wrote {', '.join(str(p) for p in targets)}")
    return 0


def _feature_dim(frames, default: int | None = None) -> int:
    """Feature size of the first frame with detections; without any, the
    default, or a ValueError when it is None."""
    dim = next((dets.features.shape[1] for dets in frames.values() if dets), default)
    if dim is None:
        raise ValueError("no detections in the data directory")
    return dim


def _load_checkpoint(path, frames, rounds=None):
    """load_model(path), refused when its feature dimension is not the
    detections' (frames without detections are not checked), with its
    rounds replaced by rounds unless that is None."""
    model = load_model(path)
    if rounds is not None:
        check_count("rounds", rounds, 0)
        model.rounds = rounds
    dim = _feature_dim(frames, model.feature_dim)
    if dim != model.feature_dim:
        raise ValueError(
            f"checkpoint {path} takes {model.feature_dim}-dim features, "
            f"but the detections have {dim}"
        )
    return model


def _load_labeled_data(data_dir: Path):
    det_path = data_dir / "det.txt"
    feat_path = data_dir / "features.txt"
    gt_path = data_dir / "gt.txt"
    for p in (det_path, feat_path, gt_path):
        if not p.exists():
            raise FileNotFoundError(f"missing {p}")
    frames = read_detections(det_path, feat_path)
    gt_rows = read_track_rows(gt_path)
    return label_detections(frames, gt_rows), gt_rows


def cmd_train(args) -> int:
    file_config = _load_config_file(args.config)
    overrides = {"epochs": args.epochs, "seed": args.seed}
    train_cfg = _build_section("train", file_config, overrides)
    frames, _ = _load_labeled_data(Path(args.data))
    feature_dim = _feature_dim(frames)
    if args.resume:
        model = _load_checkpoint(args.resume, frames, args.layers)
    else:
        model = create_model(
            feature_dim,
            rounds=args.layers if args.layers is not None else 4,
            seed=train_cfg.seed,
        )
    history = []
    if train_cfg.epochs > 0:
        history = train_model(
            model,
            [frames],
            train_cfg,
            integration=args.integration,
            k_neighbors=args.k if args.k is not None else 20,
            ratio_variant=args.ratio,
            alpha=args.alpha,
            fps=args.fps,
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, model)
    table = ["epoch lr loss edge_accuracy"]
    table += [
        f"{row['epoch']} {row['lr']:.6g} {row['loss']:.6f} {row['edge_accuracy']:.4f}"
        for row in history
    ]
    _atomic_write_text(out.parent / (out.name + ".loss.txt"), "\n".join(table) + "\n")
    _echo_config(out.parent / (out.name + ".config.json"), "train", vars(args) | {"config": str(args.config)},
                 {"train": train_cfg})
    final = f", final loss {history[-1]['loss']:.4f}" if history else ""
    print(f"saved checkpoint to {out} ({model.step_count} steps{final})")
    return 0


def cmd_track(args) -> int:
    file_config = _load_config_file(args.config)
    overrides = {
        "tau": args.tau,
        "ratio_variant": args.ratio,
        "alpha": args.alpha,
        "k_neighbors": args.k,
        "integration": args.integration,
        "fps": args.fps,
    }
    if args.image_size is not None:
        overrides["image_size"] = _parse_image_size(args.image_size)
    if args.no_forecast:
        overrides["emit_forecasts"] = False
    if args.unconstrained:
        overrides["forecast_constraints"] = False
    config = _build_section("tracker", file_config, overrides)
    frames = read_detections(args.detections, args.features)
    model = _load_checkpoint(args.checkpoint, frames, args.layers)
    rows, _ = run_sequence(frames, model, config)
    out = Path(args.out)
    _atomic_write_text(out, format_track_rows(rows))
    _echo_config(out.parent / (out.name + ".config.json"), "track",
                 {k: str(v) for k, v in vars(args).items() if k != "func"},
                 {"tracker": config})
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_eval(args) -> int:
    gt_rows = read_track_rows(args.gt)
    hyp_rows = read_track_rows(args.hyp)
    result = clear_mot(gt_rows, hyp_rows)
    score_idf1 = idf1(gt_rows, hyp_rows)
    summary = {
        "MOTA": result.mota,
        "IDF1": score_idf1,
        "FP": result.fp,
        "FN": result.fn,
        "IDS": result.ids,
        "gt_boxes": result.n_gt,
    }
    lines = [f"{k:<9s} {v:.4f}" if isinstance(v, float) else f"{k:<9s} {v}" for k, v in summary.items()]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    out_dir = Path(args.out)
    _atomic_write_text(out_dir / "metrics.txt", text)
    _atomic_write_text(out_dir / "metrics.json", json.dumps(summary, indent=2) + "\n")
    _echo_config(out_dir / "effective-config.json", "eval",
                 {"gt": str(args.gt), "hyp": str(args.hyp)}, {})
    return 0


def cmd_ratio(args) -> int:
    frames, _ = _load_labeled_data(Path(args.data))
    alphas = [float(a) for a in args.alphas.split(",")]
    variants = ["iou", "app"] if args.variant == "both" else [args.variant]
    k_neighbors = args.k if args.k is not None else 20
    reports = [
        ratio_analysis([frames], variant, alphas, k_neighbors=k_neighbors)
        for variant in variants
    ]
    text = render_ratio_report(reports)
    print(text, end="")
    out_dir = Path(args.out)
    payload = [
        {
            "variant": rep.variant,
            "alphas": list(rep.alphas),
            "T": [rep.true_counts[a] for a in rep.alphas],
            "F": [rep.false_counts[a] for a in rep.alphas],
            "I": [rep.inconclusive_counts[a] for a in rep.alphas],
            "decisions": rep.n_decisions,
        }
        for rep in reports
    ]
    _atomic_write_text(out_dir / "ratio.txt", text)
    _atomic_write_text(out_dir / "ratio.json", json.dumps(payload, indent=2) + "\n")
    _echo_config(out_dir / "effective-config.json", "ratio",
                 {"data": str(args.data), "variant": args.variant, "alphas": alphas,
                  "k_neighbors": k_neighbors}, {})
    return 0


def cmd_sparsity(args) -> int:
    file_config = _load_config_file(args.config)
    frames, _ = _load_labeled_data(Path(args.data))
    feature_dim = _feature_dim(frames)
    if args.checkpoint:
        model = _load_checkpoint(args.checkpoint, frames)
    else:
        if args.seed is None:
            return _fail("--seed is required when no --checkpoint is given")
        model = create_model(feature_dim, seed=args.seed)
    results = []
    for variant in ("none", "iou", "app"):
        config = _build_section("tracker", file_config, {"ratio_variant": variant})
        t0 = time.perf_counter()
        _, stats = run_sequence(frames, model, config)
        elapsed = time.perf_counter() - t0
        steps = [s for s in stats if s.n_candidates > 0]
        results.append(
            {
                "variant": variant,
                "mean_candidates": float(np.mean([s.n_candidates for s in steps])) if steps else 0.0,
                "mean_edges": float(np.mean([s.n_edges for s in steps])) if steps else 0.0,
                "mean_assoc_ms": float(np.mean([s.assoc_seconds for s in steps])) * 1e3 if steps else 0.0,
                "total_seconds": elapsed,
            }
        )
    lines = ["variant  candidates  edges  removed%  assoc_ms"]
    for row in results:
        removed = 100.0 * (1.0 - row["mean_edges"] / row["mean_candidates"]) if row["mean_candidates"] else 0.0
        lines.append(
            f"{row['variant']:<7s}  {row['mean_candidates']:>10.1f}  {row['mean_edges']:>5.1f}"
            f"  {removed:>7.1f}  {row['mean_assoc_ms']:>8.2f}"
        )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    out_dir = Path(args.out)
    _atomic_write_text(out_dir / "sparsity.txt", text)
    _atomic_write_text(out_dir / "sparsity.json", json.dumps(results, indent=2) + "\n")
    _echo_config(out_dir / "effective-config.json", "sparsity",
                 {"data": str(args.data), "checkpoint": str(args.checkpoint)}, {})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphmot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--preset", choices=sorted(standard_scenarios()), default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--targets", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the edge classifier")
    p.add_argument("--data", required=True, help="directory with gt.txt, det.txt, features.txt")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--integration", choices=("none", "lstm", "average", "iou"), default="average")
    p.add_argument("--ratio", choices=("none", "iou", "app"), default="none")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--resume", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("track", help="run the tracker over a detection file")
    p.add_argument("--detections", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--integration", choices=("none", "lstm", "average", "iou"), default=None)
    p.add_argument("--ratio", choices=("none", "iou", "app"), default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--fps", type=float, default=None)
    p.add_argument("--image-size", default=None, help="WxH, e.g. 1280x720")
    p.add_argument("--no-forecast", action="store_true",
                   help="do not emit forecast boxes for lost targets")
    p.add_argument("--unconstrained", action="store_true",
                   help="emit forecasts without the three gates")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="CLEAR-MOT + IDF1 of a hypothesis vs ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ratio", help="ratio-test T/F/I analysis over labeled data")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", choices=("iou", "app", "both"), default="both")
    p.add_argument("--alphas", default="0.2,0.3,0.4,0.5,0.6")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("sparsity", help="edge counts and timing, dense vs ratio variants")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_sparsity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
