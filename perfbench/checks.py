"""Correctness checks on every operation the benchmark runs.

Each check returns a list of problems (empty when the output is right).
They test properties the method must have and recompute what they need
with plain arithmetic; none compares against a stored copy of an earlier
output.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

# Forecast rows may have been rounded to two decimals by the track writer,
# which can move a box edge by 0.005 px.
VISIBLE_TOLERANCE = 1e-3


def plain_iou(a, b) -> float:
    """IoU of two (x, y, w, h) boxes."""
    ix = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    iy = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def visible_fraction(box, image_size) -> float:
    x, y, w, h = box
    ix = min(x + w, image_size[0]) - max(x, 0.0)
    iy = min(y + h, image_size[1]) - max(y, 0.0)
    return 0.0 if ix <= 0.0 or iy <= 0.0 else ix * iy / (w * h)


def check_track_rows(rows, detections_by_frame, image_size) -> list[str]:
    """Unique ids per frame; finite positive boxes; a row with confidence
    below 1.00 is one of its frame's detections, each used at most once
    (so no detection was matched twice); forecast rows are at least half
    inside the image."""
    problems = []
    by_frame = defaultdict(list)
    for row in rows:
        by_frame[row.frame].append(row)
    for frame, frame_rows in sorted(by_frame.items()):
        ids = [r.track_id for r in frame_rows]
        if len(set(ids)) != len(ids):
            problems.append(f"frame {frame}: duplicate track ids")
        free = Counter(
            (d.box.x, d.box.y, d.box.w, d.box.h, d.confidence)
            for d in detections_by_frame.get(frame, [])
        )
        for r in frame_rows:
            box = (r.x, r.y, r.w, r.h)
            if not all(math.isfinite(v) for v in box) or r.w <= 0.0 or r.h <= 0.0:
                problems.append(f"frame {frame} id {r.track_id}: bad box {box}")
            elif r.conf < 1.0:
                key = (*box, r.conf)
                if free[key] <= 0:
                    problems.append(f"frame {frame} id {r.track_id}: row is not an unused detection")
                free[key] -= 1
            elif visible_fraction(box, image_size) < 0.5 - VISIBLE_TOLERANCE:
                problems.append(f"frame {frame} id {r.track_id}: forecast less than half in view")
    return problems


def check_graphs(step_records, stats, k) -> list[str]:
    """Per frame: candidates == N * min(k, M) and edges <= candidates.

    step_records hold (latency, M, N) per Tracker.step call, in order.
    """
    if len(step_records) != len(stats):
        return [f"{len(step_records)} steps but {len(stats)} step stats"]
    problems = []
    for (_, m, n), st in zip(step_records, stats):
        expected = n * min(k, m)
        if st.n_candidates != expected:
            problems.append(f"frame {st.frame}: {st.n_candidates} candidates, expected {expected}")
        if st.n_edges > st.n_candidates:
            problems.append(f"frame {st.frame}: {st.n_edges} edges > {st.n_candidates} candidates")
    return problems


def check_clear(result, gt_rows, hyp_rows, threshold=0.5) -> list[str]:
    """Every CLEAR match overlaps at IoU >= threshold; per frame,
    matches + FN = ground-truth count and matches + FP = hypothesis count."""
    gt = defaultdict(dict)
    hyp = defaultdict(dict)
    for r in gt_rows:
        gt[r.frame][r.track_id] = (r.x, r.y, r.w, r.h)
    for r in hyp_rows:
        hyp[r.frame][r.track_id] = (r.x, r.y, r.w, r.h)
    problems = []
    for detail in result.frames:
        f = detail.frame
        for gid, hid in detail.matches:
            overlap = plain_iou(gt[f][gid], hyp[f][hid])
            if overlap < threshold:
                problems.append(f"frame {f}: match {gid}->{hid} has IoU {overlap:.3f}")
        if len(detail.matches) + detail.fn != len(gt[f]):
            problems.append(f"frame {f}: matches + FN != {len(gt[f])} ground-truth boxes")
        if len(detail.matches) + detail.fp != len(hyp[f]):
            problems.append(f"frame {f}: matches + FP != {len(hyp[f])} hypotheses")
    return problems


def check_training(history, majority_share) -> list[str]:
    """Loss falls from the first epoch to the last, and the last epoch's
    edge accuracy beats always answering the majority class."""
    problems = []
    if not history[-1]["loss"] < history[0]["loss"]:
        problems.append(f"loss rose from {history[0]['loss']:.4f} to {history[-1]['loss']:.4f}")
    if not history[-1]["edge_accuracy"] > majority_share:
        problems.append(f"edge accuracy {history[-1]['edge_accuracy']:.4f} does not beat "
                        f"the majority share {majority_share:.4f}")
    return problems
