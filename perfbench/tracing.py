"""Per-layer tracing from outside the program.

The tracer rebinds public functions of the graphmot modules in this
process: every module attribute that refers to a traced function is
replaced by a wrapper that times the call, and class methods are replaced
on their class. Nothing inside src/ is changed. Each span adds its
duration to its name's busy time and to its parent's child time, so a
span's self time is its duration minus the spans it contains. Busy time is
also split by the phase the benchmark is in (setup, train, track, io,
eval), which the README's traced shares are computed from.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function, with its metric prefix.
# Functions imported into other modules are rebound there too.
TRACED = [
    ("graphmot.tracker", "Tracker.step", "tracker.step"),
    ("graphmot.tracker", "greedy_match", "tracker.greedy_match"),
    ("graphmot.motion", "kf_predict", "motion.kf_predict"),
    ("graphmot.motion", "kf_update", "motion.kf_update"),
    ("graphmot.motion", "state_to_box", "motion.state_to_box"),
    ("graphmot.motion", "forecast_lost", "motion.forecast_lost"),
    ("graphmot.graph", "build_graph", "graph.build_graph"),
    ("graphmot.graph", "candidate_edges", "graph.candidate_edges"),
    ("graphmot.graph", "edge_distances", "graph.edge_distances"),
    ("graphmot.graph", "ratio_test_filter", "graph.ratio_test_filter"),
    ("graphmot.graph", "init_edge_features", "graph.init_edge_features"),
    ("graphmot.kernels", "center_dist_matrix", "kernels.center_dist_matrix"),
    ("graphmot.kernels", "iou_matrix", "kernels.iou_matrix"),
    ("graphmot.kernels", "feature_dist_matrix", "kernels.feature_dist_matrix"),
    ("graphmot.mpn", "encode", "mpn.encode"),
    ("graphmot.mpn", "propagate", "mpn.propagate"),
    ("graphmot.mpn", "classify_edges", "mpn.classify_edges"),
    ("graphmot.mpn", "build_training_graph", "mpn.build_training_graph"),
    ("graphmot.mpn", "mpn_backward", "mpn.backward"),
    ("graphmot.nn", "AdamOptimizer.step", "nn.adam_step"),
    ("graphmot.integration", "update_trajectory_feature", "integration.update_trajectory_feature"),
    ("graphmot.metrics", "clear_mot", "metrics.clear_mot"),
    ("graphmot.metrics", "idf1", "metrics.idf1"),
    ("graphmot.motio", "read_detections", "motio.read_detections"),
    ("graphmot.motio", "read_track_rows", "motio.read_track_rows"),
    ("graphmot.motio", "write_track_rows", "motio.write_track_rows"),
]
# The tracker calls mpn_forward through its own binding, so rebinding only
# graphmot.mpn.mpn_forward times the training forward passes alone.
TRAINING_ONLY = [("graphmot.mpn", "mpn_forward", "mpn.forward")]

STOP_REASONS = {
    "out_of_view": "motion.stop_out_of_view",
    "verifier_reject": "motion.stop_verifier",
    "appearance_drift": "motion.stop_appearance",
}


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)  # (span, phase) -> seconds
        self.self_time = defaultdict(float)  # span -> seconds
        self.calls = defaultdict(int)  # span -> calls
        self.counts = defaultdict(float)  # counter -> value
        self.violations: list[str] = []
        self.phase = "setup"
        self._children: list[float] = []  # child time of each open span
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module, attr, name in TRACED:
            self._rebind(module, attr, name, everywhere=True)
        for module, attr, name in TRAINING_ONLY:
            self._rebind(module, attr, name, everywhere=False)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _rebind(self, module_name, attr, name, everywhere):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            self._set(owner, method, self._wrap(name, getattr(owner, method)))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        owners = [m for n, m in list(sys.modules.items()) if n.startswith("graphmot")] \
            if everywhere else [module]
        for owner in owners:
            if getattr(owner, attr, None) is original:
                self._set(owner, attr, wrapper)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        key = name.replace(".", "_")
        before_hook = getattr(self, "_before_" + key, None)
        after_hook = getattr(self, "_after_" + key, None)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            before = before_hook(args) if before_hook is not None else None
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += elapsed
                tracer.busy[name, tracer.phase] += elapsed
                tracer.self_time[name] += elapsed - child
                tracer.calls[name] += 1
            if after_hook is not None:
                after_hook(result, args, kwargs, before)
            return result

        return span

    # -- counters read at the layer boundaries -----------------------------

    def _before_tracker_step(self, args):
        tracker = args[0]
        lost = sum(1 for t in tracker.trajectories if t.frames_lost > 0)
        return tracker.next_id, len(tracker.trajectories) - lost, lost

    def _after_tracker_step(self, result, args, kwargs, before):
        next_id, live, lost = before
        self.counts["tracker.frames"] += 1
        self.counts["tracker.spawned"] += args[0].next_id - next_id
        self.counts["tracker.live_sum"] += live
        self.counts["tracker.lost_sum"] += lost

    def _after_tracker_greedy_match(self, result, args, kwargs, before):
        matches = result[0]
        self.counts["tracker.matches"] += len(matches)
        if (len({i for i, _ in matches}) != len(matches)
                or len({j for _, j in matches}) != len(matches)):
            self.violations.append("greedy_match used a trajectory or a detection twice")

    def _after_motion_forecast_lost(self, result, args, kwargs, before):
        if result.keep:
            self.counts["motion.forecasts_kept"] += 1
        elif result.reason in STOP_REASONS:
            self.counts[STOP_REASONS[result.reason]] += 1

    def _after_graph_build_graph(self, result, args, kwargs, before):
        if result is None:
            return
        trajectories, detections = args[0], args[1]
        self.counts["graph.candidates"] += result.n_candidates
        self.counts["graph.edges"] += result.n_edges
        expected = len(detections) * min(kwargs.get("k_neighbors", 20), len(trajectories))
        if result.n_candidates != expected:
            self.violations.append(
                f"graph has {result.n_candidates} candidates, expected N*min(k,M) = {expected}")
        if result.n_edges > result.n_candidates:
            self.violations.append("graph kept more edges than candidates")

    def _after_mpn_classify_edges(self, result, args, kwargs, before):
        self.counts["mpn.edges_scored"] += result.size

    def _after_mpn_build_training_graph(self, result, args, kwargs, before):
        if result is None:
            return
        positives = int(result.labels.sum())
        self.counts["mpn.training_graphs"] += 1
        self.counts["mpn.positive_edges"] += positives
        self.counts["mpn.negative_edges"] += result.labels.size - positives

    def _after_metrics_clear_mot(self, result, args, kwargs, before):
        self.counts["metrics.gt_boxes"] += result.n_gt

    def _after_motio_read_track_rows(self, result, args, kwargs, before):
        self.counts["motio.rows_read"] += len(result)

    # -- report ------------------------------------------------------------

    def seconds(self, name) -> float:
        return sum((v for (n, _), v in self.busy.items() if n == name), 0.0)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for _, _, name in TRACED + TRAINING_ONLY:
            out[name + "_s"] = self.seconds(name)
        for name in ("motion.kf_predict", "motion.kf_update", "motion.forecast_lost"):
            out[name + "_calls"] = float(self.calls[name])
        out["tracker.self_s"] = self.self_time["tracker.step"]
        out["kernels.calls"] = float(sum(
            self.calls[n] for n in self.calls if n.startswith("kernels.")))
        out["nn.adam_steps"] = float(self.calls["nn.adam_step"])
        out["integration.updates"] = float(self.calls["integration.update_trajectory_feature"])
        for key in ("tracker.frames", "tracker.matches", "tracker.spawned", "motion.forecasts_kept",
                    *STOP_REASONS.values(), "graph.candidates", "graph.edges", "mpn.edges_scored",
                    "mpn.training_graphs", "mpn.positive_edges", "mpn.negative_edges",
                    "metrics.gt_boxes", "motio.rows_read"):
            out[key] = float(self.counts[key])
        frames = max(self.counts["tracker.frames"], 1.0)
        out["tracker.live_trajectories"] = self.counts["tracker.live_sum"] / frames
        out["tracker.lost_trajectories"] = self.counts["tracker.lost_sum"] / frames
        out["graph.edges_kept_ratio"] = self.counts["graph.edges"] / max(self.counts["graph.candidates"], 1.0)
        return out

    def phase_table(self) -> list[str]:
        """One line per span: busy seconds in each phase, for the README shares."""
        phases = sorted({p for _, p in self.busy})
        lines = ["# span " + " ".join(f"{p}_s" for p in phases)]
        for name in sorted({n for n, _ in self.busy}):
            lines.append(f"# {name} " + " ".join(f"{self.busy.get((name, p), 0.0):.4f}" for p in phases))
        return lines
