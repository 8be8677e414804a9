"""Constant-velocity Kalman filtering and gated forecasting for lost targets.

The filter state is an 8-vector (cx, cy, w, h, vcx, vcy, vw, vh) in pixels
and pixels/frame. Process and measurement noise scale with the current box
height, so the same weights work across target sizes. The initial velocity
prior is a fixed fraction of the height and deliberately independent of the
noise weights: with zero noise the filter then locks onto the exact
velocity after the second observation.

The kf_*_batch functions filter M stacked states, (M, 8) means and
(M, 8, 8) covariances, in one call. A lost trajectory's predicted box
passes three gates, in order, before it is emitted as a tracked position:
  1. at least half of the box must be inside the image,
  2. a pluggable box verifier must accept it (the default is a geometric
     stand-in: reject boxes touching the image border band or whose area
     drifted more than 50% from the last observation; a learned verifier
     can be dropped in as a row callable, (boxes, last_boxes, image_size)
     -> (L,) bool),
  3. if an appearance source is available, the feature at the predicted
     box must stay within a distance threshold of the trajectory feature.
forecast_gates runs them over many lost trajectories at once, the first
two on arrays, and returns a stop code per row (STOP_REASONS).

kf_init / kf_predict / kf_update, state_to_box and forecast_lost are
one-row calls of the functions above that no code of the package calls:
they stay for perfbench/tracing.py, which rebinds them, and for the
tests' one-identity-at-a-time references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import BoundingBox, Trajectory, feature_distance

STOP_OUT_OF_VIEW = "out_of_view"
STOP_VERIFIER = "verifier_reject"
STOP_APPEARANCE = "appearance_drift"
# Reason of each stop code of forecast_gates; code 0 keeps the forecast.
STOP_REASONS = (None, STOP_OUT_OF_VIEW, STOP_VERIFIER, STOP_APPEARANCE)

VERIFIER_NAMES = ("default", "always_keep", "always_stop")

# Fraction of box height: per-frame process noise on positions/velocities,
# measurement noise, and the fixed initial velocity prior.
POS_NOISE_WEIGHT = 1.0 / 20.0
VEL_NOISE_WEIGHT = 1.0 / 160.0
MEAS_NOISE_WEIGHT = 1.0 / 20.0
INIT_VEL_STD = 1.0 / 8.0

_MIN_SIZE = 1e-3

_EYE4 = np.eye(4)
_EYE8 = np.eye(8)
_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8)


@dataclass(frozen=True)
class KalmanParams:
    pos_weight: float = POS_NOISE_WEIGHT
    vel_weight: float = VEL_NOISE_WEIGHT
    meas_weight: float = MEAS_NOISE_WEIGHT


DEFAULT_KALMAN = KalmanParams()


@dataclass(frozen=True)
class KalmanState:
    mean: np.ndarray  # (8,)
    cov: np.ndarray  # (8, 8)


def _measurements(boxes: np.ndarray) -> np.ndarray:
    """(N, 4) xywh boxes -> (N, 4) measurements (cx, cy, w, h)."""
    z = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    z[:, :2] += 0.5 * z[:, 2:]
    return z


def boxes_from_means(means: np.ndarray) -> np.ndarray:
    """(M, 8) state means -> (M, 4) xywh boxes, sizes floored at _MIN_SIZE."""
    size = np.maximum(means[:, 2:4], _MIN_SIZE)
    return np.column_stack((means[:, :2] - 0.5 * size, size))


def state_to_box(state: KalmanState) -> BoundingBox:
    """Single-state boxes_from_means, as a validated BoundingBox."""
    cx, cy, w, h = state.mean[:4]
    w = max(w, _MIN_SIZE)
    h = max(h, _MIN_SIZE)
    return BoundingBox(cx - 0.5 * w, cy - 0.5 * h, w, h)


def _height(means: np.ndarray) -> np.ndarray:
    """(M, 1) floored box heights; every noise term scales with them."""
    return np.maximum(means[:, 3:4], _MIN_SIZE)


def kf_init_batch(
    boxes: np.ndarray, params: KalmanParams = DEFAULT_KALMAN
) -> tuple[np.ndarray, np.ndarray]:
    """Initial (N, 8) means and (N, 8, 8) covariances for (N, 4) xywh boxes."""
    means = np.zeros((len(boxes), 8))
    means[:, :4] = _measurements(boxes)
    weights = np.array([2 * params.meas_weight] * 4 + [INIT_VEL_STD] * 4)
    stds = weights * means[:, 3:4]
    return means, stds[:, :, None] ** 2 * _EYE8


def kf_predict_batch(
    means: np.ndarray, covs: np.ndarray, params: KalmanParams = DEFAULT_KALMAN
) -> tuple[np.ndarray, np.ndarray]:
    """One constant-velocity step for stacked (M, 8) means and (M, 8, 8) covariances."""
    weights = np.array([params.pos_weight] * 4 + [params.vel_weight] * 4)
    q = weights * _height(means)
    cov = _F @ covs @ _F.T + q[:, :, None] ** 2 * _EYE8
    return means @ _F.T, 0.5 * (cov + cov.swapaxes(1, 2))


def kf_update_batch(
    means: np.ndarray,
    covs: np.ndarray,
    boxes: np.ndarray,
    params: KalmanParams = DEFAULT_KALMAN,
) -> tuple[np.ndarray, np.ndarray]:
    """Correct each of M states with its own (M, 4) xywh box observation.

    Raises ValueError when any innovation covariance is not positive
    definite (e.g. a noiseless filter that has already converged).
    """
    # float_power squares through libm pow, as a scalar `** 2` does; `** 2`
    # on an array multiplies instead, which differs in the last bit for
    # about 0.1% of heights and so would change trained checkpoints.
    r = np.float_power(params.meas_weight * _height(means), 2)[:, :, None] * _EYE4
    innovation = _measurements(boxes) - means[:, :4]  # H selects the first four rows
    s = covs[:, :4, :4] + r
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise ValueError("innovation covariance is not positive definite") from exc
    # Gain via two triangular solves: K = P H^T S^-1.
    pht = covs[:, :, :4]
    k = np.linalg.solve(chol.swapaxes(1, 2), np.linalg.solve(chol, pht.swapaxes(1, 2)))
    k = k.swapaxes(1, 2)
    mean = means + (k @ innovation[:, :, None])[:, :, 0]
    ikh = _EYE8 - k @ _H
    cov = ikh @ covs @ ikh.swapaxes(1, 2) + k @ r @ k.swapaxes(1, 2)  # Joseph form keeps PSD
    mean[:, 2:4] = np.maximum(mean[:, 2:4], _MIN_SIZE)
    return mean, 0.5 * (cov + cov.swapaxes(1, 2))


def kf_init(box: BoundingBox, params: KalmanParams = DEFAULT_KALMAN) -> KalmanState:
    means, covs = kf_init_batch(box.as_xywh()[None], params)
    return KalmanState(means[0], covs[0])


def kf_predict(state: KalmanState, params: KalmanParams = DEFAULT_KALMAN) -> KalmanState:
    means, covs = kf_predict_batch(state.mean[None], state.cov[None], params)
    return KalmanState(means[0], covs[0])


def kf_update(
    state: KalmanState, box: BoundingBox, params: KalmanParams = DEFAULT_KALMAN
) -> KalmanState:
    """Raises ValueError when the innovation covariance is not positive definite."""
    means, covs = kf_update_batch(state.mean[None], state.cov[None], box.as_xywh()[None], params)
    return KalmanState(means[0], covs[0])


@dataclass
class FrameContext:
    """Per-frame inputs for the forecast gates.

    feature_at(frame, box) returns the appearance feature observed at a
    box, or None when no appearance source covers it; the appearance gate
    is skipped in that case.
    """

    image_size: tuple[int, int]
    frame: int
    feature_at: Optional[Callable[[int, BoundingBox], Optional[np.ndarray]]] = None


@dataclass(frozen=True)
class ForecastDecision:
    keep: bool
    box: Optional[BoundingBox]
    reason: Optional[str] = None
    appearance_checked: bool = True


def visible_fractions(boxes: np.ndarray, image_size: tuple[int, int]) -> np.ndarray:
    """Fraction of the area of each row of (L, 4) xywh boxes inside the image."""
    corner, size = boxes[:, :2], boxes[:, 2:]
    ix, iy = (np.minimum(corner + size, image_size) - np.maximum(corner, 0.0)).T
    return np.where((ix <= 0.0) | (iy <= 0.0), 0.0, ix * iy / (size[:, 0] * size[:, 1]))


def default_verifier_rows(boxes: np.ndarray, last_boxes: np.ndarray, image_size) -> np.ndarray:
    """Geometric stand-in for a learned box verifier, over (L, 4) xywh rows.

    Rejects boxes that touch the image border band (2% of the smaller
    image side) or whose area changed by more than 50% since the last
    observation.
    """
    width, height = image_size
    band = 0.02 * min(width, height)
    x, y, w, h = boxes.T
    in_band = (x < band) | (y < band) | (x + w > width - band) | (y + h > height - band)
    last_area = last_boxes[:, 2] * last_boxes[:, 3]
    return ~in_band & (np.abs(w * h - last_area) <= 0.5 * last_area)


def make_row_verifier(name: str):
    """The verifier of a name in VERIFIER_NAMES, over rows:
    (boxes, last_boxes, image_size) -> (L,) bool."""
    if name == "default":
        return default_verifier_rows
    if name == "always_keep":
        return lambda boxes, last_boxes, image_size: np.ones(len(boxes), dtype=bool)
    if name == "always_stop":
        return lambda boxes, last_boxes, image_size: np.zeros(len(boxes), dtype=bool)
    raise ValueError(f"unknown verifier {name!r}; expected one of {VERIFIER_NAMES}")


def forecast_gates(
    boxes: np.ndarray,
    last_boxes: np.ndarray,
    features: np.ndarray,
    ctx: FrameContext,
    theta_app: float = 0.6,
    verifier=default_verifier_rows,
) -> tuple[np.ndarray, np.ndarray]:
    """Gate the forecasts of L lost trajectories.

    boxes (L, 4) are their predicted xywh boxes at the context frame,
    last_boxes (L, 4) their last observations and features (L, d) their
    integrated features; verifier works on rows (make_row_verifier).
    Gates run strictly in the order out-of-view, verifier, appearance,
    and the first failing gate determines the stop reason. The first two
    run on the arrays; the appearance source is asked once per row that
    passes them, in row order. Returns (stops, appearance_checked), each
    (L,): stops int8, 0 where the forecast is kept and else the index in
    STOP_REASONS of the gate that stopped it, and appearance_checked bool.
    """
    stops = (visible_fractions(boxes, ctx.image_size) < 0.5).astype(np.int8)
    rows = np.flatnonzero(stops == 0)
    accepted = np.asarray(verifier(boxes[rows], last_boxes[rows], ctx.image_size), dtype=bool)
    stops[rows[~accepted]] = 2
    checked = np.zeros(len(boxes), dtype=bool)
    if ctx.feature_at is not None:
        for r in np.flatnonzero(stops == 0):
            feature = ctx.feature_at(ctx.frame, BoundingBox(*boxes[r].tolist()))
            if feature is not None:
                checked[r] = True
                if feature_distance(features[r], feature) > theta_app:
                    stops[r] = 3
    return stops, checked


def forecast_lost(
    traj: Trajectory,
    ctx: FrameContext,
    theta_app: float = 0.6,
    verifier=default_verifier_rows,
) -> ForecastDecision:
    """forecast_gates for one lost Trajectory record, whose traj.motion the
    caller has already advanced to the context frame."""
    if traj.is_active:
        raise ValueError("forecast_lost expects a lost trajectory")
    box = state_to_box(traj.motion)
    (stop,), (checked,) = forecast_gates(
        box.as_xywh()[None], traj.last_box.as_xywh()[None], traj.integrated_feature[None],
        ctx, theta_app, verifier,
    )
    if stop:
        return ForecastDecision(False, None, STOP_REASONS[stop])
    return ForecastDecision(True, box, None, appearance_checked=bool(checked))
