"""Trainable building blocks: MLP, LSTM cell, weighted BCE, Adam, and a
finite-difference gradient checker.

Everything is plain float64 NumPy with hand-derived reverse-mode gradients;
there is no autodiff graph. Each forward pass returns a cache that the
matching backward pass consumes, and backward passes reject caches that do
not belong to them; Mlp.apply is the same forward pass without the cache.
Mlp.after_first and after_first_backward run the layers after the first
for these passes and for the message-passing rounds, which compute the
first layer's pre-activation themselves.
Weight initialization is uniform in +-sqrt(6 / (fan_in + fan_out)) from a
caller-supplied generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BCE_CLIP = 1e-7


def sigmoid(x):
    """1 / (1 + e^-x) where x >= 0 and e^x / (1 + e^x) elsewhere, so exp
    never overflows. min(x, -x) rather than -|x| keeps the sign of a NaN."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


@dataclass
class MlpCache:
    owner: "Mlp"
    activations: list[np.ndarray]
    squeeze: bool


class Mlp:
    """Fully connected stack: ReLU on hidden layers, identity on the output.

    Weights are (out, in) matrices applied to (batch, in) inputs. A 1-D
    input is treated as a single row and squeezed back on output.
    """

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if any(s < 1 for s in layer_sizes):
            raise ValueError(f"layer sizes must be positive: {layer_sizes}")
        rng = np.random.default_rng(0) if rng is None else rng
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.weights = [
            glorot_uniform(rng, fan_out, fan_in)
            for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:])
        ]
        self.biases = [np.zeros(fan_out) for fan_out in self.layer_sizes[1:]]

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def params(self) -> list[np.ndarray]:
        """Parameter arrays, interleaved [w0, b0, w1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def zero_grads(self) -> list[np.ndarray]:
        return [np.zeros_like(p) for p in self.params()]

    def _input(self, x) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected (*, {self.in_dim}) input, got {x.shape}")
        return x, squeeze

    def after_first(self, z: np.ndarray, stop: int, kept: list | None = None) -> np.ndarray:
        """The input of layer `stop` (the output when stop is the layer
        count) from the first layer's pre-activation z, which it overwrites.
        Every ReLU output is appended to kept, when given.

        Bias and ReLU act in place on each layer's fresh product, which
        gives the same bits as `h @ w.T + b` and `np.maximum(z, 0.0)`.
        """
        last = len(self.weights) - 1
        for k in range(1, stop):
            np.maximum(z, 0.0, out=z)
            if kept is not None:
                kept.append(z)
            z = z @ self.weights[k].T
            z += self.biases[k]
        if stop - 1 != last:
            np.maximum(z, 0.0, out=z)
            if kept is not None:
                kept.append(z)
        return z

    def after_first_backward(self, stop: int, kept: list, g: np.ndarray, grads) -> np.ndarray:
        """The gradient of the first layer's pre-activation, from the gradient
        g of what after_first(z, stop, kept) returned; the gradients of layers
        1 to stop - 1 add into grads (params() order). g is overwritten only
        when stop is less than the layer count."""
        if stop - 1 != len(self.weights) - 1:
            g *= kept[-1] > 0.0
        for k in range(stop - 1, 0, -1):
            grads[2 * k] += g.T @ kept[k - 1]
            grads[2 * k + 1] += g.sum(axis=0)
            g = g @ self.weights[k]
            g *= kept[k - 1] > 0.0
        return g

    def forward(self, x) -> tuple[np.ndarray, MlpCache]:
        x, squeeze = self._input(x)
        activations = [x]
        z = x @ self.weights[0].T
        z += self.biases[0]
        h = self.after_first(z, len(self.weights), activations)
        activations.append(h)
        return (h[0] if squeeze else h), MlpCache(self, activations, squeeze)

    def apply(self, x) -> np.ndarray:
        """forward() without the cache: the same output, for inference."""
        x, squeeze = self._input(x)
        z = x @ self.weights[0].T
        z += self.biases[0]
        h = self.after_first(z, len(self.weights))
        return h[0] if squeeze else h

    def backward(self, cache: MlpCache, grad_out) -> tuple[np.ndarray, list[np.ndarray]]:
        """Reverse-mode pass; returns (input gradient, parameter gradients).

        The parameter gradients align with params(). grad_out must match the
        shape of the forward output that produced the cache; it is not
        written to.
        """
        if cache.owner is not self:
            raise ValueError("cache was produced by a different Mlp")
        g = np.asarray(grad_out, dtype=np.float64)
        if cache.squeeze:
            g = g[None, :]
        if g.shape != cache.activations[-1].shape:
            raise ValueError(
                f"grad shape {g.shape} does not match forward output "
                f"{cache.activations[-1].shape}"
            )
        grads = self.zero_grads()
        g = self.after_first_backward(len(self.weights), cache.activations[1:-1], g, grads)
        grads[0] += g.T @ cache.activations[0]
        grads[1] += g.sum(axis=0)
        g = g @ self.weights[0]
        return (g[0] if cache.squeeze else g), grads


@dataclass(frozen=True)
class LstmState:
    h: np.ndarray
    c: np.ndarray


@dataclass
class LstmCache:
    owner: "LstmCell"
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c_new: np.ndarray
    c_tanh: np.ndarray


class LstmCell:
    """Standard LSTM cell with stacked gate parameters.

    Gate order along the first axis of w_x / w_h / bias is
    (input, forget, output, candidate).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        rng = np.random.default_rng(0) if rng is None else rng
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        self.w_x = glorot_uniform(rng, 4 * hidden_dim, input_dim)
        self.w_h = glorot_uniform(rng, 4 * hidden_dim, hidden_dim)
        self.bias = np.zeros(4 * hidden_dim)

    def params(self) -> list[np.ndarray]:
        return [self.w_x, self.w_h, self.bias]

    def zero_grads(self) -> list[np.ndarray]:
        return [np.zeros_like(p) for p in self.params()]

    def init_state(self) -> LstmState:
        return LstmState(np.zeros(self.hidden_dim), np.zeros(self.hidden_dim))

    def step(self, state: LstmState, x) -> tuple[np.ndarray, LstmState, LstmCache]:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_dim,):
            raise ValueError(f"expected ({self.input_dim},) input, got {x.shape}")
        if state.h.shape != (self.hidden_dim,):
            raise ValueError(f"state does not match hidden size {self.hidden_dim}")
        hd = self.hidden_dim
        pre = self.w_x @ x + self.w_h @ state.h + self.bias
        i = sigmoid(pre[:hd])
        f = sigmoid(pre[hd : 2 * hd])
        o = sigmoid(pre[2 * hd : 3 * hd])
        g = np.tanh(pre[3 * hd :])
        c_new = f * state.c + i * g
        c_tanh = np.tanh(c_new)
        h_new = o * c_tanh
        cache = LstmCache(self, x, state.h, state.c, i, f, o, g, c_new, c_tanh)
        return h_new, LstmState(h_new, c_new), cache

    def backward(self, cache: LstmCache, dh, dc=None):
        """Backward through one step.

        dh / dc are gradients w.r.t. the step's h / c outputs. Returns
        (dx, dh_prev, dc_prev, grads) with grads aligned with params().
        """
        if cache.owner is not self:
            raise ValueError("cache was produced by a different LstmCell")
        dh = np.asarray(dh, dtype=np.float64)
        dc = np.zeros(self.hidden_dim) if dc is None else np.asarray(dc, dtype=np.float64)
        do = dh * cache.c_tanh
        dct = dh * cache.o * (1.0 - cache.c_tanh**2) + dc
        df = dct * cache.c_prev
        dc_prev = dct * cache.f
        di = dct * cache.g
        dg = dct * cache.i
        d_pre = np.concatenate(
            [
                di * cache.i * (1.0 - cache.i),
                df * cache.f * (1.0 - cache.f),
                do * cache.o * (1.0 - cache.o),
                dg * (1.0 - cache.g**2),
            ]
        )
        grads = [
            np.outer(d_pre, cache.x),
            np.outer(d_pre, cache.h_prev),
            d_pre,
        ]
        dx = self.w_x.T @ d_pre
        dh_prev = self.w_h.T @ d_pre
        return dx, dh_prev, dc_prev, grads


def weighted_bce(prediction, label, pos_weight: float = 1.0):
    """Binary cross-entropy with a multiplicative weight on positive labels.

    Predictions are clipped to [1e-7, 1 - 1e-7] before the logs. Returns
    (loss, dloss/dprediction), elementwise over array inputs.
    """
    if pos_weight <= 0.0:
        raise ValueError(f"pos_weight must be positive, got {pos_weight}")
    p = np.clip(np.asarray(prediction, dtype=np.float64), BCE_CLIP, 1.0 - BCE_CLIP)
    y = np.asarray(label, dtype=np.float64)
    loss = -(pos_weight * y * np.log(p) + (1.0 - y) * np.log1p(-p))
    dp = -pos_weight * y / p + (1.0 - y) / (1.0 - p)
    return loss, dp


class AdamOptimizer:
    """Bias-corrected Adam over a flat list of parameter arrays.

    Parameters are updated in place so that model references stay valid.
    """

    def __init__(self, params: list[np.ndarray], beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.step_count = 0

    def step(self, grads: list[np.ndarray], lr: float) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient; aborting training")
        self.step_count += 1
        t = self.step_count
        b1c = 1.0 - self.beta1**t
        b2c = 1.0 - self.beta2**t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against finite differences."""

    max_rel_error: float
    worst_param: int
    worst_coord: tuple
    tolerance: float
    failures: list[tuple[int, tuple, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(loss_fn, params, analytic_grads, h=1e-5, tolerance=1e-4, floor=1e-6):
    """Check analytic gradients against central finite differences.

    loss_fn is a zero-argument closure over `params` (evaluated with the
    arrays mutated in place) and must be deterministic. The per-coordinate
    relative error is |a - n| / max(|a|, |n|, floor); the floor keeps
    finite-difference noise on near-zero coordinates from dominating.
    """
    max_err = 0.0
    worst = (0, ())
    failures = []
    for pi, (p, a) in enumerate(zip(params, analytic_grads)):
        if p.shape != np.asarray(a).shape:
            raise ValueError(f"gradient {pi} shape mismatch: {p.shape} vs {np.shape(a)}")
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            f_plus = loss_fn()
            p[idx] = orig - h
            f_minus = loss_fn()
            p[idx] = orig
            num = (f_plus - f_minus) / (2.0 * h)
            ana = float(a[idx])
            err = abs(ana - num) / max(abs(ana), abs(num), floor)
            if err > max_err:
                max_err = err
                worst = (pi, idx)
            if err > tolerance:
                failures.append((pi, idx, err))
            it.iternext()
    return GradCheckReport(max_err, worst[0], worst[1], tolerance, failures)


CHECKPOINT_FORMAT = "graphmot-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write named float64 arrays plus a JSON metadata block to an .npz file.

    Round-trips are bit-exact: .npz stores raw array bytes. `meta` must be
    JSON-serializable; format name and version are added automatically.
    """
    header = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION, **meta}
    payload = {"__meta__": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)}
    for name, arr in arrays.items():
        if name == "__meta__":
            raise ValueError("'__meta__' is a reserved array name")
        payload[name] = np.asarray(arr)
    np.savez(Path(path), **payload)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of save_checkpoint; returns (arrays, meta)."""
    with np.load(Path(path)) as data:
        if "__meta__" not in data:
            raise ValueError(f"{path} is not a graphmot checkpoint")
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unexpected checkpoint format: {meta.get('format')!r}")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version: {meta.get('version')!r}")
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    return arrays, meta
