import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import masked_sigmoid

from graphmot.nn import (
    AdamOptimizer,
    GradCheckReport,
    LstmCell,
    LstmState,
    Mlp,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
    weighted_bce,
)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestSigmoid:
    """The one-expression sigmoid gives the bits of the masked one."""

    def test_special_values(self):
        x = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 710.0, -710.0,
                      745.0, -745.0, 1e-320, -1e-320])
        assert same_bits(sigmoid(x), masked_sigmoid(x))

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 1000.0])
    def test_normal_samples(self, scale):
        x = np.random.default_rng(int(scale * 10)).normal(0.0, scale, 20_000)
        assert same_bits(sigmoid(x), masked_sigmoid(x))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=50))
    def test_arbitrary_floats(self, values):
        x = np.array(values, dtype=np.float64)
        assert same_bits(sigmoid(x), masked_sigmoid(x))


class TestMlpForward:
    def test_identity_single_layer(self):
        mlp = Mlp([3, 3])
        mlp.weights[0][...] = np.eye(3)
        mlp.biases[0][...] = 0.0
        v = np.array([0.5, -2.0, 3.25])
        out, _ = mlp.forward(v)
        assert np.array_equal(out, v)

    def test_zero_weights_bias_relu(self):
        # Hidden layer with zero weights and bias b, identity output layer:
        # the net computes max(b, 0) for any input.
        mlp = Mlp([2, 2, 2])
        mlp.weights[0][...] = 0.0
        mlp.biases[0][...] = np.array([0.7, -0.3])
        mlp.weights[1][...] = np.eye(2)
        mlp.biases[1][...] = 0.0
        out, _ = mlp.forward(np.array([123.0, -456.0]))
        assert np.allclose(out, [0.7, 0.0])

    def test_two_layer_hand_computed(self):
        # Step-by-step evaluation (done independently on paper):
        #   z1 = W1 v + b1 = [1*1 - 2*2 + 0.5, 0.5*1 + 1*2 - 1] = [-2.5, 1.5]
        #   a1 = relu(z1) = [0, 1.5]
        #   z2 = 2*0 - 1*1.5 + 0.25 = -1.25
        mlp = Mlp([2, 2, 1])
        mlp.weights[0][...] = np.array([[1.0, -2.0], [0.5, 1.0]])
        mlp.biases[0][...] = np.array([0.5, -1.0])
        mlp.weights[1][...] = np.array([[2.0, -1.0]])
        mlp.biases[1][...] = np.array([0.25])
        out, _ = mlp.forward(np.array([1.0, 2.0]))
        assert out[0] == pytest.approx(-1.25, abs=1e-15)

    def test_shape_mismatch(self):
        mlp = Mlp([3, 2])
        with pytest.raises(ValueError):
            mlp.forward(np.zeros(4))

    def test_batched_matches_rowwise(self):
        rng = np.random.default_rng(0)
        mlp = Mlp([4, 5, 2], rng)
        x = rng.normal(size=(6, 4))
        batch, _ = mlp.forward(x)
        rows = np.stack([mlp.forward(row)[0] for row in x])
        assert np.allclose(batch, rows)


    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 400),
           sizes=st.lists(st.integers(1, 40), min_size=2, max_size=4))
    def test_in_place_layers_equal_plain_expressions(self, seed, rows, sizes):
        rng = np.random.default_rng(seed)
        mlp = Mlp(sizes, rng)
        for b in mlp.biases:
            b[...] = rng.normal(size=b.shape)
        x = rng.normal(size=(rows, sizes[0]))
        want = x
        for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            z = want @ w.T + b
            want = z if k == len(mlp.weights) - 1 else np.maximum(z, 0.0)
        out, cache = mlp.forward(x)
        assert out.tobytes() == want.tobytes()
        assert mlp.apply(x).tobytes() == want.tobytes()
        if rows:  # a 1-D input comes back 1-D from both
            assert mlp.apply(x[0]).tobytes() == mlp.forward(x[0])[0].tobytes()


class TestMlpBackward:
    def test_linear_adjoint(self):
        # Single linear layer y = W x: input gradient is W^T g.
        rng = np.random.default_rng(1)
        mlp = Mlp([4, 3], rng)
        x = rng.normal(size=4)
        _, cache = mlp.forward(x)
        g = rng.normal(size=3)
        gx, grads = mlp.backward(cache, g)
        assert np.allclose(gx, mlp.weights[0].T @ g)
        assert np.allclose(grads[0], np.outer(g, x))
        assert np.allclose(grads[1], g)

    def test_zero_grad_output(self):
        rng = np.random.default_rng(2)
        mlp = Mlp([3, 4, 2], rng)
        _, cache = mlp.forward(rng.normal(size=(5, 3)))
        gx, grads = mlp.backward(cache, np.zeros((5, 2)))
        assert not gx.any()
        assert all(not g.any() for g in grads)

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        mlp = Mlp([4, 6, 3], rng)
        x = rng.normal(size=(5, 4))
        coeff = rng.normal(size=(5, 3))

        def loss():
            out, _ = mlp.forward(x)
            return float((coeff * out).sum() + 0.5 * (out**2).sum())

        out, cache = mlp.forward(x)
        _, grads = mlp.backward(cache, coeff + out)
        report = grad_check(loss, mlp.params(), grads)
        assert report.passed, report.max_rel_error
        assert report.max_rel_error < 1e-4

    def test_rejects_foreign_cache(self):
        a, b = Mlp([2, 2]), Mlp([2, 2])
        _, cache = a.forward(np.zeros(2))
        with pytest.raises(ValueError):
            b.backward(cache, np.zeros(2))

    def test_rejects_wrong_grad_shape(self):
        mlp = Mlp([2, 3])
        _, cache = mlp.forward(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            mlp.backward(cache, np.zeros((4, 2)))


class TestLstm:
    def test_zero_params_zero_state(self):
        cell = LstmCell(3, 2)
        for p in cell.params():
            p[...] = 0.0
        h, state, cache = cell.step(cell.init_state(), np.array([5.0, -1.0, 2.0]))
        # sigmoid(0) = 0.5 gates, tanh(0) = 0 candidate: everything stays 0.
        assert np.allclose(cache.i, 0.5) and np.allclose(cache.f, 0.5)
        assert not h.any() and not state.c.any()

    def test_zero_params_carried_cell(self):
        # Gates 0.5, candidate 0: c' = 0.5 c, h' = 0.5 tanh(0.5 c).
        # For c = (1, 0): c' = (0.5, 0), h' = (0.5 * tanh(0.5), 0)
        #               = (0.23105857863000487, 0).
        cell = LstmCell(2, 2)
        for p in cell.params():
            p[...] = 0.0
        state = LstmState(np.zeros(2), np.array([1.0, 0.0]))
        h, new_state, _ = cell.step(state, np.array([0.3, 0.7]))
        assert np.allclose(new_state.c, [0.5, 0.0])
        assert h[0] == pytest.approx(0.23105857863000487, abs=1e-15)
        assert h[1] == 0.0

    def test_shape_mismatch(self):
        cell = LstmCell(3, 2)
        with pytest.raises(ValueError):
            cell.step(cell.init_state(), np.zeros(4))

    def test_finite_differences_two_step_chain(self):
        rng = np.random.default_rng(4)
        cell = LstmCell(3, 4, rng)
        x1, x2 = rng.normal(size=3), rng.normal(size=3)
        h0, c0 = rng.normal(size=4) * 0.3, rng.normal(size=4) * 0.3

        def loss():
            s = LstmState(h0, c0)
            _, s, _ = cell.step(s, x1)
            h, s, _ = cell.step(s, x2)
            return float((h**2).sum() + 0.5 * (s.c**2).sum())

        s = LstmState(h0, c0)
        _, s1, cache1 = cell.step(s, x1)
        h2, s2, cache2 = cell.step(s1, x2)
        grads = [np.zeros_like(p) for p in cell.params()]
        _, dh, dc, g2 = cell.backward(cache2, 2.0 * h2, s2.c)
        _, _, _, g1 = cell.backward(cache1, dh, dc)
        for acc, ga, gb in zip(grads, g1, g2):
            acc += ga + gb
        report = grad_check(loss, cell.params(), grads)
        assert report.passed, report.max_rel_error


class TestWeightedBce:
    def test_half_prediction(self):
        loss, _ = weighted_bce(0.5, 1.0, 1.0)
        assert loss == pytest.approx(math.log(2))

    def test_linear_in_weight(self):
        loss, _ = weighted_bce(0.5, 1.0, 3.0)
        assert loss == pytest.approx(3 * math.log(2))

    def test_clip_floor_and_monotonicity(self):
        # As p -> y = 1 the loss decreases monotonically down to the
        # clip floor -log(1 - 1e-7), scaled by the positive weight.
        grid = [0.9, 0.99, 0.9999, 1.0 - 1e-8, 1.0]
        losses = [weighted_bce(p, 1.0, 2.0)[0] for p in grid]
        assert all(a > b or math.isclose(a, b) for a, b in zip(losses, losses[1:]))
        assert losses[-1] == pytest.approx(-2.0 * math.log(1.0 - 1e-7))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            weighted_bce(0.5, 1.0, 0.0)

    def test_gradient_matches_fd(self):
        for p0, y, w in [(0.3, 1.0, 2.5), (0.7, 0.0, 1.0), (0.2, 0.0, 4.0)]:
            _, dp = weighted_bce(p0, y, w)
            h = 1e-7
            num = (weighted_bce(p0 + h, y, w)[0] - weighted_bce(p0 - h, y, w)[0]) / (2 * h)
            assert dp == pytest.approx(num, rel=1e-5)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0, 1, size=100)
        y = rng.integers(0, 2, size=100).astype(float)
        loss, _ = weighted_bce(p, y, 3.0)
        assert (loss >= 0).all()


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = np.array([1.0])
        opt = AdamOptimizer([p])
        opt.step([np.array([0.004])], lr=0.1)
        # First bias-corrected step is -lr * g / (|g| + eps) ~ -lr * sign(g).
        assert p[0] == pytest.approx(1.0 - 0.1, rel=1e-5)

    def test_zero_gradient_is_noop(self):
        p = np.array([2.0, -3.0])
        opt = AdamOptimizer([p])
        for _ in range(5):
            opt.step([np.zeros(2)], lr=0.5)
        assert np.array_equal(p, [2.0, -3.0])

    def test_two_steps_match_scalar_reference(self):
        # Independent scalar re-implementation of bias-corrected Adam on
        # the quadratic 0.5 * (x - 3)^2.
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05
        x_ref, m_ref, v_ref = 10.0, 0.0, 0.0
        for t in (1, 2):
            g = x_ref - 3.0
            m_ref = beta1 * m_ref + (1 - beta1) * g
            v_ref = beta2 * v_ref + (1 - beta2) * g * g
            m_hat = m_ref / (1 - beta1**t)
            v_hat = v_ref / (1 - beta2**t)
            x_ref -= lr * m_hat / (math.sqrt(v_hat) + eps)

        p = np.array([10.0])
        opt = AdamOptimizer([p])
        for _ in range(2):
            opt.step([np.array([p[0] - 3.0])], lr=lr)
        assert p[0] == pytest.approx(x_ref, abs=1e-12)

    def test_rejects_non_finite_gradient(self):
        opt = AdamOptimizer([np.zeros(2)])
        with pytest.raises(FloatingPointError):
            opt.step([np.array([1.0, math.nan])], lr=0.1)


class TestGradCheck:
    def test_linear_model_is_exact(self):
        x = np.array([1.25, -0.5, 2.0])
        w = np.array([0.3, 0.7, -1.1])
        report = grad_check(lambda: float(w @ x), [w], [x.copy()])
        assert report.max_rel_error < 1e-8

    def test_flags_corrupted_coordinate(self):
        x = np.array([1.25, -0.5, 2.0])
        w = np.array([0.3, 0.7, -1.1])
        bad = x.copy()
        bad[1] += 1.0
        report = grad_check(lambda: float(w @ x), [w], [bad])
        assert not report.passed
        assert (report.worst_param, report.worst_coord) == (0, (1,))
        assert any(coord == (1,) for _, coord, _ in report.failures)

    def test_report_type(self):
        report = grad_check(lambda: 0.0, [np.zeros(1)], [np.zeros(1)])
        assert isinstance(report, GradCheckReport)
        assert report.passed


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        arrays = {
            "layer.w": rng.normal(size=(7, 3)),
            "layer.b": rng.normal(size=7),
        }
        path = tmp_path / "model.npz"
        save_checkpoint(path, arrays, {"step_count": 42, "note": "x"})
        loaded, meta = load_checkpoint(path)
        assert meta["step_count"] == 42
        for name, arr in arrays.items():
            assert loaded[name].dtype == arr.dtype
            assert np.array_equal(loaded[name], arr)
            assert loaded[name].tobytes() == arr.tobytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_reserved_name(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.npz", {"__meta__": np.zeros(1)}, {})
