"""Layer forward/backward passes against finite differences; SGD."""

import numpy as np
import pytest

from _oracles import relative_error
from utal.errors import NumericError
from utal.net import (
    _L2_EPS,
    DenseLayer,
    L2NormalizeLayer,
    ReluLayer,
    init_dense,
    sgd_step,
    sigmoid,
    softmax,
)
from utal.numerics import Rng


def _fd(fn, x, index, h=1e-6):
    xp = x.copy()
    xp[index] = x[index] + h
    up = fn(xp)
    xp[index] = x[index] - h
    down = fn(xp)
    return (up - down) / (2.0 * h)


class TestDenseLayer:
    def test_identity_map(self):
        layer = DenseLayer(np.eye(4), np.zeros(4))
        x = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(layer.forward(x[None]), x[None])

    def test_zero_input_returns_bias(self):
        layer = DenseLayer(np.ones((3, 4)), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(layer.forward(np.zeros((1, 4)))[0], layer.biases)

    def test_batch_matches_per_sample(self):
        rng = Rng(0)
        layer = DenseLayer(rng.uniforms(12).reshape(3, 4), rng.uniforms(3))
        xs = rng.uniforms(8).reshape(2, 4)
        batch = layer.forward(xs)
        for i in range(2):
            np.testing.assert_allclose(batch[i], layer.forward(xs[i][None])[0], atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = Rng(42)
        for trial in range(25):
            r = rng.split(trial)
            w = r.uniforms(12).reshape(3, 4) - 0.5
            b = r.uniforms(3) - 0.5
            x = r.uniforms(4) - 0.5
            dy = r.uniforms(3) - 0.5
            layer = DenseLayer(w, b)
            layer.forward(x[None])
            dx = layer.backward(dy[None])[0]

            def loss_w(wv):
                return float(DenseLayer(wv, b).forward(x[None])[0] @ dy)

            def loss_b(bv):
                return float(DenseLayer(w, bv).forward(x[None])[0] @ dy)

            def loss_x(xv):
                return float(DenseLayer(w, b).forward(xv[None])[0] @ dy)

            for idx in np.ndindex(w.shape):
                assert relative_error(layer.grad_w[idx], _fd(loss_w, w, idx)) <= 1e-4
            for j in range(3):
                assert relative_error(layer.grad_b[j], _fd(loss_b, b, (j,))) <= 1e-4
            for j in range(4):
                assert relative_error(dx[j], _fd(loss_x, x, (j,))) <= 1e-4

    def test_computes_in_the_weights_dtype(self):
        rng = Rng(3)
        x, dy = rng.uniforms(8).reshape(2, 4), rng.uniforms(6).reshape(2, 3)
        for dtype in (np.float32, np.float64):
            layer = DenseLayer(np.ones((3, 4), dtype=dtype), np.zeros(3, dtype=dtype))
            assert layer.forward(x.astype(dtype)).dtype == dtype
            dx = layer.backward(dy)  # the float64 loss gradient is cast
            assert dx.dtype == layer.grad_w.dtype == layer.grad_b.dtype == layer.vel_b.dtype == dtype

    def test_one_output_input_gradient_equals_matmul_form(self):
        # with one output dx is an outer product, which backward broadcasts
        rng = Rng(5)
        for dtype in (np.float32, np.float64):
            w = (rng.uniforms(1000) - 0.5).reshape(1, 1000).astype(dtype)
            dy = (rng.uniforms(128) - 0.5).reshape(128, 1)
            dy[::7] = 0.0  # rows no loss term selects
            layer = DenseLayer(w, np.zeros(1, dtype=dtype))
            layer.forward(np.ones((128, 1000)))
            dx = layer.backward(dy)
            assert dx.dtype == dtype
            np.testing.assert_array_equal(dx, dy.astype(dtype) @ w)
            layer.forward(np.ones((1, 1000)))
            np.testing.assert_array_equal(layer.backward(dy[1:2]), dy[1:2].astype(dtype) @ w)

    def test_backward_overwrites_gradients(self):
        """Each backward writes dy^T x and the column sums of dy, whatever
        the buffers held before, so no step needs to zero them first."""
        rng = Rng(8)
        for dtype in (np.float32, np.float64):
            w = (rng.uniforms(15).reshape(3, 5) - 0.5).astype(dtype)
            layer = DenseLayer(w, np.zeros(3, dtype))
            for _ in range(2):
                x = (rng.uniforms(20).reshape(4, 5) - 0.5).astype(dtype)
                dy = (rng.uniforms(12).reshape(4, 3) - 0.5).astype(dtype)
                layer.grad_w[...] = np.nan
                layer.grad_b[...] = np.nan
                layer.forward(x)
                layer.backward(dy)
                np.testing.assert_array_equal(layer.grad_w, dy.T @ x)
                np.testing.assert_array_equal(layer.grad_b, dy.sum(0))


class TestRelu:
    def test_examples(self):
        relu = ReluLayer()
        np.testing.assert_array_equal(
            relu.forward(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0])
        )
        x = np.array([0.5, 1.0, 7.0])
        np.testing.assert_array_equal(ReluLayer().forward(x.copy()), x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_where_form_and_leaves_dy(self, dtype):
        x = np.array([-2.0, -0.0, 0.0, 1e-30, 3.0, -1e-30, 0.5, np.nan, np.nan], dtype=dtype)
        dy = np.array([1.5, -2.0, 7.0, -0.25, -3.0, 4.0, 0.0, -1.0, 2.5], dtype=dtype)
        x_before, dy_before = x.copy(), dy.copy()
        relu = ReluLayer()
        out = relu.forward(x)
        assert out is x and out.dtype == dtype  # written over its input
        np.testing.assert_array_equal(out, np.maximum(x_before, 0.0))
        dx = relu.backward(dy)
        assert dx.dtype == dtype
        np.testing.assert_array_equal(dx, np.where(x_before > 0.0, dy, 0.0))
        np.testing.assert_array_equal(dy, dy_before)

    def test_subgradient_zero_at_zero(self):
        relu = ReluLayer()
        relu.forward(np.array([0.0, -1.0, 1.0]))
        np.testing.assert_array_equal(relu.backward(np.ones(3)), np.array([0.0, 0.0, 1.0]))

    def test_gradient_matches_finite_differences(self):
        rng = Rng(7)
        for trial in range(25):
            r = rng.split(trial)
            x = r.uniforms(6) * 2.0 - 1.0
            if np.any(np.abs(x) < 1e-2):
                continue
            dy = r.uniforms(6) - 0.5
            relu = ReluLayer()
            relu.forward(x.copy())  # it writes over its input; x stays the FD point
            dx = relu.backward(dy)
            for j in range(6):
                fd = _fd(lambda v: float(ReluLayer().forward(v) @ dy), x, (j,))
                assert relative_error(dx[j], fd) <= 1e-4


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(
            L2NormalizeLayer().forward(np.array([[3.0, 4.0]])), np.array([[0.6, 0.8]]), atol=1e-15
        )

    def test_unit_norm_output(self):
        rng = Rng(3)
        for trial in range(20):
            x = rng.uniforms(8) - 0.5
            if np.linalg.norm(x) < 1e-6:
                continue
            assert np.linalg.norm(L2NormalizeLayer().forward(x[None])) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_input_dtype(self, dtype):
        layer = L2NormalizeLayer()
        assert layer.forward(np.array([[3.0, 4.0]], dtype=dtype)).dtype == dtype
        assert layer.backward(np.ones((1, 2), dtype=dtype)).dtype == dtype

    def test_zero_vector_maps_to_zero(self):
        np.testing.assert_array_equal(L2NormalizeLayer().forward(np.zeros((1, 5))), np.zeros((1, 5)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_two_branch_where_form(self, dtype):
        """The main branch for every row, patched where the norm is at or
        below eps, against np.where over both branches; zero rows, rows with
        norm exactly eps, just above and below it, and ordinary rows."""
        eps = dtype(_L2_EPS)
        r = Rng(41)
        x = (r.uniforms(9 * 6) - 0.5).reshape(9, 6).astype(dtype)
        x[1] = 0.0
        x[3] = 0.0
        x[3, 2] = eps  # norm exactly eps
        x[4] = 0.0
        x[4, 0] = -eps  # norm exactly eps, negative entry
        x[5] = 0.0
        x[5, 1] = np.nextafter(eps, dtype(1.0))  # just above eps
        x[6] = 0.0
        x[6, 5] = np.nextafter(eps, dtype(0.0))  # just below eps
        x[7] *= dtype(1e-13)  # a small row of several entries
        dy = (r.uniforms(9 * 6) - 0.5).reshape(9, 6).astype(dtype)
        layer = L2NormalizeLayer()
        y = layer.forward(x)
        norm = layer._norm
        assert norm[3, 0] == norm[4, 0] == eps and norm[5, 0] > eps > norm[6, 0]
        proj = np.sum(y * dy, axis=1, keepdims=True)
        want = np.where(norm > _L2_EPS, (dy - y * proj) / np.maximum(norm, _L2_EPS), dy / _L2_EPS)
        dx = layer.backward(dy)
        assert dx.dtype == want.dtype == dtype
        np.testing.assert_array_equal(dx, want)
        for row in (0, 3):  # one-row batches, normalized and at eps
            layer.forward(x[row][None])
            np.testing.assert_array_equal(layer.backward(dy[row][None]), want[row][None])

    def test_gradient_matches_finite_differences(self):
        rng = Rng(12)
        for trial in range(25):
            r = rng.split(trial)
            x = r.uniforms(5) + 0.2
            dy = r.uniforms(5) - 0.5
            layer = L2NormalizeLayer()
            layer.forward(x[None])
            dx = layer.backward(dy[None])[0]
            for j in range(5):
                fd = _fd(lambda v: float(L2NormalizeLayer().forward(v[None])[0] @ dy), x, (j,))
                assert relative_error(dx[j], fd) <= 1e-4


class TestSoftmaxSigmoid:
    def test_uniform_logits(self):
        out = softmax(np.zeros(20))
        np.testing.assert_allclose(out, np.full(20, 0.05), atol=1e-12)

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 2.0, 0.0])
        np.testing.assert_allclose(softmax(z), softmax(z + 123.4), atol=1e-12)

    def test_hand_value(self):
        out = softmax(np.array([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out, np.array([0.25, 0.75]), atol=1e-12)

    def test_sums_to_one(self):
        rng = Rng(5)
        for _ in range(20):
            z = 10.0 * (rng.uniforms(7) - 0.5)
            out = softmax(z)
            assert np.all(out > 0)
            assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_sigmoid_stable_extremes(self):
        assert sigmoid(np.array([800.0]))[0] == pytest.approx(1.0)
        assert sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0)
        assert sigmoid(np.array([0.0]))[0] == 0.5


class TestSgd:
    def _scalar_layer(self, w0):
        return DenseLayer(np.array([[w0]]), np.zeros(1), name="w")

    def test_zero_gradient_leaves_params(self):
        layer = self._scalar_layer(1.0)
        sgd_step([layer], lr=0.1, momentum=0.0)
        assert layer.weights[0, 0] == 1.0

    def test_hand_step_on_quadratic(self):
        layer = self._scalar_layer(1.0)
        layer.grad_w[0, 0] = 2.0 * layer.weights[0, 0]  # f(w) = w^2
        sgd_step([layer], lr=0.1, momentum=0.0)
        assert layer.weights[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_quadratic_converges(self):
        layer = self._scalar_layer(1.0)
        for _ in range(200):
            layer.grad_w[0, 0] = 2.0 * layer.weights[0, 0]
            sgd_step([layer], lr=0.1, momentum=0.0)
        assert abs(layer.weights[0, 0]) < 1e-6

    def test_momentum_recurrence(self):
        layer = self._scalar_layer(1.0)
        w, v = 1.0, 0.0
        for _ in range(10):
            layer.grad_w[0, 0] = 2.0 * layer.weights[0, 0]
            sgd_step([layer], lr=0.05, momentum=0.9)
            v = 0.9 * v + 2.0 * w
            w = w - 0.05 * v
            assert layer.weights[0, 0] == pytest.approx(w, rel=1e-12)

    def test_non_finite_gradient_aborts_with_block_name(self):
        layer = self._scalar_layer(1.0)
        layer.grad_w[0, 0] = np.nan
        with pytest.raises(NumericError, match="w.weights"):
            sgd_step([layer], lr=0.1)

    def test_non_finite_gradient_moves_nothing(self):
        """NaN in the last layer's bias gradient: every block of every layer,
        parameters and velocities, stays byte-identical."""
        r = Rng(21)
        layers = [init_dense(r.split(i), 4, 3, name=f"l{i}") for i in range(3)]
        for layer in layers:
            for block in (layer.grad_w, layer.grad_b, layer.vel_w, layer.vel_b):
                block[...] = r.uniforms(block.size).reshape(block.shape) - 0.5
        layers[-1].grad_b[-1] = np.nan
        before = [
            [block.tobytes() for block in (lay.weights, lay.biases, lay.vel_w, lay.vel_b)]
            for lay in layers
        ]
        with pytest.raises(NumericError, match="l2.biases"):
            sgd_step(layers, lr=0.1, momentum=0.9)
        after = [
            [block.tobytes() for block in (lay.weights, lay.biases, lay.vel_w, lay.vel_b)]
            for lay in layers
        ]
        assert after == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_equals_textbook_form(self, dtype):
        r = Rng(22)
        layer = DenseLayer(np.zeros((5, 7), dtype), np.zeros(5, dtype), name="w")
        w, b = layer.weights.copy(), layer.biases.copy()
        vw, vb = layer.vel_w.copy(), layer.vel_b.copy()
        for step in range(4):
            gw = (r.uniforms(35).reshape(5, 7) - 0.5).astype(dtype)
            gb = (r.uniforms(5) - 0.5).astype(dtype)
            layer.grad_w[...] = gw
            layer.grad_b[...] = gb
            sgd_step([layer], lr=0.003, momentum=0.9)
            vw, vb = 0.9 * vw + gw, 0.9 * vb + gb
            w, b = w - 0.003 * vw, b - 0.003 * vb
            for got, want in ((layer.weights, w), (layer.biases, b), (layer.vel_w, vw)):
                assert got.dtype == want.dtype == dtype
                np.testing.assert_array_equal(got, want)


class TestComposition:
    def test_two_layer_input_gradient(self):
        rng = Rng(100)
        l1 = init_dense(rng.split("a"), 6, 5)
        l2 = init_dense(rng.split("b"), 2, 6)
        relu = ReluLayer()
        x = rng.uniforms(5) + 0.1
        dy = rng.uniforms(2) - 0.5

        def net(xv):
            return float(l2.forward(relu.forward(l1.forward(xv[None])))[0] @ dy)

        net(x)
        dh = l2.backward(dy[None])
        dx = l1.backward(relu.backward(dh))[0]
        for j in range(5):
            assert relative_error(dx[j], _fd(net, x, (j,))) <= 1e-4


class TestInit:
    def test_deterministic(self):
        a = init_dense(Rng(9).split("x"), 8, 3)
        b = init_dense(Rng(9).split("x"), 8, 3)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_bound_and_zero_bias(self):
        layer = init_dense(Rng(1), 50, 30)
        bound = np.sqrt(6.0 / 80.0)
        assert np.all(np.abs(layer.weights) <= bound)
        assert not layer.biases.any()

