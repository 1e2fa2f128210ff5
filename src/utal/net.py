"""Dense-network building blocks with hand-derived backward passes.

No autodiff: every layer caches what its forward pass saw and its backward
pass returns the gradient with respect to that input.  Unchecked
preconditions: dense and l2-normalize layers take a [batch x dim] matrix of
their width (one row is x[None]), a layer takes arrays of its own dtype, and a
dense layer's weights and biases share one float dtype; ReLU overwrites the
array it is given, and a backward follows its layer's forward.  A dense
layer's backward casts dy to its dtype and overwrites `grad_w` and `grad_b`
with the batch's parameter gradients for `sgd_step`.
"""

from __future__ import annotations

import numpy as np

from utal.errors import NumericError
from utal.numerics import Rng

_L2_EPS = 1e-12


class DenseLayer:
    """y = W x + b on float arrays of one dtype, with cached input for the backward pass."""

    def __init__(self, weights: np.ndarray, biases: np.ndarray, name: str = "dense"):
        self.name = name
        self.weights = weights
        self.biases = biases
        self.grad_w = np.zeros_like(weights)
        self.grad_b = np.zeros_like(biases)
        self.vel_w = np.zeros_like(weights)
        self.vel_b = np.zeros_like(biases)
        self._x: np.ndarray | None = None

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        y = x @ self.weights.T
        y += self.biases
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dyb = np.asarray(dy, dtype=self.weights.dtype)
        np.matmul(dyb.T, self._x, out=self.grad_w)
        np.sum(dyb, axis=0, out=self.grad_b)
        return dyb * self.weights if self.out_dim == 1 else dyb @ self.weights  # outer product


class ReluLayer:
    """Elementwise max(0, x) on a float array, written over x; subgradient at 0 is 0."""

    def __init__(self):
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.maximum(x, 0.0, out=x)
        return self._y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * (self._y > 0.0)  # y > 0 exactly where x > 0, NaN and -0.0 included


class L2NormalizeLayer:
    """y = x / max(||x||_2, eps) on a float array, rows normalized independently.

    Backward applies the full Jacobian (I - y y^T)/||x||; inputs with norm
    below eps map to x/eps (plain scaling), which keeps zero vectors at zero.
    """

    def __init__(self):
        self._y: np.ndarray | None = None
        self._norm: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._norm = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))  # np.linalg.norm's sum
        self._y = x / np.maximum(self._norm, _L2_EPS)
        return self._y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx = dy - self._y * np.sum(self._y * dy, axis=1, keepdims=True)
        dx /= np.maximum(self._norm, _L2_EPS)
        small = ~(self._norm[:, 0] > _L2_EPS)  # norm <= eps: plain scaling instead
        dx[small] = dy[small] / _L2_EPS
        return dx


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax of a float64 array along its last axis; sums to 1 within 1e-9."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def init_dense(rng: Rng, out_dim: int, in_dim: int, name: str = "dense") -> DenseLayer:
    """Uniform(+-sqrt(6/(in+out))) weights rounded once to float32, zero biases, seeded draws."""
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    w = ((rng.uniforms(out_dim * in_dim) * 2.0 - 1.0) * bound).astype(np.float32)
    return DenseLayer(w.reshape(out_dim, in_dim), np.zeros(out_dim, np.float32), name=name)


def sgd_step(layers: list[DenseLayer], lr: float, momentum: float = 0.0) -> None:
    """v <- momentum*v + grad; p <- p - lr*v, per parameter block, in place.

    Aborts with a diagnostic naming the offending block, before any parameter
    or velocity moves, if any gradient is non-finite.  Each gradient buffer
    is spent by the step: it ends up holding lr*v, the step subtracted.
    """
    for layer in layers:
        for block, grad in (("weights", layer.grad_w), ("biases", layer.grad_b)):
            if not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite gradient in {layer.name}.{block}")
    for layer in layers:
        for param, grad, vel in (
            (layer.weights, layer.grad_w, layer.vel_w),
            (layer.biases, layer.grad_b, layer.vel_b),
        ):
            vel *= momentum
            vel += grad
            param -= np.multiply(vel, lr, out=grad)

