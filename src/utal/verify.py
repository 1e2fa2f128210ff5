"""The numeric verification suites of `utal verify`; each returns its failure lines."""

from __future__ import annotations

import math

import numpy as np

from utal.losses import (
    CONDITION_MODES,
    _expected_l1_foil,
    binary_loss,
    expected_l1,
    kl_l1_loss,
    l1_loss,
    multiclass_loss,
    sampled_l1_loss,
    select_hard_negatives,
)
from utal.net import DenseLayer, L2NormalizeLayer, ReluLayer
from utal.numerics import Rng, mc_expected_l1

_MC_GRID_D = (-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0)
_MC_GRID_SIGMA = (0.1, 0.5, 1.0, 2.0)
_FD_TOL = 1e-4  # the relative gap a gradient check allows, unless it says otherwise


def verify_expectation(n: int = 1_000_000) -> list[str]:
    """Monte Carlo vs closed-form expectation on the (d, sigma) grid.

    Also requires the deliberately wrong closed form (halved coefficient,
    doubled exponent decay) to fail by more than 10x tolerance somewhere,
    proving the check has teeth.
    """
    failures: list[str] = []
    foil_rejected = False
    rng = Rng(20240)
    for d in _MC_GRID_D:
        for sigma in _MC_GRID_SIGMA:
            mean, stderr = mc_expected_l1(d, sigma, n, rng.split("mc", repr(d), repr(sigma)))
            tol = max(1e-3, 4.0 * stderr)
            value = expected_l1(d, sigma)[0]
            if abs(value - mean) > tol:
                failures.append(
                    f"expectation d={d} sigma={sigma}: analytic {value:.6f} vs MC "
                    f"{mean:.6f} +- {stderr:.2e} (tol {tol:.2e})"
                )
            if abs(_expected_l1_foil(d, sigma) - mean) > 10.0 * tol:
                foil_rejected = True
    if not foil_rejected:
        failures.append("foil closed form was not rejected anywhere on the grid")
    return failures


def _fd(fn, x0: np.ndarray, index=None) -> tuple:
    """Central differences, and the rounding error each can carry: eps * max|f(x +- h)| / h.

    An elementwise `fn` (index None) is shifted in all of x0 at once, a scalar
    one in each coordinate of `index` in turn.
    """
    h = 1e-6
    if index is None:
        up, down = fn(x0 + h), fn(x0 - h)
    else:
        up, down = np.empty(len(index)), np.empty(len(index))
        for k, j in enumerate(index):
            x = x0.copy()
            x[j] = x0[j] + h
            up[k] = fn(x)
            x[j] = x0[j] - h
            down[k] = fn(x)
    return (up - down) / (2.0 * h), np.finfo(float).eps * np.maximum(np.abs(up), np.abs(down)) / h


def verify_gradients(points: int = 100) -> list[str]:
    """Spot-check every loss and layer backward against central differences."""
    failures: list[str] = []
    rng = Rng(977)

    def check(names: list[str], analytic, fn, x0, index=None, bound: float = _FD_TOL) -> None:
        """One failure line per name whose partial `_fd(fn, x0, index)` rejects."""
        numeric, rounding = _fd(fn, x0, index)
        gap = np.abs(analytic - numeric)
        rel = gap / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        # within the rounding bound the difference quotient cannot resolve the gap
        for j in np.flatnonzero(~(gap <= rounding) & ~(rel <= bound)):  # NaN fails
            failures.append(
                f"{names[j]}: analytic {analytic[j]:.10g} vs finite-diff {numeric[j]:.10g}"
            )

    def check_loss(label: str, at, loss, args: tuple, names: tuple, bound: float = _FD_TOL) -> None:
        """Partials of the elementwise `loss(*args)` at the points `at`: output k + 1 is the
        one by args[k], named names[k]; one analytic call, then two shifted calls each."""
        out = loss(*args)
        for k, name in enumerate(names):
            check([f"{label} {name} @{i}" for i in at], out[k + 1],
                  lambda v: loss(*args[:k], v, *args[k + 1:])[0], args[k], bound=bound)

    # each point draws from its own sub-stream; u holds one row per draw
    u = np.array([rng.split("kl", i).uniforms(4) for i in range(points)]).T
    mu, alpha, t = 2.0 * u[0] - 1.0, 2.0 * u[1] - 1.0, 4.0 * u[2] - 2.0
    smooth = (np.abs(np.abs(t - mu) - 1.0) >= 1e-2) & (np.abs(t - mu) >= 1e-2)
    for mode in CONDITION_MODES:
        at = np.flatnonzero(smooth & ((u[3] < 0.5) == (mode == "he")))
        check_loss(f"kl_l1[{mode}]", at, lambda *v: kl_l1_loss(*v, mode),
                   (mu[at], alpha[at], t[at]), ("d_mu", "d_alpha"))

    u = np.array([rng.split("expected", i).uniforms(2) for i in range(points)]).T
    check_loss("expected_l1", range(points), expected_l1,
               (6.0 * u[0] - 3.0, 0.1 + 2.0 * u[1]), ("d_d", "d_sigma"), 1e-5)

    streams = [rng.split("sampled", i) for i in range(points)]
    u = np.array([(*r.uniforms(3), *r.normal(1)) for r in streams]).T
    mu, alpha, t, eps = 2.0 * u[0] - 1.0, 2.0 * u[1] - 1.0, 4.0 * u[2] - 2.0, u[3]
    resid = sampled_l1_loss(mu, alpha, t, eps)[0]
    at = np.flatnonzero(resid >= 1e-2)  # off the kink at t - mu = sigma * eps
    check_loss("sampled_l1", at, sampled_l1_loss,
               (mu[at], alpha[at], t[at], eps[at]), ("d_mu", "d_alpha"))

    batch = 24
    scores_rng = rng.split("batch-losses").split("scores")
    l1_mu, l1_t = [], []
    for i in range(max(1, points // 10)):
        scores = 0.02 + 0.96 * scores_rng.uniforms(batch)
        labels = (scores_rng.uniforms(batch) < 0.3).astype(int)
        mining = select_hard_negatives(scores, labels, 1.0 / 3.0)
        _, d_scores = binary_loss(scores, mining)
        js = [0, batch // 2, batch - 1]
        check([f"binary_loss d_scores[{j}] @{i}" for j in js], d_scores[js],
              lambda v: binary_loss(v, mining)[0], scores, js)

        logits = 2.0 * scores_rng.uniforms(batch * 5).reshape(batch, 5) - 1.0
        classes = np.array([int(scores_rng.randint(5)) for _ in range(batch)])
        pos = np.flatnonzero(labels == 1)
        _, d_logits = multiclass_loss(logits, classes, pos)
        if pos.size:
            j = int(pos[0])
            check([f"multiclass d_logits[{j},{c}] @{i}" for c in range(5)], d_logits[j],
                  lambda v: multiclass_loss(v, classes, pos)[0], logits, [(j, c) for c in range(5)])

        # (start, end) offsets drawn here to keep the batches' draw order
        mu = 2.0 * np.array([scores_rng.uniforms(batch) for _ in range(2)]) - 1.0
        u = np.array([scores_rng.uniforms(batch) for _ in range(2)])
        l1_mu.append(mu.ravel())
        l1_t.append((mu + np.where(u < 0.5, [[0.4], [-0.5]], [[-0.3], [0.2]])).ravel())
    mu = np.concatenate(l1_mu)
    check_loss("l1", range(mu.size), l1_loss, (mu, np.concatenate(l1_t)), ("d_mu",))

    layer_rng = rng.split("layers")
    for i in range(max(1, points // 20)):
        w, b = layer_rng.uniforms(12).reshape(3, 4) - 0.5, layer_rng.uniforms(3) - 0.5
        x, dy = layer_rng.uniforms(4) - 0.5, layer_rng.uniforms(3) - 0.5
        dense = DenseLayer(w, b)
        dense.forward(x[None])  # layers take one-row batches
        idx = [(0, 0), (1, 2), (2, 3)]
        check([f"dense dx[{j}] @{i}" for j in range(4)], dense.backward(dy[None])[0],
              lambda v: float(DenseLayer(w, b).forward(v[None])[0] @ dy), x, range(4))
        check([f"dense dW{j} @{i}" for j in idx], dense.grad_w[tuple(zip(*idx))],
              lambda v: float(DenseLayer(v, b).forward(x[None])[0] @ dy), w, idx)
        for name, make, x, dy in (
            ("l2norm", L2NormalizeLayer, layer_rng.uniforms(5) + 0.2, layer_rng.uniforms(5) - 0.5),
            ("relu", ReluLayer, layer_rng.uniforms(6) - 0.5, layer_rng.uniforms(6) - 0.5),
        ):
            if np.any(np.abs(x) < 1e-2):
                continue  # ReLU's kink; the l2norm inputs are >= 0.2
            layer = make()
            layer.forward(x[None].copy())  # ReLU writes over its input; x stays the FD point
            check([f"{name} dx[{j}] @{i}" for j in range(x.size)], layer.backward(dy[None])[0],
                  lambda v: float(make().forward(v[None])[0] @ dy), x, range(x.size))

    return failures


def verify_kl_minimizer() -> list[str]:
    """The quadratic branch, at fixed |d| > 1, is minimized at sigma = |d|.

    A ternary search over log sigma for each d at once, on the "paper"
    convention, which puts |d| > 1 on the quadratic branch.
    """
    d = np.array([1.5, 2.0, 3.0])
    lo, hi = np.full(d.size, math.log(0.05)), np.full(d.size, math.log(10.0))
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        f1, f2 = kl_l1_loss(0.0, 2.0 * np.array([m1, m2]), d, "paper")[0]
        lo, hi = np.where(f1 < f2, lo, m1), np.where(f1 < f2, m2, hi)
    sigma_star = np.exp(0.5 * (lo + hi))
    return [f"kl quadratic argmin at d={dv}: sigma*={sv:.4f}"
            for dv, sv in zip(d, sigma_star) if not abs(sv - dv) / dv <= 0.01]


def verify_monotonicity() -> list[str]:
    """expected_l1 is strictly increasing in sigma, >= |d|, and -> |d| as sigma -> 0.

    Strictness is only required where the analytic increment is resolvable in
    float64; deep in the tails (|d| >> sigma) the Gaussian term underflows
    and consecutive grid values legitimately tie.
    """
    d_grid = [-3.0, -2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0, 3.0]
    s_grid = [0.05 * (i + 1) for i in range(60)]
    d, s = np.meshgrid(d_grid, s_grid, indexing="ij")
    value, _, d_sigma = expected_l1(d, s)
    prev, cur = value[:, :-1], value[:, 1:]
    resolvable = d_sigma[:, 1:] * np.diff(s) > 64.0 * np.finfo(float).eps * np.maximum(1.0, cur)
    failures = [f"expected_l1 not increasing at d={d_grid[i]}, sigma={s_grid[k + 1]}"
                for i, k in np.argwhere(~(cur >= prev) | (resolvable & (cur <= prev)))]
    failures += [f"expected_l1 below |d| at d={d_grid[i]}, sigma={s_grid[k]}"
                 for i, k in np.argwhere(~(value >= np.abs(d)))]
    gap = expected_l1(np.array(d_grid), 1e-6)[0] - np.abs(d_grid)
    failures += [f"expected_l1 sigma->0 limit violated at d={d_grid[i]}: gap {gap[i]}"
                 for i in np.flatnonzero(~((0.0 <= gap) & (gap <= 1e-5)))]
    return failures


SUITES = {
    "expectation": verify_expectation,
    "gradients": verify_gradients,
    "kl-minimizer": verify_kl_minimizer,
    "monotonicity": verify_monotonicity,
}
