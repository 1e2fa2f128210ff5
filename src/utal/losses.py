"""Training objectives: binary actioness, multi-class, and boundary regression.

Every loss returns its analytic gradient with respect to the network outputs
it consumes; the gradients are exact (checked against central finite
differences in the test suite).  The four boundary regression losses are
elementwise: each boundary offset is given by its mean mu and, in the
uncertainty-aware losses, its log-variance alpha = log(sigma^2), which keeps
sigma^2 positive and the alpha-gradients bounded.  mu, alpha, the target t and
the sampled loss's eps may be floats or arrays of one shape, and the results
take that shape (numpy float64 scalars for floats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from utal.numerics import _log

ALPHA_CLAMP = 10.0

_SCORE_EPS = 1e-7
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

CONDITION_MODES = ("he", "paper")


# libm's exp and erf, elementwise: numpy has no erf, and np.exp differs from
# libm in the last bit on a few percent of inputs, which would move the values
# `utal curves` writes and the trained weights
_exp = np.vectorize(math.exp, otypes=[float])
_erf = np.vectorize(math.erf, otypes=[float])


@dataclass
class MiningResult:
    """Index sets produced by hard-negative mining."""

    positive_indices: np.ndarray
    negative_indices: np.ndarray


def select_hard_negatives(
    scores: np.ndarray, labels: np.ndarray, mining_ratio: float
) -> MiningResult:
    """Keep all positives and the floor(|positives|/ratio) hardest negatives.

    Takes arrays; labels are 1 positive and 0 negative, or a boolean positive
    mask.  Hardest means highest actioness score; ties break toward the smaller
    sample index.  A batch without positives yields an empty negative set.
    """
    positives = np.flatnonzero(labels == 1)
    negatives = np.flatnonzero(labels == 0)
    if positives.size == 0:
        return MiningResult(positives, negatives[:0])
    quota = min(int(math.floor(positives.size / mining_ratio)), negatives.size)
    order = np.argsort(-scores[negatives], kind="stable")
    return MiningResult(positives, np.sort(negatives[order[:quota]]))


def binary_loss(scores: np.ndarray, mining: MiningResult) -> tuple[float, np.ndarray]:
    """Balanced binary cross entropy over mined indices.

    loss = -(sum_pos log p + sum_neg log(1-p)) / (|pos| + |neg|); the
    gradient is nonzero only on mined indices.  Takes a float64 score array;
    scores are clamped away from exactly 0/1 before the log.
    """
    d_scores = np.zeros_like(scores)
    pos = mining.positive_indices
    neg = mining.negative_indices
    n = pos.size + neg.size
    if n == 0:
        return 0.0, d_scores
    p_pos = np.clip(scores[pos], _SCORE_EPS, 1.0 - _SCORE_EPS)
    p_neg = np.clip(scores[neg], _SCORE_EPS, 1.0 - _SCORE_EPS)
    loss = -(np.log(p_pos).sum() + np.log1p(-p_neg).sum()) / n
    d_scores[pos] = -1.0 / (p_pos * n)
    d_scores[neg] = 1.0 / ((1.0 - p_neg) * n)
    return float(loss), d_scores


def multiclass_loss(
    logits: np.ndarray, labels: np.ndarray, positive_indices: np.ndarray
) -> tuple[float, np.ndarray]:
    """Softmax cross entropy averaged over the positive rows.

    Takes arrays: float64 logits, integer labels and indices.  Gradient is
    (softmax - onehot)/|positives| on positive rows, zero elsewhere.  Empty
    positive set contributes nothing.
    """
    d_logits = np.zeros_like(logits)
    pos = positive_indices
    if pos.size == 0:
        return 0.0, d_logits
    rows = logits[pos]
    shifted = rows - rows.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_z = np.log(total[:, 0])
    labels_pos = labels[pos]
    picked = shifted[np.arange(pos.size), labels_pos]
    loss = float(np.mean(log_z - picked))
    probs = exp / total
    probs[np.arange(pos.size), labels_pos] -= 1.0
    d_logits[pos] = probs / pos.size
    return loss, d_logits


def l1_loss(mu, t) -> tuple:
    """Plain l1 boundary regression |t - mu|, elementwise; returns (loss, d_loss/d_mu)."""
    d = t - mu
    return np.abs(d), -np.sign(d)


def kl_l1_loss(mu, alpha, t, condition_mode: str = "he") -> tuple:
    """Piecewise Gaussian-vs-Dirac regression loss, elementwise over offsets.

    With d = t - mu and sigma^2 = exp(alpha):

      quadratic branch: d^2/(2 sigma^2) + alpha/2 + log(2 pi)/2
      linear branch:    (|d| - 1/2)/sigma^2 + alpha/2

    `condition_mode` selects which branch covers |d| <= 1: "he" (default,
    the one training uses) applies the quadratic branch there, mirroring
    smooth-l1 semantics; "paper" swaps the two regions.  Returns (loss,
    d_loss/d_mu, d_loss/d_alpha).
    """
    d = t - mu
    inv_var = _exp(-alpha)
    quadratic = (np.abs(d) <= 1.0) == (condition_mode == "he")
    excess = np.abs(d) - 0.5
    loss = np.where(
        quadratic,
        0.5 * d * d * inv_var + 0.5 * alpha + _HALF_LOG_2PI,
        excess * inv_var + 0.5 * alpha,
    )
    d_mu = np.where(quadratic, -d * inv_var, -np.sign(d) * inv_var)
    d_alpha = np.where(quadratic, -0.5 * d * d * inv_var + 0.5, -excess * inv_var + 0.5)
    return loss[()], d_mu[()], d_alpha[()]


def sampled_l1_loss(mu, alpha, t, eps) -> tuple:
    """|d - sigma*eps| at a draw eps ~ N(0,1) (reparameterization trick).

    eps has the shape of the offsets and is drawn by the caller.  Sampling
    happens outside the gradient path: loss = |t - mu - sigma*eps|, so
    d_mu = -sign(d - sigma*eps) and d_alpha = -sigma*eps*sign(...)/2.
    Returns (loss, d_mu, d_alpha).
    """
    sigma = _exp(0.5 * alpha)
    r = t - mu - sigma * eps
    s = np.sign(r)
    return np.abs(r), -s, -0.5 * sigma * eps * s


def expected_l1(d, sigma) -> tuple:
    """Closed-form E|d - sigma*eps| for eps ~ N(0,1), sigma > 0, with exact partials.

    d - sigma*eps is Gaussian with mean d and std sigma, so the expectation
    is the folded-normal mean

        d * erf(d / (sigma*sqrt(2))) + sigma * sqrt(2/pi) * exp(-d^2/(2 sigma^2))

    (the Monte Carlo suite of `utal verify` pins this form down; see also the
    foil below).  Partials: dE/dd = erf(d/(sigma*sqrt(2))) and
    dE/dsigma = sqrt(2/pi) * exp(-d^2/(2 sigma^2)), both strictly positive in
    sigma, so the value is >= |d| and increasing in sigma.
    """
    gauss = _exp(-(d * d) / (2.0 * sigma * sigma))
    d_d = _erf(d / (sigma * math.sqrt(2.0)))
    value = d * d_d + sigma * _SQRT_2_OVER_PI * gauss
    return value, d_d[()], _SQRT_2_OVER_PI * gauss


def _expected_l1_foil(d: float, sigma: float) -> float:
    """Deliberately wrong closed form kept as a sensitivity foil.

    Halves the Gaussian coefficient and doubles the exponent decay relative
    to the correct folded-normal mean; the Monte Carlo verification must
    reject it, which proves the check can actually detect a bad formula.
    """
    z = d / (sigma * math.sqrt(2.0))
    return d * math.erf(z) + sigma * math.exp(-(d * d) / (sigma * sigma)) / math.sqrt(2.0 * math.pi)


def expected_l1_training(mu, alpha, t) -> tuple:
    """Expected-l1 as a training loss on (mu, alpha), via the chain rule."""
    sigma = _exp(0.5 * alpha)
    value, d_d, d_sigma = expected_l1(t - mu, sigma)
    return value, -d_d, 0.5 * sigma * d_sigma


def loss_surfaces(d_grid, sigma_grid) -> list[tuple]:
    """(loss_name, d, sigma, value) rows over the full grid, for both branch
    conventions of the KL regression loss plus the expected-l1 loss."""
    d, s = np.array(np.meshgrid(d_grid, sigma_grid, indexing="ij"), dtype=float).reshape(2, -1)
    alpha = 2.0 * _log(s)
    surfaces = {
        "kl_l1_he": kl_l1_loss(0.0, alpha, d, "he")[0],
        "kl_l1_paper": kl_l1_loss(0.0, alpha, d, "paper")[0],
        "expected_l1": expected_l1(d, s)[0],
    }
    return [(name, *row) for name, values in surfaces.items()
            for row in zip(d.tolist(), s.tolist(), values.tolist())]
