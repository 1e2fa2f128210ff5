"""The single-stage network and its training loop.

Pooled proposal feature -> l2-normalize -> FC(hidden)+ReLU -> two branches:
a scalar actioness logit (sigmoid), and a per-class block holding the class
logit plus the boundary-offset parameters.  In uncertainty mode each class
row carries (mu_s, alpha_s, mu_e, alpha_e); in baseline mode just
(mu_s, mu_e).  All backward passes are hand-derived; regression gradients
flow only through the ground-truth class row.  The layers are built in float32,
which `forward_batch` casts its input to; outputs and losses are float64.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from utal.data import Dataset, ProposalConfig, TrainingSet, build_training_set, read_input
from utal.errors import ConfigError, NumericError
from utal.losses import (
    ALPHA_CLAMP,
    binary_loss,
    expected_l1_training,
    kl_l1_loss,
    l1_loss,
    multiclass_loss,
    sampled_l1_loss,
    select_hard_negatives,
)
from utal.net import (
    DenseLayer,
    L2NormalizeLayer,
    ReluLayer,
    init_dense,
    sgd_step,
    sigmoid,
)
from utal.numerics import Rng, _exp

LOSS_MODES = ("l1", "kl_l1", "sampled_l1", "expected_l1")

# The first FC layer sees an l2-normalized input (norm 1 spread over k*d_feat
# dims), which would leave hidden activations ~25x too small under the plain
# fan-based init; the gain is folded into the init, like the scale that
# customarily follows an l2-normalization layer.
FC1_INIT_GAIN = 8.0

# Initial log-variance of the offset heads.  sigma_0 = e^{-1} ~ 0.37 matches
# the scale of the normalized offset targets; starting at sigma_0 = 1 makes
# the sampled loss feed sign-noise into mu for many epochs.
ALPHA_BIAS_INIT = -2.0

# a class's head row without and with uncertainty: its logit, then mu (and alpha) per boundary
_HEAD_COLS = (3, 5)
_MU_COLS = ((1, 2), (1, 3))  # a row's (start, end) mu columns, without and with uncertainty
_ALPHA_COLS = (2, 4)  # its (start, end) alpha columns, with uncertainty
_PARTS = ("weights", "biases")  # a dense layer's arrays in a checkpoint
CHECKPOINT_MAGIC = b"UTAL1"


@dataclass
class TrainConfig:
    loss_mode: str = "sampled_l1"
    mining_ratio: float = 1.0 / 3.0  # positives : mined negatives
    batch_size: int = 128
    lr: float = 1e-3
    momentum: float = 0.9
    epochs: int = 30
    seed: int = 7
    k: int = 4
    hidden: int = 1000

    def validate(self) -> None:
        for f in fields(self):  # a float field takes an int too; no field takes a bool
            value, kind = getattr(self, f.name), type(f.default)
            kinds = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"{f.name} must be {kind.__name__}, got {value!r}")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"loss_mode must be one of {LOSS_MODES}")
        # exact int-float comparisons: nan, inf and an int too large for a float fail them
        if not 0 < self.mining_ratio <= sys.float_info.max:
            raise ConfigError("mining_ratio must be positive and finite")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not 0 <= self.lr <= sys.float_info.max:
            raise ConfigError("lr must be nonnegative and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.k < 1 or self.hidden < 1:
            raise ConfigError("k and hidden must be at least 1")


@dataclass
class BatchForward:
    """Outputs of one batched forward pass, cached for the backward pass."""

    y_a: np.ndarray  # [B] sigmoid scores
    logits: np.ndarray  # [B x C]
    mu: np.ndarray  # [B x C x 2] (start, end)
    alpha: np.ndarray | None  # [B x C x 2], clamped; None in baseline mode
    alpha_pass: np.ndarray | None  # gradient gate: True where not clamped


@dataclass
class EpochStats:
    epoch: int
    loss_bin: float
    loss_cls: float
    loss_reg: float
    mean_sigma_pos: float | None
    mean_sigma_hardneg: float | None


class Model:
    """The network on its three dense layers, fc1 [hidden x k*d_feat], actioness
    [1 x hidden] and head [C*(5 or 3) x hidden]; hidden, d_feat and C are their shapes."""

    def __init__(
        self, fc1: DenseLayer, fc_act: DenseLayer, fc_head: DenseLayer, k: int, uncertainty: bool
    ):
        self.fc1, self.fc_act, self.fc_head = fc1, fc_act, fc_head
        self.k = k
        self.uncertainty = uncertainty
        self.head_cols = _HEAD_COLS[uncertainty]
        self.d_feat = fc1.weights.shape[1] // k
        self.num_classes = fc_head.out_dim // self.head_cols
        self.norm = L2NormalizeLayer()
        self.relu = ReluLayer()

    @property
    def dense_layers(self) -> list[DenseLayer]:
        return [self.fc1, self.fc_act, self.fc_head]

    def forward_batch(self, x: np.ndarray) -> BatchForward:
        """Network forward on a [B x k*d_feat] batch in the layers' dtype; every
        output is float64."""
        x = np.asarray(x, dtype=self.fc1.weights.dtype)
        h = self.relu.forward(self.fc1.forward(self.norm.forward(x)))
        y_a = sigmoid(self.fc_act.forward(h)[:, 0])
        block = self.fc_head.forward(h).astype(np.float64)
        block = block.reshape(-1, self.num_classes, self.head_cols)
        mu = block[:, :, _MU_COLS[self.uncertainty]]
        alpha, alpha_pass = None, None
        if self.uncertainty:
            alpha_raw = block[:, :, _ALPHA_COLS]
            alpha = np.clip(alpha_raw, -ALPHA_CLAMP, ALPHA_CLAMP)
            alpha_pass = np.abs(alpha_raw) <= ALPHA_CLAMP
        return BatchForward(y_a, block[:, :, 0], mu, alpha, alpha_pass)

    def backward_batch(
        self,
        fwd: BatchForward,
        d_za: np.ndarray,
        d_logits: np.ndarray,
        d_mu: np.ndarray,
        d_alpha: np.ndarray | None,
    ) -> np.ndarray:
        """Backward through the network; returns the gradient w.r.t. the input.

        Each dense layer's `grad_w`/`grad_b` ends up holding this batch's
        parameter gradients, overwriting the previous batch's.
        """
        batch = d_za.shape[0]
        d_block = np.zeros((batch, self.num_classes, self.head_cols))
        d_block[:, :, 0] = d_logits
        d_block[:, :, _MU_COLS[self.uncertainty]] = d_mu
        if self.uncertainty:
            d_block[:, :, _ALPHA_COLS] = d_alpha * fwd.alpha_pass
        dh_head = self.fc_head.backward(d_block.reshape(batch, -1))
        dh_head += self.fc_act.backward(d_za[:, None])
        dx = self.fc1.backward(self.relu.backward(dh_head))
        return self.norm.backward(dx)


def init_model(cfg: TrainConfig, d_feat: int, num_classes: int, seed: int) -> Model:
    uncertainty = cfg.loss_mode != "l1"
    head_cols = _HEAD_COLS[uncertainty]
    rng = Rng(seed).split("model-init")
    fc1 = init_dense(rng.split("fc1"), cfg.hidden, cfg.k * d_feat, name="fc1")
    fc1.weights *= FC1_INIT_GAIN  # a power of two: exact in float32
    fc_act = init_dense(rng.split("actioness"), 1, cfg.hidden, name="actioness")
    fc_head = init_dense(rng.split("head"), num_classes * head_cols, cfg.hidden, name="head")
    if uncertainty:
        fc_head.biases.reshape(num_classes, head_cols)[:, _ALPHA_COLS] = ALPHA_BIAS_INIT
    return Model(fc1, fc_act, fc_head, cfg.k, uncertainty)


def _regression_terms(
    cfg: TrainConfig,
    fwd: BatchForward,
    pos: np.ndarray,
    t_c: np.ndarray,
    t_off: np.ndarray,
    eps_rng: Rng,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Regression loss over positives plus gradients on (mu, alpha).

    Per-sample losses attach to start and end independently and are averaged
    over both boundaries and all positives; only the ground-truth class row
    receives gradient; `t_off` is [B x 2] (start, end), and only sampled_l1 draws `eps_rng`.
    """
    d_mu = np.zeros_like(fwd.mu)
    d_alpha = None if fwd.alpha is None else np.zeros_like(fwd.alpha)
    if pos.size == 0:
        return 0.0, d_mu, d_alpha

    classes = t_c[pos]
    mu, target = fwd.mu[pos, classes], t_off[pos]  # [P x 2] (start, end)
    if cfg.loss_mode == "l1":
        values, g_mu = l1_loss(mu, target)
        scale = 1.0 / pos.size
        loss = float(values.sum(axis=1).mean())  # mean over positives of |r_s| + |r_e|
    else:
        alpha = fwd.alpha[pos, classes]
        if cfg.loss_mode == "kl_l1":
            values, g_mu, g_alpha = kl_l1_loss(mu, alpha, target)
        elif cfg.loss_mode == "sampled_l1":
            eps = eps_rng.normal(mu.size).reshape(mu.shape)  # one per offset, in C order
            values, g_mu, g_alpha = sampled_l1_loss(mu, alpha, target, eps)
        else:  # expected_l1
            values, g_mu, g_alpha = expected_l1_training(mu, alpha, target)
        scale = 1.0 / (2.0 * pos.size)
        # a running total in C order (positive, then start/end), not np.sum's pairwise one
        loss = float(np.cumsum(values * scale)[-1])
        d_alpha[pos, classes] = g_alpha * scale
    d_mu[pos, classes] = g_mu * scale
    return loss, d_mu, d_alpha


def train(
    model: Model,
    dataset: Dataset,
    cfg: TrainConfig,
    prop_cfg: ProposalConfig,
    training_set: TrainingSet | None = None,
) -> tuple[Model, list[EpochStats]]:
    """Mini-batch SGD over the labeled proposals of `dataset`.

    Deterministic given (seed, config, dataset): shuffling, mining, and the
    sampled-loss epsilon draws all come from sub-streams of cfg.seed.
    """
    if training_set is None:
        training_set = build_training_set(dataset, prop_cfg, cfg.k)
    if not (training_set.t_c >= 0).any():
        raise ConfigError(
            "training set has no positive proposals "
            f"(pos_thr={prop_cfg.pos_thr}, neg_thr={prop_cfg.neg_thr})"
        )

    x_all, t_c, t_off = training_set.x, training_set.t_c, training_set.t_off
    n = len(training_set)

    root = Rng(cfg.seed)
    curve: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        order = root.split("shuffle", epoch).permutation(n)
        sums = np.zeros(3)
        batches = 0
        sigma_pos: list[float] = []
        sigma_neg: list[float] = []
        for batch_index, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = order[lo : lo + cfg.batch_size]
            fwd = model.forward_batch(x_all[idx])
            mining = select_hard_negatives(fwd.y_a, t_c[idx] >= 0, cfg.mining_ratio)
            pos = mining.positive_indices

            loss_bin, d_scores = binary_loss(fwd.y_a, mining)
            d_za = d_scores * fwd.y_a * (1.0 - fwd.y_a)
            loss_cls, d_logits = multiclass_loss(fwd.logits, t_c[idx], pos)

            eps_rng = root.split("epsilon", epoch, batch_index)  # pure: no other stream moves
            loss_reg, d_mu, d_alpha = _regression_terms(
                cfg, fwd, pos, t_c[idx], t_off[idx], eps_rng
            )

            if not math.isfinite(loss_bin + loss_cls + loss_reg):
                raise NumericError(
                    f"non-finite total loss at epoch {epoch} batch {batch_index}"
                )

            model.backward_batch(fwd, d_za, d_logits, d_mu, d_alpha)
            if cfg.lr > 0:
                sgd_step(model.dense_layers, cfg.lr, cfg.momentum)

            sums += (loss_bin, loss_cls, loss_reg)
            batches += 1
            if model.uncertainty:  # sigma of positives' classes and hard negatives' top classes
                neg = mining.negative_indices
                classes, hard_cls = t_c[idx][pos], fwd.logits[neg].argmax(axis=1)
                sigma_pos += np.exp(0.5 * fwd.alpha[pos, classes]).ravel().tolist()
                sigma_neg += np.exp(0.5 * fwd.alpha[neg, hard_cls]).ravel().tolist()

        curve.append(
            EpochStats(
                epoch=epoch,
                loss_bin=float(sums[0] / batches),
                loss_cls=float(sums[1] / batches),
                loss_reg=float(sums[2] / batches),
                mean_sigma_pos=float(np.mean(sigma_pos)) if sigma_pos else None,
                mean_sigma_hardneg=float(np.mean(sigma_neg)) if sigma_neg else None,
            )
        )
    return model, curve


def collect_offset_stats(
    model: Model, training_set: TrainingSet
) -> tuple[np.ndarray, np.ndarray | None]:
    """Forward all positives once; return d = t - mu and sigma, each [P x 2].

    Columns are (start, end), rows the positives in training-set order;
    sigma is None in baseline mode.
    """
    positives = np.flatnonzero(training_set.t_c >= 0)
    batch_size = 512  # positives per forward pass
    d = np.empty((positives.size, 2))
    alpha = np.empty((positives.size, 2)) if model.uncertainty else None
    for lo in range(0, positives.size, batch_size):
        rows = positives[lo : lo + batch_size]
        fwd = model.forward_batch(training_set.x[rows])
        chunk, classes = np.arange(rows.size), training_set.t_c[rows]
        d[lo : lo + rows.size] = training_set.t_off[rows] - fwd.mu[chunk, classes]
        if alpha is not None:
            alpha[lo : lo + rows.size] = fwd.alpha[chunk, classes]
    return d, None if alpha is None else _exp(0.5 * alpha)


def encode_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    """Named float arrays in the versioned "UTAL1" format.

    Layout: magic, uint32 entry count, then per entry a uint16 name length,
    the UTF-8 name, uint8 ndim, uint32 dims, and the row-major payload as
    little-endian float32.
    """
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype="<f4")
        parts += [struct.pack("<H", len(encoded)), encoded,
                  struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()]
    return b"".join(parts)


def decode_arrays(data: bytes, source) -> dict[str, np.ndarray]:
    """Parse the bytes of a "UTAL1" file into float32 arrays.

    A truncated or corrupt file, a non-finite value or bytes after the last
    entry raise ConfigError naming `source`.
    """
    fh = io.BytesIO(data)
    try:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(
                f"{source}: bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}"
            )
        (count,) = struct.unpack("<I", fh.read(4))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", fh.read(1))
            shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
            n_bytes = 4 * math.prod(shape)  # a corrupt dim can ask for more than the file holds
            if n_bytes > len(data) - fh.tell():
                raise ConfigError(f"{source}: truncated checkpoint payload for entry {name!r}")
            payload = fh.read(n_bytes)
            arrays[name] = np.frombuffer(payload, "<f4").astype(np.float32).reshape(shape)
            if not np.isfinite(arrays[name]).all():
                raise ConfigError(f"{source}: non-finite value in entry {name!r}")
        if fh.read(1):
            raise ConfigError(f"{source}: bytes after the last entry")
        return arrays
    except (struct.error, UnicodeDecodeError) as exc:
        raise ConfigError(f"truncated or corrupt checkpoint {source}: {exc}") from exc


def save_checkpoint(model: Model, path: str | Path, cfg: TrainConfig) -> Path:
    """Binary weights of the three dense layers plus a JSON sidecar holding the
    train config and the weights' SHA-256.

    Both go to temporaries beside them and are renamed into place, so a
    failed write leaves the previous checkpoint whole.
    """
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    weights = encode_arrays({f"{lay.name}.{part}": getattr(lay, part)
                             for lay in model.dense_layers for part in _PARTS})
    sidecar = {"train_config": asdict(cfg), "weights_sha256": hashlib.sha256(weights).hexdigest()}
    temps = [p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in (path, sidecar_path)]
    try:
        temps[0].write_bytes(weights)
        temps[1].write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        os.replace(temps[0], path)
        os.replace(temps[1], sidecar_path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
    return path


def load_checkpoint(path: str | Path) -> tuple[Model, TrainConfig]:
    """Build a model on the arrays save_checkpoint wrote, as the sidecar's train
    config reads them; other top-level sidecar keys are ignored.

    Any unreadable, truncated or mismatched file, a sidecar or train config that
    lacks a key, a train config that fails TrainConfig.validate, a missing, extra
    or misshapen array, or weights unlike the SHA-256 the sidecar records, raises
    ConfigError naming the file.
    """
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    try:
        sidecar = json.loads(read_input(sidecar_path, "checkpoint sidecar").decode("utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigError(f"cannot read checkpoint sidecar {sidecar_path}: {exc}") from exc
    try:
        saved, recorded = sidecar["train_config"], sidecar["weights_sha256"]
        cfg = TrainConfig(**saved)  # an unknown key is a TypeError naming it
        missing = [f.name for f in fields(cfg) if f.name not in saved]
        if missing:
            raise KeyError(missing[0])
        cfg.validate()
    except KeyError as exc:
        raise ConfigError(f"checkpoint sidecar {sidecar_path} lacks key {exc.args[0]!r}") from exc
    except (ConfigError, TypeError) as exc:
        raise ConfigError(f"checkpoint sidecar {sidecar_path}: {exc}") from exc
    weights = read_input(path, "checkpoint")  # read once: the arrays and the SHA-256 check
    arrays = decode_arrays(weights, path)
    k, hidden, uncertainty = cfg.k, cfg.hidden, cfg.loss_mode != "l1"
    cols = _HEAD_COLS[uncertainty]
    shapes = {  # each layer's weight shape, in words and as a test of (rows, columns)
        "fc1": ("hidden x k·d (d >= 1)", lambda r, c: r == hidden and c >= k and c % k == 0),
        "actioness": ("1 x hidden", lambda r, c: (r, c) == (1, hidden)),
        "head": (f"C·{cols} x hidden (C >= 2)",
                 lambda r, c: r >= 2 * cols and r % cols == 0 and c == hidden),
    }
    misfit = f"checkpoint {path} does not fit {sidecar_path}"
    odd = sorted({f"{name}.{part}" for name in shapes for part in _PARTS} ^ arrays.keys())
    if odd:  # an array missing or extra
        raise ConfigError(f"{misfit}: {'extra' if odd[0] in arrays else 'no'} array {odd[0]!r}")
    for name, (words, fits) in shapes.items():
        w, b = arrays[f"{name}.weights"], arrays[f"{name}.biases"]
        if not (w.ndim == 2 and fits(*w.shape) and b.shape == w.shape[:1]):
            raise ConfigError(f"{misfit} in {name}: weights {w.shape} and biases {b.shape}; k={k}, "
                              f"hidden={hidden} need {words} weights and one bias per row")
    if recorded != hashlib.sha256(weights).hexdigest():
        raise ConfigError(f"checkpoint {path} does not match the SHA-256 in {sidecar_path}")
    layers = (DenseLayer(arrays[f"{n}.weights"], arrays[f"{n}.biases"], n) for n in shapes)
    return Model(*layers, k, uncertainty), cfg
