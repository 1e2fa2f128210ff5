"""Single-stage temporal action localization with uncertainty-aware boundary regression.

The package trains a small two-branch dense network on pooled proposal
features, refines proposal boundaries in a cascade at test time, and
evaluates with mAP at several tIoU thresholds on a synthetic benchmark.
Boundary offsets can be predicted either as point estimates (plain l1
regression) or as per-class Gaussians whose variances are learned with a
KL-based piecewise loss, a sampled l1 loss (reparameterization trick), or
the closed-form expectation of the l1 loss.
"""

import os

# One BLAS thread, set before any utal module loads numpy and over whatever the
# environment says: the thread count changes float rounding in the matmuls, so
# a seed gives the same checkpoint and CSV bytes only on a fixed count.
os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
