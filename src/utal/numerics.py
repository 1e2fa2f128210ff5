"""Special functions, deterministic random numbers, and verification helpers.

Everything downstream (initialization, data synthesis, epsilon draws for the
sampled regression loss, Monte Carlo checks) takes randomness from `Rng`, a
small counter-based generator built on the splitmix64 mixing function.  The
generator is splittable: `split()` derives an independent sub-stream from the
parent seed and a tuple of labels, so the stream consumed by e.g.
(epoch, batch) does not depend on what any other stream consumed.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment of splitmix64

# libm's exp, log and erf, elementwise: numpy has no erf, and np.exp and
# np.log differ from libm in the last bit on some inputs, which would move the
# trained weights and the values `utal curves` writes
_exp = np.vectorize(math.exp, otypes=[float])
_log = np.vectorize(math.log, otypes=[float])
_erf = np.vectorize(math.erf, otypes=[float])


def _mix64(z):
    """splitmix64's bijective finalizer of z mod 2^64, for an int or each uint64 entry."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic counter-based generator with derivable sub-streams.

    Output i of a stream is ``mix64(seed + (i+1) * GAMMA)``; bulk draws
    consume a contiguous counter range, so scalar and array draws interleave
    deterministically.  `normal` runs the Marsaglia polar method on counter
    blocks (rejections consume the stream) and may consume pairs past the last
    it uses, so a stream takes all its polar draws in one call; `normals` uses
    the Box-Muller transform on counter pairs.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._counter = 0

    def split(self, *labels: int | str) -> "Rng":
        """Derive an independent sub-stream keyed by `labels`.

        The child seed is a pure function of (parent seed, labels); it does
        not depend on how much of the parent stream was consumed.
        """
        h = _mix64(self.seed ^ 0xA5A5A5A5A5A5A5A5)
        for label in labels:
            if isinstance(label, str):
                for byte in label.encode("utf-8"):
                    h = _mix64(h * 0x100000001B3 + byte)
            else:
                h = _mix64(h ^ (int(label) * _GAMMA))
        return Rng(h)

    def next_u64(self) -> int:
        self._counter += 1
        return _mix64(self.seed + self._counter * _GAMMA)

    def _next_u64_block(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(np.uint64(self.seed) + idx * np.uint64(_GAMMA))

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        return (self._next_u64_block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normal(self, n: int) -> np.ndarray:
        """n standard normal draws via the Marsaglia polar method.

        Candidate pairs come from counter blocks, and each accepted pair gives
        its two values in order, so the n values are the first n of the
        one-at-a-time polar stream.
        """
        z = np.empty(0)
        while z.size < n:
            pairs = (n - z.size + 1) // 2
            # a block of about 4/3 the pairs needed: pi/4 of all pairs are accepted
            u, v = 2.0 * self.uniforms(2 * (pairs + pairs // 3 + 2)).reshape(-1, 2).T - 1.0
            s = u * u + v * v
            ok = np.flatnonzero((0.0 < s) & (s < 1.0))[:pairs]
            scale = np.sqrt(-2.0 * _log(s[ok]) / s[ok])
            z = np.concatenate((z, np.stack((u[ok] * scale, v[ok] * scale), axis=1).ravel()))
        return z[:n]

    def normals(self, n: int) -> np.ndarray:
        """Vectorized standard normal draws (Box-Muller on counter pairs)."""
        m = (n + 1) // 2
        bits = self._next_u64_block(2 * m)
        # shift into (0,1) so log() is always finite
        u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u[:m]))
        theta = 2.0 * np.pi * u[m:]
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), n >= 1, without modulo bias."""
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n).

        The n-1 bounded draws come from one counter block; from a draw that
        randint would reject on, the shuffle goes on with randint itself.
        """
        bounds = np.arange(n, 1, -1, dtype=np.uint64)  # i+1 for i = n-1 .. 1
        bits = self._next_u64_block(bounds.size)
        rem = (np.uint64(_MASK64) % bounds + np.uint64(1)) % bounds  # 2^64 mod b
        accept = bits <= np.uint64(_MASK64) - rem  # randint's x < 2^64 - rem, in uint64
        good = bounds.size if accept.all() else int(np.argmin(accept))
        self._counter -= bounds.size - good  # randint redraws from a rejected draw on
        js = (bits[:good] % bounds[:good]).tolist()
        js += [self.randint(i + 1) for i in range(n - 1 - good, 0, -1)]
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), js):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)


def mc_expected_l1(d: float, sigma: float, n: int, rng: Rng) -> tuple[float, float]:
    """Monte Carlo mean and standard error of |d - sigma*eps|, eps ~ N(0,1).

    For sigma > 0 and n >= 1; the independent oracle for the closed-form
    expectation of the sampled l1 regression loss.
    """
    vals = np.abs(d - sigma * rng.normals(n))
    mean = float(vals.mean())
    if n == 1:
        return mean, float("inf")
    stderr = float(vals.std(ddof=1) / math.sqrt(n))
    return mean, stderr
