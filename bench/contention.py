"""Correction of measured times for contention from other tenants of the host.

On a shared virtual machine the vCPUs run up to ~40% slower for seconds to
minutes at a time while other tenants are busy, and interpreter-bound code
slows more than BLAS calls do.  No run length averages that out, so the
benchmark measures it: between the workload's steps it times a fixed
reference kernel with one BLAS part and one interpreter part.  A measured
window's time is split into the time spent inside the dense layers' forward
and backward calls (the BLAS part, timed by a clock around those calls) and
the rest, and each part is divided by how much slower than nominal the
matching part of the kernel ran.  The corrected times read as the same work
on the uncontended machine; the raw times are printed next to them.  The
split is measured in every window, so a change that moves work between BLAS
and the interpreter is corrected with its own split.

Set-up writes and reads a few hundred files, and its system CPU time varied
tenfold with the host's load while neither part of the reference kernel
followed it.  The probe around the set-ups therefore also times a file
part, which writes, reads and deletes small files, and the set-up's system
time is corrected by that part alone.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import numpy as np

PROBE_EVERY_S = 0.25  # at most one probe per this much measured work (~3% overhead)
# fastest times of the BLAS and interpreter parts on an uncontended 2-vCPU
# Xeon VM at 2.0 GHz, and the fastest file part seen on it; they only fix
# the scale of the corrected times
NOMINAL_BLAS_S = 0.0031
NOMINAL_INTERP_S = 0.0056
NOMINAL_FILES_S = 0.0028

_PAYLOAD = np.linspace(0.0, 1.0, 6400).astype("<f4").tobytes()  # one video's features

_A = np.linspace(0.0, 1.0, 128 * 256).reshape(128, 256)
_B = np.linspace(-1.0, 1.0, 256 * 1000).reshape(256, 1000)
_V = np.arange(8, dtype=np.float64)


def _blas_part() -> None:
    """The shape of one training batch through fc1."""
    for _ in range(2):
        _A @ _B


def _interp_part() -> float:
    """Scalar float arithmetic and tiny numpy calls, as in pooling and NMS."""
    total = 0.0
    for i in range(9000):
        s, e = i * 0.37, i * 0.37 + 3.0
        inter = min(e, 50.0) - max(s, 10.0)
        total += inter / (e - s + 40.0 - inter) if inter > 0.0 else 0.0
    for i in range(600):
        total += float(np.minimum(_V, i) @ _V)
    return total


def _files_part(directory: Path) -> None:
    """Write, read back and delete 20 small files, as gen-data and load do."""
    directory.mkdir(parents=True)
    for i in range(20):
        (directory / f"{i}.f32").write_bytes(_PAYLOAD)
    for i in range(20):
        (directory / f"{i}.f32").read_bytes()
    shutil.rmtree(directory)


class SpeedProbe:
    """Times the reference kernel between steps and turns it into a slowdown.

    `dense` is a tracer.CallClock around the dense layers' forward and
    backward calls: the BLAS part of a window is the time of those calls.
    With `files_dir`, every probe also runs the file part there.
    """

    def __init__(self, dense, files_dir: Path | None = None):
        self.dense = dense
        self.files_dir = files_dir
        self.at: list[float] = []
        self.blas: list[float] = []
        self.interp: list[float] = []
        self.files: list[float] = []
        self._next = 0.0

    def maybe(self) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe ended."""
        if time.perf_counter() >= self._next:
            self.run()

    def run(self) -> None:
        t0 = time.perf_counter()
        _blas_part()
        t1 = time.perf_counter()
        _interp_part()
        t2 = time.perf_counter()
        if self.files_dir is not None:
            _files_part(self.files_dir)
            self.files.append(time.perf_counter() - t2)
        self.at.append(t0)
        self.blas.append(t1 - t0)
        self.interp.append(t2 - t1)
        self._next = time.perf_counter() + PROBE_EVERY_S

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds spent probing in [t0, t1), slowdown of the rest; 1.0 = nominal).

        A window without a probe takes the probe nearest to it.
        """
        inside = [i for i, at in enumerate(self.at) if t0 <= at < t1]
        busy = sum(self.blas[i] + self.interp[i] for i in inside)
        if not inside:
            inside = [min(range(len(self.at)), key=lambda i: abs(self.at[i] - t0))]
        return busy, self.slowdown(inside, t1 - t0 - busy, self.dense.busy(t0, t1))

    def slowdown(self, probes, seconds: float, blas_s: float, system_s: float = 0.0) -> float:
        """How much slower than nominal `seconds` of work ran, as the given probes
        saw it: `blas_s` of them in BLAS, `system_s` in system calls (needs
        the file part) and the rest in the interpreter."""
        blas = statistics.median(self.blas[i] for i in probes) / NOMINAL_BLAS_S
        interp = statistics.median(self.interp[i] for i in probes) / NOMINAL_INTERP_S
        nominal = blas_s / blas + (seconds - blas_s - system_s) / interp
        if system_s:
            nominal += system_s / (statistics.median(self.files[i] for i in probes) / NOMINAL_FILES_S)
        return seconds / nominal

    def between(self, fn, *args):
        """fn(*args) between two probes: (result, seconds, slowdown of the two)."""
        first = len(self.at)
        self.run()
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.run()
        return out, t1 - t0, self.slowdown(range(first, len(self.at)), t1 - t0, self.dense.busy(t0, t1))
