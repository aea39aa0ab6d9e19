"""Machine-speed probe used to normalise the benchmark's times.

On a shared 2-vCPU machine the speed of the same code drifts by up to
40% over tens of seconds, in process CPU time as much as in wall time,
so raw seconds from two runs are not comparable.  The probe is a fixed
kernel made of the primitives the pipeline spends its time in (a 100x201
SVD, a sparse pentadiagonal solve, a zero-phase Butterworth filter, a
zero-padded FFT and a Python loop).  It runs between operations, and
each operation's time is scaled by REFERENCE_S / (median of the probes
near it): the time the operation would take on the reference machine,
where the probe takes REFERENCE_S.  Within a run, operation and probe
slow down together; their ratio drifts by a few percent where raw times
drift by tens.

Set-up is mostly importing scipy, which this probe does not track.  Set-up
times are scaled by COLD_REFERENCE_S / (median cold probe): a fresh
interpreter that imports this module, and with it the scipy modules the
package uses, and runs the probe once.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.linalg import hankel
from scipy.signal import butter, sosfiltfilt
from scipy.sparse.linalg import spsolve

# Probe time on the reference machine (2-vCPU Intel Xeon, unloaded,
# OpenBLAS pinned to one thread).  A fixed constant: changing it rescales
# every reported time.
REFERENCE_S = 0.0125
# Cold probe time on the reference machine (run.py --cold-probe), also a
# fixed constant.
COLD_REFERENCE_S = 1.0

_rng = np.random.default_rng(0)
_x = _rng.normal(size=300)
_hankel = hankel(_x[:100], _x[99:])
_sos = butter(3, [0.7, 4.0], btype="bandpass", output="sos", fs=30.0)
_d2 = sparse.spdiags([np.ones(300), -2 * np.ones(300), np.ones(300)], (0, 1, 2), 298, 300)


def probe() -> float:
    """Seconds one run of the fixed kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.linalg.svd(_hankel, full_matrices=False)
        spsolve((sparse.identity(300, format="csc") + 1e4 * (_d2.T @ _d2)).tocsc(), _x)
        sosfiltfilt(_sos, _x, padlen=150)
        np.abs(np.fft.rfft(_x, 8192))
        sum(v * v for v in _x.tolist())
    return time.perf_counter() - t0
