"""Reference implementations the tests check the package against.

Not a test module (pytest does not collect it): the tests import these
names from here.  They are the plain, one-matrix or one-file forms of
what the package does on whole window stacks, so each stays a direct
reading of its definition.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lowlight_rppg.ingest import pulse_from_rows, read_csv
from lowlight_rppg.preprocess import pow2_scaled
from lowlight_rppg.reconstruct import PulseWave
from lowlight_rppg.ssa import _leading_triples, validate_window_length
from lowlight_rppg.synth import attenuate, generate


def hankel_embed(series, L: int) -> np.ndarray:
    """L x K trajectory matrix, X[i, j] = series[i + j], K = T - L + 1."""
    x = np.asarray(series, dtype=float)
    validate_window_length(L, x.size)
    return np.ascontiguousarray(sliding_window_view(x, x.size - L + 1)[:L])


def svd_components(X, k=None) -> list:
    """Leading singular triples (sigma_i, u_i, v_i) of a finite X,
    descending sigma, through the pipeline's SSA core
    ``ssa._leading_triples`` (whose docstring gives the routes and their
    accuracy)."""
    X, exponent = pow2_scaled(np.asarray(X, dtype=float), axis=None)
    s, u, vt = _leading_triples(X, k, exponent.item())
    return list(zip(s, u.T, vt))


def diagonal_average(Xi) -> np.ndarray:
    """Average the anti-diagonals of an L x K matrix into a length
    L + K - 1 series (orthogonal projection onto Hankel matrices
    followed by de-embedding)."""
    Xi = np.asarray(Xi, dtype=float)
    L, K = Xi.shape
    out = np.zeros(L + K - 1)
    for i in range(L):
        out[i:i + K] += Xi[i]
    counts = np.convolve(np.ones(L), np.ones(K))
    return out / counts


def illumination_sweep(base, levels) -> list:
    """Traces with pulse amplitude scaled per attenuation level.

    Every level is checked before any trace is made.  The same seed is
    reused at every level, which makes level 1.0 identical to
    generate(base) and keeps the noise realization shared across levels.
    """
    configs = [attenuate(base, a) for a in levels]
    return [generate(cfg) for cfg in configs]


def load_pulse_csv(path):
    """A PulseWave from an ``index,value`` pulse file, read as the
    ``evaluate`` command reads one."""
    samples, fs = pulse_from_rows(*read_csv(path))
    return PulseWave(samples=samples, fs=fs)
