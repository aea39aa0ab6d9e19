"""Raw trace assembly from ROI pixel data or pre-extracted CSV traces.

The measurement trace is stored time-major (T x 3, columns R, G, B).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyRoi,
    InvalidHeader,
    MissingFrames,
    NonMonotonicFrames,
    ParseError,
)


@dataclass(frozen=True)
class RoiFrame:
    """Pixels of one region-of-interest frame.

    ``pixels`` is an (N, 3) array of RGB intensities in [0, 255].
    """

    frame_index: int
    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2 or px.shape[1] != 3 or px.shape[0] == 0:
            raise EmptyRoi(f"frame {self.frame_index}: expected non-empty (N, 3) pixel array")
        object.__setattr__(self, "pixels", px)


@dataclass(frozen=True)
class RawTrace:
    """Per-frame RGB spatial means with sampling rate.

    ``samples`` has shape (T, 3) with column order R, G, B.
    """

    samples: np.ndarray
    fs: float
    t0: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 3 or s.shape[0] < 2:
            raise ValueError("samples must be a (T, 3) array with T >= 2")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise ValueError("fs must be positive and finite")
        object.__setattr__(self, "samples", s)

    def __len__(self):
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) / self.fs

    def green(self) -> np.ndarray:
        return self.samples[:, 1]


def spatial_average(frame: RoiFrame) -> np.ndarray:
    """Arithmetic mean of each color channel over the ROI pixels."""
    return frame.pixels.mean(axis=0)


def assemble_trace(frames, fs: float, t0: float = 0.0) -> RawTrace:
    """Concatenate per-frame spatial means into a (T, 3) raw trace.

    Frames must be sorted by index with no duplicates or gaps.  Gaps are
    an error rather than being interpolated: interpolation would silently
    alter the spectrum, callers may pre-fill if they want that.
    """
    frames = list(frames)
    indices = [f.frame_index for f in frames]
    for a, b in zip(indices, indices[1:]):
        if b <= a:
            raise NonMonotonicFrames(f"frame index {b} follows {a}")
    gaps = []
    for a, b in zip(indices, indices[1:]):
        gaps.extend(range(a + 1, b))
    if gaps:
        raise MissingFrames(gaps)
    samples = np.array([spatial_average(f) for f in frames])
    return RawTrace(samples=samples, fs=fs, t0=t0)


def load_trace_csv(path) -> RawTrace:
    """Load a raw trace from CSV.

    Format: first line ``# fs=<float>``, optional ``# t0=<float>``, then
    ``frame_index,r,g,b`` rows.
    """
    fs = None
    t0 = 0.0
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    key = key.strip()
                    try:
                        if key == "fs":
                            fs = float(value)
                        elif key == "t0":
                            t0 = float(value)
                    except ValueError:
                        raise InvalidHeader(f"line {lineno}: bad header value {body!r}")
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ParseError(f"expected 4 fields, got {len(parts)}", lineno)
            try:
                rows.append([float(p) for p in parts[1:]])
            except ValueError:
                raise ParseError(f"non-numeric value in {line!r}", lineno)
    if fs is None:
        raise InvalidHeader("missing '# fs=' header line")
    if not (np.isfinite(fs) and fs > 0):
        raise InvalidHeader(f"fs must be positive and finite, got {fs}")
    if len(rows) < 2:
        raise ParseError("trace must contain at least 2 rows")
    samples = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if bad.size:
        raise ParseError(f"non-finite sample in data row {bad[0] + 1}")
    return RawTrace(samples=samples, fs=fs, t0=t0)


def save_trace_csv(trace: RawTrace, path) -> None:
    """Write a raw trace in the load_trace_csv format (lossless via repr)."""
    with open(path, "w") as fh:
        fh.write(f"# fs={trace.fs!r}\n")
        if trace.t0:
            fh.write(f"# t0={trace.t0!r}\n")
        for i, row in enumerate(trace.samples):
            r, g, b = (float(v) for v in row)
            fh.write(f"{i},{r!r},{g!r},{b!r}\n")


_FRAME_SUFFIX = re.compile(r"_(\d+)(?:\.[^.]*)?$")


def load_roi_frames(directory) -> list[RoiFrame]:
    """Load per-frame ROI pixel files from a directory.

    Each file holds one ``r,g,b`` line per pixel; the frame index comes
    from the ``_NNNNN`` filename suffix.
    """
    frames = []
    for name in sorted(os.listdir(directory)):
        m = _FRAME_SUFFIX.search(name)
        if not m:
            continue
        index = int(m.group(1))
        pixels = []
        path = os.path.join(directory, name)
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise ParseError(f"{name}: expected 3 fields", lineno)
                try:
                    pixels.append([float(p) for p in parts])
                except ValueError:
                    raise ParseError(f"{name}: non-numeric pixel value", lineno)
        if not pixels:
            raise EmptyRoi(f"{name}: no pixels")
        frames.append(RoiFrame(frame_index=index, pixels=np.array(pixels)))
    frames.sort(key=lambda f: f.frame_index)
    return frames
