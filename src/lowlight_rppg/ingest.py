"""Raw trace assembly from ROI pixel data or pre-extracted CSV traces.

The measurement trace is stored time-major (T x 3, columns R, G, B).
"""

from __future__ import annotations

import functools
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


def read_csv(path) -> tuple[list[tuple[int, str, str]], np.ndarray]:
    """The one CSV reader: ``# key=value`` headers and a float array of rows.

    Headers come in file order as ``(line_number, key, value)``.  Blank and
    other ``#`` lines are skipped.  Every other line is a row of numeric,
    finite fields, the same number per row, else a ParseError naming the
    line.  No rows give a ``(0, 0)`` array.
    """
    headers, lines, numbers = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    headers.append((lineno, key.strip(), value))
            elif line:
                lines.append(line)
                numbers.append(lineno)
    if not lines:
        return headers, np.empty((0, 0))
    # parse the kept lines, not the file: on the file, loadtxt fails on
    # whitespace-only lines, or with comments="#" takes "1,2 # x" as a row
    parse = functools.partial(np.loadtxt, delimiter=",", comments=None, ndmin=2)
    try:
        rows = parse(lines)
    except ValueError as exc:
        # name the first bad line, parsing each on its own with the same parser
        width = None
        for lineno, line in zip(numbers, lines):
            try:
                n = parse([line]).shape[1]
            except ValueError:
                raise ParseError(f"non-numeric value in {line!r}", lineno) from None
            if width is not None and n != width:
                raise ParseError(f"expected {width} fields, got {n}", lineno)
            width = n
        raise ParseError(f"rows do not parse: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ParseError(f"non-finite value in {lines[bad[0]]!r}", numbers[bad[0]])
    return headers, rows


def header_float(headers, key: str, default=None):
    """The last ``key`` header as a float, else ``default``; InvalidHeader
    names the line of a ``key`` header that is not a number."""
    value = default
    for lineno, k, text in headers:
        if k == key:
            try:
                value = float(text)
            except ValueError:
                raise InvalidHeader(f"line {lineno}: bad {key} value {text!r}") from None
    return value


def header_fs(headers) -> float:
    """The ``fs`` header; InvalidHeader if it is missing or not a
    positive, finite number."""
    fs = header_float(headers, "fs")
    if fs is None or not (np.isfinite(fs) and fs > 0):
        raise InvalidHeader("missing '# fs=' header, or fs not positive and finite")
    return fs


def check_width(rows: np.ndarray, n_fields: int) -> None:
    """ParseError unless ``read_csv``'s rows, if any, have ``n_fields`` fields."""
    if len(rows) and rows.shape[1] != n_fields:
        raise ParseError(f"expected {n_fields} fields, got {rows.shape[1]}")


def trace_from_rows(headers, rows: np.ndarray) -> RawTrace:
    """A raw trace from ``read_csv``'s output for a trace file."""
    fs = header_fs(headers)
    check_width(rows, 4)
    if len(rows) < 2:
        raise ParseError("trace must contain at least 2 rows")
    return RawTrace(samples=rows[:, 1:], fs=fs, t0=header_float(headers, "t0", 0.0))


def load_trace_csv(path) -> RawTrace:
    """Load a raw trace from CSV.

    Format: first line ``# fs=<float>``, optional ``# t0=<float>``, then
    ``frame_index,r,g,b`` rows.
    """
    return trace_from_rows(*read_csv(path))


def save_trace_csv(trace: RawTrace, path) -> None:
    """Write a raw trace in the load_trace_csv format (lossless via repr).

    A numpy scalar ``fs`` or ``t0`` is written as the Python number it
    holds, so ``# fs=30`` stays ``# fs=30`` for an int and never becomes
    ``# fs=np.float64(30.0)``."""
    fs, t0 = (v.item() if isinstance(v, np.generic) else v for v in (trace.fs, trace.t0))
    head = f"# fs={fs!r}\n" + (f"# t0={t0!r}\n" if t0 else "")
    with open(path, "w") as fh:
        fh.write(head + "".join(f"{i},{r!r},{g!r},{b!r}\n"
                                for i, (r, g, b) in enumerate(trace.samples.tolist())))


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
        try:
            _, pixels = read_csv(os.path.join(directory, name))
            check_width(pixels, 3)
        except ParseError as exc:
            raise ParseError(f"{name}: {exc}") from None
        if not len(pixels):
            raise EmptyRoi(f"{name}: no pixels")
        frames.append(RoiFrame(frame_index=int(m.group(1)), pixels=pixels))
    frames.sort(key=lambda f: f.frame_index)
    return frames
