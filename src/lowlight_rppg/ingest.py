"""Raw trace assembly from ROI pixel data or pre-extracted CSV traces,
and the package's file formats: trace, ROI, pulse and reference CSVs.

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

    def green(self) -> np.ndarray:
        return self.samples[:, 1]


def spatial_average(frame: RoiFrame) -> np.ndarray:
    """Arithmetic mean of each color channel over the ROI pixels."""
    return frame.pixels.mean(axis=0)


def assemble_trace(frames, fs: float) -> RawTrace:
    """Concatenate per-frame spatial means into a (T, 3) raw trace.

    Frames must be sorted by index with no duplicates or gaps.  Gaps are
    an error rather than being interpolated: interpolation would silently
    alter the spectrum, callers may pre-fill if they want that.
    """
    frames = list(frames)
    indices = [f.frame_index for f in frames]
    gaps = []
    for a, b in zip(indices, indices[1:]):
        if b <= a:
            raise NonMonotonicFrames(f"frame index {b} follows {a}")
        gaps.extend(range(a + 1, b))
    if gaps:
        raise MissingFrames(gaps)
    samples = np.array([spatial_average(f) for f in frames])
    return RawTrace(samples=samples, fs=fs)


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


def header_fs(headers) -> float:
    """The last ``fs`` header; InvalidHeader if it is missing or not a
    positive, finite number, naming the line of one that is not a number.
    Other keys are skipped."""
    fs = None
    for lineno, key, text in headers:
        if key == "fs":
            try:
                fs = float(text)
            except ValueError:
                raise InvalidHeader(f"line {lineno}: bad fs value {text!r}") from None
    if fs is None or not (np.isfinite(fs) and fs > 0):
        raise InvalidHeader("missing '# fs=' header, or fs not positive and finite")
    return fs


def checked_rows(rows: np.ndarray, n_fields: int, least: int, what: str) -> np.ndarray:
    """``read_csv``'s rows of a ``what`` file, or a ParseError unless they
    are at least ``least`` rows of ``n_fields`` fields each."""
    if len(rows) and rows.shape[1] != n_fields:
        raise ParseError(f"a {what} file has {n_fields} fields per row, got {rows.shape[1]}")
    if len(rows) < least:
        raise ParseError(f"{what} file has {len(rows) or 'no'} data rows, needs {least} or more")
    return rows


def trace_from_rows(headers, rows: np.ndarray) -> RawTrace:
    """A raw trace from ``read_csv``'s output for a trace file."""
    fs = header_fs(headers)
    return RawTrace(samples=checked_rows(rows, 4, 2, "trace")[:, 1:], fs=fs)


def pulse_from_rows(headers, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """``(samples, fs)`` from ``read_csv``'s output for a pulse file."""
    fs = header_fs(headers)
    return checked_rows(rows, 2, 1, "pulse")[:, 1], fs


def load_trace_csv(path) -> RawTrace:
    """Load a raw trace from CSV.

    Format: first line ``# fs=<float>``, then ``frame_index,r,g,b`` rows.
    Other ``# key=value`` headers (an old ``# t0=`` among them) are
    skipped: every time the package reports is in seconds from the first
    sample.
    """
    return trace_from_rows(*read_csv(path))


def load_pulse_or_trace(path):
    """The input of ``evaluate``: a trace file (``frame_index,r,g,b``
    rows) as a RawTrace, any other as a pulse file (``# fs=<float>``, then
    ``index,value`` rows) as ``(samples, fs)``."""
    headers, rows = read_csv(path)
    if rows.shape[1:] == (4,):
        return trace_from_rows(headers, rows)
    return pulse_from_rows(headers, rows)


def load_reference_csv(path) -> list[tuple[float, float]]:
    """Reference HR CSV: ``t_seconds,bpm`` rows, ``#`` comments allowed.
    A NaN or infinite value is a ParseError naming its line."""
    rows = checked_rows(read_csv(path)[1], 2, 1, "reference")
    return [(t, bpm) for t, bpm in rows.tolist()]


def write_csv(path, header: str, fmt: str, rows) -> None:
    """The one CSV writer: ``header``, then a ``fmt % row`` line per row."""
    line = fmt + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n" + "".join(line % row for row in rows))


def save_trace_csv(trace: RawTrace, path) -> None:
    """Write a raw trace in the load_trace_csv format (lossless via repr).

    A numpy scalar ``fs`` is written as the Python number it holds, so
    ``# fs=30`` stays ``# fs=30`` for an int and never becomes
    ``# fs=np.float64(30.0)``."""
    fs = trace.fs.item() if isinstance(trace.fs, np.generic) else trace.fs
    write_csv(path, f"# fs={fs!r}", "%d,%r,%r,%r",
              ((i, *rgb) for i, rgb in enumerate(trace.samples.tolist())))


def save_pulse_csv(pulse, path) -> None:
    """Write a pulse (a PulseWave, or any object with ``samples`` and
    ``fs``) as ``# fs=<fs>`` and ``index,value`` rows, at 6 significant
    digits."""
    write_csv(path, "# fs=%.6g" % pulse.fs, "%d,%.6g", enumerate(pulse.samples.tolist()))


_FRAME_SUFFIX = re.compile(r"_(\d+)(?:\.[^.]*)?$")


def load_roi_frames(directory) -> list[RoiFrame]:
    """Load per-frame ROI pixel files from a directory.

    Each file holds one ``r,g,b`` line per pixel; the frame index comes
    from the ``_NNNNN`` filename suffix.  A file with no pixels is
    EmptyRoi (``RoiFrame``).
    """
    frames = []
    for name in sorted(os.listdir(directory)):
        m = _FRAME_SUFFIX.search(name)
        if not m:
            continue
        try:
            pixels = checked_rows(read_csv(os.path.join(directory, name))[1], 3, 0, "ROI")
        except ParseError as exc:
            raise ParseError(f"{name}: {exc}") from None
        frames.append(RoiFrame(frame_index=int(m.group(1)), pixels=pixels))
    frames.sort(key=lambda f: f.frame_index)
    return frames
