"""Low-light remote photoplethysmography pipeline.

SSA decomposition of a detrended green-channel trace, reference-HR
spectral masking, Gaussian-weighted component fusion, Hann overlap-add
reconstruction, and FFT heart-rate estimation, plus a synthetic trace
generator and an SNR/MAE/RMSE evaluation harness.  The evaluation
modules (``baseline``, ``metrics``, ``synth``, ``sweep``) and their names
here load on first use (PEP 562), so the pipeline does not pay for them.
"""

import importlib

from .hr import (HrEstimate, dominant_frequencies, estimate_hr, estimate_hr_series,
                 sliding_hr, spectral_peak)
from .ingest import (
    RawTrace,
    RoiFrame,
    assemble_trace,
    load_roi_frames,
    load_trace_csv,
    save_trace_csv,
    spatial_average,
)
from .preprocess import bandpass, detrend
from .reconstruct import (
    PipelineConfig,
    PulseWave,
    fuse_rows,
    overlap_add_rows,
    run_pipeline,
)
from .selection import MaskReason, select_rows, spectral_mask
from .ssa import decompose_rows

__version__ = "0.1.0"

_EVALUATION = {  # module -> the names it exports here
    "baseline": ("green_baseline_signal",),
    "metrics": ("EvalReport", "snr", "mae", "rmse", "spectrum", "spectrogram", "evaluate"),
    "synth": ("SynthConfig", "attenuate", "generate"),
    "sweep": (),
}


def __getattr__(name):
    """Import an evaluation module, or the one defining ``name``, on first use."""
    for module, names in _EVALUATION.items():
        if name == module or name in names:
            loaded = importlib.import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "RawTrace", "RoiFrame", "spatial_average", "assemble_trace",
    "load_trace_csv", "save_trace_csv", "load_roi_frames",
    "detrend", "bandpass",
    "decompose_rows", "MaskReason", "spectral_mask", "select_rows",
    "PulseWave", "PipelineConfig", "fuse_rows", "overlap_add_rows", "run_pipeline",
    "HrEstimate", "estimate_hr", "estimate_hr_series", "sliding_hr",
    "dominant_frequencies", "spectral_peak",
    "EvalReport", "snr", "mae", "rmse", "spectrum", "spectrogram", "evaluate",
    "SynthConfig", "attenuate", "generate",
    "green_baseline_signal",
]
