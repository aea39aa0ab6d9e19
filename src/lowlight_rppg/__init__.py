"""Low-light remote photoplethysmography pipeline.

SSA decomposition of a detrended green-channel trace, reference-HR
spectral masking, Gaussian-weighted component fusion, Hann overlap-add
reconstruction, and FFT heart-rate estimation, plus a synthetic trace
generator and an SNR/MAE/RMSE evaluation harness.
"""

from .baseline import green_baseline_hr, green_baseline_signal, green_baseline_windows
from .hr import HrEstimate, estimate_hr, estimate_hr_series, sliding_hr, spectral_peak
from .ingest import (
    RawTrace,
    RoiFrame,
    assemble_trace,
    load_roi_frames,
    load_trace_csv,
    save_trace_csv,
    spatial_average,
)
from .metrics import EvalReport, evaluate, mae, rmse, snr, spectrogram, spectrum
from .preprocess import bandpass, detrend
from .reconstruct import (
    GaussianWeightParams,
    PipelineConfig,
    PulseWave,
    fuse_window,
    gaussian_weight,
    overlap_add,
    run_pipeline,
)
from .selection import (
    CandidateComponent,
    MaskDecision,
    MaskReason,
    ReferenceHrState,
    dominant_frequencies,
    dominant_frequency,
    select_candidates,
    spectral_mask,
    update_reference,
)
from .ssa import (
    SsaDecomposition,
    decompose,
    diagonal_average,
    hankel_embed,
    svd_components,
)
from .synth import SynthConfig, generate, illumination_sweep

__version__ = "0.1.0"

__all__ = [
    "RawTrace", "RoiFrame", "spatial_average", "assemble_trace",
    "load_trace_csv", "save_trace_csv", "load_roi_frames",
    "detrend", "bandpass",
    "SsaDecomposition", "hankel_embed", "svd_components",
    "diagonal_average", "decompose",
    "ReferenceHrState", "CandidateComponent", "MaskDecision", "MaskReason",
    "dominant_frequency", "dominant_frequencies", "update_reference",
    "spectral_mask", "select_candidates",
    "GaussianWeightParams", "PulseWave", "PipelineConfig",
    "gaussian_weight", "fuse_window", "overlap_add", "run_pipeline",
    "HrEstimate", "estimate_hr", "estimate_hr_series", "sliding_hr",
    "spectral_peak",
    "EvalReport", "snr", "mae", "rmse", "spectrum", "spectrogram", "evaluate",
    "SynthConfig", "generate", "illumination_sweep",
    "green_baseline_signal", "green_baseline_hr", "green_baseline_windows",
]
