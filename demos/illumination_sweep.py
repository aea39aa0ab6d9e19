"""Illumination sweep: attenuate the pulsatile signal while holding sensor
noise fixed, and watch SNR and HR error degrade for both methods.

Run with: python3 demos/illumination_sweep.py
"""

from lowlight_rppg import PipelineConfig, SynthConfig
from lowlight_rppg.sweep import sweep_report

LEVELS = [1.0, 0.5, 0.25, 0.1, 0.05]

print("Sweeping pulse attenuation levels", LEVELS)
print("(noise stays fixed -- only the pulsatile amplitude scales)\n")

cfg = SynthConfig(hr_bpm=72.0, duration_s=60.0,
                  noise_rms=(1.0, 1.0, 1.0), harmonic_ratio=0.3, seed=0)
rows = sweep_report(cfg, LEVELS, PipelineConfig(), n_seeds=5, jobs=4)

header = f"{'level':>6} {'method':>15} {'snr_db':>8} {'mae_bpm':>8} {'rmse_bpm':>9}"
print(header)
print("-" * len(header))
for row in rows:
    print(f"{row['level']:>6g} {row['method']:>15} "
          f"{row['snr_db']:>8.2f} {row['mae_bpm']:>8.2f} {row['rmse_bpm']:>9.2f}")

print("\nSNR should fall monotonically with level for the SSA pipeline, and")
print("its MAE should stay at or below the green-channel baseline as the")
print("signal gets buried in noise.")
