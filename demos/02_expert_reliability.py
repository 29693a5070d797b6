"""Reliability profiles of the two synthetic detectors across altitude.

The FAR expert detects everywhere the campaign flies but its center noise
grows with the pad's on-screen size; the NEAR expert is precise at close
range and blind above ~100 m. This script sweeps altitude and compares
the analytic detection-probability curve against empirical rates from
seeded Monte Carlo draws. Each draw reads one row of the expert's noise
stream, as one simulated frame does.
"""

import numpy as np

from padland import (
    CameraModel,
    HelipadSpec,
    VehicleState,
    apparent_width,
    default_far_profile,
    default_near_profile,
    detect,
    detection_probability,
    noise_rows,
    project_helipad,
)

cam = CameraModel()
pad = HelipadSpec()
far = default_far_profile()
near = default_near_profile()

N = 2000
rows_far = noise_rows(np.random.default_rng(1))
rows_near = noise_rows(np.random.default_rng(2))

print(f"{'z (m)':>6} {'s (px)':>8} | {'P_far':>7} {'rate':>7} | {'P_near':>7} {'rate':>7}")
for z in (110, 105, 100, 95, 90, 80, 70, 40, 20):
    state = VehicleState(pad.x, pad.y, float(z))
    s = apparent_width(state, pad, cam)
    box = project_helipad(state, pad, cam)
    hits_far = sum(detect(far, box, s, next(rows_far), cam).present for _ in range(N))
    hits_near = sum(detect(near, box, s, next(rows_near), cam).present for _ in range(N))
    print(
        f"{z:>6} {s:>8.1f} | {detection_probability(far, s):>7.3f} {hits_far / N:>7.3f}"
        f" | {detection_probability(near, s):>7.3f} {hits_near / N:>7.3f}"
    )

print()
print("FAR center noise grows with apparent width (sigma = 2 + 0.05 * s):")
for z in (110, 40, 10):
    state = VehicleState(pad.x, pad.y, float(z))
    s = apparent_width(state, pad, cam)
    box = project_helipad(state, pad, cam)
    rows = noise_rows(np.random.default_rng(3))
    errs = []
    for _ in range(N):
        d = detect(far, box, s, next(rows), cam)
        if d.present:
            errs.append(d.box.u - box.u)
    print(f"  z = {z:>3} m (s = {s:5.1f} px): empirical center std {np.std(errs):6.2f} px")
