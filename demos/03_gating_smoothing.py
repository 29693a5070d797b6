"""One dual-expert descent: watch the gate hand off between detectors.

Early in the descent only the FAR expert sees the pad, so it carries the
tracking; once the pad grows past the NEAR expert's operating scale the
gate starts selecting NEAR (its boxes sit closer to the image center
because its noise is smaller). The 5-frame moving average smooths the
handoff. The script also quantifies the jitter reduction the smoother
buys on the raw selected stream.
"""

import numpy as np

from padland import (
    SELECTION_LABELS,
    RECORD_COLUMNS,
    Mode,
    Scenario,
    TrialConfig,
    VehicleState,
    run_trial,
)

scenario = Scenario()
config = TrialConfig()
root = np.random.SeedSequence(12)
rng_far, rng_near = (np.random.default_rng(s) for s in root.spawn(2))

run = run_trial(
    VehicleState(-88.0, 82.0, 110.0), Mode.DUAL, scenario, config, rng_far, rng_near
)
r = run.result
print(f"outcome: {r.termination_reason.value} after {r.steps} steps, "
      f"touchdown error {r.touchdown_error:.3f} m")
print(f"expert usage: FAR {r.expert_usage['FAR']} frames, NEAR {r.expert_usage['NEAR']} frames")
print()

# where did the handoff happen? one array per record column; step k is row k
col = dict(zip(RECORD_COLUMNS, run.frames.T))
selected = [SELECTION_LABELS[int(c)] for c in col["selected"].tolist()]
switches = []
prev = None
for step, (z, sel) in enumerate(zip(col["z"].tolist(), selected)):
    if sel and sel != prev:
        switches.append((step, z, sel))
        prev = sel
print("selection changes (step, altitude, expert):")
for step, z, sel in switches[:12]:
    print(f"  step {step:>5}  z = {z:7.2f} m  -> {sel}")
if len(switches) > 12:
    print(f"  ... {len(switches) - 12} more")

# jitter: raw selected center vs smoothed center, frame-to-frame deltas
tracked = col["selected"] > 0
far_selected = col["selected"] == SELECTION_LABELS.index("FAR")
raw_u = np.where(far_selected, col["u_far"], col["u_near"])[tracked]
hat_u = col["u_hat"][~np.isnan(col["u_hat"])]
raw_jitter = np.std(np.diff(raw_u))
hat_jitter = np.std(np.diff(hat_u))
print()
print(f"frame-to-frame center jitter: raw {raw_jitter:.2f} px, smoothed {hat_jitter:.2f} px "
      f"({raw_jitter / hat_jitter:.1f}x reduction)")
