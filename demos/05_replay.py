"""Record a trial's detections, then replay them through the gate and servo.

The detection log stores every raw expert output. replay_log feeds it
back through a fresh gate and the same per-frame step the trial ran
(harness.perceive), so it reproduces the original selections, smoothed
box centers and servo errors bit for bit. This is the path for running
the gating and servo error computation over real recorded detector
outputs instead of the synthetic models.
"""

import tempfile
from pathlib import Path

import numpy as np

from padland import (
    RECORD_COLUMNS,
    SELECTION_LABELS,
    Mode,
    Scenario,
    TrialConfig,
    VehicleState,
    read_detection_log,
    run_trial,
    write_detection_log,
)
from padland.harness import REPLAY_COLUMNS, replay_log

scenario = Scenario()
root = np.random.SeedSequence(99)
rng_far, rng_near = (np.random.default_rng(s) for s in root.spawn(2))

run = run_trial(
    VehicleState(-74.0, 68.0, 90.0), Mode.DUAL, scenario, TrialConfig(), rng_far, rng_near
)
print(f"original trial: {run.result.termination_reason.value} in {run.result.steps} steps")

with tempfile.TemporaryDirectory() as tmp:
    log_path = Path(tmp) / "detections.csv"
    write_detection_log(run.frames, log_path)
    print(f"wrote {len(run.frames)} frames to {log_path.name} "
          f"({log_path.stat().st_size} bytes)")
    replayed = replay_log(read_detection_log(log_path), scenario)

# compared as bytes, so the NaN blanks of untracked frames match too
compared = ("selected", "u_hat", "v_hat", "e_x", "e_y", "A", "e_z")
identical = all(
    replayed[:, REPLAY_COLUMNS.index(name)].tobytes()
    == run.frames[:, RECORD_COLUMNS.index(name)].tobytes()
    for name in compared
)
print(f"replayed {len(replayed)} frames, comparing {', '.join(compared)}")
print(f"identical: {identical}")

selected = [SELECTION_LABELS[int(c)] for c in replayed[:, REPLAY_COLUMNS.index("selected")]]
sample = [(i, sel) for i, sel in enumerate(selected) if sel][:5]
print("first selections:", ", ".join(f"frame {i} -> {sel}" for i, sel in sample))
