"""Record a trial's detections, then replay them through the gate.

The detection log stores every raw expert output, so feeding it back
through a fresh gate reproduces the original selection sequence exactly.
This is the path for running the gating and servo error computation over
real recorded detector outputs instead of the synthetic models.
"""

import tempfile
from pathlib import Path

import numpy as np

from padland import (
    SELECTION_LABELS,
    RECORD_COLUMNS,
    GateState,
    Mode,
    Scenario,
    TrialConfig,
    VehicleState,
    read_detection_log,
    replay_detect,
    run_trial,
    select_expert,
    write_detection_log,
)

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

    log = read_detection_log(log_path)
    gate = GateState(window_size=scenario.window_size, coast_limit=scenario.coast_limit)
    replayed = []
    for frame in range(len(log)):
        det_far, det_near = replay_detect(log, frame)
        out = select_expert(det_far, det_near, gate, scenario.camera)
        replayed.append(out.selected_expert.value if out.selected_expert else "")

selected_codes = run.frames[:, RECORD_COLUMNS.index("selected")].tolist()
original = [SELECTION_LABELS[int(c)] for c in selected_codes]
print(f"selection sequences identical: {replayed == original}")

sample = [(i, sel) for i, sel in enumerate(replayed) if sel][:5]
print("first selections:", ", ".join(f"frame {i} -> {sel}" for i, sel in sample))
