"""Synthetic scale-specialized detectors and the replayable detection log.

Each expert is modeled as a stochastic detector whose per-frame detection
probability follows a logistic curve over the pad's apparent width, with
Gaussian center noise, multiplicative size noise, and (optionally) a
distractor mode that locks onto a false pad-like target at a fixed world
offset. A plain-text log format allows recorded detections to be replayed
through the rest of the pipeline verbatim.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .geometry import BoundingBox, CameraModel, HelipadSpec, clamp_box


class ExpertId(Enum):
    FAR = "FAR"
    NEAR = "NEAR"


@dataclass(frozen=True)
class Detection:
    """One expert's output for one frame; box is None when nothing was found."""

    expert_id: ExpertId
    box: BoundingBox | None = None
    confidence: float = 0.0

    def __post_init__(self):
        if self.box is None and self.confidence != 0.0:
            raise ValueError("absent detection must carry confidence 0")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")

    @property
    def present(self) -> bool:
        return self.box is not None


# the one absent Detection of each expert: frozen, so detect and the
# replay path share it instead of building one per frame
ABSENT = {expert: Detection(expert_id=expert) for expert in ExpertId}


@dataclass(frozen=True)
class ExpertProfile:
    """Parametric reliability model of one detector.

    Detection probability is logistic((s - s_center) / s_slope) over the
    apparent width s: rising with s for a positive s_slope, falling for a
    negative one (reliable for small, distant pads). Center noise
    has standard deviation sigma_center_base + sigma_center_scale * s;
    sizes are scaled by (1 + eps), eps ~ N(0, sigma_size_frac). With
    probability distractor_prob a detection locks onto a false target
    displaced by distractor_offset_pads (in units of the pad side length,
    i.e. world-meter offset divided by pad side) instead of the true pad.
    """

    expert_id: ExpertId
    s_center: float
    s_slope: float
    sigma_center_base: float = 0.0
    sigma_center_scale: float = 0.0
    sigma_size_frac: float = 0.0
    distractor_prob: float = 0.0
    distractor_offset_pads: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (self.s_slope != 0 and math.isfinite(self.s_slope)):
            raise ValueError(f"s_slope: must be nonzero and finite (got {self.s_slope})")
        for name in ("sigma_center_base", "sigma_center_scale", "sigma_size_frac"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0 (got {getattr(self, name)})")
        if not 0.0 <= self.distractor_prob <= 1.0:
            raise ValueError(f"distractor_prob: must be in [0, 1] (got {self.distractor_prob})")

    @classmethod
    def ideal(cls, expert_id: ExpertId) -> "ExpertProfile":
        """Noise-free always-on detector (useful for closed-loop checks)."""
        return cls(expert_id=expert_id, s_center=-1e9, s_slope=1.0)


def default_far_profile() -> ExpertProfile:
    """Long-range specialist: detects even tiny pads but jitters more as the
    pad grows, and occasionally locks onto a pad-like rooftop 25 m away."""
    return ExpertProfile(
        expert_id=ExpertId.FAR,
        s_center=8.0,
        s_slope=2.0,
        sigma_center_base=2.0,
        sigma_center_scale=0.05,
        sigma_size_frac=0.05,
        distractor_prob=0.01,
        distractor_offset_pads=(25.0 / HelipadSpec.side_length, 0.0),
    )


def default_near_profile() -> ExpertProfile:
    """Close-range specialist: precise once the pad is large enough, but
    blind to the small footprints seen from high altitude."""
    return ExpertProfile(
        expert_id=ExpertId.NEAR,
        s_center=27.0,
        s_slope=0.75,
        sigma_center_base=1.5,
        sigma_center_scale=0.0,
        sigma_size_frac=0.03,
        distractor_prob=0.0,
    )


def detection_probability(profile: ExpertProfile, s: float) -> float:
    """Per-frame detection probability at apparent width s.

    The exponential is numpy's, returned as a float: np.exp gives the same
    double for a scalar as for that value inside an array, which
    math.exp does not on every CPU, so a vectorised engine can reproduce
    these probabilities bit for bit.
    """
    x = (s - profile.s_center) / profile.s_slope
    # numerically stable sigmoid
    if x >= 0:
        return 1.0 / (1.0 + float(np.exp(-x)))
    e = float(np.exp(x))
    return e / (1.0 + e)


NOISE_CHUNK = 256  # frames of noise rows drawn per Generator call


def noise_rows(rng: np.random.Generator) -> Iterator[list[float]]:
    """Yield one expert's per-frame noise rows, frame k's row k-th.

    A row is [u_present, u_distract, eps_u, eps_v, eps_size]: two uniforms
    in [0, 1), then three standard normals. Rows are drawn NOISE_CHUNK at a
    time, first rng.random((NOISE_CHUNK, 2)), then
    rng.standard_normal((NOISE_CHUNK, 3)). The layout is fixed: the rows
    of a stream depend only on its seed, never on what a trial did with
    them, so every mode that runs an expert sees the same noise on the
    same frame, and a batched engine can draw the same blocks.
    """
    while True:
        uniforms = rng.random((NOISE_CHUNK, 2))
        normals = rng.standard_normal((NOISE_CHUNK, 3))
        yield from np.hstack((uniforms, normals)).tolist()


def detect(
    profile: ExpertProfile,
    true_box: BoundingBox,
    s: float,
    noise: Sequence[float],
    cam: CameraModel,
) -> Detection:
    """Run one synthetic detector inference against the ground-truth box.

    `noise` is the frame's row of the expert's noise_rows stream: frame k
    reads row k whether or not the pad is in view, so detect takes its
    variates by frame index and never from a shared Generator.
    """
    if s <= 0:
        raise ValueError(f"apparent width must be positive (got {s})")

    u_present, u_distract, eps_u, eps_v, eps_size = noise

    p_det = detection_probability(profile, s)
    if u_present >= p_det:
        return ABSENT[profile.expert_id]

    if profile.distractor_prob > 0.0 and u_distract < profile.distractor_prob:
        du, dv = profile.distractor_offset_pads
        u = true_box.u + s * du
        v = true_box.v + s * dv
    else:
        sigma_c = profile.sigma_center_base + profile.sigma_center_scale * s
        u = true_box.u + sigma_c * eps_u
        v = true_box.v + sigma_c * eps_v

    scale = 1.0 + profile.sigma_size_frac * eps_size
    box = clamp_box(BoundingBox(u, v, true_box.w * scale, true_box.h * scale), cam)
    if box is None:
        return ABSENT[profile.expert_id]
    return Detection(profile.expert_id, box, p_det)


# ---------------------------------------------------------------------------
# Detection log: one CSV record per expert per frame.
# Format: frame,expert,u,v,w,h,confidence,present   (present in {0, 1},
# zeros for the numeric fields of an absent detection; header required).
# ---------------------------------------------------------------------------

LOG_HEADER = "frame,expert,u,v,w,h,confidence,present"
LOG_FIELDS = 6  # u, v, w, h, confidence, present of one expert
LOG_STRIDE = 2 * LOG_FIELDS  # FAR's fields, then NEAR's
_ABSENT_CELLS = (0.0,) * LOG_FIELDS


class DetectionLogError(ValueError):
    """Malformed detection log; message carries the offending line number."""


def log_cells(det: Detection) -> tuple:
    """One expert's LOG_FIELDS values for one frame: u, v, w, h, confidence,
    present, with zeros for the numeric fields of an absent detection."""
    b = det.box
    if b is None:
        return _ABSENT_CELLS
    return b + (det.confidence, 1.0)


def _detection(expert: ExpertId, cells) -> Detection:
    if not cells[5]:
        return ABSENT[expert]
    return Detection(expert_id=expert, box=BoundingBox(*cells[:4]), confidence=cells[4])


def replay_detect(log: np.ndarray, frame_index: int) -> tuple[Detection, Detection]:
    """Return the recorded (FAR, NEAR) detections for one frame, verbatim,
    from a (frames, LOG_STRIDE) array as read_detection_log returns it."""
    if not 0 <= frame_index < len(log):
        raise IndexError(
            f"frame_index {frame_index} out of range (log has {len(log)} frames)"
        )
    row = log[frame_index, :LOG_STRIDE].tolist()
    return _detection(ExpertId.FAR, row[:LOG_FIELDS]), _detection(ExpertId.NEAR, row[LOG_FIELDS:])


def _expert_records(expert: ExpertId, columns: list[list[float]]) -> list[str]:
    """One expert's records without the frame number, formatted column by
    column: floats via repr, "0" for every field of an absent detection."""
    *values, present = columns
    fields = [[repr(x) if p else "0" for x, p in zip(col, present)] for col in values]
    flags = ["1" if p else "0" for p in present]
    return [f"{expert.value},{','.join(cells)}" for cells in zip(*fields, flags)]


def write_detection_log(frames: np.ndarray, path: str | Path) -> None:
    """Write the first LOG_STRIDE columns of a (frames, columns) record
    array in the plain-text record format (floats via repr, so a write/read
    round trip is value-exact)."""
    columns = frames[:, :LOG_STRIDE].T.tolist()
    far = _expert_records(ExpertId.FAR, columns[:LOG_FIELDS])
    near = _expert_records(ExpertId.NEAR, columns[LOG_FIELDS:])
    lines = [LOG_HEADER]
    for frame, (f, n) in enumerate(zip(far, near)):
        lines.append(f"{frame},{f}")
        lines.append(f"{frame},{n}")
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_record(line: str, lineno: int) -> tuple[int, ExpertId, tuple]:
    parts = line.split(",")
    if len(parts) != 8:
        raise DetectionLogError(f"line {lineno}: expected 8 fields, got {len(parts)}")
    try:
        frame = int(parts[0])
        expert = ExpertId(parts[1].strip())
        u, v, w, h, conf = (float(p) for p in parts[2:7])
        present = int(parts[7])
    except (ValueError, KeyError) as exc:
        raise DetectionLogError(f"line {lineno}: {exc}") from None
    if not all(math.isfinite(x) for x in (u, v, w, h, conf)):
        raise DetectionLogError(f"line {lineno}: u, v, w, h and confidence must be finite")
    if present not in (0, 1):
        raise DetectionLogError(f"line {lineno}: present flag must be 0 or 1")
    if present == 0:
        return frame, expert, _ABSENT_CELLS
    if w <= 0 or h <= 0:
        raise DetectionLogError(f"line {lineno}: present detection with non-positive size")
    if not 0.0 <= conf <= 1.0:
        raise DetectionLogError(f"line {lineno}: confidence {conf} outside [0, 1]")
    return frame, expert, (u, v, w, h, conf, 1.0)


def read_detection_log(path: str | Path) -> np.ndarray:
    """Parse a detection log file into a (frames, LOG_STRIDE) float64 array;
    raises DetectionLogError with line numbers."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0].strip() != LOG_HEADER:
        raise DetectionLogError("line 1: missing or malformed header")

    by_frame: dict[int, dict[ExpertId, tuple]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        frame, expert, cells = _parse_record(line, lineno)
        slot = by_frame.setdefault(frame, {})
        if expert in slot:
            raise DetectionLogError(
                f"line {lineno}: duplicate {expert.value} record for frame {frame}"
            )
        slot[expert] = cells

    records = array("d")
    for frame in range(len(by_frame)):
        if frame not in by_frame:
            raise DetectionLogError(f"frame {frame} missing (frames must be contiguous from 0)")
        row = by_frame[frame]
        for expert in ExpertId:
            if expert not in row:
                raise DetectionLogError(f"frame {frame}: no {expert.value} record")
        records.extend(row[ExpertId.FAR] + row[ExpertId.NEAR])
    return np.frombuffer(records, dtype=np.float64).reshape(-1, LOG_STRIDE)
