"""Synthetic scale-specialized detectors.

Each expert is modeled as a stochastic detector whose per-frame detection
probability follows a logistic curve over the pad's apparent width, with
Gaussian center noise, multiplicative size noise, and (optionally) a
distractor mode that locks onto a false pad-like target at a fixed world
offset.

An expert is the slot it fills (Scenario.far_profile, select_expert's
det_far, FAR's log fields first): no profile or detection names it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .geometry import (
    BoundingBox,
    CameraModel,
    HelipadSpec,
    NonNegative,
    check_fields,
    clamp_box,
    ranged,
)


# detect builds its noisy box and its Detection with tuple.__new__,
# skipping the classes' __new__: the generated one of BoundingBox checks
# only arity, and each call passes a literal tuple; Detection's check
# holds by construction: a present detection has 0 <= u_present < p_det <= 1


class ExpertId(Enum):
    FAR = "FAR"
    NEAR = "NEAR"


class _DetectionFields(NamedTuple):
    box: BoundingBox | None = None
    confidence: float = 0.0


class Detection(_DetectionFields):
    """One expert's output for one frame; box is None when nothing was found.

    An immutable tuple (box, confidence); its expert is the slot it fills.
    Its constructor, which _make and _replace go through too, is the one
    check: an absent detection carries confidence 0, confidence is in [0, 1].
    """

    __slots__ = ()

    def __new__(cls, box: BoundingBox | None = None, confidence: float = 0.0):
        if box is None and confidence != 0.0:
            raise ValueError("absent detection must carry confidence 0")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence {confidence} outside [0, 1]")
        return tuple.__new__(cls, (box, confidence))

    @classmethod
    def _make(cls, iterable) -> "Detection":
        return cls(*iterable)

    @property
    def present(self) -> bool:
        return self.box is not None


# the one absent Detection: immutable, so detect and the replay path share
# it instead of building one per frame
ABSENT = Detection()

_Slope = ranged(float, lambda x: x != 0, "nonzero")
_Probability = ranged(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")


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

    s_center: float
    s_slope: _Slope
    sigma_center_base: NonNegative = 0.0
    sigma_center_scale: NonNegative = 0.0
    sigma_size_frac: NonNegative = 0.0
    distractor_prob: _Probability = 0.0
    distractor_offset_pads: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def ideal(cls) -> "ExpertProfile":
        """Noise-free always-on detector (useful for closed-loop checks)."""
        return cls(s_center=-1e9, s_slope=1.0)


def default_far_profile() -> ExpertProfile:
    """Long-range specialist: detects even tiny pads but jitters more as the
    pad grows, and occasionally locks onto a pad-like rooftop 25 m away."""
    return ExpertProfile(
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
        s_center=27.0,
        s_slope=0.75,
        sigma_center_base=1.5,
        sigma_center_scale=0.0,
        sigma_size_frac=0.03,
        distractor_prob=0.0,
    )


_SATURATED = 37.0  # exp(-37) < 2**-53: the logistic rounds to 1.0 from here


def detection_probability(profile: ExpertProfile, s: float) -> float:
    """Per-frame detection probability at apparent width s.

    At x = (s - s_center) / s_slope >= _SATURATED it is exactly 1.0, with
    no exponential: exp(-x) < 2**-53 there, so 1 + exp(-x) rounds to 1.0
    with any exp accurate to a few ulps, and these bits are the same on
    every CPU. Elsewhere the exponential is numpy's, as a float: np.exp
    gives a scalar the same double as an array on one machine, but numpy's
    AVX-512 and baseline exp loops differ on 4.6 % of inputs, so the golden
    digest (and a vectorised engine's bit-exactness) holds only on CPUs
    that take the same path (ROADMAP item 1).
    """
    x = (s - profile.s_center) / profile.s_slope
    if x >= _SATURATED:
        return 1.0
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
        return ABSENT

    if profile.distractor_prob > 0.0 and u_distract < profile.distractor_prob:
        du, dv = profile.distractor_offset_pads
        u = true_box.u + s * du
        v = true_box.v + s * dv
    else:
        sigma_c = profile.sigma_center_base + profile.sigma_center_scale * s
        u = true_box.u + sigma_c * eps_u
        v = true_box.v + sigma_c * eps_v

    scale = 1.0 + profile.sigma_size_frac * eps_size
    box = tuple.__new__(BoundingBox, (u, v, true_box.w * scale, true_box.h * scale))
    box = clamp_box(box, cam)
    if box is None:
        return ABSENT
    return tuple.__new__(Detection, (box, p_det))

