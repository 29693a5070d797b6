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

import math
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

# Tang's table-driven exp (P. T. P. Tang, ACM TOMS 15(2), 1989) from + - *,
# round, &, >> and ldexp only: IEEE 754 rounds each of those exactly and
# neither CPython nor numpy fuses them, so it gives the same bits on every
# CPU, where a library exp does not. 2**(j/32) for j = 0..31 is the nearest
# double and the nearest double to the rest, which together carry ~106 bits.
_EXP2_J32 = tuple(
    tuple(map(float.fromhex, row.split()))
    for row in """
    0x1.0000000000000p+0 0x0.0p+0
    0x1.059b0d3158574p+0 0x1.d73e2a475b465p-55
    0x1.0b5586cf9890fp+0 0x1.8a62e4adc610bp-54
    0x1.11301d0125b51p+0 -0x1.6c51039449b3ap-54
    0x1.172b83c7d517bp+0 -0x1.19041b9d78a76p-55
    0x1.1d4873168b9aap+0 0x1.e016e00a2643cp-54
    0x1.2387a6e756238p+0 0x1.9b07eb6c70573p-54
    0x1.29e9df51fdee1p+0 0x1.612e8afad1255p-55
    0x1.306fe0a31b715p+0 0x1.6f46ad23182e4p-55
    0x1.371a7373aa9cbp+0 -0x1.63aeabf42eae2p-54
    0x1.3dea64c123422p+0 0x1.ada0911f09ebcp-55
    0x1.44e086061892dp+0 0x1.89b7a04ef80d0p-59
    0x1.4bfdad5362a27p+0 0x1.d4397afec42e2p-56
    0x1.5342b569d4f82p+0 -0x1.07abe1db13cadp-55
    0x1.5ab07dd485429p+0 0x1.6324c054647adp-54
    0x1.6247eb03a5585p+0 -0x1.383c17e40b497p-54
    0x1.6a09e667f3bcdp+0 -0x1.bdd3413b26456p-54
    0x1.71f75e8ec5f74p+0 -0x1.16e4786887a99p-55
    0x1.7a11473eb0187p+0 -0x1.41577ee04992fp-55
    0x1.82589994cce13p+0 -0x1.d4c1dd41532d8p-54
    0x1.8ace5422aa0dbp+0 0x1.6e9f156864b27p-54
    0x1.93737b0cdc5e5p+0 -0x1.75fc781b57ebcp-57
    0x1.9c49182a3f090p+0 0x1.c7c46b071f2bep-56
    0x1.a5503b23e255dp+0 -0x1.d2f6edb8d41e1p-54
    0x1.ae89f995ad3adp+0 0x1.7a1cd345dcc81p-54
    0x1.b7f76f2fb5e47p+0 -0x1.5584f7e54ac3bp-56
    0x1.c199bdd85529cp+0 0x1.11065895048ddp-55
    0x1.cb720dcef9069p+0 0x1.503cbd1e949dbp-56
    0x1.d5818dcfba487p+0 0x1.2ed02d75b3707p-55
    0x1.dfc97337b9b5fp+0 -0x1.1a5cd4f184b5cp-54
    0x1.ea4afa2a490dap+0 -0x1.e9c23179c2893p-54
    0x1.f50765b6e4540p+0 0x1.9d3e12dd8a18bp-54
    """.strip().splitlines()
)
_INV_L = float.fromhex("0x1.71547652b82fep+5")  # 32 / ln 2
# ln(2) / 32 = _L1 + _L2: _L1 has 33 significant bits, so n * _L1 is exact
# for |n| < 2**20, and |n| <= 34,440 for the x that _exp takes
_L1 = float.fromhex("0x1.62e42fef00000p-6")
_L2 = float.fromhex("0x1.473de6af278edp-39")
_UNDERFLOW = -746.0  # exp(-746) < 2**-1075: e**x rounds to 0.0 from here down


def _exp(x: float) -> float:
    """e**x for x <= 0, within 1 ulp (subnormal results too): x = n ln2/32
    + r with |r| at most about ln2/64, and e**x = 2**(n >> 5) * 2**((n & 31)/32) * e**r,
    e**r - 1 from its degree-6 Taylor polynomial."""
    if x < _UNDERFLOW:
        return 0.0
    n = round(x * _INV_L)
    r = (x - n * _L1) - n * _L2  # x - n * _L1 is exact
    p = r + r * r * (0.5 + r * (1 / 6 + r * (1 / 24 + r * (1 / 120 + r * (1 / 720)))))
    hi, lo = _EXP2_J32[n & 31]
    return math.ldexp(hi + (lo + hi * p), n >> 5)


def detection_probability(profile: ExpertProfile, s: float) -> float:
    """Per-frame detection probability at apparent width s.

    At x = (s - s_center) / s_slope >= _SATURATED it is exactly 1.0, with
    no exponential: exp(-x) < 2**-53 there, so 1 + exp(-x) rounds to 1.0.
    Elsewhere the exponential is _exp, built from IEEE basic operations,
    so the probability is the same double on every CPU.
    """
    x = (s - profile.s_center) / profile.s_slope
    if x >= _SATURATED:
        return 1.0
    # numerically stable sigmoid
    if x >= 0:
        return 1.0 / (1.0 + _exp(-x))
    e = _exp(x)
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
    if not s > 0:  # NaN too
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

