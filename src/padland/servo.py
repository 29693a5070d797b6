"""Visual-servo error signals and the proportional velocity law.

Lateral errors are the signed pixel offsets of the smoothed box center
from the principal point; the descent error is the shortfall of the box
area against a reference area corresponding to the desired end-of-servo
altitude. Commands are proportional, clamped, and descent is gated on
lateral alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .geometry import BoundingBox, CameraModel, HelipadSpec, Positive, _is_finite, check_fields


# per-frame results are built with tuple.__new__, skipping the generated
# __new__: it checks only arity, and each call site passes a literal tuple


class ErrorSignals(NamedTuple):
    e_x: float  # pixels, c_x - u_hat
    e_y: float  # pixels, c_y - v_hat
    area: float  # pixels^2, w * h of the smoothed box
    e_z: float  # pixels^2, area_ref - area


def area_ref_for_altitude(z_ref: float, focal_length: float, pad_side: float) -> float:
    """Reference area corresponding to hovering at z_ref over the pad."""
    if z_ref <= 0:
        raise ValueError(f"z_ref: must be strictly positive (got {z_ref})")
    side = focal_length * pad_side / z_ref
    if not (_is_finite(side * side) and side * side > 0):
        raise ValueError(
            f"z_ref: the area (camera.focal_length * helipad.side_length / z_ref)^2 "
            f"is not positive and finite (z_ref {z_ref}, side_length {pad_side})"
        )
    return side * side


def altitude_for_area_ref(area_ref: float, focal_length: float, pad_side: float) -> float:
    """The z_ref whose area_ref_for_altitude is area_ref."""
    return focal_length * pad_side / math.sqrt(area_ref)


@dataclass(frozen=True)
class ControllerGains:
    k_xy: Positive = 0.02  # (m/s) per pixel of lateral error
    k_z: Positive = 1.5  # m/s, maximum descent rate
    v_lat_max: Positive = 2.0  # m/s lateral clamp
    align_threshold: Positive = 30.0  # pixels; descend only when aligned
    # pixels^2; the box area seen from z_ref = 6 m with the default camera and pad
    area_ref: Positive = area_ref_for_altitude(
        6.0, CameraModel.focal_length, HelipadSpec.side_length
    )

    def __post_init__(self):
        check_fields(self)


class VelocityCommand(NamedTuple):
    """World-frame velocity command; v_z <= 0 (descend or hold)."""

    v_x: float
    v_y: float
    v_z: float


def compute_errors(box: BoundingBox, cam: CameraModel, gains: ControllerGains) -> ErrorSignals:
    """Image-plane alignment errors and the area-based descent error."""
    u, v, w, h = box
    area = w * h
    return tuple.__new__(ErrorSignals, (cam.cx - u, cam.cy - v, area, gains.area_ref - area))


def compute_command(err: ErrorSignals, gains: ControllerGains) -> VelocityCommand:
    """Proportional servo law.

    Lateral: v = -k_xy * e, clamped to +/- v_lat_max (a pad right of center
    has e_x < 0, so the command moves the vehicle toward it). Vertical:
    descend at k_z scaled by the normalized positive descent error, but
    only while the lateral misalignment is within align_threshold; never
    climb.
    """
    e_x, e_y, _, e_z = err
    v_max = gains.v_lat_max
    k_xy = gains.k_xy
    # each line is the builtin max or min of the comment beside it, spelled
    # out as the builtin evaluates it (see geometry.clamp_box)
    v_x = -k_xy * e_x
    v_x = v_x if v_x < v_max else v_max  # min(v_max, v_x)
    v_x = v_x if v_x > -v_max else -v_max  # max(-v_max, v_x)
    v_y = -k_xy * e_y
    v_y = v_y if v_y < v_max else v_max  # min(v_max, v_y)
    v_y = v_y if v_y > -v_max else -v_max  # max(-v_max, v_y)
    if math.hypot(e_x, e_y) <= gains.align_threshold:
        frac = (0.0 if 0.0 > e_z else e_z) / gains.area_ref  # max(e_z, 0.0) / area_ref
        frac = 1.0 if 1.0 < frac else frac  # min(frac, 1.0)
        v_z = -gains.k_z * frac
    else:
        v_z = 0.0
    return tuple.__new__(VelocityCommand, (v_x, v_y, v_z))
