"""Pinhole projection of the helipad footprint into image-space boxes.

World frame: x/y on the ground plane, z = height above ground (ground at
z = 0). The camera looks straight down with its image axes aligned to
world x/y, so a pad displaced in world +x appears at u > c_x and +y at
v > c_y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache, cached_property
from numbers import Integral, Real
from typing import NamedTuple, get_type_hints


# per-frame results are built with tuple.__new__, skipping the generated
# __new__: it checks only arity, and each call site passes a literal tuple


def _is_finite(x) -> bool:
    try:
        return isinstance(x, Real) and type(x) is not bool and math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


def _is_integer(x) -> bool:  # of magnitude below 2**63, so an int64 holds it
    return isinstance(x, Integral) and type(x) is not bool and -(2**63) < x < 2**63


def _finite_tuple(size: int | None):
    return lambda x: isinstance(x, tuple) and size in (None, len(x)) and all(map(_is_finite, x))


# the one rule per field annotation, the test a value passes and what the
# message calls it: each parameter and result class checks its fields by it
# first (check_fields), and the config each key it reads (check_value)
_RULES = {
    float: (_is_finite, "a finite number"),
    int: (_is_integer, "an integer of magnitude below 2**63"),
    tuple[float, float]: (_finite_tuple(2), "a tuple of 2 finite numbers"),
    tuple[float, float, float]: (_finite_tuple(3), "a tuple of 3 finite numbers"),
    tuple[float, ...]: (_finite_tuple(None), "a tuple of finite numbers"),
    dict[str, int]: (
        lambda x: isinstance(x, dict) and all(type(k) is str and _is_integer(x[k]) for k in x),
        "a dict from str to integers",
    ),
}
_hints = cache(get_type_hints)  # each class's annotations, evaluated once


def check_value(name: str, hint, value) -> None:
    """Raise ValueError("<name>: must be ... (got ...)") unless value passes the
    annotation hint's _RULES entry or, for a class (bool too), is an instance
    of it; any other annotation is a TypeError."""
    if not (hint in _RULES or isinstance(hint, type)):
        raise TypeError(f"{name}: no rule for the annotation {hint}")
    test, what = _RULES.get(hint) or (lambda x: isinstance(x, hint), f"a {hint.__name__}")
    if not test(value):
        raise ValueError(f"{name}: must be {what} (got {value!r})")


def check_fields(obj) -> None:
    """check_value of each init field of the dataclass obj, by its annotation."""
    hints = _hints(type(obj))
    for name in (f.name for f in fields(obj) if f.init):
        check_value(name, hints[name], getattr(obj, name))


@dataclass(frozen=True)
class CameraModel:
    """Downward-facing pinhole camera. Principal point is the frame center."""

    image_width: float = 448.0
    image_height: float = 448.0
    focal_length: float = 224.0

    def __post_init__(self):
        check_fields(self)
        for name in ("image_width", "image_height", "focal_length"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive (got {getattr(self, name)})")

    # cached: the per-frame loop reads the principal point several times
    # per frame, and the frozen fields never change
    @cached_property
    def cx(self) -> float:
        return self.image_width / 2.0

    @cached_property
    def cy(self) -> float:
        return self.image_height / 2.0


@dataclass(frozen=True)
class HelipadSpec:
    """Square landing pad on the ground plane (center in meters, world frame)."""

    x: float = -80.0
    y: float = 75.0
    side_length: float = 12.0

    def __post_init__(self):
        check_fields(self)
        if self.side_length <= 0:
            raise ValueError(f"side_length: must be positive (got {self.side_length})")


class BoundingBox(NamedTuple):
    """Pixel-space box: center (u, v), width w, height h."""

    u: float
    v: float
    w: float
    h: float

    @property
    def area(self) -> float:
        return self.w * self.h


class VehicleState(NamedTuple):
    """World-frame position and velocity of the vehicle."""

    x: float
    y: float
    z: float
    vx: float = 0.0
    vy: float = 0.0
    vz: float = 0.0


def _fit(center: float, size: float, extent: float) -> float:
    """size, shrunk until center -/+ size/2 lies in [0, extent] as computed
    in floating point, or 0.0 when no positive size leaves those two edges
    apart.

    Each step removes twice the last, from one ulp up, so a violation of
    an ulp of a large center is fixed in a few dozen steps even when size
    is small."""
    step = math.ulp(size)
    while size > 0.0 and (center - size / 2.0 < 0.0 or center + size / 2.0 > extent):
        size -= step
        step *= 2.0
    if not (center + size / 2.0) - (center - size / 2.0) > 0.0:
        return 0.0
    return size


def clamp_box(box: BoundingBox, cam: CameraModel) -> BoundingBox | None:
    """Clip a box to the image rectangle.

    Returns the box unchanged when it already lies inside the frame (so a
    noise-free in-frame box survives bit-for-bit), the clipped box with its
    center recomputed from the clipped extent otherwise, and None when the
    box does not overlap the frame at all (or has a NaN edge).

    Every box returned lies inside the frame exactly, with edges apart:
    0 <= u - w/2 < u + w/2 <= image_width as computed in floating point,
    and likewise for v. A recomputed center can round an edge an ulp
    outside (at width 188.1, (160, 25, 84.875, 50) would); the clipped
    size is then shrunk by a few ulps. So clamp_box(clamp_box(b)) is
    clamp_box(b).
    """
    u, v, w, h = box
    lo_u = u - w / 2.0
    hi_u = u + w / 2.0
    lo_v = v - h / 2.0
    hi_v = v + h / 2.0
    width = cam.image_width
    height = cam.image_height

    # max(a, b) and min(a, b) spelled out as the builtins evaluate them,
    # (b if b > a else a) and (b if b < a else a), so NaN and signed zeros
    # give the same results without the cost of two calls per side
    c_lo_u = 0.0 if 0.0 > lo_u else lo_u
    c_hi_u = width if width < hi_u else hi_u
    c_lo_v = 0.0 if 0.0 > lo_v else lo_v
    c_hi_v = height if height < hi_v else hi_v

    if not (c_hi_u - c_lo_u > 0.0 and c_hi_v - c_lo_v > 0.0):
        return None
    if c_lo_u == lo_u and c_hi_u == hi_u and c_lo_v == lo_v and c_hi_v == hi_v:
        return box
    u = (c_lo_u + c_hi_u) / 2.0
    v = (c_lo_v + c_hi_v) / 2.0
    w = _fit(u, c_hi_u - c_lo_u, width)
    h = _fit(v, c_hi_v - c_lo_v, height)
    if w == 0.0 or h == 0.0:
        return None
    return tuple.__new__(BoundingBox, (u, v, w, h))


def inside_image(box: BoundingBox, cam: CameraModel) -> bool:
    """Whether every edge of box lies inside the image, up to rounding.

    Given u, v, w, h column arrays, the same test per element. Every box
    clamp_box returns passes exactly; the slack of a few ulps keeps
    accepting boxes clipped by earlier versions, whose recomputed edge
    could sit an ulp of the image size outside, so their logs still replay.
    """
    u, v, w, h = box
    slack = 4.0 * math.ulp(max(cam.image_width, cam.image_height))
    return (
        (u - w / 2.0 >= -slack)
        & (u + w / 2.0 <= cam.image_width + slack)
        & (v - h / 2.0 >= -slack)
        & (v + h / 2.0 <= cam.image_height + slack)
    )


def apparent_width(state: VehicleState, pad: HelipadSpec, cam: CameraModel) -> float:
    """Unclamped on-image width of the pad in pixels: f * D / z.

    Strictly decreasing in altitude; this is the scale signal the expert
    reliability models key on.
    """
    if state.z <= 0:
        raise ValueError(f"camera at or below ground (z = {state.z})")
    return cam.focal_length * pad.side_length / state.z


def project_helipad(
    state: VehicleState, pad: HelipadSpec, cam: CameraModel
) -> BoundingBox | None:
    """Ground-truth image box of the pad as seen from `state`.

    u = c_x + f * (x_pad - x_vehicle) / z, same for v; w = h = f * D / z,
    clipped to the frame via clamp_box. Returns None when the footprint is
    entirely out of view (no detector could report it).
    """
    z = state.z
    if z <= 0:
        raise ValueError(f"camera at or below ground (z = {z})")
    f = cam.focal_length
    u = cam.cx + f * (pad.x - state.x) / z
    v = cam.cy + f * (pad.y - state.y) / z
    side = f * pad.side_length / z
    return clamp_box(tuple.__new__(BoundingBox, (u, v, side, side)), cam)
