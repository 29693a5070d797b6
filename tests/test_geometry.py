import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padland.geometry import (
    BoundingBox,
    CameraModel,
    HelipadSpec,
    VehicleState,
    _fit,
    apparent_width,
    clamp_box,
    inside_image,
    project_helipad,
)

CAM = CameraModel()
PAD = HelipadSpec()  # center (-80, 75), side 12


class TestProjection:
    def test_centered_pad_hits_principal_point(self):
        box = project_helipad(VehicleState(-80.0, 75.0, 70.0), PAD, CAM)
        assert (box.u, box.v) == (224.0, 224.0)

    def test_size_from_altitude(self):
        box = project_helipad(VehicleState(-80.0, 75.0, 112.0), PAD, CAM)
        assert box.w == pytest.approx(24.0)
        assert box.h == pytest.approx(24.0)

    def test_lateral_offset(self):
        box = project_helipad(VehicleState(-86.0, 75.0, 70.0), PAD, CAM)
        assert box.u == pytest.approx(224.0 + 224.0 * 6.0 / 70.0)  # 243.2
        assert box.v == pytest.approx(224.0)

    def test_rejects_camera_at_or_below_ground(self):
        with pytest.raises(ValueError):
            project_helipad(VehicleState(-80.0, 75.0, 0.0), PAD, CAM)
        with pytest.raises(ValueError):
            project_helipad(VehicleState(-80.0, 75.0, -3.0), PAD, CAM)

    def test_sign_convention(self):
        # pad displaced in world +x appears right of center, +y below-center
        box = project_helipad(VehicleState(-85.0, 75.0, 50.0), PAD, CAM)
        assert box.u > CAM.cx
        box = project_helipad(VehicleState(-80.0, 70.0, 50.0), PAD, CAM)
        assert box.v > CAM.cy
        box = project_helipad(VehicleState(-75.0, 80.0, 50.0), PAD, CAM)
        assert box.u < CAM.cx and box.v < CAM.cy

    def test_linearity_against_direct_formula(self):
        # offsets kept small enough that the box stays fully in frame,
        # where projection is linear (clamping would bend the mapping)
        rng = np.random.default_rng(12345)
        for _ in range(100):
            z = rng.uniform(15.0, 120.0)
            dx = rng.uniform(-z / 8.0, z / 8.0)
            dy = rng.uniform(-z / 8.0, z / 8.0)
            state = VehicleState(PAD.x - dx, PAD.y - dy, z)
            box = project_helipad(state, PAD, CAM)
            assert box.u - CAM.cx == pytest.approx(224.0 * dx / z, rel=1e-12, abs=1e-9)
            assert box.v - CAM.cy == pytest.approx(224.0 * dy / z, rel=1e-12, abs=1e-9)

    def test_unclamped_area_grows_monotonically_during_descent(self):
        altitudes = np.linspace(120.0, 7.0, 60)
        areas = [
            apparent_width(VehicleState(-80.0, 75.0, z), PAD, CAM) ** 2 for z in altitudes
        ]
        assert all(b > a for a, b in zip(areas, areas[1:]))


class TestApparentWidth:
    @pytest.mark.parametrize(
        "z,expected",
        [(70.0, 38.4), (110.0, 224.0 * 12.0 / 110.0), (10.0, 268.8)],
    )
    def test_values(self, z, expected):
        assert apparent_width(VehicleState(0.0, 0.0, z), PAD, CAM) == pytest.approx(expected)

    def test_strictly_decreasing_in_altitude(self):
        widths = [apparent_width(VehicleState(0, 0, z), PAD, CAM) for z in (5, 20, 80, 200)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_rejects_nonpositive_altitude(self):
        with pytest.raises(ValueError):
            apparent_width(VehicleState(0, 0, 0.0), PAD, CAM)


class TestClamping:
    def test_in_frame_box_untouched(self):
        box = BoundingBox(243.2, 224.0, 38.4, 38.4)
        assert clamp_box(box, CAM) is box

    def test_oversized_box_becomes_full_frame(self):
        box = BoundingBox(224.0, 224.0, 2000.0, 2000.0)
        clamped = clamp_box(box, CAM)
        assert (clamped.u, clamped.v, clamped.w, clamped.h) == (224.0, 224.0, 448.0, 448.0)

    def test_partial_overlap_recenters(self):
        box = BoundingBox(440.0, 224.0, 40.0, 40.0)  # right edge at 460
        clamped = clamp_box(box, CAM)
        assert clamped.u == pytest.approx((420.0 + 448.0) / 2.0)
        assert clamped.w == pytest.approx(28.0)
        assert clamped.h == pytest.approx(40.0)

    def test_fully_outside_returns_none(self):
        assert clamp_box(BoundingBox(600.0, 224.0, 40.0, 40.0), CAM) is None
        assert clamp_box(BoundingBox(-100.0, -100.0, 20.0, 20.0), CAM) is None

    def test_projection_of_far_offset_pad_is_none(self):
        # pad 25 m to the side seen from 10 m: center 560 px off, half-width 134
        state = VehicleState(PAD.x - 25.0, PAD.y, 10.0)
        assert project_helipad(state, PAD, CAM) is None

    def test_near_touchdown_box_clips_to_frame(self):
        box = project_helipad(VehicleState(-80.0, 75.0, 4.0), PAD, CAM)
        assert (box.u, box.v, box.w, box.h) == (224.0, 224.0, 448.0, 448.0)


def reference_clamp_box(box, cam):
    """clamp_box as written with the builtin max and min: the oracle for the
    spelled-out comparisons clamp_box uses."""
    lo_u = box.u - box.w / 2.0
    hi_u = box.u + box.w / 2.0
    lo_v = box.v - box.h / 2.0
    hi_v = box.v + box.h / 2.0

    c_lo_u = max(lo_u, 0.0)
    c_hi_u = min(hi_u, cam.image_width)
    c_lo_v = max(lo_v, 0.0)
    c_hi_v = min(hi_v, cam.image_height)

    if not (c_hi_u - c_lo_u > 0.0 and c_hi_v - c_lo_v > 0.0):
        return None
    if c_lo_u == lo_u and c_hi_u == hi_u and c_lo_v == lo_v and c_hi_v == hi_v:
        return box
    u = (c_lo_u + c_hi_u) / 2.0
    v = (c_lo_v + c_hi_v) / 2.0
    w = _fit(u, c_hi_u - c_lo_u, cam.image_width)
    h = _fit(v, c_hi_v - c_lo_v, cam.image_height)
    if w == 0.0 or h == 0.0:
        return None
    return BoundingBox(u, v, w, h)


def bits(values):
    """Exact bytes of a tuple of floats (tells -0.0 from 0.0), or None."""
    return None if values is None else struct.pack(f"<{len(values)}d", *values)


# every float, with the values where max/min operand order shows drawn often
any_float = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
finite = st.floats(allow_nan=False, allow_infinity=False)


class TestClampMirror:
    @settings(max_examples=500, deadline=None)  # a slow example on a busy machine is no failure
    @given(any_float, any_float, any_float, any_float, any_float, any_float)
    @example(-0.0, 10.0, 0.0, 4.0, 448.0, 448.0)  # left edge at -0.0
    @example(10.0, 10.0, math.nan, 4.0, 448.0, 448.0)
    @example(10.0, 10.0, 4.0, 4.0, math.nan, -0.0)
    def test_matches_builtin_max_min(self, u, v, w, h, width, height):
        # a stand-in camera, so any float can be an image size
        cam = SimpleNamespace(image_width=width, image_height=height)
        box = BoundingBox(u, v, w, h)
        got, want = clamp_box(box, cam), reference_clamp_box(box, cam)
        assert bits(got) == bits(want)
        assert (got is box) == (want is box)


# a camera of any positive finite size, and a box anywhere or, drawn in
# units of the image size, one of its size near its edges
clamp_cases = st.tuples(
    finite, finite, finite, finite,
    st.floats(1e-300, 1e300), st.floats(1e-300, 1e300),
    st.floats(-0.2, 1.2), st.floats(-0.2, 1.2), st.floats(1e-4, 1.0), st.floats(1e-4, 1.0),
    st.booleans(),
)
# at width 188.1 the recomputed center of this clipped box put its right
# edge one ulp past the image before clamp_box shrank it
ULP_PAST_EDGE = (160.0, 25.0, 84.875, 50.0, 188.1, 100.0, 0.0, 0.0, 1.0, 1.0, False)


def clamp_case(case):
    u, v, w, h, width, height, fu, fv, fw, fh, image_scale = case
    cam = CameraModel(image_width=width, image_height=height)
    if image_scale:
        u, v, w, h = fu * width, fv * height, fw * width, fh * height
    return BoundingBox(u, v, w, h), cam


class TestClampExact:
    @settings(max_examples=500, deadline=None)
    @given(clamp_cases)
    @example(ULP_PAST_EDGE)
    def test_clamped_box_lies_inside_exactly(self, case):
        box, cam = clamp_case(case)
        clamped = clamp_box(box, cam)
        if clamped is not None:
            u, v, w, h = clamped
            assert u + w / 2.0 - (u - w / 2.0) > 0.0 and v + h / 2.0 - (v - h / 2.0) > 0.0
            assert 0.0 <= u - w / 2.0 and u + w / 2.0 <= cam.image_width
            assert 0.0 <= v - h / 2.0 and v + h / 2.0 <= cam.image_height

    @settings(max_examples=500, deadline=None)
    @given(clamp_cases)
    @example(ULP_PAST_EDGE)
    # both edges of a 2-wide box round onto the center at 2**53 + 4
    @example((2.0**53 + 4.0, 0.0, 3.0, 1.0, 2.0**53 + 4.0, 1.0, 0.0, 0.0, 1.0, 1.0, False))
    # a box about one ulp wide at the right edge
    @example((1.5, 0.75, 2.2e-16, 1.0, 1.5, 1.5, 0.0, 0.0, 1.0, 1.0, False))
    def test_clamp_is_idempotent(self, case):
        box, cam = clamp_case(case)
        clamped = clamp_box(box, cam)
        if clamped is not None:
            assert clamp_box(clamped, cam) is clamped


class TestInsideImage:
    @settings(deadline=None)
    @given(clamp_cases)
    @example(ULP_PAST_EDGE)
    def test_every_clamped_box_is_inside(self, case):
        box, cam = clamp_case(case)
        clamped = clamp_box(box, cam)
        if clamped is not None:
            assert inside_image(clamped, cam)

    def test_boxes_an_ulp_outside_still_pass(self):
        # clamp_box once returned such boxes; logs holding them still replay
        cam = CameraModel(image_width=188.1, image_height=100.0)
        lo = 160.0 - 84.875 / 2.0
        u, w = (lo + cam.image_width) / 2.0, cam.image_width - lo
        assert u + w / 2.0 > cam.image_width  # by one ulp
        assert inside_image(BoundingBox(u, 25.0, w, 50.0), cam)

    @pytest.mark.parametrize(
        "box, inside",
        [
            (BoundingBox(224.0, 224.0, 448.0, 448.0), True),  # the whole frame
            (BoundingBox(446.0, 224.0, 4.0, 4.0), True),  # touches the right edge
            (BoundingBox(447.0, 224.0, 4.0, 4.0), False),  # one pixel past it
            (BoundingBox(224.0, 1.0, 4.0, 4.0), False),  # one pixel above the top
            (BoundingBox(-5000.0, 1e9, 5.0, 5.0), False),
        ],
    )
    def test_edges(self, box, inside):
        assert inside_image(box, CAM) is inside


class TestValidation:
    def test_camera_invariants(self):
        with pytest.raises(ValueError):
            CameraModel(image_width=0)
        with pytest.raises(ValueError):
            CameraModel(focal_length=-1)
        assert CAM.cx == CAM.image_width / 2 and CAM.cy == CAM.image_height / 2

    def test_pad_invariants(self):
        with pytest.raises(ValueError):
            HelipadSpec(side_length=0.0)
