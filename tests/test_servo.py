import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padland.geometry import BoundingBox, CameraModel
from padland.servo import (
    ControllerGains,
    ErrorSignals,
    VelocityCommand,
    area_ref_for_altitude,
    compute_command,
    compute_errors,
)

CAM = CameraModel()
GAINS_72K = ControllerGains(area_ref=72_253.0)


class TestErrors:
    def test_centered_small_box(self):
        err = compute_errors(BoundingBox(224.0, 224.0, 24.0, 24.0), CAM, GAINS_72K)
        assert err.e_x == 0.0
        assert err.e_y == 0.0
        assert err.area == 576.0
        assert err.e_z == 72_253.0 - 576.0

    def test_pad_right_of_center_gives_negative_e_x(self):
        err = compute_errors(BoundingBox(243.2, 224.0, 38.4, 38.4), CAM, GAINS_72K)
        assert err.e_x == pytest.approx(-19.2)
        assert err.e_y == 0.0

    def test_area_at_reference_zeroes_descent_error(self):
        side = math.sqrt(GAINS_72K.area_ref)
        err = compute_errors(BoundingBox(224.0, 224.0, side, side), CAM, GAINS_72K)
        assert err.e_z == pytest.approx(0.0, abs=1e-6)


class TestCommand:
    def test_full_descent_when_aligned_and_pad_tiny(self):
        gains = GAINS_72K
        err = compute_errors(BoundingBox(224.0, 224.0, 1e-6, 1e-6), CAM, gains)
        cmd = compute_command(err, gains)
        assert cmd.v_x == 0.0 and cmd.v_y == 0.0
        assert cmd.v_z == pytest.approx(-gains.k_z)

    def test_lateral_sign_moves_toward_pad(self):
        gains = ControllerGains(k_xy=0.02, v_lat_max=2.0, area_ref=72_253.0)
        err = compute_errors(BoundingBox(243.2, 224.0, 24.0, 24.0), CAM, gains)
        cmd = compute_command(err, gains)
        assert cmd.v_x == pytest.approx(0.384)  # +x, toward a pad displaced in +x

    def test_descent_gated_on_alignment(self):
        gains = ControllerGains(align_threshold=30.0, area_ref=72_253.0)
        err = compute_errors(BoundingBox(224.0 + 50.0, 224.0, 10.0, 10.0), CAM, gains)
        cmd = compute_command(err, gains)
        assert cmd.v_z == 0.0

    def test_no_climb_when_area_overshoots(self):
        gains = ControllerGains(area_ref=1000.0)
        err = compute_errors(BoundingBox(224.0, 224.0, 100.0, 100.0), CAM, gains)
        assert err.e_z < 0
        cmd = compute_command(err, gains)
        assert cmd.v_z == 0.0

    def test_bounds_hold_for_random_errors(self):
        rng = np.random.default_rng(17)
        gains = ControllerGains()
        for _ in range(2000):
            box = BoundingBox(
                rng.uniform(0, 448), rng.uniform(0, 448),
                rng.uniform(1, 448), rng.uniform(1, 448),
            )
            cmd = compute_command(compute_errors(box, CAM, gains), gains)
            assert abs(cmd.v_x) <= gains.v_lat_max
            assert abs(cmd.v_y) <= gains.v_lat_max
            assert -gains.k_z <= cmd.v_z <= 0.0

    def test_lateral_clamp(self):
        # pad far right of center: raw command +4.48 m/s, clamped to +2
        gains = ControllerGains(k_xy=0.02, v_lat_max=2.0)
        err = compute_errors(BoundingBox(448.0, 224.0, 10.0, 10.0), CAM, gains)
        cmd = compute_command(err, gains)
        assert cmd.v_x == 2.0


class TestGains:
    def test_all_fields_must_be_positive(self):
        for field in ("k_xy", "k_z", "v_lat_max", "align_threshold", "area_ref"):
            for value in (0.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"^{field}: "):
                    ControllerGains(**{field: value})

    def test_area_ref_for_altitude(self):
        assert area_ref_for_altitude(10.0, 224.0, 12.0) == pytest.approx(72_253.44)
        assert area_ref_for_altitude(6.0, 224.0, 12.0) == pytest.approx(448.0**2)
        with pytest.raises(ValueError):
            area_ref_for_altitude(0.0, 224.0, 12.0)
        # the area overflows to inf for a tiny z_ref or a huge pad, and
        # underflows to 0 for a tiny camera and pad
        for args in ((1e-200, 224.0, 12.0), (6.0, 224.0, 1e308), (6.0, 1e-200, 1e-200)):
            with pytest.raises(ValueError, match="^z_ref: .*helipad.side_length"):
                area_ref_for_altitude(*args)

    def test_default_reference_area_sits_below_commit_altitude(self):
        # the proportional descent law stalls where area == area_ref, so the
        # default reference must correspond to an altitude below the 8 m
        # commit gate or the loop could never land
        gains = ControllerGains()
        stall_side = math.sqrt(gains.area_ref)
        stall_z = 224.0 * 12.0 / stall_side
        assert stall_z < 8.0 or stall_z == pytest.approx(6.0)


class TestVelocityCommand:
    def test_plain_value_type(self):
        cmd = VelocityCommand(1.0, -1.0, -0.5)
        assert (cmd.v_x, cmd.v_y, cmd.v_z) == (1.0, -1.0, -0.5)


def reference_compute_command(err, gains):
    """compute_command as written with the builtin max and min: the oracle
    for the spelled-out comparisons compute_command uses."""
    v_x = max(-gains.v_lat_max, min(gains.v_lat_max, -gains.k_xy * err.e_x))
    v_y = max(-gains.v_lat_max, min(gains.v_lat_max, -gains.k_xy * err.e_y))
    if math.hypot(err.e_x, err.e_y) <= gains.align_threshold:
        frac = min(max(err.e_z, 0.0) / gains.area_ref, 1.0)
        v_z = -gains.k_z * frac
    else:
        v_z = 0.0
    return VelocityCommand(v_x=v_x, v_y=v_y, v_z=v_z)


def outcome(fn, *args):
    """The exact bytes of fn's command (tells -0.0 from 0.0), or the type of
    the exception it raises (a zero area_ref divides by zero)."""
    try:
        return struct.pack("<3d", *fn(*args))
    except ArithmeticError as exc:
        return type(exc)


# every float, with the values where max/min operand order shows drawn often
any_float = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


class TestCommandMirror:
    @settings(max_examples=500, deadline=None)  # a slow example on a busy machine is no failure
    @given(
        st.tuples(any_float, any_float, any_float, any_float),
        st.tuples(any_float, any_float, any_float, any_float, any_float),
    )
    @example((-0.0, 0.0, 0.0, -0.0), (1.0, 1.0, 0.0, 1.0, 1.0))  # clamp bound of 0.0
    @example((1.0, 1.0, 0.0, math.nan), (0.02, 1.5, 2.0, math.inf, 1.0))  # NaN descent
    def test_matches_builtin_max_min(self, err, gains):
        err = ErrorSignals(*err)
        # stand-in gains, so any float can be a gain
        gains = SimpleNamespace(**dict(zip(
            ("k_xy", "k_z", "v_lat_max", "align_threshold", "area_ref"), gains
        )))
        assert outcome(compute_command, err, gains) == outcome(
            reference_compute_command, err, gains
        )
