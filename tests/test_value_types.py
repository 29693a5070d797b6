"""The per-frame value types are NamedTuples: immutable, picklable, with
their field names, order and defaults kept, and compared like tuples."""

import math
import pickle

import pytest

from padland.dynamics import DynamicsParams, step
from padland.experts import Detection, ExpertId
from padland.gating import GateOutput, GateState, select_expert
from padland.geometry import (
    BoundingBox,
    CameraModel,
    HelipadSpec,
    VehicleState,
    clamp_box,
    project_helipad,
)
from padland.servo import (
    ControllerGains,
    ErrorSignals,
    VelocityCommand,
    compute_command,
    compute_errors,
)

BOX = BoundingBox(230.0, 224.0, 24.0, 20.0)
VALUES = [
    BOX,
    VehicleState(-86.0, 80.0, 90.0, 0.5, -0.25, -1.5),
    ErrorSignals(-6.0, 0.0, 480.0, 72_000.0),
    VelocityCommand(0.12, 0.0, -1.5),
    GateOutput(BOX, ExpertId.NEAR, False),
    Detection(BOX, 0.75),
    Detection(),
]
IDS = [type(v).__name__ for v in VALUES]


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_fields_cannot_be_assigned(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], 1.0)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_pickle_round_trip_is_equal(value):
    back = pickle.loads(pickle.dumps(value))
    assert back == value
    assert type(back) is type(value)


def test_fields_order_and_defaults():
    assert BoundingBox._fields == ("u", "v", "w", "h")
    assert VehicleState._fields == ("x", "y", "z", "vx", "vy", "vz")
    assert VehicleState._field_defaults == {"vx": 0.0, "vy": 0.0, "vz": 0.0}
    assert ErrorSignals._fields == ("e_x", "e_y", "area", "e_z")
    assert VelocityCommand._fields == ("v_x", "v_y", "v_z")
    assert GateOutput._fields == ("smoothed_box", "selected_expert", "tracking_lost")
    assert Detection._fields == ("box", "confidence")
    assert Detection._field_defaults == {"box": None, "confidence": 0.0}


def test_tuple_semantics_callers_see():
    # equal to a plain tuple of the same values; _replace instead of
    # dataclasses.replace; BoundingBox keeps its area property
    assert BOX == (230.0, 224.0, 24.0, 20.0)
    assert VehicleState(1.0, 2.0, 3.0) == (1.0, 2.0, 3.0, 0.0, 0.0, 0.0)
    assert BOX._replace(w=30.0) == BoundingBox(230.0, 224.0, 30.0, 20.0)
    assert BOX.area == 480.0


def test_detection_tuple_semantics():
    found = Detection(BOX, 0.75)
    assert found == (BOX, 0.75)
    assert Detection() == (None, 0.0)
    assert Detection(box=BOX) == (BOX, 0.0)
    assert found.present and not Detection().present
    assert found._replace(confidence=1.0) == (BOX, 1.0)
    assert type(found._replace(confidence=1.0)) is Detection
    assert not hasattr(found, "__dict__")


@pytest.mark.parametrize("confidence", [1.5, -0.25, math.nan, math.inf])
def test_detection_confidence_must_lie_in_unit_interval(confidence):
    with pytest.raises(ValueError, match="outside"):
        Detection(BOX, confidence)
    # the copies NamedTuple makes go through the same constructor
    with pytest.raises(ValueError, match="outside"):
        Detection(BOX, 0.5)._replace(confidence=confidence)
    with pytest.raises(ValueError, match="outside"):
        Detection._make((BOX, confidence))


@pytest.mark.parametrize("confidence", [0.5, 1.0, math.nan])
def test_absent_detection_must_carry_zero_confidence(confidence):
    with pytest.raises(ValueError, match="absent"):
        Detection(None, confidence)
    with pytest.raises(ValueError, match="absent"):
        Detection(BOX, 0.5)._replace(box=None)


def test_per_frame_functions_return_their_types():
    # the per-frame results are built with tuple.__new__: each must still
    # come out as its NamedTuple type, with every field set
    cam, gains = CameraModel(), ControllerGains()
    state = VehicleState(-81.0, 74.0, 40.0)
    truth = project_helipad(state, HelipadSpec(), cam)
    clipped = clamp_box(BoundingBox(440.0, 224.0, 30.0, 20.0), cam)
    gate = GateState()
    out = select_expert(Detection(truth, 0.9), Detection(), gate, cam)
    coast = select_expert(Detection(), Detection(), gate, cam)
    err = compute_errors(out.smoothed_box, cam, gains)
    cmd = compute_command(err, gains)
    after = step(state, cmd, DynamicsParams())
    for value, kind in [
        (truth, BoundingBox),
        (clipped, BoundingBox),
        (out, GateOutput),
        (out.smoothed_box, BoundingBox),
        (coast, GateOutput),
        (err, ErrorSignals),
        (cmd, VelocityCommand),
        (after, VehicleState),
    ]:
        assert type(value) is kind
        assert len(value) == len(kind._fields)
