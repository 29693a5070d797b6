"""The per-frame value types are NamedTuples: immutable, picklable, with
their field names, order and defaults kept, and compared like tuples."""

import pickle

import pytest

from padland.experts import ExpertId
from padland.gating import GateOutput
from padland.geometry import BoundingBox, VehicleState
from padland.servo import ErrorSignals, VelocityCommand

BOX = BoundingBox(230.0, 224.0, 24.0, 20.0)
VALUES = [
    BOX,
    VehicleState(-86.0, 80.0, 90.0, 0.5, -0.25, -1.5),
    ErrorSignals(-6.0, 0.0, 480.0, 72_000.0),
    VelocityCommand(0.12, 0.0, -1.5),
    GateOutput(BOX, ExpertId.NEAR, False),
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


def test_tuple_semantics_callers_see():
    # equal to a plain tuple of the same values; _replace instead of
    # dataclasses.replace; BoundingBox keeps its area property
    assert BOX == (230.0, 224.0, 24.0, 20.0)
    assert VehicleState(1.0, 2.0, 3.0) == (1.0, 2.0, 3.0, 0.0, 0.0, 0.0)
    assert BOX._replace(w=30.0) == BoundingBox(230.0, 224.0, 30.0, 20.0)
    assert BOX.area == 480.0
