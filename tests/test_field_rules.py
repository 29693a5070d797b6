"""Every parameter and result object checks each init field against its
annotation (geometry.check_fields) before its own range rules, so a value
of the wrong type fails when the object is made, naming the field."""

import math
from dataclasses import fields, replace
from typing import get_args, get_type_hints

import pytest

from padland.dynamics import DynamicsParams
from padland.experts import ExpertProfile
from padland.gating import GateState
from padland.geometry import CameraModel, HelipadSpec, check_value
from padland.harness import Scenario, TerminationReason, TrialConfig, TrialResult
from padland.servo import ControllerGains

BASES = [
    CameraModel(),
    HelipadSpec(),
    ControllerGains(),
    DynamicsParams(),
    ExpertProfile(8.0, 2.0, distractor_prob=1.0, distractor_offset_pads=(1.0, 0.0)),
    Scenario(),
    TrialConfig(),
    GateState(),
    TrialResult(
        trial_id=0,
        initial_position=(-86.0, 80.0, 90.0),
        touchdown_xy=(-80.5, 75.0),
        touchdown_error=0.5,
        success=False,  # so that True breaks the rule that ties it to landed
        termination_reason=TerminationReason.TIMEOUT,
        steps=10,
        expert_usage={"FAR": 4, "NEAR": 6},
    ),
]
SCALARS = {
    "True": True,
    "str": "1",
    "None": None,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "10**400": 10**400,
}


def bad_values(hint, default) -> dict:
    """The values a field annotated hint, holding default, must reject."""
    values = dict(SCALARS)
    if isinstance(default, tuple):
        values["list"] = list(default)
        values["holding-True"] = (True, *default[1:])
        if Ellipsis not in get_args(hint):  # a fixed number of entries
            values["short"] = default[:-1]
            values["long"] = default + default[-1:]
    return values


def cases():
    for base in BASES:
        cls = type(base)
        hints = get_type_hints(cls)
        for f in fields(base):
            if f.init:
                yield pytest.param(base, f.name, hints[f.name], id=f"{cls.__name__}.{f.name}")


@pytest.mark.parametrize("base", BASES, ids=[type(b).__name__ for b in BASES])
def test_default_construction_still_works(base):
    values = {f.name: getattr(base, f.name) for f in fields(base) if f.init}
    assert type(base)(**values) == base


@pytest.mark.parametrize("base, name, hint", cases())
def test_every_field_rejects_a_value_of_the_wrong_type_by_name(base, name, hint):
    for label, value in bad_values(hint, getattr(base, name)).items():
        try:
            replace(base, **{name: value})
        except ValueError as exc:
            assert str(exc).startswith(f"{name}: "), (label, str(exc))
        else:
            pytest.fail(f"{name} accepted {label}: {value!r}")


def test_check_value_names_the_value_and_refuses_an_unknown_annotation():
    with pytest.raises(ValueError, match=r"^gains\.k_xy: must be a finite number \(got True\)$"):
        check_value("gains.k_xy", float, True)
    with pytest.raises(ValueError, match=r"^camera: must be a CameraModel \(got 'x'\)$"):
        check_value("camera", CameraModel, "x")
    with pytest.raises(TypeError, match=r"^flags: .*list\[int\]"):
        check_value("flags", list[int], [1])
    check_value("trial_id", int, 2**63 - 1)
    with pytest.raises(ValueError, match="^trial_id: "):
        check_value("trial_id", int, 2**63)
