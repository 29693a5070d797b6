"""Every parameter and result object checks each init field against its
annotation, type and range (geometry.check_fields), before its rules
between fields, so a value of the wrong type or out of range fails when the
object is made, naming the field."""

import math
from dataclasses import fields, replace
from typing import Annotated, get_args, get_origin, get_type_hints

import pytest

from padland import experts, geometry, harness
from padland.dynamics import DynamicsParams
from padland.experts import ExpertProfile
from padland.gating import GateState
from padland.geometry import (
    CameraModel,
    Count,
    HelipadSpec,
    NonNegative,
    Positive,
    PositiveCount,
    check_value,
)
from padland.harness import (
    MAX_STEPS,
    MAX_TRIALS,
    Scenario,
    TerminationReason,
    TrialConfig,
    TrialResult,
)
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
    "10**5000": 10**5000,  # too long for repr to convert to decimal
}
BELOW_ZERO = math.nextafter(0.0, -1.0)
# each ranged annotation: the values just outside its range, then those at its edges
RANGES = {
    Positive: ([0.0, -0.0], [5e-324]),
    NonNegative: ([BELOW_ZERO], [0.0, -0.0]),
    Count: ([-1], [0, 2**63 - 1]),
    PositiveCount: ([0], [1]),
    experts._Slope: ([0.0, -0.0], [5e-324, BELOW_ZERO]),
    experts._Probability: ([BELOW_ZERO, math.nextafter(1.0, 2.0)], [0.0, 1.0]),
    harness._Interval: ([(1.0, 0.0), (1.0, math.nextafter(1.0, 0.0))], [(1.0, 1.0)]),
    harness._Altitudes: ([(), (0.0,), (70.0, -0.0)], [(5e-324,)]),
    harness._TrialCount: ([0, MAX_TRIALS + 1], [1, MAX_TRIALS]),
    harness._StepCount: ([0, MAX_STEPS + 1], [1, MAX_STEPS]),
    harness._Usage: (
        [{}, {"FAR": 1}, {"FAR": 1, "NEAR": 0, "BOGUS": 0}, {"FAR": -1, "NEAR": 3}],
        [{"FAR": 0, "NEAR": 0}, {"NEAR": 2**63 - 1, "FAR": 0}],
    ),
}


def bad_values(hint, default) -> dict:
    """The values a field annotated hint, holding default, must reject."""
    values = dict(SCALARS)
    if get_origin(hint) is Annotated:
        values.update({f"outside-{v!r}": v for v in RANGES[hint][0]})
        hint = get_args(hint)[0]
    if isinstance(default, tuple):
        values["list"] = list(default)
        values["holding-True"] = (True, *default[1:])
        values["holding-10**5000"] = (10**5000, *default[1:])
        if Ellipsis not in get_args(hint):  # a fixed number of entries
            values["short"] = default[:-1]
            values["long"] = default + default[-1:]
    return values


def cases():
    for base in BASES:
        cls = type(base)
        hints = get_type_hints(cls, include_extras=True)
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
    with pytest.raises(ValueError, match=r"^steps: must be >= 1 \(got 0\)$"):
        check_value("steps", PositiveCount, 0)
    with pytest.raises(ValueError, match=r"^steps: must be an integer .*\(got 0\.5\)$"):
        check_value("steps", PositiveCount, 0.5)  # the base rule first
    with pytest.raises(ValueError, match=r"^seed: .* \(got an int of 16610 bits\)$"):
        check_value("seed", Count, 10**5000)


# each module-level ranged annotation, by its name
RANGED = {
    name: hint
    for module in (geometry, experts, harness)
    for name, hint in vars(module).items()
    if get_origin(hint) is Annotated
}


def test_every_ranged_annotation_has_its_edges_here():
    used = {
        hint
        for base in BASES
        for hint in get_type_hints(type(base), include_extras=True).values()
        if get_origin(hint) is Annotated
    }
    assert used == set(RANGES) == set(RANGED.values())


@pytest.mark.parametrize("hint", RANGED.values(), ids=RANGED)
def test_a_ranged_annotation_takes_its_edges(hint):
    outside, edges = RANGES[hint]
    for value in edges:
        check_value("x", hint, value)
    for value in outside:
        with pytest.raises(ValueError, match=r"^x: must be "):
            check_value("x", hint, value)
