"""Campaign configuration: one JSON document covering every tunable.

The defaults are the dataclass defaults, each range rule lives in the
dataclass that owns the field, and the rules that span objects, modes
included, live in ``harness.check_campaign``, which ``CampaignSpec``
applies. This module parses types (a finite number or an integer as
``TrialResult`` decides it, by ``harness._is_finite`` and
``_is_integer``), applies all of those rules, and prefixes every error
with the dotted key (for example ``gains.k_xy``) so a bad config is
diagnosable from the message alone. A key the default document lacks
is an error too, so a typo is never silently ignored. Two keys are
converted when the objects are built: the expert distractor offset is
configured in world meters (stored in pad-side units) and the descent
target as the altitude ``gains.z_ref`` (stored as the box area seen
from it). ``read_text`` reads every input file, config, detection log
and summary alike.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .dynamics import DynamicsParams
from .experts import ExpertId, ExpertProfile
from .geometry import CameraModel, HelipadSpec
from .harness import Mode, Scenario, TrialConfig, _is_finite, _is_integer, check_campaign
from .servo import ControllerGains, altitude_for_area_ref, area_ref_for_altitude


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class CampaignSpec:
    """Validated configuration, ready to run."""

    scenario: Scenario = field(default_factory=Scenario)
    trials: TrialConfig = field(default_factory=TrialConfig)
    modes: tuple[Mode, ...] = tuple(Mode)

    def __post_init__(self):
        check_campaign(self.scenario, self.trials, self.modes)


def _profile_doc(profile: ExpertProfile, pad_side: float) -> dict:
    doc = asdict(profile)
    del doc["expert_id"]
    offset = doc.pop("distractor_offset_pads")
    doc["distractor_offset_m"] = [offset[0] * pad_side, offset[1] * pad_side]
    return doc


def default_config() -> dict:
    """The default configuration document: the dataclass defaults in field
    order, with build_campaign's two conversions reversed."""
    spec = CampaignSpec()
    scenario = spec.scenario
    camera, pad = scenario.camera, scenario.helipad
    gains = asdict(scenario.gains)
    area_ref = gains.pop("area_ref")
    gains["z_ref"] = altitude_for_area_ref(area_ref, camera.focal_length, pad.side_length)
    doc = {
        "camera": asdict(camera),
        "helipad": {"center": [pad.x, pad.y], "side_length": pad.side_length},
        "experts": {
            "far": _profile_doc(scenario.far_profile, pad.side_length),
            "near": _profile_doc(scenario.near_profile, pad.side_length),
        },
        "gate": {"window_size": scenario.window_size, "coast_limit": scenario.coast_limit},
        "gains": gains,
        "dynamics": asdict(scenario.dynamics),
        "trials": {**asdict(spec.trials), "modes": [m.value for m in spec.modes]},
    }
    return json.loads(json.dumps(doc))  # tuples become lists, as in a loaded file


def _get(doc: dict, path: str, expected=None):
    node = doc
    parts = path.split(".")
    for depth, part in enumerate(parts):
        if not isinstance(node, dict):
            section = ".".join(parts[:depth])
            raise ConfigError(f"{section}: expected a JSON object, got {type(node).__name__}")
        if part not in node:
            raise ConfigError(f"missing key: {path}")
        node = node[part]
    if expected is not None and not isinstance(node, expected):
        raise ConfigError(f"{path}: expected {expected}, got {type(node).__name__}")
    return node


_INT_LIMIT = 2**63  # integer keys must lie strictly inside +/- this


def _number(doc: dict, path: str) -> float:
    value = _get(doc, path)
    if not _is_finite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _integer(doc: dict, path: str) -> int:
    """A whole number; a float is accepted only when it has no fraction."""
    value = _get(doc, path)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not _is_integer(value):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if not -_INT_LIMIT < value < _INT_LIMIT:
        raise ConfigError(f"{path}: integer out of range (magnitude must be below 2**63)")
    return value


def _member(enum, path: str, value):
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(
            f"{path}: unknown value {value!r} (expected one of {[m.value for m in enum]})"
        ) from None


def _numbers(doc: dict, section: str, cls, converted=()) -> dict:
    """`section.<name>` as a finite number for each field of cls not in
    converted: the keys of a section are its dataclass's field names."""
    return {
        f.name: _number(doc, f"{section}.{f.name}") for f in fields(cls) if f.name not in converted
    }


def _floats(doc: dict, path: str, size: int | None = None) -> tuple[float, ...]:
    """A list of finite numbers, of exactly size of them if size is given."""
    value = _get(doc, path, list)
    if size not in (None, len(value)) or not all(map(_is_finite, value)):
        shape = "a list" if size is None else "a pair"
        raise ConfigError(f"{path}: expected {shape} of finite numbers")
    return tuple(map(float, value))


def _checked(section: str, make, *args, **kwargs):
    """make(*args, **kwargs), re-raising a range rule's ValueError (whose
    message starts with the field name, or with the dotted key when section
    is empty) as a ConfigError naming the key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}" if section else str(exc)) from None


def _profile(doc: dict, key: str, expert_id: ExpertId, pad_side: float) -> ExpertProfile:
    base = f"experts.{key}"
    offset_m = _floats(doc, f"{base}.distractor_offset_m", 2)
    return _checked(
        base,
        ExpertProfile,
        expert_id=expert_id,
        distractor_offset_pads=(offset_m[0] / pad_side, offset_m[1] / pad_side),
        **_numbers(doc, base, ExpertProfile, {"expert_id", "distractor_offset_pads"}),
    )


def _reject_unknown(doc: dict, known: dict, prefix: str = "") -> None:
    """Raise a ConfigError naming the first key of doc that known (the
    default document) lacks at the same place."""
    for key, value in doc.items():
        if key not in known:
            raise ConfigError(f"unknown key: {prefix}{key}")
        if isinstance(value, dict) and isinstance(known[key], dict):
            _reject_unknown(value, known[key], f"{prefix}{key}.")


def build_campaign(doc: dict) -> CampaignSpec:
    """Validate a config document and construct the runnable objects."""
    _reject_unknown(doc, default_config())
    camera = _checked("camera", CameraModel, **_numbers(doc, "camera", CameraModel))
    pad_x, pad_y = _floats(doc, "helipad.center", 2)
    pad = _checked(
        "helipad", HelipadSpec, x=pad_x, y=pad_y, side_length=_number(doc, "helipad.side_length")
    )
    z_ref = _number(doc, "gains.z_ref")
    area_ref = _checked("gains", area_ref_for_altitude, z_ref, camera.focal_length, pad.side_length)
    gains = _checked(
        "gains",
        ControllerGains,
        area_ref=area_ref,
        **_numbers(doc, "gains", ControllerGains, {"area_ref"}),
    )
    dynamics = _checked("dynamics", DynamicsParams, **_numbers(doc, "dynamics", DynamicsParams))
    # the gate fields are the only ones Scenario itself checks
    scenario = _checked(
        "gate",
        Scenario,
        camera=camera,
        helipad=pad,
        far_profile=_profile(doc, "far", ExpertId.FAR, pad.side_length),
        near_profile=_profile(doc, "near", ExpertId.NEAR, pad.side_length),
        gains=gains,
        dynamics=dynamics,
        window_size=_integer(doc, "gate.window_size"),
        coast_limit=_integer(doc, "gate.coast_limit"),
    )

    altitudes = _floats(doc, "trials.altitude_set")
    trials = _checked(
        "trials",
        TrialConfig,
        x_range=_floats(doc, "trials.x_range", 2),
        y_range=_floats(doc, "trials.y_range", 2),
        altitude_set=altitudes,
        seed=_integer(doc, "trials.seed"),
        n_trials=_integer(doc, "trials.n_trials"),
        max_steps=_integer(doc, "trials.max_steps"),
        commit_altitude=_number(doc, "trials.commit_altitude"),
    )

    modes = tuple(_member(Mode, "trials.modes", name) for name in _get(doc, "trials.modes", list))
    return _checked("", CampaignSpec, scenario=scenario, trials=trials, modes=modes)


def read_text(path: str | Path, what: str, error: type[ValueError] = ConfigError) -> str:
    """The text of an input file; raises error naming the file as `what`
    when it is missing, a directory or not text."""
    p = Path(path)
    try:
        return p.read_text()
    except FileNotFoundError:
        raise error(f"{what} not found: {p}") from None
    except IsADirectoryError:
        raise error(f"{what} is a directory: {p}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{p}: not a text file ({exc})") from None


def load_config(path: str | Path) -> dict:
    text = read_text(path, "config file")
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc
