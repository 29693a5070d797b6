"""Campaign configuration: one JSON document covering every tunable.

The defaults are the dataclass defaults, each range rule lives in the
dataclass that owns the field, and the rules that span objects, modes
included, live in ``harness.check_campaign``, which ``CampaignSpec``
applies. A section's keys are its dataclass's field names, and each key
is read by its field's annotation (``_section``): an integer, a finite
number or a list of them, as ``TrialResult`` decides it, by
``harness._is_finite`` and ``_is_integer``. Every error is prefixed
with the dotted key (for example ``gains.k_xy``) so a bad config is
diagnosable from the message alone. A key the default document lacks
is an error too, so a typo is never silently ignored, and so is a key
repeated in one object, whose earlier values JSON would drop. Three
keys are not fields: ``helipad.center`` holds the pad's ``x`` and
``y``, the expert distractor offset is configured in world meters
(stored in pad-side units) and the descent target as the altitude
``gains.z_ref`` (stored as the box area seen from it); a converted
value that overflows is reported under the config's key. ``read_text``
reads every input file, config, detection log and summary alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cache, partial
from pathlib import Path
from typing import get_type_hints

from .dynamics import DynamicsParams
from .experts import ExpertProfile
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


_hints = cache(get_type_hints)  # each parameter class's annotations, evaluated once
_READERS = {  # a key's reader, by its field's annotation
    int: _integer,
    float: _number,
    tuple[float, float]: partial(_floats, size=2),
    tuple[float, ...]: _floats,
}


def _section(doc: dict, section: str, cls, **given):
    """cls(**given, other fields read from `section.<name>` by their
    annotation's reader) through _checked; no reader is a TypeError."""
    hints = _hints(cls)
    names = [f.name for f in fields(cls) if f.name not in given]
    for name in names:
        if hints[name] not in _READERS:
            raise TypeError(f"{cls.__name__}.{name}: config has no reader for {hints[name]}")
    read = {name: _READERS[hints[name]](doc, f"{section}.{name}") for name in names}
    return _checked(section, cls, **given, **read)


def _profile(doc: dict, key: str, pad_side: float) -> ExpertProfile:
    base = f"experts.{key}"
    offset_m = _floats(doc, f"{base}.distractor_offset_m", 2)
    pads = (offset_m[0] / pad_side, offset_m[1] / pad_side)
    if not all(map(math.isfinite, pads)):
        raise ConfigError(
            f"{base}.distractor_offset_m: each offset / helipad.side_length must be finite "
            f"(got {list(offset_m)}, side_length {pad_side})"
        )
    return _section(doc, base, ExpertProfile, distractor_offset_pads=pads)


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
    camera = _section(doc, "camera", CameraModel)
    pad_x, pad_y = _floats(doc, "helipad.center", 2)
    pad = _section(doc, "helipad", HelipadSpec, x=pad_x, y=pad_y)
    z_ref = _number(doc, "gains.z_ref")
    area_ref = _checked("gains", area_ref_for_altitude, z_ref, camera.focal_length, pad.side_length)
    gains = _section(doc, "gains", ControllerGains, area_ref=area_ref)
    dynamics = _section(doc, "dynamics", DynamicsParams)
    scenario = _section(
        doc,
        "gate",
        Scenario,
        camera=camera,
        helipad=pad,
        far_profile=_profile(doc, "far", pad.side_length),
        near_profile=_profile(doc, "near", pad.side_length),
        gains=gains,
        dynamics=dynamics,
    )
    trials = _section(doc, "trials", TrialConfig)
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


class _Repeated(dict):
    """What a JSON object that repeats a key, itself or in a value it holds,
    parses to: empty, so that no reader accepts it, with `key` the path of
    that key from this object (`trials[0].steps` through a list)."""

    def __init__(self, key: str):
        self.key = key


def _repeat(value) -> str | None:
    """The path from value, a parsed JSON value, to the repeated key it
    holds (`.key` or `[i]...`), or None if it holds none."""
    if isinstance(value, _Repeated):
        return f".{value.key}"
    if isinstance(value, list):
        for i, item in enumerate(value):
            if at := _repeat(item):
                return f"[{i}]{at}"
    return None


def _object(pairs: list[tuple[str, object]]) -> dict:
    """json.loads's object_pairs_hook: the object's pairs as a dict, or a
    _Repeated in place of dropping a repeated key's earlier values. Objects
    are built innermost first, so each extends a nested repeat's path."""
    doc = {}
    for key, value in pairs:
        if at := _repeat(value):
            return _Repeated(key + at)
        if key in doc:
            return _Repeated(key)
        doc[key] = value
    return doc


def load_config(path: str | Path) -> dict:
    text = read_text(path, "config file")
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if isinstance(doc, _Repeated):
        raise ConfigError(f"repeated key: {doc.key}")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc
