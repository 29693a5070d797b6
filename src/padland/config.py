"""Campaign configuration: one JSON document covering every tunable.

The defaults are the dataclass defaults. A section's keys are its
dataclass's field names, and ``_read`` reads each key by its field's
annotation, type and range: it converts the JSON spelling (a list to a
tuple, an int to a float, a float with no fraction to an int) and checks
the value by ``geometry.check_value``, as each parameter object checks
its own fields. The rules between one object's fields are its
``__post_init__``'s, and those that span objects, modes included,
``harness.check_campaign``'s, which ``CampaignSpec`` applies. Every
error is prefixed with the dotted key (for example ``gains.k_xy``) so a
bad config is diagnosable from the message alone. A key the default
document lacks is an error too, so a typo is never silently ignored, and
so is a key repeated in one object, whose earlier values JSON would
drop. Three keys are not fields: ``helipad.center`` holds the pad's
``x`` and ``y``, the expert distractor offset is configured in world
meters (stored in pad-side units) and the descent target as the altitude
``gains.z_ref`` (stored as the box area seen from it); a converted value
that overflows is reported under the config's key. ``read_text`` reads
every input file, config, detection log and summary alike.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Annotated, get_args, get_origin

from .dynamics import DynamicsParams
from .experts import ExpertProfile
from .geometry import CameraModel, HelipadSpec, _hints, _is_finite, check_value
from .harness import Mode, Scenario, TrialConfig, check_campaign
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


def config_doc(spec: CampaignSpec) -> dict:
    """The document build_campaign reads as spec: each section's fields by
    name, and the three keys that are not fields, which only this writes.
    For a spec read from a document, build_campaign(config_doc(spec)) ==
    spec; config_doc(build_campaign(doc)) can move doc's gains.z_ref or an
    offset by one ulp (z_ref 0.31 to 0.30999999999999994 by default), or an
    offset near the largest float to infinity. A spec built in Python whose
    area_ref or pad offset no document gives may not come back equal."""
    scenario = spec.scenario
    camera, pad = scenario.camera, scenario.helipad

    def expert(profile: ExpertProfile) -> dict:
        doc = asdict(profile)
        x, y = doc.pop("distractor_offset_pads")
        return {**doc, "distractor_offset_m": [x * pad.side_length, y * pad.side_length]}

    gains = asdict(scenario.gains)
    z_ref = altitude_for_area_ref(gains.pop("area_ref"), camera.focal_length, pad.side_length)
    doc = {
        "camera": asdict(camera),
        "helipad": {"center": [pad.x, pad.y], "side_length": pad.side_length},
        "experts": {"far": expert(scenario.far_profile), "near": expert(scenario.near_profile)},
        "gate": {"window_size": scenario.window_size, "coast_limit": scenario.coast_limit},
        "gains": {**gains, "z_ref": z_ref},
        "dynamics": asdict(scenario.dynamics),
        "trials": {**asdict(spec.trials), "modes": [m.value for m in spec.modes]},
    }
    return json.loads(json.dumps(doc))  # tuples become lists, as in a loaded file


def default_config() -> dict:
    """The default configuration document, config_doc(CampaignSpec())."""
    return config_doc(CampaignSpec())


def _get(doc: dict, path: str):
    node = doc
    parts = path.split(".")
    for depth, part in enumerate(parts):
        if not isinstance(node, dict):
            section = ".".join(parts[:depth])
            raise ConfigError(f"{section}: expected a JSON object, got {type(node).__name__}")
        if part not in node:
            raise ConfigError(f"missing key: {path}")
        node = node[part]
    return node


def _from_json(hint, value):
    """value, parsed from JSON, as the annotation hint takes it: a list as a
    tuple (of hint's first argument), an int as a float, a whole float as an int."""
    if get_origin(hint) is Annotated:
        hint = get_args(hint)[0]
    if isinstance(value, list):
        item = (get_args(hint) or (None,))[0]
        return tuple(_from_json(item, v) for v in value)
    if hint is float and type(value) is int and _is_finite(value):
        return float(value)
    if hint is int and type(value) is float and value.is_integer():
        return int(value)
    return value


def _read(doc: dict, path: str, hint):
    """The key at path, by its annotation hint (_from_json, check_value)."""
    value = _from_json(hint, _get(doc, path))
    _checked("", check_value, path, hint, value)
    return value


def _member(enum, path: str, value):
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(
            f"{path}: unknown value {value!r} (expected one of {[m.value for m in enum]})"
        ) from None


def _checked(section: str, make, *args, **kwargs):
    """make(*args, **kwargs), re-raising a range rule's ValueError (whose
    message starts with the field name, or with the dotted key when section
    is empty) as a ConfigError naming the key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}" if section else str(exc)) from None


def _section(doc: dict, section: str, cls, **given):
    """cls(**given, other fields read from `section.<name>` by their
    annotation) through _checked; an annotation with no rule is a TypeError."""
    hints = _hints(cls)
    names = [f.name for f in fields(cls) if f.name not in given]
    read = {name: _read(doc, f"{section}.{name}", hints[name]) for name in names}
    return _checked(section, cls, **given, **read)


def _profile(doc: dict, key: str, pad_side: float) -> ExpertProfile:
    base = f"experts.{key}"
    offset_m = _read(doc, f"{base}.distractor_offset_m", tuple[float, float])
    pads = (offset_m[0] / pad_side, offset_m[1] / pad_side)
    if not all(map(_is_finite, pads)):
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
    pad_x, pad_y = _read(doc, "helipad.center", tuple[float, float])
    pad = _section(doc, "helipad", HelipadSpec, x=pad_x, y=pad_y)
    z_ref = _read(doc, "gains.z_ref", float)
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
    names = _get(doc, "trials.modes")
    if not isinstance(names, list):
        raise ConfigError(f"trials.modes: expected a JSON array, got {type(names).__name__}")
    modes = tuple(_member(Mode, "trials.modes", name) for name in names)
    return _checked("", CampaignSpec, scenario=scenario, trials=trials, modes=modes)


def read_text(path: str | Path, what: str, error: type[ValueError] = ConfigError) -> str:
    """The text of an input file; raises error naming the file as `what`
    when it is missing, a directory or not text."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
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
        raise ConfigError(f"{path}: config file is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply to parse") from None
    if isinstance(doc, _Repeated):
        raise ConfigError(f"{path}: repeated key: {doc.key}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    return doc
