"""Campaign configuration: one JSON document covering every tunable.

Validation errors name the offending key with a dotted path (for example
``gains.k_xy``) so a bad config is diagnosable from the message alone.
The expert distractor offset is configured in world meters and converted
to pad-side units when the profile is built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .dynamics import DynamicsParams
from .experts import ExpertId, ExpertProfile, Regime
from .geometry import CameraModel, HelipadSpec
from .harness import Mode, Scenario, TrialConfig
from .servo import ControllerGains, area_ref_for_altitude


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


DEFAULT_CONFIG: dict = {
    "camera": {
        "image_width": 448,
        "image_height": 448,
        "focal_length": 224.0,
    },
    "helipad": {
        "center": [-80.0, 75.0],
        "side_length": 12.0,
    },
    "experts": {
        "far": {
            "s_center": 8.0,
            "s_slope": 2.0,
            "regime": "detects_above",
            "sigma_center_base": 2.0,
            "sigma_center_scale": 0.05,
            "sigma_size_frac": 0.05,
            "distractor_prob": 0.01,
            "distractor_offset_m": [25.0, 0.0],
        },
        "near": {
            "s_center": 27.0,
            "s_slope": 0.75,
            "regime": "detects_above",
            "sigma_center_base": 1.5,
            "sigma_center_scale": 0.0,
            "sigma_size_frac": 0.03,
            "distractor_prob": 0.0,
            "distractor_offset_m": [0.0, 0.0],
        },
    },
    "gate": {
        "window_size": 5,
        "coast_limit": 10,
    },
    "gains": {
        "k_xy": 0.02,
        "k_z": 1.5,
        "v_lat_max": 2.0,
        "align_threshold": 30.0,
        "z_ref": 6.0,
    },
    "dynamics": {
        "dt": 0.05,
        "tau": 0.4,
    },
    "trials": {
        "n_trials": 10,
        "x_range": [-95.0, -65.0],
        "y_range": [60.0, 90.0],
        "altitude_set": [70.0, 80.0, 90.0, 110.0],
        "seed": 42,
        "max_steps": 6000,
        "commit_altitude": 8.0,
        "modes": ["near_only", "far_only", "dual"],
    },
}


def default_config() -> dict:
    """A fresh copy of the shipped default configuration."""
    return json.loads(json.dumps(DEFAULT_CONFIG))


def _get(doc: dict, path: str, expected=None):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"missing key: {path}")
        node = node[part]
    if expected is not None and not isinstance(node, expected):
        raise ConfigError(f"{path}: expected {expected}, got {type(node).__name__}")
    return node


_INT_LIMIT = 2**63  # integer keys must lie strictly inside +/- this


def _finite(value) -> float | None:
    """value as a finite float, or None if it is not a finite number
    (booleans are not numbers; integers too large for a float are not finite)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _check_sign(path: str, value, positive: bool, nonnegative: bool) -> None:
    if positive and value <= 0:
        raise ConfigError(f"{path}: must be strictly positive (got {value})")
    if nonnegative and value < 0:
        raise ConfigError(f"{path}: must be >= 0 (got {value})")


def _number(doc: dict, path: str, positive=False, nonnegative=False) -> float:
    value = _get(doc, path)
    number = _finite(value)
    if number is None:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    _check_sign(path, number, positive, nonnegative)
    return number


def _integer(doc: dict, path: str, positive=False, nonnegative=False) -> int:
    """A whole number; a float is accepted only when it has no fraction."""
    value = _get(doc, path)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if not -_INT_LIMIT < value < _INT_LIMIT:
        raise ConfigError(f"{path}: integer out of range (magnitude must be below 2**63)")
    _check_sign(path, value, positive, nonnegative)
    return value


def _pair(doc: dict, path: str) -> tuple[float, float]:
    value = _get(doc, path, list)
    pair = [_finite(v) for v in value]
    if len(pair) != 2 or None in pair:
        raise ConfigError(f"{path}: expected a pair of finite numbers")
    return pair[0], pair[1]


def _probability(doc: dict, path: str) -> float:
    value = _number(doc, path, nonnegative=True)
    if value > 1:
        raise ConfigError(f"{path}: must be in [0, 1] (got {value})")
    return value


def _profile(doc: dict, key: str, expert_id: ExpertId, pad_side: float) -> ExpertProfile:
    base = f"experts.{key}"
    regime_name = _get(doc, f"{base}.regime", str)
    try:
        regime = Regime(regime_name)
    except ValueError:
        raise ConfigError(
            f"{base}.regime: must be 'detects_above' or 'detects_below' (got {regime_name!r})"
        ) from None
    offset_m = _pair(doc, f"{base}.distractor_offset_m")
    return ExpertProfile(
        expert_id=expert_id,
        s_center=_number(doc, f"{base}.s_center"),
        s_slope=_number(doc, f"{base}.s_slope", positive=True),
        regime=regime,
        sigma_center_base=_number(doc, f"{base}.sigma_center_base", nonnegative=True),
        sigma_center_scale=_number(doc, f"{base}.sigma_center_scale", nonnegative=True),
        sigma_size_frac=_number(doc, f"{base}.sigma_size_frac", nonnegative=True),
        distractor_prob=_probability(doc, f"{base}.distractor_prob"),
        distractor_offset_pads=(offset_m[0] / pad_side, offset_m[1] / pad_side),
    )


@dataclass(frozen=True)
class CampaignSpec:
    """Validated configuration, ready to run."""

    scenario: Scenario
    trials: TrialConfig
    modes: tuple[Mode, ...]


def build_campaign(doc: dict) -> CampaignSpec:
    """Validate a config document and construct the runnable objects."""
    camera = CameraModel(
        image_width=_number(doc, "camera.image_width", positive=True),
        image_height=_number(doc, "camera.image_height", positive=True),
        focal_length=_number(doc, "camera.focal_length", positive=True),
    )
    pad_center = _pair(doc, "helipad.center")
    pad = HelipadSpec(
        x=pad_center[0],
        y=pad_center[1],
        side_length=_number(doc, "helipad.side_length", positive=True),
    )
    gains = ControllerGains(
        k_xy=_number(doc, "gains.k_xy", positive=True),
        k_z=_number(doc, "gains.k_z", positive=True),
        v_lat_max=_number(doc, "gains.v_lat_max", positive=True),
        align_threshold=_number(doc, "gains.align_threshold", positive=True),
        area_ref=area_ref_for_altitude(
            _number(doc, "gains.z_ref", positive=True),
            camera.focal_length,
            pad.side_length,
        ),
    )
    dynamics = DynamicsParams(
        dt=_number(doc, "dynamics.dt", positive=True),
        tau=_number(doc, "dynamics.tau", nonnegative=True),
    )
    window_size = _integer(doc, "gate.window_size", positive=True)
    coast_limit = _integer(doc, "gate.coast_limit", nonnegative=True)

    scenario = Scenario(
        camera=camera,
        helipad=pad,
        far_profile=_profile(doc, "far", ExpertId.FAR, pad.side_length),
        near_profile=_profile(doc, "near", ExpertId.NEAR, pad.side_length),
        gains=gains,
        dynamics=dynamics,
        window_size=window_size,
        coast_limit=coast_limit,
    )

    altitudes = [_finite(z) for z in _get(doc, "trials.altitude_set", list)]
    if not altitudes or any(z is None or z <= 0 for z in altitudes):
        raise ConfigError("trials.altitude_set: expected a nonempty list of positive finite numbers")
    commit_altitude = _number(doc, "trials.commit_altitude", positive=True)
    if commit_altitude >= min(altitudes):
        raise ConfigError(
            f"trials.commit_altitude: must be below the lowest trials.altitude_set entry "
            f"(got {commit_altitude} >= {min(altitudes)}); those trials would land at once"
        )
    x_range = _pair(doc, "trials.x_range")
    y_range = _pair(doc, "trials.y_range")
    for name, rng in (("trials.x_range", x_range), ("trials.y_range", y_range)):
        if rng[1] < rng[0]:
            raise ConfigError(f"{name}: low must not exceed high")
    trials = TrialConfig(
        x_range=x_range,
        y_range=y_range,
        altitude_set=tuple(altitudes),
        seed=_integer(doc, "trials.seed", nonnegative=True),
        n_trials=_integer(doc, "trials.n_trials", positive=True),
        max_steps=_integer(doc, "trials.max_steps", positive=True),
        commit_altitude=commit_altitude,
    )

    mode_names = _get(doc, "trials.modes", list)
    modes = []
    for name in mode_names:
        try:
            modes.append(Mode(name))
        except ValueError:
            raise ConfigError(
                f"trials.modes: unknown mode {name!r} "
                f"(expected one of {[m.value for m in Mode]})"
            ) from None
    if not modes:
        raise ConfigError("trials.modes: at least one mode required")
    if len(set(modes)) != len(modes):
        raise ConfigError(f"trials.modes: each mode may be listed once (got {mode_names})")

    return CampaignSpec(scenario=scenario, trials=trials, modes=tuple(modes))


def load_config(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc
