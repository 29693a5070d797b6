import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padland import cli, config
from padland.cli import main
from padland.config import (
    CampaignSpec,
    ConfigError,
    build_campaign,
    config_doc,
    default_config,
    load_config,
)
from padland.experts import default_far_profile
from padland.harness import LOG_FIELDS, LOG_STRIDE, Mode, Scenario, TrialConfig
from padland.servo import ControllerGains

ROOT = Path(__file__).resolve().parents[1]
INSIDE = "210.0,230.5,24.0,24.0,0.81,1"  # a present detection inside the default image
OUTSIDE = "447,224,4,4,0.5,1"  # one pixel past its right edge


# values no key of the default document takes, each in place of a number,
# a list or a list entry
WRONG_TYPES = {
    "True": True,
    "str": "1",
    "None": None,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "10**400": 10**400,
}
PAIRS = {
    "helipad.center",
    "experts.far.distractor_offset_m",
    "experts.near.distractor_offset_m",
    "trials.x_range",
    "trials.y_range",
}


def _leaves(node, path=()):
    """(path, value) of each leaf of a config document: each key that holds
    no object, and each entry of a list (an index in the path)."""
    for part, value in node.items() if isinstance(node, dict) else enumerate(node):
        if not isinstance(value, dict):
            yield (*path, part), value
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, part))


LEAVES = [
    pytest.param(path, value, id=".".join(map(str, path))) for path, value in _leaves(default_config())
]


@pytest.fixture
def config_path(tmp_path) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(default_config(), indent=2))
    return path


class TestConfig:
    def test_default_config_builds(self):
        spec = build_campaign(default_config())
        assert spec.trials.n_trials == 10
        assert spec.modes == (Mode.NEAR_ONLY, Mode.FAR_ONLY, Mode.DUAL)
        assert spec.scenario.camera.cx == 224.0
        # reference area corresponds to a 6 m hover: full-frame pad
        assert spec.scenario.gains.area_ref == pytest.approx(448.0**2)

    def test_missing_key_named(self):
        doc = default_config()
        del doc["gains"]["k_xy"]
        with pytest.raises(ConfigError, match="gains.k_xy"):
            build_campaign(doc)

    def test_negative_gain_named(self):
        doc = default_config()
        doc["gains"]["k_xy"] = -0.5
        with pytest.raises(ConfigError, match="gains.k_xy"):
            build_campaign(doc)

    def test_bad_mode_named(self):
        doc = default_config()
        doc["trials"]["modes"] = ["dual", "triple"]
        with pytest.raises(ConfigError, match="trials.modes"):
            build_campaign(doc)

    def test_bad_range_named(self):
        doc = default_config()
        doc["trials"]["x_range"] = [-65.0, -95.0]
        with pytest.raises(ConfigError, match="trials.x_range"):
            build_campaign(doc)

    def test_default_config_matches_dataclass_defaults(self):
        assert build_campaign(default_config()) == CampaignSpec(Scenario(), TrialConfig(), tuple(Mode))
        assert config_doc(CampaignSpec()) == default_config()

    def test_whole_float_read_as_an_int(self):
        doc = default_config()
        doc["trials"]["n_trials"] = 4.0
        n_trials = build_campaign(doc).trials.n_trials
        assert n_trials == 4 and type(n_trials) is int

    def test_distractor_offset_converted_to_pad_units(self):
        spec = build_campaign(default_config())
        assert spec.scenario.far_profile.distractor_offset_pads[0] == pytest.approx(25.0 / 12.0)

    def test_shipped_default_file_in_sync(self, tmp_path, capsys):
        # the shipped file is the file init-config writes, byte for byte:
        # float fields as floats, keys in field order
        shipped = ROOT / "configs" / "default.json"
        assert json.loads(shipped.read_text()) == default_config()
        assert main(["init-config", "--out", str(tmp_path / "default.json")]) == 0
        assert shipped.read_bytes() == (tmp_path / "default.json").read_bytes()
        build_campaign(load_config(shipped))

    def test_section_refuses_an_annotation_it_has_no_reader_for(self):
        @dataclass(frozen=True)
        class Flags:
            rate: float = 1.0
            enabled: list[int] = None

        doc = {"flags": {"rate": 2.0, "enabled": [1]}}
        with pytest.raises(TypeError, match=r"^flags\.enabled: .*list\[int\]"):
            config._section(doc, "flags", Flags)
        assert config._section(doc, "flags", Flags, enabled=[0]) == Flags(2.0, [0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        # the second is an integer too long for Python to convert
        for text in ("{not json", '{"seed": 1' + "0" * 5000 + "}"):
            path.write_text(text)
            with pytest.raises(ConfigError, match="JSON"):
                load_config(path)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"n_trials": 10', '"n_trials": 10, "n_trials": 3', "trials.n_trials"),
            ('"s_slope": 2.0', '"s_slope": 2.0, "s_slope": 2.0', "experts.far.s_slope"),
            ('"camera": {', '"camera": {}, "camera": {', "camera"),
        ],
        ids=["trials.n_trials", "experts.far.s_slope-same-value", "camera-section"],
    )
    def test_repeated_key_named(self, tmp_path, capsys, old, new, key):
        # json.loads alone keeps the last value of a repeated key
        text = (ROOT / "configs" / "default.json").read_text()
        assert text.count(old) == 1
        path = tmp_path / "repeated.json"
        path.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: repeated key: {key}$"):
            load_config(path)
        assert main(["validate-config", "--config", str(path)]) == 2
        assert f"{path}: repeated key: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("path, default", LEAVES)
    def test_every_leaf_rejects_a_value_of_the_wrong_type_by_key(self, path, default):
        key = ".".join(p for p in path if isinstance(p, str))  # an entry is named by its list
        values = {**WRONG_TYPES, "list": [default]}
        if key in PAIRS and isinstance(default, list):
            values = {**WRONG_TYPES, "short": default[:-1], "long": default + default[-1:]}
        for label, value in values.items():
            doc = default_config()
            node = doc
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] = value
            with pytest.raises(ConfigError) as caught:
                build_campaign(doc)
            assert str(caught.value).startswith(f"{key}: "), (label, str(caught.value))


def number(low: float, high: float):
    """A JSON number in [low, high]: mostly a float, sometimes an int."""
    return st.floats(low, high) | st.integers(math.ceil(low), math.floor(high))


def pair(low: float, high: float, ordered: bool = False):
    items = st.lists(number(low, high), min_size=2, max_size=2)
    return items.map(sorted) if ordered else items


@st.composite
def config_docs(draw) -> dict:
    """A valid config document with every key drawn at random; the rules
    between keys (check_campaign, commit_altitude) hold by construction."""
    commit = draw(st.floats(0.5, 50.0))
    altitudes = draw(st.lists(st.floats(commit + 1.0, 500.0), min_size=1, max_size=5))
    k_z = draw(st.floats(0.01, 10.0))
    # dt * k_z stays below 1/20 of the shortest descent
    dt = draw(st.floats(1e-4, 0.99)) * (min(altitudes) - commit) / 20 / k_z

    def expert() -> dict:
        slope = st.floats(0.01, 50.0) | st.floats(-50.0, -0.01)
        return {
            "s_center": draw(number(-100.0, 200.0)),
            "s_slope": draw(slope),
            "sigma_center_base": draw(number(0.0, 20.0)),
            "sigma_center_scale": draw(number(0.0, 1.0)),
            "sigma_size_frac": draw(number(0.0, 1.0)),
            "distractor_prob": draw(number(0.0, 1.0)),
            "distractor_offset_m": draw(pair(-1e6, 1e6)),
        }

    modes = draw(st.permutations([m.value for m in Mode]))
    return {
        "camera": {
            "image_width": draw(number(1.0, 5000.0)),
            "image_height": draw(number(1.0, 5000.0)),
            "focal_length": draw(number(1.0, 5000.0)),
        },
        "helipad": {"center": draw(pair(-1e4, 1e4)), "side_length": draw(number(0.1, 100.0))},
        "experts": {"far": expert(), "near": expert()},
        "gate": {
            "window_size": draw(st.integers(1, 100)),
            "coast_limit": draw(st.integers(0, 1000)),
        },
        "gains": {
            "k_xy": draw(number(1e-4, 10.0)),
            "k_z": k_z,
            "v_lat_max": draw(number(0.01, 50.0)),
            "align_threshold": draw(number(0.01, 500.0)),
            "z_ref": draw(st.floats(0.01, commit * 0.99)),
        },
        "dynamics": {"dt": dt, "tau": draw(number(0.0, 5.0))},
        "trials": {
            "x_range": draw(pair(-1e4, 1e4, ordered=True)),
            "y_range": draw(pair(-1e4, 1e4, ordered=True)),
            "altitude_set": altitudes,
            "seed": draw(st.integers(0, 2**63 - 1)),
            "n_trials": draw(st.integers(1, 1000)),
            "max_steps": draw(st.integers(1, 20_000)),
            "commit_altitude": commit,
            "modes": modes[: draw(st.integers(1, len(modes)))],
        },
    }


class TestConfigDoc:
    """config_doc(spec) is the document build_campaign reads as spec."""

    @given(config_docs())
    @example(default_config())
    @settings(max_examples=500, deadline=None)
    def test_spec_read_from_a_document_survives_its_document(self, doc):
        spec = build_campaign(doc)
        written = config_doc(spec)
        assert build_campaign(written) == spec
        # so a second round writes the same document, byte for byte
        assert json.dumps(config_doc(build_campaign(written))) == json.dumps(written)

    def test_first_round_can_move_a_converted_key_by_one_ulp(self):
        doc = default_config()
        doc["gains"]["z_ref"] = 0.31
        doc["experts"]["far"]["distractor_offset_m"] = [0.9, 0.0]
        spec = build_campaign(doc)
        written = config_doc(spec)
        assert written["gains"]["z_ref"] == math.nextafter(0.31, 0.0) == 0.30999999999999994
        offset = written["experts"]["far"]["distractor_offset_m"]
        assert offset == [math.nextafter(0.9, 0.0), 0.0]
        assert build_campaign(written) == spec

    def test_offset_near_the_largest_float_comes_back_infinite(self):
        doc = default_config()
        doc["experts"]["far"]["distractor_offset_m"] = [sys.float_info.max, 0.0]
        written = config_doc(build_campaign(doc))
        assert written["experts"]["far"]["distractor_offset_m"] == [math.inf, 0.0]
        with pytest.raises(ConfigError, match=r"^experts\.far\.distractor_offset_m: "):
            build_campaign(written)

    def test_spec_built_in_python_need_not_survive_its_document(self):
        # no z_ref gives area_ref 200000.5, and no offset in meters 0.1 pads
        far = replace(default_far_profile(), distractor_offset_pads=(0.1, 0.0))
        spec = CampaignSpec(Scenario(gains=ControllerGains(area_ref=200000.5), far_profile=far))
        back = build_campaign(config_doc(spec)).scenario
        assert back.gains.area_ref == 200000.50000000003
        assert back.far_profile.distractor_offset_pads == (0.10000000000000002, 0.0)


class TestCliRun:
    def run_cli(self, *args) -> int:
        return main(list(args))

    def test_run_twice_is_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code = self.run_cli(
                "run", "--config", str(config_path), "--out", str(out),
                "--seed", "42", "--trials", "4",
            )
            assert code == 0
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        for csv in sorted((out1 / "trajectories").iterdir()):
            twin = out2 / "trajectories" / csv.name
            assert csv.read_bytes() == twin.read_bytes()

    def test_workers_do_not_change_bytes(self, tmp_path, config_path):
        out1, out2 = tmp_path / "serial", tmp_path / "pool"
        assert self.run_cli(
            "run", "--config", str(config_path), "--out", str(out1), "--trials", "4"
        ) == 0
        assert self.run_cli(
            "run", "--config", str(config_path), "--out", str(out2), "--trials", "4",
            "--workers", "2",
        ) == 0
        trees = [
            {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            for out in (out1, out2)
        ]
        assert len(trees[0]) == 2 + 2 * 3 * 4  # summary, table, two CSVs per trial
        assert trees[0] == trees[1]

    def test_mode_filter(self, tmp_path, config_path):
        out = tmp_path / "dual_only"
        assert self.run_cli(
            "run", "--config", str(config_path), "--out", str(out),
            "--trials", "2", "--modes", "dual",
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary["modes"]) == ["dual"]
        assert summary["comparisons"] == []

    def test_outputs_exist(self, tmp_path, config_path):
        out = tmp_path / "full"
        assert self.run_cli(
            "run", "--config", str(config_path), "--out", str(out), "--trials", "2"
        ) == 0
        assert (out / "summary.json").exists()
        assert (out / "comparison.txt").exists()
        assert len(list((out / "trajectories").iterdir())) == 6
        assert len(list((out / "detections").iterdir())) == 6

    def test_seed_override_changes_results(self, tmp_path, config_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        self.run_cli("run", "--config", str(config_path), "--out", str(out1),
                     "--seed", "1", "--trials", "2", "--modes", "dual")
        self.run_cli("run", "--config", str(config_path), "--out", str(out2),
                     "--seed", "2", "--trials", "2", "--modes", "dual")
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["initial_states"] != s2["initial_states"]

    @pytest.mark.parametrize(
        "flags, key",
        [
            pytest.param(["--workers", "0"], "--workers", id="workers-zero"),
            pytest.param(["--modes", "dual,triple"], "trials.modes", id="modes-unknown"),
            pytest.param(["--modes", "dual,dual"], "trials.modes", id="modes-duplicate"),
        ],
    )
    def test_bad_flag_rejected_with_key_name(self, tmp_path, config_path, capsys, flags, key):
        out = tmp_path / "o"
        assert self.run_cli("run", "--config", str(config_path), "--out", str(out), *flags) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_trials_above_bound_rejected(self, tmp_path, config_path, capsys, monkeypatch):
        # a bound that stopped holding fails here instead of running the campaign
        def refuse(**kwargs):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(cli, "run_campaign", refuse)
        out = tmp_path / "o"
        argv = ("run", "--config", str(config_path), "--out", str(out), "--trials", "10001")
        assert self.run_cli(*argv) == 2
        assert "trials.n_trials" in capsys.readouterr().err
        assert not out.exists()

    def test_out_file_fails_before_any_trial(self, tmp_path, config_path, capsys, monkeypatch):
        def refuse(**kwargs):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(cli, "run_campaign", refuse)
        out = tmp_path / "o"
        out.write_text("not a directory")
        assert self.run_cli("run", "--config", str(config_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert out.read_text() == "not a directory"

    def test_section_that_is_not_an_object_is_named(self, tmp_path, config_path, capsys):
        doc = default_config()
        doc["trials"] = [1]
        config_path.write_text(json.dumps(doc))
        for argv in (["validate-config"], ["run", "--seed", "3", "--out", str(tmp_path / "o")]):
            assert self.run_cli(*argv, "--config", str(config_path)) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: trials: expected a JSON object, got list")
            assert "Traceback" not in err

    @pytest.mark.parametrize("modes, kind", [("dual", "str"), ({"dual": 1}, "dict")])
    def test_modes_that_are_not_an_array_are_named(self, tmp_path, config_path, capsys, modes, kind):
        # named as a section that is not an object is: by its JSON type, not a Python class
        doc = default_config()
        doc["trials"]["modes"] = modes
        config_path.write_text(json.dumps(doc))
        expected = f"error: trials.modes: expected a JSON array, got {kind}\n"
        for argv in (["validate-config"], ["run", "--out", str(tmp_path / "o")]):
            assert self.run_cli(*argv, "--config", str(config_path)) == 2
            assert capsys.readouterr().err == expected

    def test_missing_config_is_error(self, tmp_path, capsys):
        code = self.run_cli("run", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path / "o"))
        assert code != 0
        assert "not found" in capsys.readouterr().err


class TestCliValidate:
    def test_valid_config_exits_zero(self, config_path, capsys):
        assert main(["validate-config", "--config", str(config_path)]) == 0
        assert "config OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("gains.k_xy", -0.5, id="gains.k_xy"),
            pytest.param("trials.seed", -1, id="trials.seed"),
            pytest.param("dynamics.dt", float("nan"), id="dynamics.dt-nan"),
            pytest.param("dynamics.dt", float("inf"), id="dynamics.dt-inf"),
            pytest.param("helipad.center", [float("nan"), 75.0], id="helipad.center-nan"),
            pytest.param("helipad.center", [True, 75.0], id="helipad.center-bool"),
            pytest.param("trials.n_trials", 0.5, id="trials.n_trials-fraction"),
            pytest.param("gate.window_size", 2.7, id="gate.window_size-fraction"),
            pytest.param("trials.max_steps", 10**400, id="trials.max_steps-huge"),
            pytest.param("trials.modes", ["dual", "dual"], id="trials.modes-duplicate"),
            pytest.param("trials.commit_altitude", 70.0, id="trials.commit_altitude-at-start"),
            pytest.param("trials.altitude_set", [70.0, True], id="trials.altitude_set-bool"),
            pytest.param("trials.altitude_set", [70.0, 1e400], id="trials.altitude_set-inf"),
            pytest.param("camera.image_width", 0, id="camera.image_width"),
            pytest.param("camera.image_height", -448, id="camera.image_height"),
            pytest.param("camera.focal_length", 0.0, id="camera.focal_length"),
            pytest.param("helipad.side_length", 0.0, id="helipad.side_length"),
            pytest.param("gains.k_z", 0.0, id="gains.k_z"),
            pytest.param("gains.v_lat_max", -2.0, id="gains.v_lat_max"),
            pytest.param("gains.align_threshold", 0.0, id="gains.align_threshold"),
            pytest.param("gains.z_ref", 0.0, id="gains.z_ref"),
            pytest.param("dynamics.dt", 0.0, id="dynamics.dt"),
            pytest.param("dynamics.tau", -0.1, id="dynamics.tau"),
            pytest.param("gate.window_size", 0, id="gate.window_size"),
            pytest.param("gate.coast_limit", -1, id="gate.coast_limit"),
            *[
                pytest.param(f"experts.{expert}.{name}", value, id=f"experts.{expert}.{name}")
                for expert in ("far", "near")
                for name, value in (
                    ("s_slope", 0.0),
                    ("sigma_center_base", -1.0),
                    ("sigma_center_scale", -0.1),
                    ("sigma_size_frac", -0.1),
                    ("distractor_prob", 1.5 if expert == "far" else -0.1),
                )
            ],
            pytest.param("trials.n_trials", 0, id="trials.n_trials"),
            pytest.param("trials.max_steps", 0, id="trials.max_steps"),
            pytest.param("trials.commit_altitude", 0.0, id="trials.commit_altitude"),
            pytest.param("trials.altitude_set", [], id="trials.altitude_set-empty"),
            pytest.param("trials.altitude_set", [70.0, -5.0], id="trials.altitude_set-negative"),
            pytest.param("trials.x_range", [-65.0, -95.0], id="trials.x_range"),
            pytest.param("trials.y_range", [90.0, 60.0], id="trials.y_range"),
            pytest.param("gains.z_ref", 8.0, id="gains.z_ref-at-commit-altitude"),
            pytest.param("gains.z_ref", 1e-200, id="gains.z_ref-area-overflow"),
            pytest.param("helipad.side_length", 1e308, id="helipad.side_length-area-overflow"),
            pytest.param("experts.far", [1], id="experts.far-not-an-object"),
            # keys the default document lacks: a stale key or a typo
            pytest.param("trails", {"n_trials": 3}, id="trails"),
            pytest.param("gains.k_xyz", 0.02, id="gains.k_xyz"),
            pytest.param("gate.window", 5, id="gate.window"),
            pytest.param("experts.far.regime", "detects_below", id="experts.far.regime"),
            # dynamics.dt * gains.k_z must be at most 1/20 of the shortest
            # descent: 62 m, so 3.1 m, with the default 8 m commit_altitude
            pytest.param("dynamics.dt", 30.0, id="dynamics.dt-falls-through-descent"),
            pytest.param("dynamics.dt", 2.1, id="dynamics.dt-above-step-bound"),
            pytest.param("gains.k_z", 62.5, id="dynamics.dt-k_z-above-step-bound"),
            pytest.param("trials.altitude_set", [70.0, 9.4], id="dynamics.dt-descent-too-short"),
            # at most MAX_TRIALS: a campaign holds every trial's frames until written
            pytest.param("trials.n_trials", 10_001, id="trials.n_trials-above-bound"),
            # at most MAX_STEPS: a trial that never descends records every step
            pytest.param("trials.max_steps", 100_001, id="trials.max_steps-above-bound"),
            pytest.param("trials.max_steps", 10**15, id="trials.max_steps-far-above-bound"),
        ],
    )
    def test_bad_value_rejected_with_key_name(self, tmp_path, capsys, key, value):
        doc = default_config()
        *sections, name = key.split(".")
        node = doc
        for section in sections:
            node = node[section]
        node[name] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
        code = main(["validate-config", "--config", str(path)])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("max_steps", [6_000, 100_000])
    def test_worst_case_frame_memory_named(self, tmp_path, capsys, max_steps):
        # 10,000 trials of three modes may hold 33 GB of frames at 6,000
        # steps, within the bound, and 552 GB at 100,000, past it
        doc = default_config()
        doc["trials"].update(n_trials=10_000, max_steps=max_steps)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code = main(["validate-config", "--config", str(path)])
        err = capsys.readouterr().err
        if max_steps == 6_000:
            assert (code, err) == (0, "")
        else:
            assert code == 2
            assert err.startswith("error: trials.max_steps: ")
            assert err.endswith(", 552000000000 B)\n")

    def test_distractor_offset_overflowing_pad_units_named(self, tmp_path, capsys):
        # 1e308 m over a 0.5 m pad side is inf pad sides; the config key is
        # distractor_offset_m, not the stored distractor_offset_pads
        doc = default_config()
        doc["helipad"]["side_length"] = 0.5
        doc["experts"]["far"]["distractor_offset_m"] = [1e308, 0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate-config", "--config", str(path)]) == 2
        assert "experts.far.distractor_offset_m" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("dynamics.dt", 2.0), ("gains.k_z", 60.0), ("trials.altitude_set", [70.0, 9.6])],
    )
    def test_timestep_rule_accepts_steps_within_bound(self, tmp_path, key, value):
        # the accepted side of the dynamics.dt rows above
        doc = default_config()
        section, name = key.split(".")
        doc[section][name] = value
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(doc))
        assert main(["validate-config", "--config", str(path)]) == 0


class TestCliReplay:
    def test_replay_matches_original_selection_sequence(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert main([
            "run", "--config", str(config_path), "--out", str(out),
            "--trials", "1", "--modes", "dual", "--seed", "7",
        ]) == 0
        replay_out = tmp_path / "replay"
        assert main([
            "replay", "--log", str(out / "detections" / "trial_000_dual.csv"),
            "--config", str(config_path), "--out", str(replay_out),
        ]) == 0

        traj_lines = (out / "trajectories" / "trial_000_dual.csv").read_text().splitlines()
        traj_selected = [line.split(",")[11] for line in traj_lines[1:]]
        replay_lines = (replay_out / "replay.csv").read_text().splitlines()
        replay_selected = [line.split(",")[1] for line in replay_lines[1:]]
        assert replay_selected == traj_selected

    def test_empty_log_gives_empty_output(self, tmp_path, config_path):
        log = tmp_path / "empty.csv"
        log.write_text("frame,expert,u,v,w,h,confidence,present\n")
        out = tmp_path / "replay"
        assert main([
            "replay", "--log", str(log), "--config", str(config_path), "--out", str(out)
        ]) == 0
        lines = (out / "replay.csv").read_text().splitlines()
        assert len(lines) == 1  # header only

    def test_all_absent_log_reports_tracking_lost(self, tmp_path, config_path):
        rows = ["frame,expert,u,v,w,h,confidence,present"]
        for frame in range(15):
            rows.append(f"{frame},FAR,0,0,0,0,0,0")
            rows.append(f"{frame},NEAR,0,0,0,0,0,0")
        log = tmp_path / "absent.csv"
        log.write_text("\n".join(rows) + "\n")
        out = tmp_path / "replay"
        assert main([
            "replay", "--log", str(log), "--config", str(config_path), "--out", str(out)
        ]) == 0
        lines = (out / "replay.csv").read_text().splitlines()[1:]
        lost = [line.split(",")[2] for line in lines]
        # coast_limit = 10: lost from the 11th consecutive absent frame on
        assert lost == ["0"] * 10 + ["1"] * 5

    def test_malformed_log_reports_line(self, tmp_path, config_path, capsys):
        log = tmp_path / "bad.csv"
        log.write_text(
            "frame,expert,u,v,w,h,confidence,present\n0,FAR,x,0,0,0,0,0\n"
        )
        code = main([
            "replay", "--log", str(log), "--config", str(config_path),
            "--out", str(tmp_path / "o"),
        ])
        assert code != 0
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "records, error",
        [
            (None, "line 1: missing or malformed header"),
            (["0,FAR,x,0,0"], "line 2: expected 8 fields, got 5"),
            (["0,FAR,0,0,0,0,0,0"] * 2, "line 3: duplicate FAR record for frame 0"),
            (["0,FAR,0,0,0,0,0,0"], "frame 0: no NEAR record"),
        ],
        ids=["header", "line", "duplicate", "frame"],
    )
    def test_log_error_names_the_file(self, tmp_path, config_path, capsys, records, error):
        # as a bad --config or --summary is named: the file, then where in it
        log = tmp_path / "bad.csv"
        header = "frame,expert,u,v,w,h,confidence,present"
        log.write_text("\n".join(["0,FAR,0,0,0,0,0,0"] if records is None else [header, *records]))
        out = tmp_path / "o"
        code = main(["replay", "--log", str(log), "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {log}: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [
            random.Random(0).randbytes(300),
            b"frame,expert,u,v,w,h,confidence,present\n0,FAR,\xff,0,0,0,0,0\n",
        ],
        ids=["random-bytes", "bad-byte-after-header"],
    )
    def test_log_that_is_not_text_rejected(self, tmp_path, config_path, capsys, content):
        log = tmp_path / "binary.csv"
        log.write_bytes(content)
        out = tmp_path / "o"
        code = main(["replay", "--log", str(log), "--config", str(config_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and str(log) in err
        assert "Traceback" not in err
        assert not (out / "replay.csv").exists()

    @pytest.mark.parametrize(
        "record, lineno",
        [("0,FAR,nan,10,5,5,0.5,1", 2), ("1,FAR,1,1,inf,5,0.5,1", 4)],
    )
    def test_non_finite_field_rejected(self, tmp_path, config_path, capsys, record, lineno):
        rows = ["0,FAR,210.0,230.5,24.0,24.0,0.81,1", "0,NEAR,0,0,0,0,0,0",
                "1,FAR,211.0,229.0,24.0,24.0,0.9,1", "1,NEAR,0,0,0,0,0,0"]
        rows[lineno - 2] = record
        log = tmp_path / "nonfinite.csv"
        log.write_text("frame,expert,u,v,w,h,confidence,present\n" + "\n".join(rows) + "\n")
        out = tmp_path / "o"
        code = main(["replay", "--log", str(log), "--config", str(config_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"line {lineno}:" in err and "finite" in err
        assert "Traceback" not in err
        assert not (out / "replay.csv").exists()

    @pytest.mark.parametrize(
        "record, expert",
        [
            ("0,FAR,-5000,1e9,5,5,0.5,1", "FAR"),  # far outside the image
            ("0,NEAR,447,224,4,4,0.5,1", "NEAR"),  # one pixel past the right edge
        ],
    )
    def test_box_outside_image_rejected(self, tmp_path, config_path, capsys, record, expert):
        other = "NEAR" if expert == "FAR" else "FAR"
        log = tmp_path / "outside.csv"
        log.write_text(
            "frame,expert,u,v,w,h,confidence,present\n"
            f"{record}\n0,{other},0,0,0,0,0,0\n"
        )
        out = tmp_path / "o"
        code = main(["replay", "--log", str(log), "--config", str(config_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"frame 0: {expert}" in err and "inside" in err
        assert "Traceback" not in err
        assert not (out / "replay.csv").exists()

    def test_missing_log_rejected(self, tmp_path, config_path, capsys):
        log = tmp_path / "nope.csv"
        out = tmp_path / "o"
        code = main(["replay", "--log", str(log), "--config", str(config_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: detection log not found: {log}\n"
        assert not out.exists()

    def test_out_file_fails_before_the_replay(self, tmp_path, config_path, capsys, monkeypatch):
        def refuse(log, scenario):
            raise AssertionError("the log was replayed")

        monkeypatch.setattr(cli, "replay_log", refuse)
        log = tmp_path / "log.csv"
        log.write_text(
            f"frame,expert,u,v,w,h,confidence,present\n0,FAR,{INSIDE}\n0,NEAR,0,0,0,0,0,0\n"
        )
        out = tmp_path / "o"
        out.write_text("not a directory")
        code = main(["replay", "--log", str(log), "--config", str(config_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and str(out) in err
        assert out.read_text() == "not a directory"

    @pytest.mark.parametrize(
        "bad, named",
        [
            ({(3, "NEAR"): OUTSIDE}, "frame 3: NEAR"),
            ({(1, "NEAR"): OUTSIDE, (2, "FAR"): OUTSIDE}, "frame 1: NEAR"),
            ({(2, "FAR"): OUTSIDE, (2, "NEAR"): OUTSIDE}, "frame 2: FAR"),
        ],
        ids=["first-at-frame-3", "earlier-frame-first", "far-before-near"],
    )
    def test_first_box_outside_image_named(self, tmp_path, config_path, capsys, bad, named):
        rows = [
            f"{frame},{expert},{bad.get((frame, expert), INSIDE)}"
            for frame in range(5)
            for expert in ("FAR", "NEAR")
        ]
        log = tmp_path / "outside.csv"
        log.write_text("frame,expert,u,v,w,h,confidence,present\n" + "\n".join(rows) + "\n")
        out = tmp_path / "o"
        code = main(["replay", "--log", str(log), "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {log}: {named} BoundingBox(u=447.0, v=224.0, w=4.0, h=4.0) "
            "does not lie inside the 448.0 x 448.0 camera image\n"
        )
        assert not (out / "replay.csv").exists()

    def test_absent_records_never_flagged(self, tmp_path, config_path, monkeypatch):
        # the reader zeros an absent record's fields; the check must not
        # rely on that, so hand it a log whose absent cells lie outside
        log = np.zeros((3, LOG_STRIDE))
        log[:, :LOG_FIELDS] = (-5000.0, 1e9, 5.0, 5.0, 0.5, 0.0)  # FAR absent
        log[:, LOG_FIELDS:] = (447.0, 224.0, 4.0, 4.0, 0.5, 0.0)  # NEAR absent
        log[1, LOG_FIELDS:] = (210.0, 230.5, 24.0, 24.0, 0.81, 1.0)  # NEAR present
        monkeypatch.setattr(cli, "read_detection_log", lambda path: log)
        out = tmp_path / "o"
        args = ["replay", "--log", "log.csv", "--config", str(config_path), "--out", str(out)]
        assert main(args) == 0
        lines = (out / "replay.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == ["", "NEAR", ""]


class TestCliReport:
    def test_report_rerenders_table(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        main(["run", "--config", str(config_path), "--out", str(out), "--trials", "2"])
        capsys.readouterr()
        assert main(["report", "--summary", str(out / "summary.json")]) == 0
        assert capsys.readouterr().out == (out / "comparison.txt").read_text()

    def test_closed_stdout_exits_quietly(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        main(["run", "--config", str(config_path), "--out", str(out), "--trials", "1"])
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before report writes a byte
        try:
            done = subprocess.run(
                [sys.executable, "-m", "padland.cli", "report", "--summary", str(out / "summary.json")],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            )
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 1

    def test_missing_summary(self, tmp_path, capsys):
        assert main(["report", "--summary", str(tmp_path / "no.json")]) != 0

    @pytest.mark.parametrize(
        "text, named",
        [
            pytest.param("not json", "JSONDecodeError", id="not-json"),
            pytest.param(
                '{"modes": {"dual": {"trials": [{"trial_id": 0}]}}}',
                "missing key 'initial_position'",
                id="trial-missing-field",
            ),
            pytest.param('{"seed": 1}', "missing key 'modes'", id="no-modes"),
            pytest.param("[]", "not a padland summary", id="list-root"),
            pytest.param('{"modes": []}', "not a padland summary", id="modes-list"),
        ],
    )
    def test_malformed_summary_named(self, tmp_path, capsys, text, named):
        path = tmp_path / "summary.json"
        path.write_text(text)
        assert main(["report", "--summary", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and named in err

    def test_repeated_key_named(self, tmp_path, config_path, capsys):
        # json.loads alone keeps the last value, and the report would print
        # a dual mean 50 m off with exit 0
        out = tmp_path / "run"
        main(["run", "--config", str(config_path), "--out", str(out), "--trials", "2"])
        text = (out / "summary.json").read_text()
        error = json.loads(text)["modes"]["dual"]["trials"][0]["touchdown_error"]
        old = f'"touchdown_error": {error!r}'
        assert text.index(old) == text.index('"touchdown_error"')  # the first trial's
        path = tmp_path / "repeated.json"
        path.write_text(text.replace(old, old + ', "touchdown_error": 50.0', 1))
        capsys.readouterr()
        assert main(["report", "--summary", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: repeated key: modes.dual.trials[0].touchdown_error" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("touchdown_error", math.nan),
            ("touchdown_error", math.inf),
            ("touchdown_error", -5.0),
            ("success", False),  # the trial landed
            ("touchdown_error", True),
            ("steps", 2.5),
            ("expert_usage", {"FAR": 1.5, "NEAR": 0}),
            ("expert_usage", {"FAR": 0, "NEAR": 0, "BOGUS": 0}),
            ("trial_id", "x"),
            ("touchdown_xy", [None, 1.0]),
        ],
        ids=[
            "nan", "inf", "negative", "success-contradicts-reason", "bool-error", "fractional-steps",
            "fractional-usage", "extra-usage-key", "string-trial-id", "null-touchdown",
        ],
    )
    def test_out_of_range_trial_value_named(self, tmp_path, config_path, capsys, key, bad):
        out = tmp_path / "run"
        main(["run", "--config", str(config_path), "--out", str(out), "--trials", "2"])
        summary = json.loads((out / "summary.json").read_text())
        trial = summary["modes"]["dual"]["trials"][0]
        assert trial["termination_reason"] == "landed"
        trial[key] = bad
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(summary))  # NaN and Infinity as JSON reads them back
        capsys.readouterr()
        assert main(["report", "--summary", str(path)]) == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err and f"{key}:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("flag", ["--config", "--log", "--summary"])
def test_unreadable_input_file_named(tmp_path, config_path, capsys, flag, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe not text\n")
    argv = {
        "--config": ["validate-config", "--config", str(path)],
        "--log": [
            "replay", "--log", str(path), "--config", str(config_path), "--out", str(tmp_path / "o")
        ],
        "--summary": ["report", "--summary", str(path)],
    }[flag]
    named = {
        "missing": f"not found: {path}\n",
        "directory": f"is a directory: {path}\n",
        "not-utf8": f"error: {path}: not a text file",
    }[kind]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate-config", "run", "replay", "report"])
def test_deeply_nested_input_file_named(tmp_path, capsys, command):
    # json.loads raises RecursionError on nesting past the recursion limit
    path = tmp_path / "nested.json"
    depth = 200_000
    path.write_text('{"a": ' + "[" * depth + "]" * depth + "}")
    out, log = str(tmp_path / "o"), str(tmp_path / "log.csv")
    argv = {
        "validate-config": ["validate-config", "--config", str(path)],
        "run": ["run", "--config", str(path), "--out", out],
        "replay": ["replay", "--log", log, "--config", str(path), "--out", out],
        "report": ["report", "--summary", str(path)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"a": }', "config file is not valid JSON: "),
        ("[1, 2]", "config root must be a JSON object"),
        ('{"a": 1, "a": 2}', "repeated key: a"),
    ],
    ids=["not-json", "not-an-object", "repeated-key"],
)
@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_json_level_config_error_names_the_file(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = {
        "validate-config": ["validate-config", "--config", str(path)],
        "run": ["run", "--config", str(path), "--out", str(tmp_path / "o")],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: {message}") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


class TestCliInitConfig:
    def test_written_default_validates(self, tmp_path):
        path = tmp_path / "generated.json"
        assert main(["init-config", "--out", str(path)]) == 0
        assert main(["validate-config", "--config", str(path)]) == 0


class TestModuleEntryPoint:
    @staticmethod
    def padland(*argv, **env):
        return subprocess.run(
            [sys.executable, "-m", "padland", *argv], cwd=ROOT, capture_output=True,
            encoding="utf-8", timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env},
        )

    @pytest.mark.parametrize("command", ["validate-config", "replay"])
    def test_inputs_are_read_as_utf8_in_any_locale(self, tmp_path, command):
        # in the C locale, with neither its coercion nor UTF-8 mode, Python's
        # default encoding is ASCII; stderr is kept UTF-8 to read the message
        c_locale = dict(
            LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONIOENCODING="utf-8"
        )
        config = tmp_path / "config.json"
        doc = {**default_config(), "xé": 1} if command == "validate-config" else default_config()
        config.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        log = tmp_path / "log.csv"
        log.write_bytes(
            f"frame,expert,u,v,w,h,confidence,present\n0,FAR,{INSIDE}\n0,NÉAR,{INSIDE}\n".encode()
        )
        argv = {
            "validate-config": ["validate-config", "--config", str(config)],
            "replay": [
                "replay", "--log", str(log), "--config", str(config), "--out", str(tmp_path / "o")
            ],
        }[command]
        done = self.padland(*argv, **c_locale)
        assert done.returncode == 2
        named = {"validate-config": "unknown key: xé\n", "replay": f"{log}: line 3: "}[command]
        assert done.stderr.startswith("error: ") and named in done.stderr, done.stderr

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        done = self.padland("validate-config", "--config", "configs/default.json")
        assert done.returncode == 0, done.stderr
        assert "config OK" in done.stdout
        done = self.padland(
            "run", "--config", "configs/default.json", "--out", str(tmp_path / "o"), "--workers", "0"
        )
        assert done.returncode == 2
        assert "--workers" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_error_writing_on_a_worker_is_reported(self, tmp_path, workers):
        # a directory where one trial's trajectory CSV must go
        out = tmp_path / "o"
        (out / "trajectories" / "trial_000_dual.csv").mkdir(parents=True)
        done = self.padland(
            "run", "--config", "configs/default.json", "--out", str(out),
            "--trials", "2", "--workers", workers,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and "trial_000_dual.csv" in done.stderr
        assert "Traceback" not in done.stderr
        # serial or not, every other trial's CSVs are written, and neither
        # summary.json nor comparison.txt, which would name the missing CSV
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        names = {f"trial_{i:03d}_{mode.value}.csv" for i in range(2) for mode in Mode}
        names.remove("trial_000_dual.csv")
        assert written == {f"{d}/{n}" for d in ("trajectories", "detections") for n in names}
