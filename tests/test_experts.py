import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padland import harness, reporting
from padland.experts import (
    NOISE_CHUNK,
    Detection,
    ExpertId,
    ExpertProfile,
    default_far_profile,
    default_near_profile,
    detect,
    detection_probability,
    noise_rows,
)
from padland.geometry import BoundingBox, CameraModel, VehicleState, clamp_box
from padland.harness import LOG_STRIDE, replay_detect
from padland.reporting import (
    LOG_HEADER,
    DetectionLogError,
    read_detection_log,
    write_detection_log,
    write_trial_csvs,
)
from padland.servo import ControllerGains

CAM = CameraModel()
TRUE_BOX = BoundingBox(224.0, 224.0, 24.0, 24.0)


def log_cells(det: Detection) -> tuple:
    """One expert's log fields u, v, w, h, confidence, present, as a run
    records them: zeros when the detection is absent."""
    if det.box is None:
        return (0.0,) * 6
    return det.box + (det.confidence, 1.0)


def quiet_profile(**kwargs) -> ExpertProfile:
    base = dict(
        s_center=-1e9,
        s_slope=1.0,
        sigma_center_base=0.0,
        sigma_center_scale=0.0,
        sigma_size_frac=0.0,
        distractor_prob=0.0,
    )
    base.update(kwargs)
    return ExpertProfile(**base)


class TestDetectionProbability:
    def test_near_profile_value_at_high_altitude(self):
        # the calibrated shape: logistic((s - 27) / 1.5) at s = 24.44
        profile = ExpertProfile(s_center=27.0, s_slope=1.5)
        p = detection_probability(profile, 24.44)
        assert p == pytest.approx(1.0 / (1.0 + math.exp((27.0 - 24.44) / 1.5)))
        assert p == pytest.approx(0.154, abs=5e-4)

    def test_monotone_in_declared_direction(self):
        above = ExpertProfile(s_center=30.0, s_slope=2.0)
        below = ExpertProfile(s_center=30.0, s_slope=-2.0)
        grid = np.linspace(1.0, 300.0, 50)
        p_above = [detection_probability(above, s) for s in grid]
        p_below = [detection_probability(below, s) for s in grid]
        assert all(b >= a for a, b in zip(p_above, p_above[1:]))
        assert all(b <= a for a, b in zip(p_below, p_below[1:]))

    def test_negative_slope_mirrors_the_curve_bitwise(self):
        # with s_center = 0, slope -k at s is slope k at -s, to the bit
        for k in (0.75, 2.0, 3.1):
            falling = ExpertProfile(s_center=0.0, s_slope=-k)
            rising = ExpertProfile(s_center=0.0, s_slope=k)
            for s in (1e-6, 0.5, 7.25, 33.0, 123456.789):
                assert detection_probability(falling, s) == detection_probability(rising, -s)

    @pytest.mark.parametrize("slope", [0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_slope_must_be_nonzero_and_finite(self, slope):
        with pytest.raises(ValueError, match="s_slope"):
            ExpertProfile(s_center=8.0, s_slope=slope)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_scalar_exp_matches_array_exp(self, xs):
        # the premise of detection_probability's np.exp: a scalar call gives
        # the same double as the same value at any place in an array, so a
        # vectorised engine reproduces the per-frame probabilities
        with np.errstate(over="ignore", invalid="ignore"):
            scalar = [float(np.exp(x)) for x in xs]
            batched = np.exp(np.array(xs))
        assert np.array(scalar).tobytes() == batched.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.floats(37.0, 1e300), st.floats(30.0, 37.0, exclude_max=True))
    def test_saturated_branch_is_exactly_one_and_the_formula_holds_below(self, high, low):
        # from x = 37 no exp is taken: 1 + exp(-x) rounds to 1.0 there anyway
        def formula(x: float) -> float:  # the stable sigmoid, without the shortcut
            if x >= 0:
                return 1.0 / (1.0 + float(np.exp(-x)))
            e = float(np.exp(x))
            return e / (1.0 + e)

        unit = ExpertProfile(s_center=0.0, s_slope=1.0)  # x is s, exactly
        assert detection_probability(unit, high) == formula(high) == 1.0
        assert detection_probability(unit, low).hex() == formula(low).hex()

    def test_extreme_arguments_do_not_overflow(self):
        p = detection_probability(quiet_profile(), 1e-6)
        assert p == 1.0
        hopeless = ExpertProfile(s_center=1e9, s_slope=1.0)
        assert detection_probability(hopeless, 10.0) == 0.0


def rows(seed: int):
    """A fresh noise-row stream, as run_trial draws one per run expert."""
    return noise_rows(np.random.default_rng(seed))


class TestDetect:
    def test_empirical_rate_matches_probability(self):
        profile = ExpertProfile(s_center=27.0, s_slope=1.5, sigma_center_base=1.5)
        noise = rows(2024)
        hits = sum(
            detect(profile, TRUE_BOX, 24.44, next(noise), CAM).present for _ in range(1000)
        )
        assert hits / 1000 == pytest.approx(0.154, abs=0.04)

    def test_rate_converges_within_binomial_bound(self):
        profile = ExpertProfile(s_center=30.0, s_slope=4.0)
        s = 33.0
        p = detection_probability(profile, s)
        n = 10_000
        noise = rows(7)
        hits = sum(detect(profile, TRUE_BOX, s, next(noise), CAM).present for _ in range(n))
        bound = 3.0 * math.sqrt(p * (1.0 - p) / n)
        assert abs(hits / n - p) < bound

    def test_zero_noise_returns_true_box_exactly(self):
        det = detect(quiet_profile(), TRUE_BOX, 24.0, next(rows(11)), CAM)
        assert det.present
        assert det.box == TRUE_BOX
        assert det.confidence == 1.0

    def test_center_noise_grows_with_apparent_width(self):
        # empirical std ratio between two scales vs the analytic ratio
        profile = quiet_profile(sigma_center_base=2.0, sigma_center_scale=0.05)
        n = 10_000

        def center_std(s: float, seed: int) -> float:
            noise = rows(seed)
            big = BoundingBox(224.0, 224.0, 10.0, 10.0)  # small box: no clipping
            errs = [detect(profile, big, s, next(noise), CAM).box.u - big.u for _ in range(n)]
            return float(np.std(errs))

        ratio = center_std(200.0, 31) / center_std(30.0, 32)
        expected = (2.0 + 0.05 * 200.0) / (2.0 + 0.05 * 30.0)
        assert ratio == pytest.approx(expected, rel=0.2)

    def test_determinism_bit_for_bit(self):
        profile = default_far_profile()

        def sequence(seed: int):
            noise = rows(seed)
            out = []
            for _ in range(200):
                d = detect(profile, TRUE_BOX, 30.0, next(noise), CAM)
                out.append((d.present, d.box.u if d.box else None, d.confidence))
            return out

        assert sequence(99) == sequence(99)
        assert sequence(99) != sequence(100)

    def test_outputs_are_python_floats(self):
        # no np.float64 may reach a Detection (its repr would reach a CSV cell)
        noisy = quiet_profile(sigma_center_base=2.0, sigma_size_frac=0.05)  # always detects
        noise = rows(3)
        for s in (1.0, 8.0, 30.0, 400.0):  # both branches of the far logistic
            assert type(detection_probability(default_far_profile(), s)) is float
            det = detect(noisy, TRUE_BOX, s, next(noise), CAM)
            assert type(det.confidence) is float
            assert all(type(x) is float for x in det.box)

    def test_distractor_displaces_center(self):
        profile = quiet_profile(
            distractor_prob=1.0, distractor_offset_pads=(2.0, 0.0)
        )
        det = detect(profile, TRUE_BOX, 24.0, next(rows(5)), CAM)
        assert det.box.u == pytest.approx(224.0 + 24.0 * 2.0)
        assert det.box.v == pytest.approx(224.0)

    def test_distractor_pushed_off_frame_reports_absent(self):
        profile = quiet_profile(distractor_prob=1.0, distractor_offset_pads=(10.0, 0.0))
        det = detect(profile, BoundingBox(400.0, 224.0, 20.0, 20.0), 100.0, next(rows(5)), CAM)
        assert not det.present
        assert det.confidence == 0.0

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            detect(quiet_profile(), TRUE_BOX, 0.0, next(rows(0)), CAM)

    def test_fixed_draw_count_keeps_stream_aligned(self, monkeypatch):
        # run_trial hands frame k row k of each run expert's stream, on
        # frames with the pad out of view too, and draws nothing for an
        # expert its mode does not run
        steps = 2 * NOISE_CHUNK + 88  # crosses two chunk boundaries
        frame = [-1]
        seen = {ExpertId.FAR: {}, ExpertId.NEAR: {}}
        project, real_detect = harness.project_helipad, harness.detect
        scenario = harness.Scenario()

        def project_helipad(state, pad, cam):
            frame[0] += 1
            return None if frame[0] % 3 == 1 else project(state, pad, cam)

        def detect_spy(profile, true_box, s, noise, cam):
            expert = ExpertId.FAR if profile is scenario.far_profile else ExpertId.NEAR
            seen[expert][frame[0]] = noise
            return real_detect(profile, true_box, s, noise, cam)

        monkeypatch.setattr(harness, "project_helipad", project_helipad)
        monkeypatch.setattr(harness, "detect", detect_spy)
        for mode, run in (
            (harness.Mode.FAR_ONLY, {ExpertId.FAR}),
            (harness.Mode.NEAR_ONLY, {ExpertId.NEAR}),
            (harness.Mode.DUAL, {ExpertId.FAR, ExpertId.NEAR}),
        ):
            frame[0] = -1
            for calls in seen.values():
                calls.clear()
            streams = {ExpertId.FAR: np.random.default_rng(1), ExpertId.NEAR: np.random.default_rng(2)}
            result = harness.run_trial(
                VehicleState(-86.0, 80.0, 70.0), mode, scenario,
                harness.TrialConfig(max_steps=steps), streams[ExpertId.FAR], streams[ExpertId.NEAR],
            ).result
            assert result.steps == steps
            for expert, rng in streams.items():
                fresh = np.random.default_rng(1 if expert is ExpertId.FAR else 2)
                if expert not in run:
                    assert not seen[expert]
                    assert rng.bit_generator.state == fresh.bit_generator.state
                    continue
                want = [row for _, row in zip(range(steps), noise_rows(fresh))]
                # detect ran on every in-view frame, with that frame's row
                assert sorted(seen[expert]) == [k for k in range(steps) if k % 3 != 1]
                for k, row in seen[expert].items():
                    assert row == want[k]
                # and the stream advanced by whole chunks, one row per frame
                assert rng.bit_generator.state == fresh.bit_generator.state


finite = partial(st.floats, allow_nan=False, allow_infinity=False)
profiles = st.builds(
    ExpertProfile,
    s_center=finite(-100.0, 500.0),
    s_slope=finite(0.05, 20.0) | finite(-20.0, -0.05),
    sigma_center_base=finite(0.0, 10.0),
    sigma_center_scale=finite(0.0, 1.0),
    sigma_size_frac=finite(0.0, 0.5),
    distractor_prob=finite(0.0, 1.0),
    distractor_offset_pads=st.tuples(finite(-5.0, 5.0), finite(-5.0, 5.0)),
)
# a ground-truth box as project_helipad returns it: a square clipped to the image
true_boxes = st.builds(
    lambda u, v, side: clamp_box(BoundingBox(u, v, side, side), CAM),
    finite(-50.0, 500.0), finite(-50.0, 500.0), finite(0.1, 600.0),
).filter(lambda box: box is not None)
noise_draws = st.tuples(  # a noise_rows row
    finite(0.0, 1.0, exclude_max=True), finite(0.0, 1.0, exclude_max=True),
    finite(-6.0, 6.0), finite(-6.0, 6.0), finite(-6.0, 6.0),
)


@settings(max_examples=500, deadline=None)
@given(profiles, true_boxes, finite(0.01, 1000.0), noise_draws)
def test_every_detect_output_passes_the_detection_check(profile, true_box, s, row):
    # detect skips Detection's constructor; what it builds must pass it anyway
    d = detect(profile, true_box, s, list(row), CAM)
    assert type(d) is Detection
    assert d.box is None or type(d.box) is BoundingBox
    assert Detection(*d) == d


class TestNoiseRows:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_rows_match_chunk_by_chunk_recomputation(self, seed):
        n = 3 * NOISE_CHUNK + 8  # rows 0 .. 3C + 7
        got = [row for _, row in zip(range(n), rows(seed))]
        rng = np.random.default_rng(seed)
        want = []
        while len(want) < n:
            uniforms = rng.random((NOISE_CHUNK, 2))
            normals = rng.standard_normal((NOISE_CHUNK, 3))
            for i in range(NOISE_CHUNK):
                want.append([*uniforms[i].tolist(), *normals[i].tolist()])
        assert np.array(got).tobytes() == np.array(want[:n]).tobytes()
        assert all(type(x) is float for row in got for x in row)
        assert all(0.0 <= u < 1.0 for row in got for u in row[:2])


class TestDetectionType:
    def test_absent_must_have_zero_confidence(self):
        with pytest.raises(ValueError):
            Detection(box=None, confidence=0.3)

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            Detection(box=TRUE_BOX, confidence=1.5)


class TestDetectionLog:
    DETECTIONS = [
        (
            Detection(BoundingBox(210.0, 230.5, 24.0, 24.0), 0.81),
            Detection(),
        ),
        (
            Detection(BoundingBox(211.25, 229.0, 24.5, 23.5), 0.9),
            Detection(BoundingBox(224.0, 224.0, 25.0, 25.0), 0.55),
        ),
    ]

    def make_log(self) -> np.ndarray:
        return np.array([log_cells(far) + log_cells(near) for far, near in self.DETECTIONS])

    def test_replay_detect_returns_the_recorded_detections(self):
        log = self.make_log()
        for i, (far, near) in enumerate(self.DETECTIONS):
            assert replay_detect(log, i) == (far, near)

    def test_round_trip_is_value_exact(self, tmp_path):
        log = self.make_log()
        path = tmp_path / "detections.csv"
        write_detection_log(log, path)
        loaded = read_detection_log(path)
        assert loaded.shape == (len(log), LOG_STRIDE)
        assert loaded.dtype == np.float64
        assert loaded.tobytes() == log.tobytes()
        for i in range(len(log)):
            orig_far, orig_near = replay_detect(log, i)
            got_far, got_near = replay_detect(loaded, i)
            assert got_far == orig_far
            assert got_near == orig_near

    def test_writes_only_the_leading_log_columns(self, tmp_path):
        # a run's record rows carry further columns after the log's
        log = self.make_log()
        wide = np.hstack([log, np.full((len(log), 3), 7.5)])
        write_detection_log(log, tmp_path / "log.csv")
        write_detection_log(wide, tmp_path / "wide.csv")
        assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "log.csv").read_bytes()

    def test_empty_log_reads_as_no_frames(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("frame,expert,u,v,w,h,confidence,present\n")
        assert read_detection_log(path).shape == (0, LOG_STRIDE)

    def test_record_parse_present(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "frame,expert,u,v,w,h,confidence,present\n"
            "0,FAR,210.0,230.5,24.0,24.0,0.81,1\n"
            "0,NEAR,0,0,0,0,0,0\n"
        )
        log = read_detection_log(path)
        far, near = replay_detect(log, 0)
        assert far.box == BoundingBox(210.0, 230.5, 24.0, 24.0)
        assert far.confidence == 0.81
        assert not near.present

    def test_out_of_range_frame(self):
        log = self.make_log()
        with pytest.raises(IndexError):
            replay_detect(log, 2)
        with pytest.raises(IndexError):
            replay_detect(log, -1)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "frame,expert,u,v,w,h,confidence,present\n"
            "0,FAR,210.0,230.5,24.0,24.0,0.81,1\n"
            "0,NEAR,not_a_number,0,0,0,0,0\n"
        )
        with pytest.raises(DetectionLogError, match="line 3"):
            read_detection_log(path)

    @pytest.mark.parametrize(
        "record, lineno",
        [
            ("0,FAR,nan,10,5,5,0.5,1", 2),
            ("1,FAR,1,1,inf,5,0.5,1", 4),
            ("1,FAR,1,1,5,-inf,0.5,1", 4),
            ("1,FAR,1,1,5,5,nan,1", 4),
            ("0,NEAR,inf,0,0,0,0,0", 3),
            ("1,NEAR,0,0,0,0,nan,0", 5),
        ],
    )
    def test_non_finite_field_rejected_naming_line(self, tmp_path, record, lineno):
        rows = {
            2: "0,FAR,210.0,230.5,24.0,24.0,0.81,1",
            3: "0,NEAR,0,0,0,0,0,0",
            4: "1,FAR,211.0,229.0,24.0,24.0,0.9,1",
            5: "1,NEAR,0,0,0,0,0,0",
        }
        rows[lineno] = record
        path = tmp_path / "log.csv"
        path.write_text("frame,expert,u,v,w,h,confidence,present\n" + "\n".join(rows.values()))
        with pytest.raises(DetectionLogError, match=f"line {lineno}: .*finite"):
            read_detection_log(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("0,FAR,210.0,230.5,24.0,24.0,0.81,1\n")
        with pytest.raises(DetectionLogError, match="line 1"):
            read_detection_log(path)

    def test_missing_expert_record(self, tmp_path):
        path = tmp_path / "half.csv"
        path.write_text(
            "frame,expert,u,v,w,h,confidence,present\n"
            "0,FAR,210.0,230.5,24.0,24.0,0.81,1\n"
        )
        with pytest.raises(DetectionLogError, match="NEAR"):
            read_detection_log(path)


def oracle_read_detection_log(path) -> np.ndarray:
    """The line-by-line reader read_detection_log replaced, kept verbatim as
    the reference for which logs it accepts and what it says on the rest."""
    absent_cells = (0.0,) * 6

    def parse_record(line, lineno):
        parts = line.split(",")
        if len(parts) != 8:
            raise DetectionLogError(f"line {lineno}: expected 8 fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            expert = ExpertId(parts[1].strip())
            u, v, w, h, conf = (float(p) for p in parts[2:7])
            present = int(parts[7])
        except (ValueError, KeyError) as exc:
            raise DetectionLogError(f"line {lineno}: {exc}") from None
        if not all(math.isfinite(x) for x in (u, v, w, h, conf)):
            raise DetectionLogError(f"line {lineno}: u, v, w, h and confidence must be finite")
        if present not in (0, 1):
            raise DetectionLogError(f"line {lineno}: present flag must be 0 or 1")
        if present == 0:
            return frame, expert, absent_cells
        if w <= 0 or h <= 0:
            raise DetectionLogError(f"line {lineno}: present detection with non-positive size")
        if not 0.0 <= conf <= 1.0:
            raise DetectionLogError(f"line {lineno}: confidence {conf} outside [0, 1]")
        return frame, expert, (u, v, w, h, conf, 1.0)

    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != LOG_HEADER:
        raise DetectionLogError("line 1: missing or malformed header")
    by_frame = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        frame, expert, cells = parse_record(line, lineno)
        slot = by_frame.setdefault(frame, {})
        if expert in slot:
            raise DetectionLogError(
                f"line {lineno}: duplicate {expert.value} record for frame {frame}"
            )
        slot[expert] = cells
    records = []
    for frame in range(len(by_frame)):
        if frame not in by_frame:
            raise DetectionLogError(f"frame {frame} missing (frames must be contiguous from 0)")
        row = by_frame[frame]
        for expert in ExpertId:
            if expert not in row:
                raise DetectionLogError(f"frame {frame}: no {expert.value} record")
        records.extend(row[ExpertId.FAR] + row[ExpertId.NEAR])
    return np.array(records, dtype=np.float64).reshape(-1, LOG_STRIDE)


# field values a corrupted record may carry: malformed, non-finite, out of
# range, or accepted by int()/float() in an unusual spelling
ODD_FIELDS = [
    "", " ", "abc", "nan", "-inf", "inf", "1e400", "0", "1", "2", "-1", "+1", " 1 ", "1.0",
    "1_0", "0x10", "-0.0", "1e-320", "0.5", "1.5", "FAR", "NEAR", " NEAR ", "far", "١",
]
# well-formed values out of a field's range, by field index: w, h, confidence, present
OUT_OF_RANGE = {
    4: ["0", "-0.0", "-3.5"],
    5: ["0", "-1e-300"],
    6: ["1.5", "-0.25", "1.0000000000000002"],
    7: ["2", "-1", "1_0"],
}


@st.composite
def detection_log_texts(draw):
    """A detection log as text: a valid one, then up to three corruptions
    (odd or out-of-range field values, dropped or repeated records, a
    dropped frame, wrong field counts, other frame numbers, blank lines),
    maybe shuffled."""
    records = []
    for frame in range(draw(st.integers(0, 4))):
        for expert in ("FAR", "NEAR"):
            if draw(st.booleans()):
                u, v = draw(st.floats(-50, 500)), draw(st.floats(-50, 500))
                w, h = draw(st.floats(0.5, 100)), draw(st.floats(0.5, 100))
                conf = draw(st.floats(0, 1))
                records.append([str(frame), expert, *map(repr, (u, v, w, h, conf)), "1"])
            else:
                records.append([str(frame), expert] + ["0"] * 6)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(
                ["field"] * 3 + ["range"] * 3 + ["drop", "repeat", "count", "frame", "gap", "blank"]
            )
        )
        at = draw(st.integers(0, len(records)))
        if kind == "blank":
            records.insert(at, draw(st.sampled_from(["", "   ", "\t"])))
        elif not records or at == len(records) or isinstance(records[at], str):
            continue
        elif kind == "field":
            records[at] = list(records[at])
            index = draw(st.integers(0, len(records[at]) - 1))
            records[at][index] = draw(st.sampled_from(ODD_FIELDS))
        elif kind == "range":
            records[at] = list(records[at])
            index = draw(st.sampled_from([i for i in OUT_OF_RANGE if i < len(records[at])] or [0]))
            records[at][index] = draw(st.sampled_from(OUT_OF_RANGE.get(index, ["-1"])))
        elif kind == "drop":
            del records[at]
        elif kind == "gap":  # drop every record of one frame
            frame = records[at][0]
            records = [r for r in records if isinstance(r, str) or r[0] != frame]
        elif kind == "repeat":
            records.insert(draw(st.integers(0, len(records))), records[at])
        elif kind == "count":
            n_fields = draw(st.sampled_from([1, 2, 7, 9, 10]))
            records[at] = (records[at] + ["1", "0"])[:n_fields]
        else:
            records[at] = [str(draw(st.integers(-1, 6))), *records[at][1:]]
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    lines = [r if isinstance(r, str) else ",".join(r) for r in records]
    return "\n".join([LOG_HEADER, *lines]) + "\n"


def campaign_trial(scenario=harness.Scenario(), max_steps=harness.TrialConfig.max_steps):
    return harness.run_trial(
        VehicleState(-85.0, 80.0, 70.0), harness.Mode.DUAL, scenario,
        harness.TrialConfig(max_steps=max_steps), *[np.random.default_rng(s) for s in (1, 2)],
    )


def read_outcome(reader, path):
    try:
        log = reader(path)
    except DetectionLogError as exc:
        return "error", str(exc)
    return "log", log.shape, log.dtype, log.tobytes()


@settings(max_examples=400, deadline=None)
@given(text=detection_log_texts())
def test_reader_matches_line_by_line_oracle(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "oracle_log.csv"
    path.write_text(text)
    assert read_outcome(read_detection_log, path) == read_outcome(oracle_read_detection_log, path)


def test_oracle_agrees_on_a_campaign_log(tmp_path):
    run = campaign_trial()
    path = tmp_path / "log.csv"
    write_detection_log(run.frames, path)
    log = read_detection_log(path)
    assert log.tobytes() == oracle_read_detection_log(path).tobytes()
    assert log.tobytes() == np.ascontiguousarray(run.frames[:, :LOG_STRIDE]).tobytes()
    # records in any order, with blank lines, read the same
    header, *records = path.read_text().splitlines()
    path.write_text("\n".join([header, *reversed(records), "", "  "]) + "\n")
    assert read_detection_log(path).tobytes() == log.tobytes()


@pytest.mark.parametrize(
    "lineno, index, spelling, outcome",
    [(4, 0, "+1", "log"), (5, 1, " NEAR ", "log"), (2, 7, "1.0", "error")],
    ids=["frame", "expert", "present-flag"],
)
def test_non_canonical_spelling_reads_as_the_oracle_does(
    tmp_path, lineno, index, spelling, outcome
):
    # the writer's layout but for one field's spelling: the fast path must
    # hand it to the line reader, which accepts or rejects it as the oracle does
    path = tmp_path / "log.csv"
    write_detection_log(TestDetectionLog().make_log(), path)
    lines = path.read_text().splitlines()
    fields = lines[lineno - 1].split(",")
    fields[index] = spelling
    lines[lineno - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    got = read_outcome(read_detection_log, path)
    assert got == read_outcome(oracle_read_detection_log, path)
    assert got[0] == outcome


# align_threshold 1e-9 never lets the descent start: the vehicle hovers, so
# a trial runs its whole step budget, here parts of three read blocks
HOVER = harness.Scenario(gains=ControllerGains(align_threshold=1e-9))
MULTI_BLOCK_FRAMES = 700


@pytest.fixture(scope="module")
def multi_block_records(tmp_path_factory):
    """A hovering trial's detection log records (header dropped)."""
    assert 2 * reporting.WRITE_BLOCK < MULTI_BLOCK_FRAMES < 3 * reporting.WRITE_BLOCK
    run = campaign_trial(HOVER, MULTI_BLOCK_FRAMES)
    path = tmp_path_factory.mktemp("multi_block") / "log.csv"
    write_detection_log(run.frames, path)
    header, *records = path.read_text().splitlines()
    assert len(records) == 2 * MULTI_BLOCK_FRAMES
    return records


CHANGES = ["frame+1", "frame+600", "expert", "flag", "confidence", "drop", "duplicate", "swap"]


def change_record(records, kind, at) -> list[str]:
    """records with one change of a kind in CHANGES at record index at."""
    records = list(records)
    if kind == "drop":
        del records[at]
    elif kind == "duplicate":
        records.insert(at, records[at])
    elif kind == "swap":  # with the next record, or the previous one at the end
        other = at + 1 if at + 1 < len(records) else at - 1
        records[at], records[other] = records[other], records[at]
    else:
        fields = records[at].split(",")
        if kind.startswith("frame+"):
            fields[0] = str(int(fields[0]) + int(kind[len("frame+"):]))
        elif kind == "expert":
            fields[1] = {"FAR": "NEAR", "NEAR": "FAR"}[fields[1]]
        elif kind == "flag":
            fields[7] = "1.0"
        else:  # confidence
            fields[6] = "1.5"
        records[at] = ",".join(fields)
    return records


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(CHANGES),
    at=st.integers(2 * reporting.WRITE_BLOCK, 2 * MULTI_BLOCK_FRAMES - 1),
)
def test_reader_matches_oracle_past_the_first_block(
    tmp_path_factory, multi_block_records, kind, at
):
    # the oracle strategy's logs fit in one read block; here one record of
    # the second block or a later one is changed
    path = tmp_path_factory.getbasetemp() / "multi_block_log.csv"
    path.write_text("\n".join([LOG_HEADER, *change_record(multi_block_records, kind, at)]) + "\n")
    assert read_outcome(read_detection_log, path) == read_outcome(oracle_read_detection_log, path)


def test_writer_layout_needs_no_line_reader(tmp_path, monkeypatch):
    # padland's own logs are read column by column; a fast path that stopped
    # matching the writer's layout would send every log to the line reader.
    # This one spans several read blocks, so each block's checks are met.
    run = campaign_trial()
    assert len(run.frames) > 2 * reporting.WRITE_BLOCK
    path = tmp_path / "log.csv"
    write_detection_log(run.frames, path)

    def refuse(line, lineno):
        raise AssertionError(f"line {lineno} went to the line reader")

    monkeypatch.setattr(reporting, "_parse_record", refuse)
    log = read_detection_log(path)
    assert log.tobytes() == np.ascontiguousarray(run.frames[:, :LOG_STRIDE]).tobytes()


def test_shared_positions_write_the_same_bytes(tmp_path):
    # write_trial_csvs formats each column once for both files; its log must
    # be byte for byte the one write_detection_log writes alone
    run = harness.run_trial(
        VehicleState(-30.0, 20.0, 90.0), harness.Mode.NEAR_ONLY, harness.Scenario(),
        harness.TrialConfig(max_steps=300), *[np.random.default_rng(s) for s in (3, 4)],
    )
    write_trial_csvs(run.frames, tmp_path / "trajectory.csv", tmp_path / "log.csv")
    write_detection_log(run.frames, tmp_path / "own_log.csv")
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "own_log.csv").read_bytes()


class TestDefaultProfiles:
    def test_far_detects_across_campaign_scales(self):
        far = default_far_profile()
        for s in (20.0, 40.0, 150.0, 350.0):
            assert detection_probability(far, s) > 0.99

    def test_near_blind_at_altitude_reliable_low(self):
        near = default_near_profile()
        assert detection_probability(near, 224.0 * 12.0 / 110.0) < 0.05
        assert detection_probability(near, 224.0 * 12.0 / 90.0) > 0.95
