import concurrent.futures
import functools
import gc
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padland import harness
from padland.dynamics import DynamicsParams
from padland.config import CampaignSpec
from padland.experts import (
    ABSENT,
    Detection,
    ExpertProfile,
    default_far_profile,
    default_near_profile,
)
from padland.gating import GateState
from padland.geometry import BoundingBox, CameraModel, HelipadSpec, VehicleState, apparent_width
from padland.harness import (
    BOX_COLUMNS,
    DERIVED_COLUMNS,
    LOG_FIELDS,
    LOG_STRIDE,
    RECORD_COLUMNS,
    REPLAY_COLUMNS,
    TRAJECTORY_COLUMNS,
    DetectionLogError,
    Mode,
    Scenario,
    TerminationReason,
    TrialConfig,
    TrialResult,
    perceive,
    replay_detect,
    replay_log,
    run_campaign,
    run_trial,
    sample_initial,
)
from padland.reporting import write_campaign_outputs
from padland.servo import (
    ControllerGains,
    area_ref_for_altitude,
    compute_command,
    compute_errors,
)

COL = {name: i for i, name in enumerate(RECORD_COLUMNS)}


def servo_errors(frames: np.ndarray, scenario: Scenario):
    """The e_x, e_y, A and e_z columns the writers derive from a record's
    smoothed box (NaN without one)."""
    box = BoundingBox(*(frames[:, COL[name]] for name in BOX_COLUMNS))
    return compute_errors(box, scenario.camera, scenario.gains)


IDEAL = Scenario(
    far_profile=ExpertProfile.ideal(),
    near_profile=ExpertProfile.ideal(),
)


@pytest.fixture
def recording_pool(monkeypatch) -> list[int]:
    """Replace the process pool by one whose calls all stay pending, so
    this process runs every one; returns the max_workers of each pool made."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            return Unclaimed()

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(n)))


def rngs(seed=0):
    root = np.random.SeedSequence(seed)
    a, b = root.spawn(2)
    return np.random.default_rng(a), np.random.default_rng(b)


class TestSampleInitial:
    def test_ranges_and_altitude_set(self):
        cfg = TrialConfig()
        rng = np.random.default_rng(3)
        for i in range(40):
            state = sample_initial(cfg, rng, i)
            assert -95.0 <= state.x <= -65.0
            assert 60.0 <= state.y <= 90.0
            assert state.z in (70.0, 80.0, 90.0, 110.0)
            assert (state.vx, state.vy, state.vz) == (0.0, 0.0, 0.0)

    def test_round_robin_guarantees_every_altitude(self):
        cfg = TrialConfig()
        rng = np.random.default_rng(3)
        zs = [sample_initial(cfg, rng, i).z for i in range(10)]
        assert zs == [70.0, 80.0, 90.0, 110.0, 70.0, 80.0, 90.0, 110.0, 70.0, 80.0]

    def test_degenerate_ranges_start_above_pad(self):
        cfg = TrialConfig(x_range=(-80.0, -80.0), y_range=(75.0, 75.0))
        state = sample_initial(cfg, np.random.default_rng(0), 0)
        assert (state.x, state.y) == (-80.0, 75.0)

    def test_same_seed_same_initial_list(self):
        cfg = TrialConfig(seed=11)

        def states():
            rng = np.random.default_rng(cfg.seed)
            return [sample_initial(cfg, rng, i) for i in range(10)]

        assert states() == states()


class TestRunTrial:
    def test_noise_free_dual_converges(self):
        run = run_trial(
            VehicleState(-86.0, 75.0, 70.0), Mode.DUAL, IDEAL, TrialConfig(), *rngs()
        )
        r = run.result
        assert r.termination_reason is TerminationReason.LANDED
        assert r.steps < 2000
        assert r.touchdown_error < 0.5

    def test_start_above_pad_lands_almost_exactly(self):
        for mode in (Mode.DUAL, Mode.FAR_ONLY, Mode.NEAR_ONLY):
            run = run_trial(
                VehicleState(-80.0, 75.0, 70.0), mode, IDEAL, TrialConfig(), *rngs()
            )
            assert run.result.termination_reason is TerminationReason.LANDED
            assert run.result.touchdown_error < 0.1

    def test_near_only_loses_tracking_at_110m(self):
        scen = Scenario()  # default calibrated profiles
        for seed in range(6):
            run = run_trial(
                VehicleState(-86.0, 80.0, 110.0), Mode.NEAR_ONLY, scen, TrialConfig(),
                *rngs(seed),
            )
            assert run.result.termination_reason is TerminationReason.TRACKING_LOST
            assert not run.result.success

    def test_touchdown_error_formula(self):
        run = run_trial(
            VehicleState(-90.0, 70.0, 70.0), Mode.DUAL, IDEAL, TrialConfig(), *rngs()
        )
        r = run.result
        x, y = r.touchdown_xy
        assert r.touchdown_error == pytest.approx(math.hypot(x + 80.0, y - 75.0))

    def test_success_iff_landed(self):
        scen = Scenario()
        cfg = TrialConfig()
        for mode, z in ((Mode.DUAL, 70.0), (Mode.NEAR_ONLY, 110.0)):
            run = run_trial(VehicleState(-86.0, 80.0, z), mode, scen, cfg, *rngs(1))
            r = run.result
            assert r.success == (r.termination_reason is TerminationReason.LANDED)

    def test_single_expert_modes_feed_only_that_expert(self):
        run = run_trial(
            VehicleState(-80.0, 75.0, 70.0), Mode.FAR_ONLY, IDEAL, TrialConfig(), *rngs()
        )
        assert run.result.expert_usage["NEAR"] == 0
        assert run.result.expert_usage["FAR"] == run.result.steps
        # every NEAR field, the present flag included, stays zero
        near = [COL[name] for name in RECORD_COLUMNS[LOG_FIELDS:LOG_STRIDE]]
        assert all("near" in RECORD_COLUMNS[i] for i in near)
        assert not run.frames[:, near].any()
        assert run.frames[:, COL["far_present"]].all()

    def test_timeout_when_descent_never_allowed(self):
        # a huge alignment error that lateral motion cannot fix in time is
        # not constructible noise-free, so force timeout with a tiny budget
        cfg = TrialConfig(max_steps=20)
        run = run_trial(VehicleState(-86.0, 75.0, 70.0), Mode.DUAL, IDEAL, cfg, *rngs())
        assert run.result.termination_reason is TerminationReason.TIMEOUT
        assert run.result.steps == 20

    def test_records_across_block_boundaries(self):
        # a timeout trial of n steps is the first n rows of a longer one,
        # and replaying the first n frames of a log gives n replay rows,
        # at n on both sides of multiples of 64 frames
        hover = Scenario(gains=ControllerGains(align_threshold=1e-9))  # never descends
        start = VehicleState(-86.0, 75.0, 70.0)
        longer = run_trial(start, Mode.DUAL, hover, TrialConfig(max_steps=192), *rngs(5))
        assert longer.result.termination_reason is TerminationReason.TIMEOUT
        replayed = replay_log(longer.frames[:, :LOG_STRIDE], hover)
        for n in (1, 63, 64, 65, 129):
            run = run_trial(start, Mode.DUAL, hover, TrialConfig(max_steps=n), *rngs(5))
            assert run.result.steps == n
            assert run.frames.tobytes() == longer.frames[:n].tobytes()
            replay = replay_log(longer.frames[:n, :LOG_STRIDE], hover)
            assert replay.tobytes() == replayed[:n].tobytes()

    def test_records_of_a_trial_that_stops_mid_block(self):
        # the NEAR expert goes blind once the pad looks larger than from
        # 60 m, so near_only loses tracking after more than 64 frames, at a
        # frame count that is not a multiple of 64
        pad, cam = HelipadSpec(), CameraModel()
        blind_below_60m = ExpertProfile(
            s_center=apparent_width(VehicleState(pad.x, pad.y, 60.0), pad, cam),
            s_slope=-1e-9,
        )
        scenario = Scenario(near_profile=blind_below_60m)
        start = VehicleState(pad.x + 0.5, pad.y, 70.0)
        run = run_trial(start, Mode.NEAR_ONLY, scenario, TrialConfig(), *rngs(1))
        assert run.result.termination_reason is TerminationReason.TRACKING_LOST
        steps = run.result.steps
        assert steps > 64 and steps % 64
        # the frame that lost tracking is the last one recorded
        replay = replay_log(run.frames[:, :LOG_STRIDE], scenario)
        lost = replay[:, REPLAY_COLUMNS.index("tracking_lost")].tolist()
        assert lost == [0.0] * (steps - 1) + [1.0]

    def test_trajectory_rows_cover_every_step(self):
        run = run_trial(
            VehicleState(-86.0, 75.0, 70.0), Mode.DUAL, IDEAL, TrialConfig(), *rngs()
        )
        # frame k is row k: no column holds k, nor its time k * dt
        assert run.frames.shape == (run.result.steps, len(RECORD_COLUMNS))
        assert "t" not in COL

    def test_record_columns_name_each_value_once(self):
        assert len(set(RECORD_COLUMNS)) == len(RECORD_COLUMNS)
        # every trajectory column but the first, `step`, which is the row number
        assert TRAJECTORY_COLUMNS[0] == "step" and "step" not in RECORD_COLUMNS
        # but the cells the writers derive
        assert set(TRAJECTORY_COLUMNS[1:]) - set(RECORD_COLUMNS) == set(DERIVED_COLUMNS)
        # the detection log's fields lead, FAR's then NEAR's, in log order
        fields = ("u", "v", "w", "h", "confidence")
        assert RECORD_COLUMNS[:LOG_STRIDE] == tuple(
            [f"{f}_far" for f in fields] + ["far_present"]
            + [f"{f}_near" for f in fields] + ["near_present"]
        )
        # then every stored trajectory column the log does not hold, in
        # header order, with the smoothed box's w and h after its u and v
        own = [c for c in TRAJECTORY_COLUMNS[1:] if c in RECORD_COLUMNS[LOG_STRIDE:]]
        box = own.index("v_hat") + 1
        own[box:box] = ["w_hat", "h_hat"]
        assert list(RECORD_COLUMNS[LOG_STRIDE:]) == own

    def test_records_hold_each_frames_detections(self):
        # the log fields of each frame are the experts' outputs, and the
        # trajectory's u/v/present columns read those same cells
        run = run_trial(
            VehicleState(-86.0, 80.0, 90.0), Mode.DUAL, Scenario(), TrialConfig(), *rngs(3)
        )
        for expert in ("far", "near"):
            present = run.frames[:, COL[f"{expert}_present"]]
            assert set(present.tolist()) == {0.0, 1.0}
            absent = present == 0.0
            for f in ("u", "v", "w", "h", "confidence"):
                column = run.frames[:, COL[f"{f}_{expert}"]]
                assert not column[absent].any()
                assert (column[~absent] > 0).all()

    def test_pickled_run_is_compact_and_exact(self):
        run = run_trial(
            VehicleState(-86.0, 80.0, 90.0), Mode.DUAL, Scenario(), TrialConfig(), *rngs(3)
        )
        blob = pickle.dumps(run)
        assert len(blob) <= 170 * run.result.steps
        back = pickle.loads(blob)
        assert back.result == run.result
        assert back.frames.shape == run.frames.shape
        assert back.frames.tobytes() == run.frames.tobytes()

    def test_lateral_error_decreases_monotonically(self):
        # noise-free single-expert loop, 20 m offset at 70 m altitude
        run = run_trial(
            VehicleState(-80.0 - 20.0 / math.sqrt(2), 75.0 - 20.0 / math.sqrt(2), 70.0),
            Mode.FAR_ONLY, IDEAL, TrialConfig(), *rngs(),
        )
        e_x, e_y, _, _ = servo_errors(run.frames, IDEAL)
        tracked = ~np.isnan(e_x)
        e_mag = [math.hypot(x, y) for x, y in zip(e_x[tracked].tolist(), e_y[tracked].tolist())]
        after_warmup = e_mag[5:]
        crossing = next(i for i, e in enumerate(after_warmup) if e < 2.0)
        for a, b in zip(after_warmup[:crossing], after_warmup[1 : crossing + 1]):
            assert b <= a + 1e-9
        assert all(e < 2.0 for e in after_warmup[crossing:])
        assert run.result.termination_reason is TerminationReason.LANDED

    def test_descent_error_monotone_in_centered_descent(self):
        run = run_trial(
            VehicleState(-80.0, 75.0, 70.0), Mode.NEAR_ONLY, IDEAL, TrialConfig(), *rngs()
        )
        e_z = servo_errors(run.frames, IDEAL).e_z
        e_z = e_z[~np.isnan(e_z)].tolist()
        assert all(b <= a + 1e-9 for a, b in zip(e_z, e_z[1:]))
        assert e_z[-1] < e_z[0]


class TestPerceive:
    def test_no_box_gives_no_errors_and_the_hold_command(self):
        gate = GateState()
        code, lost, cells, cmd = perceive(ABSENT, ABSENT, gate, CameraModel(), ControllerGains())
        assert (code, lost, tuple(cmd)) == (0.0, False, (0.0, 0.0, 0.0))
        assert len(cells) == len(BOX_COLUMNS) and all(map(math.isnan, cells))
        assert gate.coast_counter == 1

    def test_a_box_gives_its_cells_and_its_command(self):
        # the cells are the smoothed box, in REPLAY_COLUMNS order; its servo
        # errors are not among them
        cam, gains = CameraModel(), ControllerGains()
        box = BoundingBox(210.0, 230.5, 24.0, 24.0)
        code, lost, cells, cmd = perceive(Detection(box, 0.9), ABSENT, GateState(), cam, gains)
        assert (code, lost) == (1.0, False)
        assert cells == box and len(cells) == len(REPLAY_COLUMNS) - 2
        # a window of one box is that box
        assert cmd == compute_command(compute_errors(box, cam, gains), gains)


class TestReplayLog:
    INSIDE = (210.0, 230.5, 24.0, 24.0, 0.81, 1.0)  # a present box inside the default image
    OUTSIDE = (447.0, 224.0, 4.0, 4.0, 0.5, 1.0)  # one pixel past its right edge

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(Mode),
        x=st.floats(-95.0, -65.0),
        y=st.floats(60.0, 90.0),
        z=st.sampled_from((70.0, 90.0, 110.0)),
        window_size=st.integers(1, 8),
        coast_limit=st.integers(0, 15),
    )
    # near_only loses tracking from 110 m (see test_near_only_loses_tracking_at_110m)
    @example(seed=0, mode=Mode.NEAR_ONLY, x=-86.0, y=80.0, z=110.0, window_size=5, coast_limit=10)
    def test_replay_reproduces_the_trial(self, seed, mode, x, y, z, window_size, coast_limit):
        scenario = Scenario(window_size=window_size, coast_limit=coast_limit)
        run = run_trial(VehicleState(x, y, z), mode, scenario, TrialConfig(), *rngs(seed))
        replay = replay_log(run.frames[:, :LOG_STRIDE], scenario)
        col = {name: replay[:, i] for i, name in enumerate(REPLAY_COLUMNS)}
        steps = run.result.steps
        assert replay.shape == (steps, len(REPLAY_COLUMNS))  # frame k is row k
        for name in ("selected", *BOX_COLUMNS):
            assert col[name].tobytes() == run.frames[:, COL[name]].tobytes(), name
        lost = np.zeros(steps)
        if run.result.termination_reason is TerminationReason.TRACKING_LOST:
            lost[-1] = 1.0
        assert col["tracking_lost"].tobytes() == lost.tobytes()

    @pytest.mark.parametrize("frame", [True, 1.0, 0.5, "0", None])
    def test_replay_detect_rejects_a_frame_index_that_is_not_an_integer(self, frame):
        # True used to index numpy's rows as a mask, and fail with an IndexError
        log = np.zeros((3, LOG_STRIDE))
        with pytest.raises(ValueError, match="^frame_index: must be an integer"):
            replay_detect(log, frame)
        assert replay_detect(log, 1) == (ABSENT, ABSENT)

    def test_an_expert_is_the_slot_it_fills(self):
        # each profile in the other's slot: the far slot's selections are
        # FAR, in the trial, its usage and the replay of its own log
        scenario = Scenario(far_profile=default_near_profile(), near_profile=default_far_profile())
        rng_far, rng_near = np.random.default_rng(1), np.random.default_rng(2)
        start = VehicleState(-85.0, 80.0, 90.0)
        run = run_trial(start, Mode.DUAL, scenario, TrialConfig(), rng_far, rng_near)
        replay = replay_log(run.frames[:, :LOG_STRIDE], scenario)
        for name in ("selected", "u_hat", "v_hat"):
            replayed = replay[:, REPLAY_COLUMNS.index(name)]
            assert replayed.tobytes() == run.frames[:, COL[name]].tobytes(), name
        far_frames = int(np.count_nonzero(run.frames[:, COL["selected"]] == 1.0))
        assert far_frames > 0
        assert run.result.expert_usage["FAR"] == far_frames

    @pytest.mark.parametrize(
        "bad, named",
        [
            ({(3, 1)}, "frame 3: NEAR"),
            ({(1, 1), (2, 0)}, "frame 1: NEAR"),
            ({(2, 0), (2, 1)}, "frame 2: FAR"),
        ],
        ids=["first-at-frame-3", "earlier-frame-first", "far-before-near"],
    )
    def test_first_box_outside_image_named(self, bad, named):
        # (frame, expert) cells, expert 0 FAR and 1 NEAR
        log = np.array([
            [x for expert in (0, 1) for x in (self.OUTSIDE if (frame, expert) in bad else self.INSIDE)]
            for frame in range(5)
        ])
        message = (
            f"{named} BoundingBox(u=447.0, v=224.0, w=4.0, h=4.0) does not lie inside "
            "the 448.0 x 448.0 camera image"
        )
        with pytest.raises(DetectionLogError, match=f"^{re.escape(message)}$"):
            replay_log(log, Scenario())

    def test_absent_cells_outside_image_never_flagged(self):
        log = np.zeros((3, LOG_STRIDE))
        log[:, :LOG_FIELDS] = (-5000.0, 1e9, 5.0, 5.0, 0.5, 0.0)  # FAR absent
        log[:, LOG_FIELDS:] = self.OUTSIDE[:5] + (0.0,)  # NEAR absent
        log[1, LOG_FIELDS:] = self.INSIDE  # NEAR present
        replay = replay_log(log, Scenario())
        assert replay[:, REPLAY_COLUMNS.index("selected")].tolist() == [0.0, 2.0, 0.0]


class TestCampaign:
    def test_paired_initial_states_across_modes(self):
        camp = run_campaign(Scenario(), TrialConfig(seed=5, n_trials=6))
        per_mode = {m: camp.results(m) for m in camp.runs}
        for i in range(6):
            positions = {m: per_mode[m][i].initial_position for m in per_mode}
            assert len(set(positions.values())) == 1

    def test_trial_count_and_modes(self):
        camp = run_campaign(Scenario(), TrialConfig(seed=5, n_trials=4), modes=[Mode.DUAL])
        assert list(camp.runs) == [Mode.DUAL]
        assert len(camp.results(Mode.DUAL)) == 4

    @pytest.mark.parametrize(
        "modes",
        [[], [Mode.DUAL, Mode.DUAL], (Mode.FAR_ONLY, Mode.DUAL, Mode.FAR_ONLY), ["dual"]],
    )
    def test_empty_or_repeated_modes_rejected_before_any_trial(self, monkeypatch, modes):
        def no_trial(args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_trial_task", no_trial)
        with pytest.raises(ValueError, match="modes"):
            run_campaign(Scenario(), TrialConfig(n_trials=2), modes=modes)

    def test_trial_rejects_a_mode_that_is_not_a_mode(self):
        # "dual" used to run neither expert and lose tracking on frame 11
        with pytest.raises(ValueError, match="trials.modes"):
            run_trial(VehicleState(-80.0, 75.0, 70.0), "dual", Scenario(), TrialConfig(), *rngs())

    def test_same_seed_reproduces_everything(self):
        a = run_campaign(Scenario(), TrialConfig(seed=21, n_trials=4))
        b = run_campaign(Scenario(), TrialConfig(seed=21, n_trials=4))
        for mode in a.runs:
            assert a.results(mode) == b.results(mode)
            for ra, rb in zip(a.runs[mode], b.runs[mode]):
                assert ra.frames.shape == rb.frames.shape
                assert ra.frames.tobytes() == rb.frames.tobytes()

    def test_different_seed_changes_results(self):
        a = run_campaign(Scenario(), TrialConfig(seed=21, n_trials=4), modes=[Mode.DUAL])
        b = run_campaign(Scenario(), TrialConfig(seed=22, n_trials=4), modes=[Mode.DUAL])
        assert a.results(Mode.DUAL) != b.results(Mode.DUAL)

    def test_concurrent_execution_matches_serial(self):
        serial = run_campaign(Scenario(), TrialConfig(seed=9, n_trials=4))
        parallel = run_campaign(Scenario(), TrialConfig(seed=9, n_trials=4), n_workers=2)
        for mode in serial.runs:
            assert serial.results(mode) == parallel.results(mode)
            for ra, rb in zip(serial.runs[mode], parallel.runs[mode]):
                assert ra.frames.shape == rb.frames.shape
                assert ra.frames.tobytes() == rb.frames.tobytes()

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            run_campaign(Scenario(), TrialConfig(n_trials=1), n_workers=0)

    @pytest.mark.parametrize("workers", [1.5, 2.5, True, "2", None])
    def test_workers_that_are_not_an_integer_rejected(self, recording_pool, monkeypatch, workers):
        # 1.5 used to fail inside ProcessPoolExecutor with a TypeError, 2.5 to
        # start a pool of max_workers=1.5, and True to run serially
        usable_cpus(monkeypatch, 8)
        with pytest.raises(ValueError, match="^n_workers: must be an integer"):
            run_campaign(Scenario(), TrialConfig(n_trials=1, max_steps=20), n_workers=workers)
        assert recording_pool == []

    def test_pool_has_at_most_one_worker_per_task(self, recording_pool, monkeypatch):
        usable_cpus(monkeypatch, 8)
        run_campaign(Scenario(), TrialConfig(n_trials=1, max_steps=20), n_workers=6)
        assert recording_pool == [2]  # three tasks, one trial per mode: two workers and this process

    @pytest.mark.parametrize("cpus, sizes", [(2, [1]), (1, [])])
    def test_pool_has_at_most_one_worker_per_usable_cpu(
        self, recording_pool, monkeypatch, cpus, sizes
    ):
        usable_cpus(monkeypatch, cpus)
        run_campaign(Scenario(), TrialConfig(n_trials=4, max_steps=20), n_workers=300)
        assert recording_pool == sizes  # this process is one; on one CPU, no pool at all

    def test_run_and_write_share_one_pool(self, recording_pool, monkeypatch, tmp_path):
        usable_cpus(monkeypatch, 2)
        camp = run_campaign(Scenario(), TrialConfig(n_trials=2, max_steps=20), n_workers=2)
        write_campaign_outputs(camp, tmp_path)
        assert recording_pool == [1]
        assert len(list((tmp_path / "detections").iterdir())) == 6

    def test_campaign_with_workers_pickles_without_them(self, monkeypatch, tmp_path):
        usable_cpus(monkeypatch, 2)
        camp = run_campaign(Scenario(), TrialConfig(n_trials=1, max_steps=20), n_workers=2)
        back = pickle.loads(pickle.dumps(camp))
        for mode in camp.runs:
            assert back.results(mode) == camp.results(mode)
        write_campaign_outputs(back, tmp_path)  # in this process
        assert len(list((tmp_path / "trajectories").iterdir())) == 3

    def test_dropping_the_campaign_stops_its_workers(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        camp = run_campaign(Scenario(), TrialConfig(n_trials=1, max_steps=20), n_workers=2)
        assert len(multiprocessing.active_children()) == 1  # held for writing
        # the campaign joins its workers when dropped, even while the
        # executor itself is still referenced (an executor that is only
        # collected stops its workers later, on another thread)
        pool = camp._pool
        del camp
        gc.collect()
        assert multiprocessing.active_children() == []
        del pool

    @pytest.mark.parametrize("cpus, workers", [(2, 1), (1, 2)])
    def test_serial_campaign_starts_no_process(self, monkeypatch, cpus, workers):
        usable_cpus(monkeypatch, cpus)
        camp = run_campaign(Scenario(), TrialConfig(n_trials=1, max_steps=20), n_workers=workers)
        assert camp._pool is None
        assert multiprocessing.active_children() == []

    def test_common_noise_streams_across_modes(self):
        # FAR reads the same rows of the same seed stream in FAR_ONLY and
        # DUAL, so on every frame where both trajectories coincide the FAR
        # detections do too. At 110 m NEAR is nearly blind, so DUAL flies
        # on FAR alone for some frames before the paths part.
        camp = run_campaign(
            Scenario(), TrialConfig(seed=14, n_trials=1, altitude_set=(110.0,)),
            modes=[Mode.FAR_ONLY, Mode.DUAL],
        )
        far_run = camp.runs[Mode.FAR_ONLY][0].frames
        dual_run = camp.runs[Mode.DUAL][0].frames
        position = [COL["x"], COL["y"], COL["z"]]
        n = min(len(far_run), len(dual_run))
        same = (far_run[:n, position] == dual_run[:n, position]).all(axis=1)
        shared = n if same.all() else int(np.argmin(same))
        assert shared > 1
        assert far_run[:shared, :LOG_FIELDS].tobytes() == dual_run[:shared, :LOG_FIELDS].tobytes()

    def test_every_result_has_reason(self):
        camp = run_campaign(Scenario(), TrialConfig(seed=2, n_trials=4))
        for mode in camp.runs:
            for r in camp.results(mode):
                assert isinstance(r.termination_reason, TerminationReason)
                assert r.success == (r.termination_reason is TerminationReason.LANDED)


class Unclaimed(concurrent.futures.Future):
    """A call no worker will ever run: waiting for it fails the test
    instead of hanging it."""

    def result(self, timeout=None):
        assert self.done(), "a call was left to a worker that never came"
        return super().result(timeout)


@pytest.fixture
def switch_interval():
    """Set an unusual switch interval for the test; returns it."""
    saved = sys.getswitchinterval()
    sys.setswitchinterval(0.0042)
    yield sys.getswitchinterval()
    sys.setswitchinterval(saved)


class ClaimedPool:
    """A pool whose workers have claimed calls 0 to claimed: their futures
    hold the result already and can no longer be cancelled. Later calls
    stay pending. A claimed call's result is fn's, or its error."""

    def __init__(self, claimed: int):
        self.claimed = claimed
        self.submitted = 0

    def submit(self, fn, *args):
        future = Unclaimed()
        if self.submitted <= self.claimed:
            future.set_running_or_notify_cancel()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
        self.submitted += 1
        return future


class TestSharedMap:
    @pytest.mark.parametrize("claimed", [-1, 0, 3, 7])
    def test_this_process_runs_every_call_after_the_last_claimed(self, claimed, switch_interval):
        ran = []

        def square(x):
            ran.append(x)
            return x * x

        out = harness._shared_map(ClaimedPool(claimed), square, range(8))
        assert out == [x * x for x in range(8)]
        # the pool's calls ran as they were submitted, then this process's from the back
        assert ran == list(range(claimed + 1)) + list(range(7, claimed, -1))
        assert sys.getswitchinterval() == switch_interval

    def test_first_error_in_call_order_raised(self):
        def check(x):
            if x in (1, 5):
                raise ValueError(f"call {x}")
            return x

        with pytest.raises(ValueError, match="call 1"):
            harness._shared_map(ClaimedPool(2), check, range(8))  # 5 runs here
        with pytest.raises(ValueError, match="call 5"):
            harness._shared_map(ClaimedPool(0), check, [0, 3, 5, 7])

    def test_without_a_pool_this_process_runs_every_call(self, switch_interval):
        ran = []

        def check(x):
            ran.append(x)
            if x in (1, 5):
                raise ValueError(f"call {x}")
            return x

        with pytest.raises(ValueError, match="call 1"):
            harness._shared_map(None, check, range(8))
        assert ran == list(range(8))  # in order, the calls after each error too
        assert harness._shared_map(None, pow, range(5), [2] * 5) == [0, 1, 4, 9, 16]
        assert sys.getswitchinterval() == switch_interval

    def test_real_pool_gives_the_serial_results(self, switch_interval):
        bases, exponents = range(40), [3, 7] * 20
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            out = harness._shared_map(pool, pow, bases, exponents)
        assert out == list(map(pow, bases, exponents))
        assert sys.getswitchinterval() == switch_interval

    def test_error_in_this_process_share_stops_the_campaign(self, monkeypatch, switch_interval):
        usable_cpus(monkeypatch, 2)
        here = os.getpid()
        task = harness._trial_task

        @functools.wraps(task)  # pickled by name, so workers run it too
        def fail_here(args):
            if os.getpid() == here:
                raise RuntimeError("trial failed in the calling process")
            return task(args)

        monkeypatch.setattr(harness, "_trial_task", fail_here)
        with pytest.raises(RuntimeError, match="calling process"):
            run_campaign(Scenario(), TrialConfig(n_trials=4, max_steps=20), n_workers=2)
        assert multiprocessing.active_children() == []
        assert sys.getswitchinterval() == switch_interval


# A serial campaign, its outputs and a replay of one of its logs, in a fresh
# interpreter that exits non-zero naming any pool module it loaded
SERIAL_RUN = """
import sys
import padland, padland.cli
from padland.harness import Scenario, TrialConfig, run_campaign
from padland.reporting import write_campaign_outputs
out, config = sys.argv[1:]
write_campaign_outputs(run_campaign(Scenario(), TrialConfig(n_trials=2, max_steps=200)), out)
log = f"{out}/detections/trial_000_dual.csv"
assert padland.cli.main(["replay", "--log", log, "--config", config, "--out", out]) == 0
loaded = sorted(m for m in sys.modules if m.partition(".")[0] in ("concurrent", "logging"))
sys.exit(f"loaded {loaded}" if loaded else 0)
"""


def test_a_serial_run_loads_no_process_pool_machinery(tmp_path):
    # only a campaign that starts a pool imports concurrent.futures, and
    # with it logging
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", SERIAL_RUN, str(tmp_path), str(root / "configs" / "default.json")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "replay.csv").is_file()


def _non_finite_fields():
    """(object, field, value) for each float field of the parameter objects,
    and each entry of a tuple of floats in turn, set to NaN, inf and -inf."""
    bases = (
        CameraModel(),
        HelipadSpec(),
        DynamicsParams(),
        ControllerGains(),
        default_far_profile(),
        TrialConfig(),
    )
    for base in bases:
        for f in fields(base):
            value = getattr(base, f.name)
            label = f"{type(base).__name__}.{f.name}"
            for bad in (math.nan, math.inf, -math.inf):
                if isinstance(value, float):
                    yield pytest.param(base, f.name, bad, id=f"{label}={bad}")
                elif isinstance(value, tuple):
                    for i in range(len(value)):
                        entries = value[:i] + (bad,) + value[i + 1 :]
                        yield pytest.param(base, f.name, entries, id=f"{label}[{i}]={bad}")


class TestConfigValidation:
    def test_trial_config_invariants(self):
        with pytest.raises(ValueError):
            TrialConfig(altitude_set=())
        with pytest.raises(ValueError):
            TrialConfig(n_trials=0)
        with pytest.raises(ValueError):
            TrialConfig(max_steps=0)
        with pytest.raises(ValueError):
            TrialConfig(commit_altitude=0.0)
        with pytest.raises(ValueError):
            TrialConfig(commit_altitude=70.0)
        with pytest.raises(ValueError):
            TrialConfig(x_range=(5.0, -5.0))
        with pytest.raises(ValueError):
            TrialConfig(seed=-1)

    def test_trial_count_bounded(self):
        # the bound alone: a campaign of MAX_TRIALS is never run here
        assert TrialConfig(n_trials=harness.MAX_TRIALS).n_trials == harness.MAX_TRIALS
        with pytest.raises(ValueError, match="n_trials"):
            TrialConfig(n_trials=harness.MAX_TRIALS + 1)

    def test_step_count_bounded(self):
        # the bound alone: a trial of MAX_STEPS is never run here
        assert TrialConfig(max_steps=harness.MAX_STEPS).max_steps == harness.MAX_STEPS
        with pytest.raises(ValueError, match="max_steps: must be between 1 and 100000"):
            TrialConfig(max_steps=harness.MAX_STEPS + 1)

    def test_worst_case_frame_memory_bounded(self):
        # each bound alone passes, but not their product: MAX_TRIALS trials of
        # every mode may hold MAX_FRAME_BYTES of 160 B frames, 14,316 steps each
        n = harness.MAX_TRIALS
        fits = harness.MAX_FRAME_BYTES // (n * len(Mode) * len(RECORD_COLUMNS) * 8)
        assert fits == 14_316 and TrialConfig(n_trials=n, max_steps=fits).max_steps == fits
        with pytest.raises(ValueError, match=r"^max_steps: .* \(got 10000 \* 3 \* 14317 frames, "):
            TrialConfig(n_trials=n, max_steps=fits + 1)
        with pytest.raises(ValueError, match=r"480000000000 B\)$"):
            TrialConfig(n_trials=n, max_steps=harness.MAX_STEPS)

    def test_scenario_gate_invariants(self):
        with pytest.raises(ValueError):
            Scenario(window_size=0)
        with pytest.raises(ValueError):
            Scenario(coast_limit=-1)

    @pytest.mark.parametrize("base, name, value", _non_finite_fields())
    def test_non_finite_parameter_rejected_by_name(self, base, name, value):
        # NaN passes a rule written as `x < 0`: a NaN FAR sigma_center_base
        # used to turn a dual campaign into near-only without an error
        with pytest.raises(ValueError, match=f"^{name}:"):
            replace(base, **{name: value})

    @pytest.mark.parametrize(
        "make, name, value",
        [
            (TrialConfig, "seed", True),
            (TrialConfig, "seed", 42.0),
            (TrialConfig, "n_trials", 2.5),
            (TrialConfig, "max_steps", 20.5),
            (Scenario, "coast_limit", 1.5),
            (Scenario, "coast_limit", False),
            (Scenario, "window_size", 5.0),
            (Scenario, "window_size", 2**70),
            (GateState, "window_size", sys.maxsize + 1),
        ],
    )
    def test_integer_field_rejects_a_non_integer_by_name(self, make, name, value):
        # a float count used to fail inside run_campaign, a bool seed or a
        # float coast limit to run, and a huge window in deque's OverflowError
        with pytest.raises(ValueError, match=f"^{name}:"):
            make(**{name: value})

    def test_window_size_up_to_what_a_deque_holds(self):
        assert GateState(window_size=sys.maxsize).window.maxlen == sys.maxsize


class TestCampaignRules:
    """The rules that span a Scenario and a TrialConfig (check_campaign):
    run_campaign applies them before any trial runs, as the config does."""

    @staticmethod
    def rejected(monkeypatch, scenario, config, key):
        def refuse(args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_trial_task", refuse)
        with pytest.raises(ValueError, match=re.escape(key)):
            run_campaign(scenario, config, modes=[Mode.DUAL])

    @pytest.mark.parametrize("z_ref, commit", [(8.0, 8.0), (9.0, 8.0), (12.5, 12.5)])
    def test_descent_target_at_or_above_commit_altitude_rejected(self, monkeypatch, z_ref, commit):
        gains = ControllerGains(area_ref=area_ref_for_altitude(z_ref, 224.0, 12.0))
        config = TrialConfig(n_trials=2, commit_altitude=commit)
        self.rejected(monkeypatch, Scenario(gains=gains), config, "gains.z_ref")

    def test_step_through_the_descent_rejected(self, monkeypatch):
        # 7.5 m per step over a 62 m descent: the trials would "land" with meters of error
        scenario = Scenario(dynamics=DynamicsParams(dt=5.0))
        self.rejected(monkeypatch, scenario, TrialConfig(n_trials=2), "dynamics.dt")

    def test_rules_accept_their_near_side(self):
        gains = ControllerGains(area_ref=area_ref_for_altitude(7.99, 224.0, 12.0))
        harness.check_campaign(Scenario(gains=gains), TrialConfig(), tuple(Mode))
        # 3.0 m per step, within 1/20 of the 62 m descent (3.1 m)
        harness.check_campaign(Scenario(dynamics=DynamicsParams(dt=2.0)), TrialConfig(), tuple(Mode))

    def test_a_single_trial_and_a_spec_apply_the_rules(self):
        # run_trial used to land this trial in 12 steps with 0.32 m of error
        scenario = Scenario(dynamics=DynamicsParams(dt=5.0))
        with pytest.raises(ValueError, match=re.escape("dynamics.dt")):
            run_trial(VehicleState(-74.0, 68.0, 90.0), Mode.DUAL, scenario, TrialConfig(), *rngs())
        with pytest.raises(ValueError, match=re.escape("dynamics.dt")):
            CampaignSpec(scenario=scenario)


class TestTrialResultRules:
    @staticmethod
    def result(**changes) -> TrialResult:
        fields = dict(
            trial_id=0,
            initial_position=(-86.0, 80.0, 90.0),
            touchdown_xy=(-80.5, 75.2),
            touchdown_error=0.54,
            success=True,
            termination_reason=TerminationReason.LANDED,
            steps=10,
            expert_usage={"FAR": 4, "NEAR": 3},  # 3 coasting frames
        )
        return TrialResult(**{**fields, **changes})

    def test_valid_result_and_coasting_frames_accepted(self):
        assert self.result().expert_usage == {"FAR": 4, "NEAR": 3}
        assert self.result(touchdown_error=0.0, steps=1, expert_usage={"FAR": 0, "NEAR": 1})

    @pytest.mark.parametrize(
        "changes, key",
        [
            ({"touchdown_error": math.nan}, "touchdown_error"),
            ({"touchdown_error": math.inf}, "touchdown_error"),
            ({"touchdown_error": -5.0}, "touchdown_error"),
            ({"success": False}, "success"),
            ({"termination_reason": TerminationReason.TIMEOUT}, "success"),
            ({"steps": 0, "expert_usage": {"FAR": 0, "NEAR": 0}}, "steps"),
            ({"expert_usage": {"FAR": -1, "NEAR": 3}}, "expert_usage"),
            ({"expert_usage": {"FAR": 6, "NEAR": 5}}, "expert_usage"),  # 11 of 10 frames
            ({"trial_id": -3}, "trial_id"),
            ({"expert_usage": {"FAR": 4, "NEAR": 3, "BOGUS": 0}}, "expert_usage"),
            ({"expert_usage": {"FAR": 4}}, "expert_usage"),
            ({"touchdown_xy": (-80.5, math.nan)}, "touchdown_xy"),
            ({"initial_position": (-86.0, 80.0)}, "initial_position"),
        ],
    )
    def test_out_of_range_rejected_by_name(self, changes, key):
        with pytest.raises(ValueError, match=key):
            self.result(**changes)

    @pytest.mark.parametrize(
        "changes, key",
        [
            ({"touchdown_error": True}, "touchdown_error"),
            ({"touchdown_error": "0.5"}, "touchdown_error"),
            ({"steps": 10.5}, "steps"),
            ({"steps": True, "expert_usage": {"FAR": 1, "NEAR": 0}}, "steps"),
            ({"expert_usage": {"FAR": 1.5, "NEAR": 3}}, "expert_usage"),
            ({"expert_usage": {"FAR": True, "NEAR": 3}}, "expert_usage"),
            ({"trial_id": "x"}, "trial_id"),
            ({"trial_id": 1.0}, "trial_id"),
            ({"touchdown_xy": (None, 1.0)}, "touchdown_xy"),
            ({"touchdown_xy": ("a", "b")}, "touchdown_xy"),
            ({"touchdown_xy": [-80.5, 75.2]}, "touchdown_xy"),
            ({"initial_position": (-86.0, 80.0, True)}, "initial_position"),
            ({"touchdown_error": 10**400}, "touchdown_error"),
        ],
    )
    def test_wrong_type_rejected_by_name(self, changes, key):
        with pytest.raises(ValueError, match=key):
            self.result(**changes)
