"""Closed-loop landing trials, log replay and the randomized paired campaign.

One trial runs the full per-frame pipeline (project the pad, run both
experts, then `perceive`: gate, smooth and servo; integrate motion) until
the vehicle reaches the commit altitude, tracking is lost, or the step
budget runs out. A campaign samples a shared list of initial states and
runs every controller mode from that identical list with per-trial,
per-expert seed streams so the modes see common random numbers.
"""

from __future__ import annotations

import os
import struct
import sys
import weakref
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, repeat
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import DynamicsParams, step
from .experts import (
    ABSENT,
    Detection,
    ExpertId,
    ExpertProfile,
    default_far_profile,
    default_near_profile,
    detect,
    noise_rows,
)
from .gating import _FAR, GateState, select_expert
from .geometry import (
    BoundingBox,
    CameraModel,
    Count,
    HelipadSpec,
    NonNegative,
    Positive,
    PositiveCount,
    VehicleState,
    apparent_width,
    check_fields,
    check_value,
    inside_image,
    project_helipad,
    ranged,
)
from .servo import (
    ControllerGains,
    VelocityCommand,
    altitude_for_area_ref,
    compute_command,
    compute_errors,
)

if TYPE_CHECKING:  # loaded at run time only where a pool starts (run_campaign)
    import concurrent.futures


class Mode(Enum):
    NEAR_ONLY = "near_only"
    FAR_ONLY = "far_only"
    DUAL = "dual"


class TerminationReason(Enum):
    LANDED = "landed"
    TRACKING_LOST = "tracking_lost"
    TIMEOUT = "timeout"


# a campaign holds every trial's frames until they are written: ~0.6 MB
# per trial over three modes by default, at most MAX_STEPS frames of 184 B
# (18.4 MB) per trial and mode, and at most MAX_FRAME_BYTES (64 GiB) over
# n_trials trials of every mode
MAX_TRIALS = 10_000
MAX_STEPS = 100_000
MAX_FRAME_BYTES = 2**36

_Interval = ranged(tuple[float, float], lambda r: r[0] <= r[1], "a pair with low <= high")
_Altitudes = ranged(tuple[float, ...], lambda a: len(a) > 0 and min(a) > 0, "nonempty and > 0")
_TrialCount = ranged(int, lambda n: 1 <= n <= MAX_TRIALS, f"between 1 and {MAX_TRIALS}")
_StepCount = ranged(int, lambda n: 1 <= n <= MAX_STEPS, f"between 1 and {MAX_STEPS}")
_Usage = ranged(
    dict[str, int],
    lambda u: set(u) == {e.value for e in ExpertId} and min(u.values()) >= 0,
    "keyed by FAR and NEAR, with counts >= 0",
)


@dataclass(frozen=True)
class TrialConfig:
    x_range: _Interval = (-95.0, -65.0)
    y_range: _Interval = (60.0, 90.0)
    altitude_set: _Altitudes = (70.0, 80.0, 90.0, 110.0)
    seed: Count = 42
    n_trials: _TrialCount = 10
    max_steps: _StepCount = 6000
    commit_altitude: Positive = 8.0  # below this the vehicle commits blind

    def __post_init__(self):
        check_fields(self)
        if not self.commit_altitude < min(self.altitude_set):
            raise ValueError(
                f"commit_altitude: must be positive and below the lowest altitude_set entry "
                f"(got {self.commit_altitude}, lowest {min(self.altitude_set)})"
            )
        frame_bytes = self.n_trials * len(Mode) * self.max_steps * _RECORD_ROW.size
        if frame_bytes > MAX_FRAME_BYTES:
            raise ValueError(
                f"max_steps: n_trials * {len(Mode)} modes * max_steps frames of "
                f"{_RECORD_ROW.size} B must be at most {MAX_FRAME_BYTES} B "
                f"(got {self.n_trials} * {len(Mode)} * {self.max_steps} frames, {frame_bytes} B)"
            )


@dataclass(frozen=True)
class Scenario:
    """Everything a trial needs besides its initial state and seeds."""

    camera: CameraModel = field(default_factory=CameraModel)
    helipad: HelipadSpec = field(default_factory=HelipadSpec)
    far_profile: ExpertProfile = field(default_factory=default_far_profile)
    near_profile: ExpertProfile = field(default_factory=default_near_profile)
    gains: ControllerGains = field(default_factory=ControllerGains)
    dynamics: DynamicsParams = field(default_factory=DynamicsParams)
    window_size: PositiveCount = GateState.window_size
    coast_limit: Count = GateState.coast_limit

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TrialResult:
    trial_id: Count
    initial_position: tuple[float, float, float]
    touchdown_xy: tuple[float, float]
    touchdown_error: NonNegative
    success: bool
    termination_reason: TerminationReason
    steps: PositiveCount
    expert_usage: _Usage

    def __post_init__(self):
        # read back from JSON, any field may hold a bool, a string or null
        check_fields(self)
        if self.success is not (self.termination_reason is TerminationReason.LANDED):
            raise ValueError(
                f"success: must be true exactly when termination_reason is landed "
                f"(got {self.success}, {self.termination_reason.value})"
            )
        if sum(self.expert_usage.values()) > self.steps:
            raise ValueError(
                f"expert_usage: counts must sum to at most steps "
                f"(got {self.expert_usage}, steps {self.steps})"
            )


TRAJECTORY_HEADER = (
    "step,t,x,y,z,u_far,v_far,far_present,u_near,v_near,near_present,"
    "selected,u_hat,v_hat,e_x,e_y,A,e_z,vx_cmd,vy_cmd,vz_cmd"
)
TRAJECTORY_COLUMNS = tuple(TRAJECTORY_HEADER.split(","))
# Frame k is row k of a record array and of a detection log's array (its
# first LOG_STRIDE columns), so no layout stores k: each CSV's first column
# (`step`, `frame`) is its row number. Nor does a layout store what follows
# from the rest: the writers derive `t`, the row number times dynamics.dt,
# and the servo errors, servo.compute_errors of the smoothed box.
DERIVED_COLUMNS = ("t", "e_x", "e_y", "A", "e_z")  # `t`, then ErrorSignals' fields in order
_LOG_COLUMNS = tuple(
    "u_far,v_far,w_far,h_far,confidence_far,far_present,"
    "u_near,v_near,w_near,h_near,confidence_near,near_present".split(",")
)
LOG_STRIDE = len(_LOG_COLUMNS)  # FAR's fields, then NEAR's
LOG_FIELDS = LOG_STRIDE // 2  # u, v, w, h, confidence, present of one expert
BOX_COLUMNS = ("u_hat", "v_hat", "w_hat", "h_hat")  # the smoothed box, as BoundingBox
# one frame's record: the detection log's fields (u, v, w, h, confidence,
# present of FAR, then of NEAR), the position, `selected`, the smoothed box
# and the command
RECORD_COLUMNS = (
    *_LOG_COLUMNS, "x", "y", "z", "selected", *BOX_COLUMNS, "vx_cmd", "vy_cmd", "vz_cmd"
)
# code of the `selected` column: index into SELECTION_LABELS
SELECTION_LABELS = ("", ExpertId.FAR.value, ExpertId.NEAR.value)
_SELECTED = RECORD_COLUMNS.index("selected")
REPLAY_HEADER = "frame,selected,tracking_lost,u_hat,v_hat,w_hat,h_hat,e_x,e_y,A,e_z"
REPLAY_COLUMNS = ("selected", "tracking_lost", *BOX_COLUMNS)
_BLANKS = (float("nan"),) * len(BOX_COLUMNS)  # perceive's cells without a smoothed box
_HOLD = VelocityCommand(0.0, 0.0, 0.0)
# one frame's row as packed float64s: each loop appends one per frame to a bytearray
_RECORD_ROW = struct.Struct(f"{len(RECORD_COLUMNS)}d")
_REPLAY_ROW = struct.Struct(f"{len(REPLAY_COLUMNS)}d")


@dataclass(eq=False)
class TrialRun:
    """A finished trial plus its per-frame records.

    `frames` is a (steps, len(RECORD_COLUMNS)) float64 view of the bytearray
    run_trial packs row k for frame k, in RECORD_COLUMNS order, 184 B a
    frame (a run computed in a pool worker arrives viewing the buffer it
    was unpickled from instead): the first LOG_STRIDE columns are the
    detection log, the smoothed box's cells are NaN (blank) on a frame
    without one and `selected` holds a code into SELECTION_LABELS. It holds
    no DERIVED_COLUMNS: the writers derive `t` and the servo errors (see
    reporting.write_trial_csvs). Runs compare by identity; compare records
    with `.tobytes()`, since NaN blanks never compare equal.
    """

    result: TrialResult
    frames: np.ndarray


def sample_initial(config: TrialConfig, rng: np.random.Generator, trial_index: int) -> VehicleState:
    """Uniform lateral start with the altitude cycled through altitude_set.

    The cyclic assignment guarantees every altitude (including the
    high-altitude stress case) appears in any campaign of at least
    len(altitude_set) trials; a 10-trial campaign over four altitudes gets
    the 3/3/2/2 mix.
    """
    x = rng.uniform(config.x_range[0], config.x_range[1])
    y = rng.uniform(config.y_range[0], config.y_range[1])
    z = config.altitude_set[trial_index % len(config.altitude_set)]
    return VehicleState(x=x, y=y, z=z)


def perceive(
    det_far: Detection,
    det_near: Detection,
    gate: GateState,
    cam: CameraModel,
    gains: ControllerGains,
) -> tuple[float, bool, tuple[float, ...], VelocityCommand]:
    """Gate, smooth and servo one frame, mutating gate: the `selected` code
    into SELECTION_LABELS, tracking lost, the frame's four cells and the
    command. The cells are the smoothed box's u, v, w, h (BOX_COLUMNS);
    without a smoothed box they are all NaN (blank) and the command holds.
    The servo errors the command is computed from are not returned: a
    writer derives them from the cells again."""
    sb, selected, lost = select_expert(det_far, det_near, gate, cam)
    code = 0.0 if selected is None else 1.0 if selected is _FAR else 2.0
    if sb is None:
        return code, lost, _BLANKS, _HOLD
    return code, lost, sb, compute_command(compute_errors(sb, cam, gains), gains)


def run_trial(
    initial: VehicleState,
    mode: Mode,
    scenario: Scenario,
    config: TrialConfig,
    rng_far: np.random.Generator,
    rng_near: np.random.Generator,
    trial_id: int = 0,
) -> TrialRun:
    """Run one closed-loop trial to termination.

    rng_far and rng_near are the experts' seed streams: frame k hands
    detect row k of noise_rows(rng) for each expert the mode runs, and an
    expert the mode does not run draws nothing. Each frame's row is packed
    onto the returned frames' bytearray as soon as it is made.
    """
    check_campaign(scenario, config, (mode,))
    cam = scenario.camera
    pad = scenario.helipad
    far_profile = scenario.far_profile
    near_profile = scenario.near_profile
    gains = scenario.gains
    dynamics = scenario.dynamics
    commit_altitude = config.commit_altitude
    gate = GateState(window_size=scenario.window_size, coast_limit=scenario.coast_limit)

    state = initial
    rows = bytearray()  # one packed row per frame, in RECORD_COLUMNS order
    pack = _RECORD_ROW.pack

    reason = TerminationReason.TIMEOUT

    run_far = mode in (Mode.FAR_ONLY, Mode.DUAL)
    run_near = mode in (Mode.NEAR_ONLY, Mode.DUAL)
    far_rows = noise_rows(rng_far) if run_far else repeat(None)
    near_rows = noise_rows(rng_near) if run_near else repeat(None)

    for noise_far, noise_near in islice(zip(far_rows, near_rows), config.max_steps):
        truth = project_helipad(state, pad, cam)
        if truth is None:
            det_far = det_near = ABSENT
        else:
            s = apparent_width(state, pad, cam)
            det_far = detect(far_profile, truth, s, noise_far, cam) if run_far else ABSENT
            det_near = detect(near_profile, truth, s, noise_near, cam) if run_near else ABSENT

        # the frame's row in RECORD_COLUMNS order: each expert's log fields
        # (zeros when absent), then the trajectory's own
        if det_far.box is None:
            u_f = v_f = w_f = h_f = c_f = p_f = 0.0
        else:
            (u_f, v_f, w_f, h_f), c_f = det_far
            p_f = 1.0
        if det_near.box is None:
            u_n = v_n = w_n = h_n = c_n = p_n = 0.0
        else:
            (u_n, v_n, w_n, h_n), c_n = det_near
            p_n = 1.0
        code, lost, cells, cmd = perceive(det_far, det_near, gate, cam, gains)
        u_hat, v_hat, w_hat, h_hat = cells
        vx, vy, vz = cmd
        rows += pack(
            u_f, v_f, w_f, h_f, c_f, p_f, u_n, v_n, w_n, h_n, c_n, p_n,
            state.x, state.y, state.z, code, u_hat, v_hat, w_hat, h_hat, vx, vy, vz,
        )

        if lost:
            # blind descent from here: score the frozen lateral position
            reason = TerminationReason.TRACKING_LOST
            break

        state = step(state, cmd, dynamics)
        if state.z <= commit_altitude:
            reason = TerminationReason.LANDED
            break

    records = np.frombuffer(rows).reshape(-1, len(RECORD_COLUMNS))
    selections = records[:, _SELECTED]
    result = TrialResult(
        trial_id=trial_id,
        initial_position=(initial.x, initial.y, initial.z),
        touchdown_xy=(state.x, state.y),
        touchdown_error=float(np.hypot(state.x - pad.x, state.y - pad.y)),
        success=reason is TerminationReason.LANDED,
        termination_reason=reason,
        steps=len(records),
        expert_usage={
            label: int(np.count_nonzero(selections == code))
            for code, label in enumerate(SELECTION_LABELS)
            if label
        },
    )
    return TrialRun(result=result, frames=records)


class DetectionLogError(ValueError):
    """Malformed detection log; the message names the offending line, frame or file."""


def _detection(cells) -> Detection:
    return Detection(BoundingBox(*cells[:4]), cells[4]) if cells[5] else ABSENT


def replay_detect(log: np.ndarray, frame_index: int) -> tuple[Detection, Detection]:
    """Return the recorded (FAR, NEAR) detections for one frame, verbatim,
    from a (frames, LOG_STRIDE) array as reporting.read_detection_log
    returns it."""
    check_value("frame_index", int, frame_index)
    if not 0 <= frame_index < len(log):
        raise IndexError(
            f"frame_index {frame_index} out of range (log has {len(log)} frames)"
        )
    row = log[frame_index, :LOG_STRIDE].tolist()
    return _detection(row[:LOG_FIELDS]), _detection(row[LOG_FIELDS:])


def replay_log(log: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Feed a (frames, LOG_STRIDE) detection log through a fresh gate and
    perceive, with no dynamics; returns row k of REPLAY_COLUMNS for frame
    k, the smoothed box's cells NaN (blank) without one. It holds no servo
    errors: reporting.write_replay_csv derives them from the box.

    Raises DetectionLogError naming the first present box, in frame order
    and FAR before NEAR, that does not lie inside the camera image:
    padland's own detections are clamped to it, so such a box was not
    recorded with this camera."""
    cam, gains = scenario.camera, scenario.gains
    u, v, w, h, _, present = log[:, :LOG_STRIDE].reshape(-1, 2, LOG_FIELDS).transpose(2, 0, 1)
    bad = (present != 0.0) & ~inside_image((u, v, w, h), cam)  # (frames, FAR then NEAR)
    if bad.any():
        frame, slot = divmod(int(bad.argmax()), 2)  # slot 0 is FAR's columns, 1 NEAR's
        box = replay_detect(log, frame)[slot].box
        raise DetectionLogError(
            f"frame {frame}: {tuple(ExpertId)[slot].value} {box} does not lie inside "
            f"the {cam.image_width} x {cam.image_height} camera image"
        )
    gate = GateState(window_size=scenario.window_size, coast_limit=scenario.coast_limit)
    rows = bytearray()  # one packed row per frame, in REPLAY_COLUMNS order
    for row in map(np.ndarray.tolist, log[:, :LOG_STRIDE]):
        far, near = _detection(row[:LOG_FIELDS]), _detection(row[LOG_FIELDS:])
        code, lost, cells, _ = perceive(far, near, gate, cam, gains)
        rows += _REPLAY_ROW.pack(code, lost, *cells)
    return np.frombuffer(rows).reshape(-1, len(REPLAY_COLUMNS))


@dataclass
class CampaignResult:
    seed: int
    n_trials: int
    initial_states: list[VehicleState]
    runs: dict[Mode, list[TrialRun]]
    scenario: Scenario  # the one every trial ran: the writers derive cells from it
    # the process pool that ran the trials, if any: kept open so that
    # writing the outputs runs on the same workers (see map), and shut
    # down when the campaign is dropped
    _pool: concurrent.futures.Executor | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._pool is not None:
            weakref.finalize(self, self._pool.shutdown)

    def __getstate__(self):
        # the pool stays with this campaign; a pickled or copied one writes serially
        return {**self.__dict__, "_pool": None}

    def results(self, mode: Mode) -> list[TrialResult]:
        return [run.result for run in self.runs[mode]]

    def map(self, fn, *iterables) -> list:
        """fn over iterables, shared between the campaign's workers, if it
        has any, and this process (see _shared_map)."""
        return _shared_map(self._pool, fn, *iterables)


# While this process runs its own share of a pool's calls, the pool's
# result and feeder threads need the GIL for each 64 KB pipe read or write
# of a call's arguments or result. At the default 5 ms switch interval each
# one waits that long behind this process's computing, and the worker at the
# other end of the pipe blocks meanwhile; a 200 KB TrialRun takes four reads.
_SHARED_SWITCH_INTERVAL = 1e-4


def _shared_map(pool: concurrent.futures.Executor | None, fn, *iterables) -> list:
    """fn over iterables on pool's workers and in this process at once;
    without a pool, in order in this process alone.

    With a pool, every call is submitted; then this process runs calls from
    the back, each one it can still cancel from the pool. The pool hands
    calls to its workers in submission order, so at the first call it has
    claimed, every earlier one is claimed too. Every call runs; returns the
    results in order and raises the first error in that order."""
    calls = list(zip(*iterables))
    if pool is None:
        results, error = [], None
        for args in calls:
            try:
                results.append(fn(*args))
            except Exception as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return results

    import concurrent.futures

    futures = [pool.submit(fn, *args) for args in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(min(interval, _SHARED_SWITCH_INTERVAL))
    try:
        for i in reversed(range(len(calls))):
            if not futures[i].cancel():
                break
            futures[i] = done = concurrent.futures.Future()
            try:
                done.set_result(fn(*calls[i]))
            except Exception as exc:
                done.set_exception(exc)
    finally:
        sys.setswitchinterval(interval)
    concurrent.futures.wait(futures)  # every call ends before an error is raised
    return [f.result() for f in futures]


def check_campaign(scenario: Scenario, config: TrialConfig, modes) -> None:
    """Raise ValueError, naming the key, for the rules that span a campaign:
    gains.z_ref (the altitude from which the pad's box has gains.area_ref)
    below commit_altitude; one full-rate descent step, dynamics.dt *
    gains.k_z, at most 1/20 of the shortest descent; modes nonempty, each
    a Mode (any other value runs neither expert) and named once."""
    cam, pad, gains = scenario.camera, scenario.helipad, scenario.gains
    commit = config.commit_altitude
    side = cam.focal_length * pad.side_length / commit  # as servo.area_ref_for_altitude
    if gains.area_ref <= side * side:
        z_ref = altitude_for_area_ref(gains.area_ref, cam.focal_length, pad.side_length)
        raise ValueError(
            f"gains.z_ref: must be below trials.commit_altitude (got {z_ref:.6g} >= {commit}); "
            f"the descent would stop at z_ref and every trial time out"
        )
    descent = min(config.altitude_set) - commit
    step_z = scenario.dynamics.dt * gains.k_z
    if step_z > descent / 20:  # at least 20 full-rate steps to commit
        raise ValueError(
            f"dynamics.dt: dynamics.dt * gains.k_z ({step_z} m per step) must be at most "
            f"1/20 of min(trials.altitude_set) - trials.commit_altitude ({descent} m)"
        )
    if not all(isinstance(m, Mode) for m in modes):
        raise ValueError(f"trials.modes: each must be a Mode (got {list(modes)!r})")
    if not modes or len(set(modes)) != len(modes):
        names = [m.value for m in modes]
        raise ValueError(f"trials.modes: must be nonempty and distinct (got {names})")


def _trial_task(args) -> tuple[Mode, int, TrialRun]:
    mode, idx, initial, scenario, config, far_ss, near_ss = args
    run = run_trial(
        initial=initial,
        mode=mode,
        scenario=scenario,
        config=config,
        rng_far=np.random.default_rng(far_ss),
        rng_near=np.random.default_rng(near_ss),
        trial_id=idx,
    )
    return mode, idx, run


def run_campaign(
    scenario: Scenario,
    config: TrialConfig,
    modes: list[Mode] | None = None,
    n_workers: int = 1,
) -> CampaignResult:
    """Run every requested mode over one shared list of initial states.

    All modes receive identical initial states, and each (trial, expert)
    pair owns a seed stream derived once from the campaign seed, so the
    comparison is paired with common random numbers. Raises ValueError
    naming the key before any trial runs if scenario, config and modes
    together break a rule (check_campaign). Trials are independent.
    n_workers counts this process: capped at one per task and per usable
    CPU, n_workers > 1 starts a process pool of n_workers - 1, and this
    process runs trials alongside it (_shared_map). The trials are
    reassembled in trial order, giving output identical to a serial run.
    The pool stays with the returned campaign (CampaignResult.map) until
    it is dropped.
    """
    check_value("n_workers", PositiveCount, n_workers)
    if modes is None:
        modes = tuple(Mode)
    check_campaign(scenario, config, modes)
    n = config.n_trials

    root = np.random.SeedSequence(config.seed)
    init_ss, *trial_ss = root.spawn(n + 1)
    init_rng = np.random.default_rng(init_ss)
    initials = [sample_initial(config, init_rng, i) for i in range(n)]
    expert_ss = [ss.spawn(2) for ss in trial_ss]

    tasks = [
        (mode, i, initials[i], scenario, config, *expert_ss[i]) for mode in modes for i in range(n)
    ]

    # more workers than CPUs only wait for each other
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(n_workers, len(tasks), cpus or 1)
    pool = None
    if n_workers > 1:
        import concurrent.futures

        pool = concurrent.futures.ProcessPoolExecutor(max_workers=n_workers - 1)
    try:
        finished = _shared_map(pool, _trial_task, tasks)
    except BaseException:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        raise
    runs = {mode: [None] * n for mode in modes}
    for mode, idx, run in finished:
        runs[mode][idx] = run
    return CampaignResult(
        seed=config.seed, n_trials=n, initial_states=initials, runs=runs, scenario=scenario,
        _pool=pool,
    )
