import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from padland.cli import main
from padland.geometry import BoundingBox, VehicleState
from padland.harness import (
    BOX_COLUMNS,
    DERIVED_COLUMNS,
    LOG_STRIDE,
    RECORD_COLUMNS,
    REPLAY_COLUMNS,
    REPLAY_HEADER,
    TRAJECTORY_HEADER,
    Mode,
    Scenario,
    TerminationReason,
    TrialConfig,
    _HOLD,
    replay_log,
    run_campaign,
    run_trial,
)
from padland.reporting import (
    LOG_HEADER,
    WRITE_BLOCK,
    read_detection_log,
    rebuild_results,
    write_campaign_outputs,
    write_detection_log,
    write_replay_csv,
    write_trial_csvs,
)
from padland.servo import compute_command, compute_errors

ROOT = Path(__file__).resolve().parents[1]
# SHA-256 of every file `padland run` writes for configs/default.json, in
# `sha256sum -c` format (run it from inside an output directory). A change
# that alters output bytes on purpose updates this file and says so.
GOLDEN = Path(__file__).with_name("golden_default.sha256")
# the same for `padland run --trials 100 --seed 7` on configs/default.json:
# a hundred trials reach cases that the default ten do not (touchdown_error
# through math.hypot in place of np.hypot kept the ten-trial tree, and
# changed one value in 300 at a hundred trials)
GOLDEN_100 = Path(__file__).with_name("golden_100x3_seed7.sha256")


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under out, keyed by its path relative to out."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file()
    }


def golden_digests(golden: Path = GOLDEN) -> dict[str, str]:
    lines = golden.read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_default_campaign_outputs_match_golden_digests(tmp_path):
    config = ROOT / "configs" / "default.json"
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert digests(tmp_path) == golden_digests()


def test_hundred_trial_campaign_outputs_match_golden_digests(tmp_path):
    config = ROOT / "configs" / "default.json"
    argv = ["run", "--config", str(config), "--out", str(tmp_path), "--trials", "100", "--seed", "7"]
    assert main(argv) == 0
    assert digests(tmp_path) == golden_digests(GOLDEN_100)


@pytest.mark.parametrize(
    "setting",
    [
        # numpy's AVX-512 loops off: np.exp took its baseline loop here
        {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
        # glibc's FMA and AVX2 variants of libm off
        {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"},
    ],
    ids=["numpy-avx512-off", "glibc-fma-off"],
)
def test_golden_digests_hold_on_other_simd_paths(tmp_path, setting):
    # each setting acts on the child process only; the outputs must not
    # depend on which SIMD paths numpy and libm take on this CPU
    env = {**os.environ, **setting, "PYTHONPATH": str(ROOT / "src")}
    config = ROOT / "configs" / "default.json"
    subprocess.run(
        [sys.executable, "-m", "padland", "run", "--config", str(config), "--out", str(tmp_path)],
        env=env, capture_output=True, check=True,
    )
    assert digests(tmp_path) == golden_digests()


# `padland run --workers 2` in a child that first sets the pool's start method
START_METHOD_RUN = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from padland.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_golden_digests_hold_under_every_start_method(tmp_path, method):
    # fork, the default on Linux before Python 3.14, runs in the tests above;
    # a worker started any other way imports numpy and padland afresh, and
    # must write the same bytes
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    config = ROOT / "configs" / "default.json"
    argv = ["run", "--config", str(config), "--out", str(tmp_path), "--workers", "2"]
    subprocess.run(
        [sys.executable, "-c", START_METHOD_RUN, method, *argv],
        env=env, capture_output=True, check=True, timeout=300,
    )
    assert digests(tmp_path) == golden_digests()


def test_writing_outputs_leaves_results_unchanged(tmp_path):
    config = TrialConfig(seed=3, n_trials=2)
    written = run_campaign(Scenario(), config)
    unwritten = run_campaign(Scenario(), config)
    write_campaign_outputs(written, tmp_path)
    for mode in unwritten.runs:
        assert written.results(mode) == unwritten.results(mode)


# Together these two campaigns end trials in every TerminationReason: with
# seed 3, 1000 steps lands some trials, loses one near_only trial and times
# out the rest; 300 steps times out every trial.
ROUND_TRIP_CAMPAIGNS = {
    "all-modes": (TrialConfig(seed=3, n_trials=4, max_steps=1000), None),
    "dual-timeouts": (TrialConfig(seed=5, n_trials=2, max_steps=300), [Mode.DUAL]),
}


@pytest.fixture(scope="module", params=sorted(ROUND_TRIP_CAMPAIGNS))
def written_campaign(request, tmp_path_factory):
    config, modes = ROUND_TRIP_CAMPAIGNS[request.param]
    campaign = run_campaign(Scenario(), config, modes)
    out = tmp_path_factory.mktemp(request.param)
    returned = write_campaign_outputs(campaign, out)
    loaded = json.loads((out / "summary.json").read_text())
    return campaign, returned, loaded


def test_round_trip_campaigns_cover_every_termination_reason():
    reasons = set()
    for config, modes in ROUND_TRIP_CAMPAIGNS.values():
        campaign = run_campaign(Scenario(), config, modes)
        reasons.update(r.termination_reason for m in campaign.runs for r in campaign.results(m))
    assert reasons == set(TerminationReason)


def test_returned_summary_equals_written_file(written_campaign):
    _, returned, loaded = written_campaign
    # equal only if the returned dict holds plain JSON types: a tuple where
    # the file has a list would compare unequal
    assert returned == loaded


def test_rebuilt_results_equal_originals(written_campaign):
    campaign, _, loaded = written_campaign
    # a list never equals a tuple, nor a value its enum member, so this also
    # checks that positions and termination reasons come back restored
    assert rebuild_results(loaded) == {m: campaign.results(m) for m in campaign.runs}


def test_a_second_campaign_leaves_only_its_own_trial_files(tmp_path):
    # a first campaign of more trials and every mode, then a second of fewer
    # trials and one mode, into the same directory: files that are not a
    # trial file of some mode are kept
    config = TrialConfig(seed=3, n_trials=3, max_steps=50)
    write_campaign_outputs(run_campaign(Scenario(), config), tmp_path)
    others = ["notes.txt", "trial_002_triple.csv", "trial_x_dual.csv", "trial_002_dual.csv.bak"]
    for name in others:
        (tmp_path / "detections" / name).write_text("kept\n")
    config = TrialConfig(seed=5, n_trials=2, max_steps=50)
    summary = write_campaign_outputs(run_campaign(Scenario(), config, [Mode.DUAL]), tmp_path)
    named = {Path(trial["trajectory_log_path"]).name for trial in summary["modes"]["dual"]["trials"]}
    assert named == {"trial_000_dual.csv", "trial_001_dual.csv"}
    assert {p.name for p in (tmp_path / "trajectories").iterdir()} == named
    assert {p.name for p in (tmp_path / "detections").iterdir()} == named | set(others)


def test_a_failed_write_leaves_no_summary_of_an_earlier_campaign(tmp_path):
    # the earlier summary would name trial_002_dual.csv, which the second
    # campaign removes, and give the wrong seed
    config = TrialConfig(seed=42, n_trials=3, max_steps=50)
    write_campaign_outputs(run_campaign(Scenario(), config, [Mode.DUAL]), tmp_path)
    (tmp_path / "detections" / "trial_001_far_only.csv").mkdir()
    campaign = run_campaign(Scenario(), TrialConfig(seed=5, n_trials=2, max_steps=50))
    with pytest.raises(IsADirectoryError, match="trial_001_far_only.csv"):
        write_campaign_outputs(campaign, tmp_path)
    assert not (tmp_path / "summary.json").exists()
    assert not (tmp_path / "comparison.txt").exists()
    assert not (tmp_path / "trajectories" / "trial_002_dual.csv").exists()


# The writers format and write WRITE_BLOCK rows at a time. These arrays end
# on each side of a block boundary, and their rows cycle through present
# and absent detections of each expert, square and non-square boxes, all
# three `selected` codes and rows with and without a smoothed box (NaN
# blanks).
BOUNDARY_ROWS = (1, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1, 2 * WRITE_BLOCK + 1)
_BLANK_NAMES = {"u_hat", "v_hat", "w_hat", "h_hat", "e_x", "e_y", "A", "e_z"}


def _synthetic_rows(n: int, names: tuple[str, ...]) -> np.ndarray:
    """n rows of the named RECORD_COLUMNS or REPLAY_COLUMNS."""
    rng = np.random.default_rng(n)
    k = np.arange(n)
    cols = {name: rng.uniform(-500.0, 500.0, n) for name in dict.fromkeys(RECORD_COLUMNS + names)}
    cols.update(selected=k % 3, tracking_lost=k % 7 == 6)
    square = k % 4 != 3  # as clamp_box leaves every box it does not clip
    if "h_hat" in names:
        cols["h_hat"] = np.where(square, cols["w_hat"], cols["h_hat"])
    for expert, present in (("far", k % 3 != 1), ("near", k % 4 != 2)):
        cols[f"w_{expert}"] = rng.uniform(1.0, 60.0, n)
        cols[f"h_{expert}"] = np.where(square, cols[f"w_{expert}"], rng.uniform(1.0, 60.0, n))
        cols[f"confidence_{expert}"] = rng.random(n)
        cols[f"{expert}_present"] = present
        for f in ("u", "v", "w", "h", "confidence"):
            cols[f"{f}_{expert}"] = np.where(present, cols[f"{f}_{expert}"], 0.0)
    for name in _BLANK_NAMES & set(names):
        cols[name] = np.where(k % 5 == 0, math.nan, cols[name])
    return np.column_stack([cols[name] for name in names]).astype(np.float64)


def _cell(name: str, x: float) -> str:
    """One cell as the CSVs spell it, formatted on its own."""
    if name in ("far_present", "near_present", "tracking_lost"):
        return str(int(x))
    if name == "selected":
        return ("", "FAR", "NEAR")[int(x)]
    return "" if name in _BLANK_NAMES and math.isnan(x) else repr(x)


def _oracle_table(header: str, rows: np.ndarray, names, scenario: Scenario) -> str:
    """The CSV of rows, whose columns are names, written with scenario:
    row k's line is k, then the header's other columns by name; its `t` is
    k * dynamics.dt, its e_x, e_y, A and e_z the scalar compute_errors of
    its smoothed box (NaN, so blank, where the box's cells are), and its
    command compute_command of those (_HOLD where the box's cells are NaN)."""
    lines = [header]
    for k, row in enumerate(rows.tolist()):
        cell = dict(zip(names, row))
        box = BoundingBox(*(cell[name] for name in BOX_COLUMNS))
        errors = compute_errors(box, scenario.camera, scenario.gains)
        command = _HOLD if math.isnan(box.u) else compute_command(errors, scenario.gains)
        cell["t"] = k * scenario.dynamics.dt
        cell.update(zip(DERIVED_COLUMNS[1:], (*errors, *command)))
        lines.append(",".join([str(k), *(_cell(name, cell[name]) for name in header.split(",")[1:])]))
    return "\n".join(lines) + "\n"


def _oracle_log(rows: np.ndarray) -> str:
    lines = [LOG_HEADER]
    for k, row in enumerate(rows.tolist()):
        for expert, cells in (("FAR", row[:6]), ("NEAR", row[6:12])):
            if cells[5] == 1.0:
                lines.append(f"{k},{expert}," + ",".join(map(repr, cells[:5])) + ",1")
            else:
                lines.append(f"{k},{expert},0,0,0,0,0,0")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", BOUNDARY_ROWS)
def test_block_writers_match_a_row_by_row_formatter(tmp_path, n):
    scenario = Scenario()
    frames = _synthetic_rows(n, RECORD_COLUMNS)
    write_trial_csvs(frames, scenario, tmp_path / "trajectory.csv", tmp_path / "log.csv")
    write_detection_log(frames, tmp_path / "own_log.csv")
    trajectory = _oracle_table(TRAJECTORY_HEADER, frames, RECORD_COLUMNS, scenario)
    assert (tmp_path / "trajectory.csv").read_text() == trajectory
    assert (tmp_path / "log.csv").read_text() == _oracle_log(frames)
    assert (tmp_path / "own_log.csv").read_text() == _oracle_log(frames)
    log = read_detection_log(tmp_path / "log.csv")
    assert log.tobytes() == np.ascontiguousarray(frames[:, :LOG_STRIDE]).tobytes()

    replay = _synthetic_rows(n, REPLAY_COLUMNS)
    write_replay_csv(replay, scenario, tmp_path / "replay.csv")
    expected = _oracle_table(REPLAY_HEADER, replay, REPLAY_COLUMNS, scenario)
    assert (tmp_path / "replay.csv").read_text() == expected


def test_a_slice_of_frames_is_numbered_from_its_first_row(tmp_path):
    # frame k is row k of the array written: a slice's trajectory `step`
    # and `t`, detection log `frame` and replay `frame` all count from 0,
    # beside the whole run's other cells for those frames
    scenario = Scenario()
    rngs = np.random.default_rng(1), np.random.default_rng(2)
    run = run_trial(VehicleState(-86.0, 80.0, 90.0), Mode.DUAL, scenario, TrialConfig(), *rngs)
    replay = replay_log(run.frames[:, :LOG_STRIDE], scenario)
    write_trial_csvs(run.frames, scenario, tmp_path / "trajectory.csv", tmp_path / "log.csv")
    write_trial_csvs(run.frames[5:8], scenario, tmp_path / "trajectory_5.csv", tmp_path / "log_5.csv")
    write_replay_csv(replay, scenario, tmp_path / "replay.csv")
    write_replay_csv(replay[5:8], scenario, tmp_path / "replay_5.csv")

    def lines(name: str, numbers: int) -> list[list[str]]:
        """The lines after the header, split after the first numbers cells."""
        return [line.split(",", numbers) for line in (tmp_path / name).read_text().splitlines()[1:]]

    # the trajectory's first two cells are `step` and `t`; a log has 2 records a frame
    for name, numbers, per_frame in (("trajectory", 2, 1), ("log", 1, 2), ("replay", 1, 1)):
        whole, part = lines(f"{name}.csv", numbers), lines(f"{name}_5.csv", numbers)
        assert [cells[0] for cells in part] == [str(k) for k in range(3) for _ in range(per_frame)]
        assert [cells[numbers] for cells in part] == [
            cells[numbers] for cells in whole[5 * per_frame : 8 * per_frame]
        ]
    dt = scenario.dynamics.dt
    assert [cells[1] for cells in lines("trajectory_5.csv", 2)] == [repr(k * dt) for k in range(3)]


def test_a_height_is_spelled_from_its_own_double(tmp_path):
    # row 0 is square, row 1 clipped to a non-square box, and rows 2 and 3
    # have widths and heights that compare equal but print differently
    widths, heights = [24.5, 30.0, 0.0, -0.0], [24.5, 12.25, -0.0, 0.0]
    frames = _synthetic_rows(4, RECORD_COLUMNS)
    frames[:, RECORD_COLUMNS.index("far_present")] = 1.0
    frames[:, RECORD_COLUMNS.index("w_far")] = widths
    frames[:, RECORD_COLUMNS.index("h_far")] = heights
    write_detection_log(frames, tmp_path / "log.csv")
    log = (tmp_path / "log.csv").read_text()
    assert log == _oracle_log(frames)
    far = [line.split(",")[4:6] for line in log.splitlines() if ",FAR," in line]
    assert far == [["24.5", "24.5"], ["30.0", "12.25"], ["0.0", "-0.0"], ["-0.0", "0.0"]]

    replay = _synthetic_rows(4, REPLAY_COLUMNS)
    replay[:, REPLAY_COLUMNS.index("w_hat")] = widths
    replay[:, REPLAY_COLUMNS.index("h_hat")] = heights
    write_replay_csv(replay, Scenario(), tmp_path / "replay.csv")
    text = (tmp_path / "replay.csv").read_text()
    assert text == _oracle_table(REPLAY_HEADER, replay, REPLAY_COLUMNS, Scenario())
    i = REPLAY_HEADER.split(",").index("w_hat")
    cells = [line.split(",")[i : i + 2] for line in text.splitlines()[1:]]
    assert cells == [["24.5", "24.5"], ["30.0", "12.25"], ["0.0", "-0.0"], ["-0.0", "0.0"]]


# the replay CSV's lines after its header in the test below
REPLAY_ODD_LINES = [
    "0,,10000000000000000,,inf,-inf,-0.0,,-inf,,",
    "1,FAR,100000000000000000,5e-324,1e+16,1e-05,-0.0001,224.0,-9999999999999776.0,-1e-09,"
    "200704.000000001",
    "2,NEAR,-1,2.2250738585072014e-308,1.5e+300,0.0001,123.0,224.0,-1.5e+300,0.0123,200703.9877",
    "3,FAR,2,-0.0,,,1e+22,224.0,,,",
    "4,NEAR,0,1.0,-2.5,1000000000000000.0,9999999999999998.0,223.0,226.5,9.999999999999999e+30,"
    "-9.999999999999999e+30",
    "5,,10000000000000000,0.1,0.3333333333333333,-1e-300,,223.9,223.66666666666666,,",
    "6,,0,,,,,,,,",
    "7,FAR,1,,,,,,,,",
    "8,NEAR,0,,,,,,,,",
]


def test_odd_cells_of_every_kind_match_a_row_by_row_formatter(tmp_path):
    # what the block formatter leaves to Python (scientific notation,
    # subnormals, infinities, NaN outside the blankable columns, integers
    # of 16 digits or more, labels from codes other than 0, 1 and 2) beside
    # NaN blanks, negative zeros and negative integers, in one block of
    # every column kind. The smoothed box's cells hold the odd floats, and
    # the servo errors derived from them are odd too (inf, NaN from
    # inf * 0, a sum that loses the subnormal)
    replay = _synthetic_rows(9, REPLAY_COLUMNS)
    replay[:, REPLAY_COLUMNS.index("selected")] = [0.0, 1.0, 2.0, 1.5, -1.0, -0.0, 0.0, 1.0, 2.0]
    replay[:, REPLAY_COLUMNS.index("tracking_lost")] = [
        1e16, 1e17, -1.0, 2.7, -0.5, 9999999999999999.0, 0.0, 1.0, 0.0
    ]
    replay[:, REPLAY_COLUMNS.index("u_hat") :] = [
        [math.nan, math.inf, -math.inf, -0.0],
        [5e-324, 1e16, 1e-5, -1e-4],
        [2.0**-1022, 1.5e300, 0.0001, 123.0],
        [-0.0, math.nan, math.nan, 1e22],
        [1.0, -2.5, 1e15, 9999999999999998.0],
        [0.1, 1 / 3, -1e-300, math.nan],
        *[[math.nan] * 4] * 3,
    ]
    write_replay_csv(replay, Scenario(), tmp_path / "replay.csv")
    text = (tmp_path / "replay.csv").read_text()
    assert text == _oracle_table(REPLAY_HEADER, replay, REPLAY_COLUMNS, Scenario())
    assert text.splitlines()[1:10] == REPLAY_ODD_LINES

    frames = _synthetic_rows(6, RECORD_COLUMNS)
    frames[:, RECORD_COLUMNS.index("far_present")] = 1.0
    frames[:, RECORD_COLUMNS.index("u_far")] = [math.inf, -0.0, 1e-7, 5e-324, 1e16, -123.25]
    frames[:, RECORD_COLUMNS.index("x")] = [math.nan, 1e300, -1e-300, 0.05, 0.0, -0.0]
    frames[:, RECORD_COLUMNS.index("near_present")] = [0.0, -3.0, 1e20, 5.9, 12.0, 7.0]
    write_trial_csvs(frames, Scenario(), tmp_path / "trajectory.csv", tmp_path / "log.csv")
    trajectory = _oracle_table(TRAJECTORY_HEADER, frames, RECORD_COLUMNS, Scenario())
    assert (tmp_path / "trajectory.csv").read_text() == trajectory
    assert (tmp_path / "log.csv").read_text() == _oracle_log(frames)
