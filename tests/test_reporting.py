import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from padland.cli import main
from padland.harness import (
    LOG_STRIDE,
    RECORD_COLUMNS,
    REPLAY_COLUMNS,
    REPLAY_HEADER,
    TRAJECTORY_COLUMNS,
    TRAJECTORY_HEADER,
    Mode,
    Scenario,
    TerminationReason,
    TrialConfig,
    run_campaign,
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

ROOT = Path(__file__).resolve().parents[1]
# SHA-256 of every file `padland run` writes for configs/default.json, in
# `sha256sum -c` format (run it from inside an output directory). A change
# that alters output bytes on purpose updates this file and says so.
GOLDEN = Path(__file__).with_name("golden_default.sha256")


def test_default_campaign_outputs_match_golden_digests(tmp_path):
    assert main(["run", "--config", str(ROOT / "configs" / "default.json"), "--out", str(tmp_path)]) == 0
    expected = {}
    for line in GOLDEN.read_text().splitlines():
        digest, name = line.split("  ", 1)
        expected[name] = digest
    actual = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*")
        if p.is_file()
    }
    assert actual == expected


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
    cols.update(step=k, frame=k, selected=k % 3, tracking_lost=k % 7 == 6)
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
    if name in ("step", "frame", "far_present", "near_present", "tracking_lost"):
        return str(int(x))
    if name == "selected":
        return ("", "FAR", "NEAR")[int(x)]
    return "" if math.isnan(x) else repr(x)


def _oracle_table(header: str, rows: np.ndarray, names, columns) -> str:
    lines = [header]
    for row in rows.tolist():
        lines.append(",".join(_cell(name, row[names.index(name)]) for name in columns))
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
    frames = _synthetic_rows(n, RECORD_COLUMNS)
    write_trial_csvs(frames, tmp_path / "trajectory.csv", tmp_path / "log.csv")
    write_detection_log(frames, tmp_path / "own_log.csv")
    trajectory = _oracle_table(TRAJECTORY_HEADER, frames, RECORD_COLUMNS, TRAJECTORY_COLUMNS)
    assert (tmp_path / "trajectory.csv").read_text() == trajectory
    assert (tmp_path / "log.csv").read_text() == _oracle_log(frames)
    assert (tmp_path / "own_log.csv").read_text() == _oracle_log(frames)
    log = read_detection_log(tmp_path / "log.csv")
    assert log.tobytes() == np.ascontiguousarray(frames[:, :LOG_STRIDE]).tobytes()

    replay = _synthetic_rows(n, REPLAY_COLUMNS)
    write_replay_csv(replay, tmp_path / "replay.csv")
    expected = _oracle_table(REPLAY_HEADER, replay, REPLAY_COLUMNS, REPLAY_COLUMNS)
    assert (tmp_path / "replay.csv").read_text() == expected


def test_a_height_reuses_its_width_string_only_for_the_same_nonzero_double(tmp_path):
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
    write_replay_csv(replay, tmp_path / "replay.csv")
    text = (tmp_path / "replay.csv").read_text()
    assert text == _oracle_table(REPLAY_HEADER, replay, REPLAY_COLUMNS, REPLAY_COLUMNS)
    i = REPLAY_COLUMNS.index("w_hat")
    cells = [line.split(",")[i : i + 2] for line in text.splitlines()[1:]]
    assert cells == [["24.5", "24.5"], ["30.0", "12.25"], ["0.0", "-0.0"], ["-0.0", "0.0"]]
