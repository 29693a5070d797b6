"""Per-trial transient memory, whatever the trial's length: run_trial and
replay_log pack each frame's row onto one bytearray as it is made, so they
hold little beyond their output, the CSV writers hold one block of rows
spelled at a time, and read_detection_log, whatever the order of a
log's records, streams the file and holds one block of frames as Python
objects. Peaks are measured with tracemalloc, which also traces numpy's
arrays."""

import random
import tracemalloc

import numpy as np
import pytest

from padland.geometry import VehicleState
from padland.harness import (
    LOG_STRIDE,
    Mode,
    Scenario,
    TerminationReason,
    TrialConfig,
    replay_log,
    run_trial,
)
from padland.reporting import (
    read_detection_log,
    write_detection_log,
    write_replay_csv,
    write_trial_csvs,
)
from padland.servo import ControllerGains

# align_threshold 1e-9 never lets the descent start: the vehicle hovers
# until its step budget runs out
HOVER = Scenario(gains=ControllerGains(align_threshold=1e-9))
STEPS = 6000


def hovering_trial(max_steps: int):
    rngs = [np.random.default_rng(seed) for seed in (1, 2)]
    config = TrialConfig(max_steps=max_steps)
    return run_trial(VehicleState(-85.0, 80.0, 70.0), Mode.DUAL, HOVER, config, *rngs)


def traced_peak(fn, *args):
    """fn(*args) and the most memory it held at once beyond what was
    already allocated, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("memory")
    return out / "trajectory.csv", out / "log.csv"


@pytest.fixture(scope="module")
def long_trial(paths):
    # a short trial and write first, so lazy set-up falls outside the traces
    write_trial_csvs(hovering_trial(300).frames, *paths)
    run, peak = traced_peak(hovering_trial, STEPS)
    assert run.result.termination_reason is TerminationReason.TIMEOUT
    assert run.result.steps == STEPS
    return run, peak


def test_run_trial_holds_about_its_array(long_trial):
    # the array's bytearray, with its spare capacity (a list of every frame's
    # floats took over 4.5 times the array, and blocks of them joined at the
    # end over 2.1 times)
    run, peak = long_trial
    assert peak < 1.5 * run.frames.nbytes


def test_write_trial_csvs_holds_one_block_of_strings(long_trial, paths):
    # formatting all 6000 rows at once held over 16 MB of strings; the bound
    # also pins the gather of each file's text in two halves of the block,
    # which peaks near 1.12 MB, where one gather of the whole block peaked
    # near 1.58 MB
    run, _ = long_trial
    _, peak = traced_peak(write_trial_csvs, run.frames, *paths)
    assert peak < 1_350_000


@pytest.fixture(scope="module")
def long_log(long_trial, tmp_path_factory):
    run, _ = long_trial
    out = tmp_path_factory.mktemp("log")
    short, path = out / "short.csv", out / "long.csv"
    write_detection_log(run.frames[:300], short)
    write_detection_log(run.frames, path)
    replay_log(read_detection_log(short), HOVER)  # lazy set-up outside the traces
    return path


@pytest.fixture(scope="module")
def shuffled_log(long_log):
    """long_log's records shuffled, with blank lines among them."""
    header, *records = long_log.read_text().splitlines()
    random.Random(0).shuffle(records)
    records[::50] = [f"{record}\n" for record in records[::50]]
    path = long_log.with_name("shuffled.csv")
    path.write_text("\n".join([header, *records, "  "]) + "\n")
    return path


@pytest.mark.parametrize("order", ["writer", "shuffled"])
def test_read_detection_log_holds_one_block_of_fields(request, order):
    # the array, each block's rows and keys until the count is known, and
    # one block of lines and fields; holding the log's whole text and every
    # line held 5.8 times the array, splitting every field of the log at
    # once over 19 times, and a shuffled log read one line at a time into
    # a dict of tuples 14.5 times
    path = request.getfixturevalue({"writer": "long_log", "shuffled": "shuffled_log"}[order])
    log, peak = traced_peak(read_detection_log, path)
    assert log.shape == (STEPS, LOG_STRIDE)
    assert peak < 3 * log.nbytes


def test_replay_log_holds_about_its_output(long_log):
    # the output's bytearray, with its spare capacity (a recorder that never
    # converted mid-loop took 4.6 times the output, and blocks of Python
    # floats joined at the end over 2 times)
    log = read_detection_log(long_log)
    replay, peak = traced_peak(replay_log, log, HOVER)
    assert len(replay) == STEPS
    assert peak < 1.5 * replay.nbytes


def test_write_replay_csv_holds_one_block(long_log, tmp_path):
    replay = replay_log(read_detection_log(long_log), HOVER)
    path = tmp_path / "replay.csv"
    write_replay_csv(replay[:300], path)  # lazy set-up outside the trace
    _, peak = traced_peak(write_replay_csv, replay, path)
    assert len(replay) == STEPS
    assert peak < 2_000_000
