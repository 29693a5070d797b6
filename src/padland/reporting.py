"""Every file format padland writes or reads back: trajectory CSVs,
detection logs (written, and read for replay), the replay CSV, summary
JSON and the comparison table.

Floats are written via repr, so every file is a pure function of its
inputs: the summary JSON sorts its keys, and trajectory paths inside it
are relative to the output directory. The CSVs are formatted column by
column, with one list of strings per column, then joined row by row.
A detection log in the writer's own layout is read back column by
column too; any other log is read, or rejected, one line at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .experts import LOG_FIELDS, LOG_STRIDE, ExpertId
from .harness import (
    RECORD_COLUMNS,
    REPLAY_COLUMNS,
    REPLAY_HEADER,
    SELECTION_LABELS,
    TRAJECTORY_COLUMNS,
    TRAJECTORY_HEADER,
    CampaignResult,
    Mode,
    TerminationReason,
    TrialResult,
)
from .stats import ModeComparison, PairedComparison, compare_modes, format_comparison_table

# u and v of each expert: the detection-log columns the trajectory CSV
# repeats, so a trial formats them once for both files
POSITION_INDEX = (0, 1, LOG_FIELDS, LOG_FIELDS + 1)
_POSITIONS = [RECORD_COLUMNS[i] for i in POSITION_INDEX]
_TRAJECTORY_INDEX = [RECORD_COLUMNS.index(c) for c in TRAJECTORY_COLUMNS]
# how a column of the trajectory or replay CSV is formatted, by name;
# every other column is repr of each float
_INT_COLUMNS = frozenset(("step", "frame", "far_present", "near_present", "tracking_lost"))
_BLANKABLE_COLUMNS = frozenset(("u_hat", "v_hat", "w_hat", "h_hat", "e_x", "e_y", "A", "e_z"))


def _format_column(name: str, values: list[float]) -> list[str]:
    if name in _INT_COLUMNS:
        return [str(int(x)) for x in values]
    if name == "selected":
        return [SELECTION_LABELS[int(x)] for x in values]
    if name in _BLANKABLE_COLUMNS:
        return ["" if x != x else repr(x) for x in values]
    return [repr(x) for x in values]


def _write_rows(path: str | Path, header: str, columns: list[list[str]]) -> None:
    """Write a header line, then one line per row of the formatted columns."""
    lines = [header]
    lines.extend(",".join(row) for row in zip(*columns))
    Path(path).write_text("\n".join(lines) + "\n")


def _positions(frames: np.ndarray) -> list[list[str]]:
    """repr of each POSITION_INDEX column of a (frames, columns) record
    array: the strings the detection log and the trajectory CSV share."""
    return [list(map(repr, column)) for column in frames[:, POSITION_INDEX].T.tolist()]


def write_trajectory_csv(frames: np.ndarray, path: str | Path) -> None:
    """Write the TRAJECTORY_COLUMNS of a (frames, RECORD_COLUMNS) array,
    formatted column by column (floats via repr: round-trippable and
    byte-stable across identical runs; NaN blanks as empty cells;
    `selected` as its label)."""
    _write_trajectory(frames, path, _positions(frames))


def _write_trajectory(frames: np.ndarray, path: str | Path, positions: list[list[str]]) -> None:
    shared = dict(zip(_POSITIONS, positions))
    columns = [
        shared[name] if name in shared else _format_column(name, values)
        for name, values in zip(TRAJECTORY_COLUMNS, frames[:, _TRAJECTORY_INDEX].T.tolist())
    ]
    _write_rows(path, TRAJECTORY_HEADER, columns)


# Detection log: LOG_HEADER, then a record per expert per frame (present
# 0 or 1, zeros in the numeric fields of an absent detection). The writer
# puts frame k's FAR record, then its NEAR record, for k = 0, 1, ...

LOG_HEADER = "frame,expert,u,v,w,h,confidence,present"


class DetectionLogError(ValueError):
    """Malformed detection log; the message names the offending line, frame or file."""


def _expert_records(
    expert: ExpertId, positions: list[list[str]], columns: list[list[float]]
) -> list[str]:
    """One expert's records without the frame number, formatted column by
    column: u and v from their formatted positions, w, h and confidence via
    repr, "0" for every field of an absent detection."""
    *values, present = columns
    fields = [[x if p else "0" for x, p in zip(col, present)] for col in positions]
    fields += [[repr(x) if p else "0" for x, p in zip(col, present)] for col in values]
    flags = ["1" if p else "0" for p in present]
    label = expert.value + ","
    return [label + ",".join(cells) for cells in zip(*fields, flags)]


def write_detection_log(frames: np.ndarray, path: str | Path) -> None:
    """Write the first LOG_STRIDE columns of a (frames, columns) record
    array as a detection log (floats via repr, so a write/read round trip
    is value-exact)."""
    _write_log(frames, path, _positions(frames))


def _write_log(frames: np.ndarray, path: str | Path, positions: list[list[str]]) -> None:
    columns = frames[:, :LOG_STRIDE].T.tolist()
    far = _expert_records(ExpertId.FAR, positions[:2], columns[2:LOG_FIELDS])
    near = _expert_records(ExpertId.NEAR, positions[2:], columns[LOG_FIELDS + 2 :])
    lines = [LOG_HEADER]
    for frame, (f, n) in enumerate(zip(far, near)):
        lines.append(f"{frame},{f}")
        lines.append(f"{frame},{n}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_detection_log(path: str | Path) -> np.ndarray:
    """Parse a detection log file into a (frames, LOG_STRIDE) float64 array;
    raises DetectionLogError naming the file if it is missing or not text,
    else the first offending line. Records may come in any order and blank
    lines are skipped; every frame from 0 to the last needs one record of
    each expert."""
    try:
        lines = Path(path).read_text().splitlines()
    except FileNotFoundError:
        raise DetectionLogError(f"detection log not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DetectionLogError(f"{path}: not a text file ({exc})") from None
    if not lines or lines[0].strip() != LOG_HEADER:
        raise DetectionLogError("line 1: missing or malformed header")
    log = _read_writer_layout(lines[1:])
    return _read_records(lines[1:]) if log is None else log


def _read_writer_layout(records: list[str]) -> np.ndarray | None:
    """The log of records in exactly write_detection_log's layout, every
    rule met, converted column by column; None for any other records."""
    n, odd = divmod(len(records), 2)
    if odd or set(map(str.count, records, repeat(","))) != {7}:
        return None
    fields = ",".join(records).split(",")
    if not (
        fields[0::16] == fields[8::16] == list(map(str, range(n)))
        and fields[1::16].count("FAR") == fields[9::16].count("NEAR") == n
        and set(fields[7::8]) <= {"0", "1"}
    ):
        return None
    try:
        cells = np.array([list(map(float, fields[k::8])) for k in range(2, 8)])
    except ValueError:
        return None
    _, _, w, h, conf, flag = cells
    present = flag == 1.0
    out_of_range = (w <= 0) | (h <= 0) | (conf < 0) | (conf > 1)
    if not np.isfinite(cells).all() or (present & out_of_range).any():
        return None
    return np.where(present, cells, 0.0).T.reshape(n, LOG_STRIDE)


def _parse_record(line: str, lineno: int) -> tuple[int, ExpertId, tuple[float, ...]]:
    """One record's frame, expert and LOG_FIELDS cells (zeros when absent);
    raises DetectionLogError naming the line and the first rule it breaks."""
    parts = line.split(",")
    if len(parts) != 8:
        raise DetectionLogError(f"line {lineno}: expected 8 fields, got {len(parts)}")
    try:
        frame = int(parts[0])
        expert = ExpertId(parts[1].strip())
        u, v, w, h, conf = map(float, parts[2:7])
        present = int(parts[7])
    except ValueError as exc:
        raise DetectionLogError(f"line {lineno}: {exc}") from None
    if not all(map(math.isfinite, (u, v, w, h, conf))):
        raise DetectionLogError(f"line {lineno}: u, v, w, h and confidence must be finite")
    if present not in (0, 1):
        raise DetectionLogError(f"line {lineno}: present flag must be 0 or 1")
    if present == 0:
        return frame, expert, (0.0,) * LOG_FIELDS
    if w <= 0 or h <= 0:
        raise DetectionLogError(f"line {lineno}: present detection with non-positive size")
    if not 0.0 <= conf <= 1.0:
        raise DetectionLogError(f"line {lineno}: confidence {conf} outside [0, 1]")
    return frame, expert, (u, v, w, h, conf, 1.0)


def _read_records(records: list[str]) -> np.ndarray:
    """The log of records read one line at a time, in any order; raises
    DetectionLogError at the first line, or frame, that breaks a rule."""
    cells: dict[tuple[int, ExpertId], tuple[float, ...]] = {}
    for lineno, line in enumerate(records, start=2):
        if line.strip():
            frame, expert, values = _parse_record(line, lineno)
            if (frame, expert) in cells:
                raise DetectionLogError(
                    f"line {lineno}: duplicate {expert.value} record for frame {frame}"
                )
            cells[frame, expert] = values
    frames = {frame for frame, _ in cells}
    keys = [(frame, expert) for frame in range(len(frames)) for expert in ExpertId]
    for frame, expert in keys:
        if frame not in frames:
            raise DetectionLogError(f"frame {frame} missing (frames must be contiguous from 0)")
        if (frame, expert) not in cells:
            raise DetectionLogError(f"frame {frame}: no {expert.value} record")
    return np.array([cells[key] for key in keys], dtype=np.float64).reshape(-1, LOG_STRIDE)


def write_trial_csvs(frames: np.ndarray, trajectory_path: str | Path, log_path: str | Path) -> None:
    """Write one trial's trajectory CSV and detection log from its
    (frames, RECORD_COLUMNS) array, formatting the shared u, v columns once."""
    positions = _positions(frames)
    _write_trajectory(frames, trajectory_path, positions)
    _write_log(frames, log_path, positions)


def write_replay_csv(records: np.ndarray, path: str | Path) -> None:
    """Write a (frames, REPLAY_COLUMNS) float array as the replay CSV:
    `frame` and `tracking_lost` as integers, `selected` as its label in
    SELECTION_LABELS, NaN as an empty cell, every other float via repr."""
    columns = records.T.tolist()
    _write_rows(path, REPLAY_HEADER, list(map(_format_column, REPLAY_COLUMNS, columns)))


def _log_name(trial_id: int, mode: Mode) -> str:
    """File name of one trial's trajectory and detection CSVs."""
    return f"trial_{trial_id:03d}_{mode.value}.csv"


def trial_result_dict(result: TrialResult, mode: Mode) -> dict:
    """The fields of result as JSON values, plus the trial's trajectory path."""
    return {
        **asdict(result),
        "initial_position": list(result.initial_position),
        "touchdown_xy": list(result.touchdown_xy),
        "termination_reason": result.termination_reason.value,
        "trajectory_log_path": f"trajectories/{_log_name(result.trial_id, mode)}",
    }


def _comparison_dict(comparison: PairedComparison) -> dict:
    """The fields of comparison with its test's fields flattened in."""
    doc = asdict(comparison)
    doc.update(doc.pop("test"))
    return doc


def campaign_summary(campaign: CampaignResult, comparison: ModeComparison) -> dict:
    modes_block = {
        mode.value: {
            "trials": [trial_result_dict(r.result, mode) for r in runs],
            "summary": asdict(comparison.summaries[mode.value]),
        }
        for mode, runs in campaign.runs.items()
    }
    return {
        "seed": campaign.seed,
        "n_trials": campaign.n_trials,
        "initial_states": [[s.x, s.y, s.z] for s in campaign.initial_states],
        "modes": modes_block,
        "comparisons": [_comparison_dict(c) for c in comparison.comparisons],
    }


def write_campaign_outputs(campaign: CampaignResult, out_dir: str | Path) -> dict:
    """Write all campaign artifacts under out_dir; returns the summary dict.

    Layout: trajectories/trial_###_<mode>.csv, detections/trial_###_<mode>.csv,
    summary.json, comparison.txt. Each trial's two CSVs are written by
    write_trial_csvs through campaign.map: on the campaign's worker
    processes when it has them, in this process otherwise. Returns after
    every file is written, and raises the first error a write hit.
    """
    out = Path(out_dir)
    traj_dir = out / "trajectories"
    det_dir = out / "detections"
    traj_dir.mkdir(parents=True, exist_ok=True)
    det_dir.mkdir(parents=True, exist_ok=True)

    runs = [(run.frames, _log_name(run.result.trial_id, mode))
            for mode, mode_runs in campaign.runs.items() for run in mode_runs]
    # on the campaign's workers, if it has any, while this process builds the summary
    written = campaign.map(
        write_trial_csvs,
        [frames for frames, _ in runs],
        [traj_dir / name for _, name in runs],
        [det_dir / name for _, name in runs],
    )

    comparison = compare_modes({m: campaign.results(m) for m in campaign.runs})
    summary = campaign_summary(campaign, comparison)
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    (out / "comparison.txt").write_text(format_comparison_table(comparison) + "\n")
    for _ in written:  # wait for every trial's CSVs; raises the first error
        pass
    return summary


def _trial_result(doc: dict) -> TrialResult:
    values = {f.name: doc[f.name] for f in fields(TrialResult)}
    values["initial_position"] = tuple(values["initial_position"])
    values["touchdown_xy"] = tuple(values["touchdown_xy"])
    values["termination_reason"] = TerminationReason(values["termination_reason"])
    return TrialResult(**values)


def rebuild_results(summary: dict) -> dict[Mode, list[TrialResult]]:
    """Reconstruct per-mode TrialResult lists from a summary document."""
    return {
        Mode(mode_name): [_trial_result(t) for t in block["trials"]]
        for mode_name, block in summary["modes"].items()
    }
