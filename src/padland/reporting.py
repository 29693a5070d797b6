"""Every file format padland writes or reads back: trajectory CSVs,
detection logs (written, and read for replay), the replay CSV, summary
JSON (written, and read back for `padland report`) and the comparison
table.

Floats are written via repr, so every file is a pure function of its
inputs: the summary JSON sorts its keys, and trajectory paths inside it
are relative to the output directory. The CSVs are formatted column by
column, by name, into one list of strings per column (a trial's
trajectory CSV and detection log share theirs), then joined row by row.
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

from .config import ConfigError, read_text
from .experts import ExpertId
from .harness import (
    LOG_FIELDS,
    LOG_STRIDE,
    RECORD_COLUMNS,
    REPLAY_COLUMNS,
    REPLAY_HEADER,
    SELECTION_LABELS,
    TRAJECTORY_COLUMNS,
    TRAJECTORY_HEADER,
    CampaignResult,
    DetectionLogError,
    Mode,
    TerminationReason,
    TrialResult,
)
from .stats import ModeComparison, PairedComparison, compare_modes, format_comparison_table

# how a column of a CSV is formatted, by name; every other column is repr
# of each float
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


def _format_columns(array: np.ndarray, names: tuple[str, ...]) -> dict[str, list[str]]:
    """The first len(names) columns of a (rows, columns) array, each
    formatted by its name, one column at a time."""
    return {name: _format_column(name, array[:, i].tolist()) for i, name in enumerate(names)}


def _write_rows(path: str | Path, header: str, columns: list[list[str]]) -> None:
    """Write a header line, then one line per row of the formatted columns."""
    lines = [header]
    lines.extend(",".join(row) for row in zip(*columns))
    Path(path).write_text("\n".join(lines) + "\n")


# Detection log: LOG_HEADER, then a record per expert per frame (present
# 0 or 1, "0" in every other field of an absent detection). The writer
# puts frame k's FAR record, then its NEAR record, for k = 0, 1, ...

LOG_HEADER = "frame,expert,u,v,w,h,confidence,present"


def _expert_records(expert: ExpertId, columns: list[list[str]]) -> list[str]:
    """One expert's records without the frame number, from its formatted
    u, v, w, h, confidence and present columns."""
    present = expert.value + ","
    absent = present + ",".join(["0"] * LOG_FIELDS)
    return [present + ",".join(cells) if cells[-1] == "1" else absent for cells in zip(*columns)]


def _write_log(path: str | Path, columns: dict[str, list[str]]) -> None:
    """Write a detection log from the formatted RECORD_COLUMNS of its log fields."""
    names = RECORD_COLUMNS[:LOG_STRIDE]
    far = _expert_records(ExpertId.FAR, [columns[name] for name in names[:LOG_FIELDS]])
    near = _expert_records(ExpertId.NEAR, [columns[name] for name in names[LOG_FIELDS:]])
    lines = [LOG_HEADER]
    for frame, (f, n) in enumerate(zip(far, near)):
        lines.append(f"{frame},{f}")
        lines.append(f"{frame},{n}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_detection_log(frames: np.ndarray, path: str | Path) -> None:
    """Write the first LOG_STRIDE columns of a (frames, columns) record
    array as a detection log (floats via repr, so a write/read round trip
    is value-exact)."""
    _write_log(path, _format_columns(frames, RECORD_COLUMNS[:LOG_STRIDE]))


def read_detection_log(path: str | Path) -> np.ndarray:
    """Parse a detection log file into a (frames, LOG_STRIDE) float64 array;
    raises DetectionLogError naming the file if it is missing, a directory
    or not text, else the first offending line. Records may come in any
    order and blank lines are skipped; every frame from 0 to the last needs
    one record of each expert."""
    lines = read_text(path, "detection log", DetectionLogError).splitlines()
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
    (frames, RECORD_COLUMNS) array, formatting each column once for both
    files (floats via repr: round-trippable and byte-stable across
    identical runs; NaN blanks as empty cells; `selected` as its label)."""
    columns = _format_columns(frames, RECORD_COLUMNS)
    trajectory = [columns[name] for name in TRAJECTORY_COLUMNS]
    _write_rows(trajectory_path, TRAJECTORY_HEADER, trajectory)
    _write_log(log_path, columns)


def write_replay_csv(records: np.ndarray, path: str | Path) -> None:
    """Write a (frames, REPLAY_COLUMNS) float array as the replay CSV:
    `frame` and `tracking_lost` as integers, `selected` as its label in
    SELECTION_LABELS, NaN as an empty cell, every other float via repr."""
    _write_rows(path, REPLAY_HEADER, list(_format_columns(records, REPLAY_COLUMNS).values()))


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
    write_trial_csvs through campaign.map, shared between the campaign's
    worker processes, if it has any, and this one. Every trial's write
    runs; the first error among them is raised before summary.json and
    comparison.txt are written.
    """
    out = Path(out_dir)
    traj_dir = out / "trajectories"
    det_dir = out / "detections"
    traj_dir.mkdir(parents=True, exist_ok=True)
    det_dir.mkdir(parents=True, exist_ok=True)

    runs = [(run.frames, _log_name(run.result.trial_id, mode))
            for mode, mode_runs in campaign.runs.items() for run in mode_runs]
    campaign.map(
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


def read_comparison(path: str | Path) -> ModeComparison:
    """Compare the modes of a summary.json read back; raises ConfigError
    naming the file if it is missing, a directory, not text, not JSON or
    not a padland summary."""
    path = Path(path)
    text = read_text(path, "summary file")
    try:
        return compare_modes(rebuild_results(json.loads(text)))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:  # not JSON, or not a summary's shape
        raise ConfigError(f"{path}: not a padland summary ({type(exc).__name__}: {exc})") from None
