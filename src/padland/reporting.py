"""Every file format padland writes or reads back: trajectory CSVs,
detection logs (written, and read for replay), the replay CSV, summary
JSON (written, and read back for `padland report`) and the comparison
table.

Floats are written via repr, so every file is a pure function of its
inputs: the summary JSON sorts its keys, and trajectory paths inside it
are relative to the output directory. Each CSV file is opened once and
written WRITE_BLOCK rows at a time: a block is formatted column by
column, by name, into one list of strings per column (a trial's
trajectory CSV and detection log share theirs), then joined row by row,
so a trial of any length holds one block of strings at a time.
A detection log in the writer's own layout is read back the same way,
WRITE_BLOCK frames at a time, each block checked and converted column
by column into one preallocated array; any other log is read, or
rejected, one line at a time.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from dataclasses import asdict, fields
from itertools import count, repeat
from pathlib import Path

import numpy as np

from .config import ConfigError, _object, _Repeated, read_text
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
WRITE_BLOCK = 256  # rows formatted and written at a time
_WIDTH_OF = {"h_far": "w_far", "h_near": "w_near", "h_hat": "w_hat"}  # a height's width column


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
    formatted by its name, one column at a time. A box's height cell that
    holds the same nonzero double as its width cell reuses the width's
    string: a box is square unless clamp_box clipped it, so this saves a
    repr on most heights (-0.0 equals 0.0 but prints differently)."""
    columns = {}
    for i, name in enumerate(names):
        column = array[:, i]
        width = _WIDTH_OF.get(name)
        if width in columns:
            same = (column == array[:, names.index(width)]) & (column != 0.0)
            own = iter(_format_column(name, column[~same].tolist()))
            columns[name] = [w if s else next(own) for s, w in zip(same.tolist(), columns[width])]
        else:
            columns[name] = _format_column(name, column.tolist())
    return columns


def _table(names: tuple[str, ...]):
    """The block writer of a CSV of the named columns, in that order: one
    line per row of a block."""

    def block(columns: dict[str, list[str]], start: int) -> str:
        return "\n".join(map(",".join, zip(*[columns[name] for name in names]))) + "\n"

    return block


def _write_rows(array: np.ndarray, names: tuple[str, ...], files) -> None:
    """Write each of files, a (path, header, block writer) triple, from the
    first len(names) columns of array: open each file once and write its
    header, then format WRITE_BLOCK rows at a time, each column once by its
    name, and write each file's text for them, which its block writer
    returns given the formatted columns by name and the block's first row."""
    with ExitStack() as stack:
        outs = []
        for path, header, block in files:
            out = stack.enter_context(open(path, "w"))
            out.write(header + "\n")
            outs.append((out, block))
        for start in range(0, len(array), WRITE_BLOCK):
            columns = _format_columns(array[start : start + WRITE_BLOCK], names)
            for out, block in outs:
                out.write(block(columns, start))


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


def _log_block(columns: dict[str, list[str]], start: int) -> str:
    """The detection log's lines for a block of frames from start, from the
    formatted RECORD_COLUMNS of its log fields."""
    names = RECORD_COLUMNS[:LOG_STRIDE]
    far = _expert_records(ExpertId.FAR, [columns[name] for name in names[:LOG_FIELDS]])
    near = _expert_records(ExpertId.NEAR, [columns[name] for name in names[LOG_FIELDS:]])
    return "".join([f"{k},{f}\n{k},{n}\n" for k, f, n in zip(count(start), far, near)])


def write_detection_log(frames: np.ndarray, path: str | Path) -> None:
    """Write the first LOG_STRIDE columns of a (frames, columns) record
    array as a detection log (floats via repr, so a write/read round trip
    is value-exact)."""
    _write_rows(frames, RECORD_COLUMNS[:LOG_STRIDE], [(path, LOG_HEADER, _log_block)])


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
    rule met, checked and converted WRITE_BLOCK frames at a time, column by
    column; None for any other records."""
    n, odd = divmod(len(records), 2)
    if odd:
        return None
    log = np.empty((n, LOG_STRIDE))
    for start in range(0, n, WRITE_BLOCK):
        block = records[2 * start : 2 * (start + WRITE_BLOCK)]
        m = len(block) // 2
        if set(map(str.count, block, repeat(","))) != {7}:
            return None
        fields = ",".join(block).split(",")
        if not (
            fields[0::16] == fields[8::16] == list(map(str, range(start, start + m)))
            and fields[1::16].count("FAR") == fields[9::16].count("NEAR") == m
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
        log[start : start + m] = np.where(present, cells, 0.0).T.reshape(m, LOG_STRIDE)
    return log


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
    (frames, RECORD_COLUMNS) array, WRITE_BLOCK rows at a time, formatting
    each column of a block once for both files (floats via repr:
    round-trippable and byte-stable across identical runs; NaN blanks as
    empty cells; `selected` as its label)."""
    _write_rows(
        frames,
        RECORD_COLUMNS,
        [
            (trajectory_path, TRAJECTORY_HEADER, _table(TRAJECTORY_COLUMNS)),
            (log_path, LOG_HEADER, _log_block),
        ],
    )


def write_replay_csv(records: np.ndarray, path: str | Path) -> None:
    """Write a (frames, REPLAY_COLUMNS) float array as the replay CSV:
    `frame` and `tracking_lost` as integers, `selected` as its label in
    SELECTION_LABELS, NaN as an empty cell, every other float via repr."""
    _write_rows(records, REPLAY_COLUMNS, [(path, REPLAY_HEADER, _table(REPLAY_COLUMNS))])


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
    naming the file if it is missing, a directory, not text, not JSON (or
    nested too deeply to parse), repeats a key (naming its path, as
    load_config does) or is not a padland summary."""
    path = Path(path)
    text = read_text(path, "summary file")
    try:
        summary = json.loads(text, object_pairs_hook=_object)
        if not isinstance(summary, _Repeated):
            return compare_modes(rebuild_results(summary))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise ConfigError(f"{path}: not a padland summary ({type(exc).__name__}: {exc})") from None
    raise ConfigError(f"{path}: repeated key: {summary.key}")
