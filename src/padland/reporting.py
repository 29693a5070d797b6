"""Every file padland writes: trajectory CSVs, detection logs, the
replay CSV, summary JSON and the comparison table.

Floats are written via repr, so every file is a pure function of its
inputs: the summary JSON sorts its keys, and trajectory paths inside it
are relative to the output directory. The CSVs are formatted column by
column, with one list of strings per column, then joined row by row.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .experts import LOG_FIELDS, LOG_HEADER, LOG_STRIDE, ExpertId
from .harness import (
    RECORD_COLUMNS,
    SELECTION_LABELS,
    TRAJECTORY_COLUMNS,
    TRAJECTORY_HEADER,
    CampaignResult,
    Mode,
    TerminationReason,
    TrialResult,
)
from .stats import ModeComparison, PairedComparison, compare_modes, format_comparison_table

REPLAY_HEADER = "frame,selected,tracking_lost,u_hat,v_hat,w_hat,h_hat,e_x,e_y,A,e_z"
REPLAY_COLUMNS = tuple(REPLAY_HEADER.split(","))

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


def format_positions(frames: np.ndarray) -> list[list[str]]:
    """repr of each POSITION_INDEX column of a (frames, columns) record
    array: the strings the detection log and the trajectory CSV share, so
    a trial formats them once for both writers."""
    return [list(map(repr, column)) for column in frames[:, POSITION_INDEX].T.tolist()]


def write_trajectory_csv(
    frames: np.ndarray, path: str | Path, *, positions: list[list[str]] | None = None
) -> None:
    """Write the TRAJECTORY_COLUMNS of a (frames, RECORD_COLUMNS) array,
    formatted column by column (floats via repr: round-trippable and
    byte-stable across identical runs; NaN blanks as empty cells;
    `selected` as its label). positions, if given, is format_positions
    of frames."""
    if positions is None:
        positions = format_positions(frames)
    shared = dict(zip(_POSITIONS, positions))
    columns = [
        shared[name] if name in shared else _format_column(name, values)
        for name, values in zip(TRAJECTORY_COLUMNS, frames[:, _TRAJECTORY_INDEX].T.tolist())
    ]
    _write_rows(path, TRAJECTORY_HEADER, columns)


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


def write_detection_log(
    frames: np.ndarray, path: str | Path, *, positions: list[list[str]] | None = None
) -> None:
    """Write the first LOG_STRIDE columns of a (frames, columns) record
    array in the detection-log format that experts.read_detection_log
    reads (floats via repr, so a write/read round trip is value-exact).
    positions, if given, is format_positions of frames."""
    if positions is None:
        positions = format_positions(frames)
    columns = frames[:, :LOG_STRIDE].T.tolist()
    far = _expert_records(ExpertId.FAR, positions[:2], columns[2:LOG_FIELDS])
    near = _expert_records(ExpertId.NEAR, positions[2:], columns[LOG_FIELDS + 2 :])
    lines = [LOG_HEADER]
    for frame, (f, n) in enumerate(zip(far, near)):
        lines.append(f"{frame},{f}")
        lines.append(f"{frame},{n}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_trial_csvs(frames: np.ndarray, trajectory_path: str | Path, log_path: str | Path) -> None:
    """Write one trial's trajectory CSV and detection log from its
    (frames, RECORD_COLUMNS) array, formatting the shared u, v columns once."""
    positions = format_positions(frames)
    write_trajectory_csv(frames, trajectory_path, positions=positions)
    write_detection_log(frames, log_path, positions=positions)


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
