"""Campaign output files: trajectory CSVs, detection logs, summary JSON.

The summary JSON is a pure function of (config, seed): keys are sorted
and floats serialized via repr, so identical runs produce identical
bytes. Trajectory paths inside the summary are relative to the output
directory for the same reason.
"""

from __future__ import annotations

import json
from pathlib import Path

from .experts import write_detection_log
from .harness import CampaignResult, Mode, TrialResult, write_trajectory_csv
from .stats import ModeComparison, compare_modes, format_comparison_table


def _log_name(trial_id: int, mode: Mode) -> str:
    """File name of one trial's trajectory and detection CSVs."""
    return f"trial_{trial_id:03d}_{mode.value}.csv"


def trial_result_dict(result: TrialResult, mode: Mode) -> dict:
    return {
        "trial_id": result.trial_id,
        "initial_position": list(result.initial_position),
        "touchdown_xy": list(result.touchdown_xy),
        "touchdown_error": result.touchdown_error,
        "success": result.success,
        "termination_reason": result.termination_reason.value,
        "steps": result.steps,
        "expert_usage": dict(result.expert_usage),
        "trajectory_log_path": f"trajectories/{_log_name(result.trial_id, mode)}",
    }


def campaign_summary(campaign: CampaignResult, comparison: ModeComparison) -> dict:
    modes_block = {}
    for mode, runs in campaign.runs.items():
        summary = comparison.summaries[mode.value]
        modes_block[mode.value] = {
            "trials": [trial_result_dict(r.result, mode) for r in runs],
            "summary": {
                "n": summary.n,
                "mean_error": summary.mean_error,
                "std_error": summary.std_error,
                "success_rate": summary.success_rate,
            },
        }
    comparisons_block = [
        {
            "mode_a": c.mode_a,
            "mode_b": c.mode_b,
            "n_effective": c.test.n_effective,
            "w_plus": c.test.w_plus,
            "w_minus": c.test.w_minus,
            "statistic": c.test.statistic,
            "p_two_sided": c.test.p_two_sided,
            "degenerate": c.test.degenerate,
            "exact": c.test.exact,
            "significant_05": c.significant_05,
            "significant_01": c.significant_01,
        }
        for c in comparison.comparisons
    ]
    return {
        "seed": campaign.seed,
        "n_trials": campaign.n_trials,
        "initial_states": [[s.x, s.y, s.z] for s in campaign.initial_states],
        "modes": modes_block,
        "comparisons": comparisons_block,
    }


def write_campaign_outputs(campaign: CampaignResult, out_dir: str | Path) -> dict:
    """Write all campaign artifacts under out_dir; returns the summary dict.

    Layout: trajectories/trial_###_<mode>.csv, detections/trial_###_<mode>.csv,
    summary.json, comparison.txt.
    """
    out = Path(out_dir)
    traj_dir = out / "trajectories"
    det_dir = out / "detections"
    traj_dir.mkdir(parents=True, exist_ok=True)
    det_dir.mkdir(parents=True, exist_ok=True)

    for mode, runs in campaign.runs.items():
        for run in runs:
            name = _log_name(run.result.trial_id, mode)
            write_trajectory_csv(run.trajectory, traj_dir / name)
            write_detection_log(run.detections, det_dir / name)

    comparison = compare_modes({m: campaign.results(m) for m in campaign.runs})
    summary = campaign_summary(campaign, comparison)
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    (out / "comparison.txt").write_text(format_comparison_table(comparison) + "\n")
    return summary


def rebuild_results(summary: dict) -> dict[Mode, list[TrialResult]]:
    """Reconstruct per-mode TrialResult lists from a summary document."""
    from .harness import TerminationReason

    results: dict[Mode, list[TrialResult]] = {}
    for mode_name, block in summary["modes"].items():
        trials = []
        for t in block["trials"]:
            trials.append(
                TrialResult(
                    trial_id=t["trial_id"],
                    initial_position=tuple(t["initial_position"]),
                    touchdown_xy=tuple(t["touchdown_xy"]),
                    touchdown_error=t["touchdown_error"],
                    success=t["success"],
                    termination_reason=TerminationReason(t["termination_reason"]),
                    steps=t["steps"],
                    expert_usage=dict(t["expert_usage"]),
                )
            )
        results[Mode(mode_name)] = trials
    return results
