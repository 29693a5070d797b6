"""Command-line entry point.

Subcommands: `run` (execute a campaign and write all outputs), `replay`
(feed a recorded detection log through gating and servo error
computation, no dynamics), `report` (re-render the comparison table from
an existing summary JSON), and `validate-config`. All outputs are a pure
function of config, seed, flags, and input files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, build_campaign, default_config, load_config
from .experts import ExpertId, replay_detect
from .gating import GateState, select_expert
from .geometry import inside_image
from .harness import run_campaign
from .reporting import (
    REPLAY_COLUMNS,
    DetectionLogError,
    read_detection_log,
    rebuild_results,
    write_campaign_outputs,
    write_replay_csv,
)
from .servo import compute_errors
from .stats import compare_modes, format_comparison_table

_BLANKS = (float("nan"),) * 8  # u_hat to e_z without a smoothed box


def cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers: must be >= 1 (got {args.workers})")
    doc = load_config(args.config)
    trials = doc.setdefault("trials", {})
    if isinstance(trials, dict):  # otherwise build_campaign names the bad section
        if args.seed is not None:
            trials["seed"] = args.seed
        if args.trials is not None:
            trials["n_trials"] = args.trials
        if args.modes is not None:
            trials["modes"] = [name.strip() for name in args.modes.split(",")]
    spec = build_campaign(doc)

    campaign = run_campaign(
        scenario=spec.scenario,
        config=spec.trials,
        modes=list(spec.modes),
        n_workers=args.workers,
    )
    out = Path(args.out)
    write_campaign_outputs(campaign, out)
    print((out / "comparison.txt").read_text(), end="")
    print(f"outputs written to {out}")
    return 0


def cmd_replay(args) -> int:
    doc = load_config(args.config)
    spec = build_campaign(doc)
    log = read_detection_log(args.log)

    cam = spec.scenario.camera
    gains = spec.scenario.gains
    gate = GateState(window_size=spec.scenario.window_size, coast_limit=spec.scenario.coast_limit)

    far = ExpertId.FAR
    records: list[float] = []  # one row of REPLAY_COLUMNS per frame
    record = records.extend
    for frame in range(len(log)):
        det_far, det_near = replay_detect(log, frame)
        for det in (det_far, det_near):
            # padland's own detections are clamped to the image, so a box
            # outside it was not recorded with this camera
            if det.box is not None and not inside_image(det.box, cam):
                raise DetectionLogError(
                    f"frame {frame}: {det.expert_id.value} {det.box} does not lie inside "
                    f"the {cam.image_width} x {cam.image_height} camera image"
                )
        sb, selected, lost = select_expert(det_far, det_near, gate, cam)
        # `selected` as its code into SELECTION_LABELS
        record((frame, 0.0 if selected is None else 1.0 if selected is far else 2.0, lost))
        if sb is not None:
            record(sb)  # u_hat, v_hat, w_hat, h_hat, then e_x, e_y, A, e_z
            record(compute_errors(sb, cam, gains))
        else:
            record(_BLANKS)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "replay.csv"
    write_replay_csv(np.array(records, dtype=np.float64).reshape(-1, len(REPLAY_COLUMNS)), out_path)
    print(f"replayed {len(log)} frames -> {out_path}")
    return 0


def cmd_report(args) -> int:
    path = Path(args.summary)
    if not path.exists():
        raise ConfigError(f"summary file not found: {path}")
    try:
        comparison = compare_modes(rebuild_results(json.loads(path.read_text())))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:  # not JSON, or not a summary's shape
        raise ConfigError(f"{path}: not a padland summary ({type(exc).__name__}: {exc})") from None
    print(format_comparison_table(comparison))
    return 0


def cmd_validate_config(args) -> int:
    doc = load_config(args.config)
    spec = build_campaign(doc)
    print(
        f"config OK: {spec.trials.n_trials} trials, "
        f"modes {[m.value for m in spec.modes]}, seed {spec.trials.seed}"
    )
    return 0


def cmd_init_config(args) -> int:
    path = Path(args.out)
    path.write_text(json.dumps(default_config(), indent=2) + "\n")
    print(f"default config written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padland",
        description="Dual-expert helipad landing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a landing campaign")
    p_run.add_argument("--config", required=True, help="campaign config JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override trials.seed")
    p_run.add_argument("--modes", default=None, help="comma-separated mode list")
    p_run.add_argument("--trials", type=int, default=None, help="override trials.n_trials")
    p_run.add_argument("--workers", type=int, default=1, help="parallel trial workers (>= 1)")
    p_run.set_defaults(func=cmd_run)

    p_replay = sub.add_parser("replay", help="replay a detection log through the gate")
    p_replay.add_argument("--log", required=True, help="detection log CSV")
    p_replay.add_argument("--config", required=True, help="campaign config JSON")
    p_replay.add_argument("--out", required=True, help="output directory")
    p_replay.set_defaults(func=cmd_replay)

    p_report = sub.add_parser("report", help="re-render the table from a summary JSON")
    p_report.add_argument("--summary", required=True, help="summary.json from a prior run")
    p_report.set_defaults(func=cmd_report)

    p_val = sub.add_parser("validate-config", help="check a config file")
    p_val.add_argument("--config", required=True, help="campaign config JSON")
    p_val.set_defaults(func=cmd_validate_config)

    p_init = sub.add_parser("init-config", help="write the default config to a file")
    p_init.add_argument("--out", required=True, help="destination path")
    p_init.set_defaults(func=cmd_init_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at exit
        return code
    except (ConfigError, DetectionLogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout went away (`| head`): stop quietly, and let
        # the interpreter's final flush of stdout go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
