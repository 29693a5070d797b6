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

from .config import ConfigError, build_campaign, default_config, load_config
from .harness import DetectionLogError, replay_log, run_campaign
from .reporting import read_comparison, read_detection_log, write_campaign_outputs, write_replay_csv
from .stats import format_comparison_table

# unused here, but bench/spans.py wraps both names on this module
from .gating import select_expert
from .servo import compute_errors


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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before any trial runs

    campaign = run_campaign(
        scenario=spec.scenario,
        config=spec.trials,
        modes=list(spec.modes),
        n_workers=args.workers,
    )
    write_campaign_outputs(campaign, out)
    print((out / "comparison.txt").read_text(), end="")
    print(f"outputs written to {out}")
    return 0


def cmd_replay(args) -> int:
    scenario = build_campaign(load_config(args.config)).scenario
    log = read_detection_log(args.log)
    out_path = Path(args.out) / "replay.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the replay
    try:
        replayed = replay_log(log, scenario)
    except DetectionLogError as exc:  # name the log, as read_detection_log's errors do
        raise DetectionLogError(f"{args.log}: {exc}") from None
    write_replay_csv(replayed, out_path)
    print(f"replayed {len(log)} frames -> {out_path}")
    return 0


def cmd_report(args) -> int:
    print(format_comparison_table(read_comparison(args.summary)))
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
    p_run.add_argument(
        "--workers", type=int, default=1,
        help="processes that run and write trials, this one included (>= 1)",
    )
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
