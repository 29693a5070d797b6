#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent commit and the working tree.

    python3 tools/ab_pairs.py --parent REV --case campaign_default:42 \\
        [--case WORKLOAD:SEED ...] --out BENCH_name.json

REV is extracted with ``git archive`` into a temporary directory, so
nothing is written under ``.git``. For each case, ``bench/run_bench.py
--workload WORKLOAD --seed SEED --seconds RUN_SECONDS --trace 0`` runs once
in each tree per pair, ten pairs, with ``run_seconds`` read from
``BENCHMARK.json``: the parent first in odd pairs (the first, third, ...)
and the working tree first in even ones. Each tree runs its own benchmark
on its own sources and writes only under its own ``.bench_out/``.

The output holds the two commits (the working tree as its HEAD and, if
it differs, the SHA-256 of ``git diff HEAD --binary``, so stage new
files first), the environment, every pair's
end-to-end metrics with ``correct`` and ``failed``, each side's median
and quartiles (``spread`` of ``bench/record.py``), the pairs each side won
(ties count for neither) and a verdict per metric, with ``better`` and
``bound`` read from ``BENCHMARK.json``:

- ``gain``: the working tree won at least nine of the ten pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
- ``void``: that would be a gain, but the working tree failed more
  operations than the parent or a run of it was not correct;
- ``regression``: its median is worse than the parent's by more than
  ``bound`` times the parent's median;
- ``unresolved``: none of these, the parent's interquartile range is wider
  than ``bound`` times its median, so a change within the bound could not
  be told from noise, and not every run of the working tree reads better
  than every run of the parent;
- ``within bound``: otherwise.

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # per case; fewer never make a gain
GAIN_SHARE = 0.9  # of the pairs, that the change must win to claim a gain

_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_record)
quartiles = _record.spread  # median, q1 and q3 as the benchmark takes them


def verdict(pairs: list[tuple[float, float]], better: str, bound: float,
            sound: bool = True) -> dict:
    """Compare (parent, change) values of one metric, pair by pair: the
    pairs each side won, each side's median and quartiles, and the
    verdict (see the module docstring). sound is false when the change
    failed more operations than the parent or a run of it was not correct."""
    sign = 1 if better == "higher" else -1  # sign * (change - parent) > 0: the change is better
    change_wins = sum(sign * (change - parent) > 0 for parent, change in pairs)
    parent_wins = sum(sign * (change - parent) < 0 for parent, change in pairs)
    old = quartiles([parent for parent, _ in pairs])
    new = quartiles([change for _, change in pairs])
    gained = sign * (new["median"] - old["median"])  # > 0: better
    iqr = old["q3"] - old["q1"]
    every_run_better = all(sign * (change - parent) > 0
                           for parent, _ in pairs for _, change in pairs)
    if len(pairs) >= PAIRS and change_wins >= GAIN_SHARE * len(pairs) and gained > iqr:
        found = "gain" if sound else "void"
    elif -gained > bound * abs(old["median"]):
        found = "regression"
    elif iqr > bound * abs(old["median"]) and not every_run_better:
        found = "unresolved"
    else:
        found = "within bound"
    return {
        "parent": old,
        "change": new,
        "ratio": new["median"] / old["median"] if old["median"] else None,
        "change_wins": change_wins,
        "parent_wins": parent_wins,
        "ties": len(pairs) - change_wins - parent_wins,
        "verdict": found,
    }


def extract(rev: str, dest: Path) -> str:
    """Extract commit rev of this repository into dest; returns its full hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = dest / "parent.tar"
    git("archive", "--format=tar", f"--output={archive}", commit)
    with tarfile.open(archive) as tar:
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest / "tree", **kwargs)
    archive.unlink()
    return commit


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run_bench.py --trace 0`` run in tree: correct,
    attempted, failed and the end-to-end metrics from its last stdout line,
    and the write time (a share of wall_s, not a metric of the benchmark)
    and the environment from the record it keeps."""
    cmd = [sys.executable, str(tree / "bench" / "run_bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{tree}: {workload} seed {seed} printed no result (exit {done.returncode}):\n"
                 f"{done.stderr[-3000:]}")
    record = json.loads((tree / ".bench_out" / workload / "run.json").read_text())
    return {
        **{key: result[key] for key in ("correct", "attempted", "failed")},
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "write_s": record["end_to_end"]["write_s"],
        "env": record["env"],
    }


def run_case(trees: dict[str, Path], workload: str, seed: int, seconds: float,
             metrics: dict) -> dict:
    pairs = []
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = bench(trees[side], workload, seed, seconds)
            print(f"{workload} seed {seed} pair {i + 1}/{PAIRS} {side}: "
                  f"wall_s {pair[side]['metrics'].get('wall_s')}", file=sys.stderr)
        pairs.append(pair)
    sides = {
        side: {
            "attempted": sum(p[side]["attempted"] for p in pairs),
            "failed": sum(p[side]["failed"] for p in pairs),
            "all_correct": all(p[side]["correct"] for p in pairs),
            "write_s": quartiles([p[side]["write_s"] for p in pairs]),
        }
        for side in ("parent", "change")
    }
    sound = (sides["change"]["all_correct"]
             and sides["change"]["failed"] <= sides["parent"]["failed"])
    compared = {}
    for name, spec in metrics.items():
        values = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs]
        compared[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                          **verdict(values, spec["better"], spec["bound"], sound)}
    return {"workload": workload, "seed": seed, "metrics": compared, "sides": sides,
            "pairs": pairs}


def parse_case(text: str) -> tuple[str, int]:
    workload, _, seed = text.rpartition(":")
    if not workload or not seed.isdigit():
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED, got {text!r}")
    return workload, int(seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--case", type=parse_case, action="append", required=True,
                        help="WORKLOAD:SEED, once per case")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    change = {"head": git("rev-parse", "HEAD")}
    diff = subprocess.run(["git", "diff", "HEAD", "--binary"], cwd=ROOT, capture_output=True,
                          check=True).stdout
    if diff:  # staged and unstaged changes to tracked files on top of head
        change["diff_sha256"] = hashlib.sha256(diff).hexdigest()
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        parent = extract(args.parent, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        cases = [run_case(trees, workload, seed, seconds, metrics) for workload, seed in args.case]

    doc = {
        "command": ["tools/ab_pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "commits": {"parent": parent, "change": change},
        "environment": {
            "platform": platform.platform(),
            "libc": " ".join(platform.libc_ver()),
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "bench": cases[0]["pairs"][0]["change"]["env"],
        },
        "settings": {"pairs": PAIRS, "seconds": seconds, "trace": 0},
        "cases": cases,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for case in cases:
        print(f"{case['workload']} seed {case['seed']}:")
        for name, m in case["metrics"].items():
            print(f"  {name:<14} {m['parent']['median']:>10.4g} -> {m['change']['median']:<10.4g}"
                  f" wins {m['change_wins']}/{PAIRS}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
