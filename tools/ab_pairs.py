#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent commit and the working tree.

    python3 tools/ab_pairs.py --parent REV --case campaign_default:42 \\
        [--case WORKLOAD:SEED ...] [--case run:SEED:TRIALS:WORKERS ...] \\
        --out BENCH_name.json

REV is extracted with ``git archive`` into a temporary directory, so
nothing is written under ``.git``. Each case runs once in each tree per
pair, ten pairs: the parent first in odd pairs (the first, third, ...) and
the working tree first in even ones. Each tree runs its own sources.

- ``WORKLOAD:SEED``: ``bench/run_bench.py --workload WORKLOAD --seed SEED
  --seconds RUN_SECONDS --trace 0``, with ``run_seconds`` read from
  ``BENCHMARK.json``, writing only under the tree's own ``.bench_out/``.
- ``run:SEED:TRIALS:WORKERS``: ``python -m padland run`` itself, on the
  tree's ``configs/default.json`` with ``--seed SEED --trials TRIALS
  --workers WORKERS``, writing into a temporary directory. A run records
  its wall time and its peak RSS as ``bench/run_bench.py`` takes it: the
  main process's own ``ru_maxrss`` (``RUSAGE_SELF``, which it reports as
  it exits, as ``bench/child.py`` does) plus each descendant's ``VmHWM``,
  polled by run_bench's ``WorkerMemory``; and the SHA-256 over every
  output file, which must match between the trees (``same_output``). As
  in run_bench, the run has its own process group, killed after it
  exits, or at run_bench's ``CHILD_TIMEOUT_S``. The wall time is not
  scaled to the CPU's speed, as the benchmark's times are.

The output holds the two commits (the working tree as its HEAD and, if
it differs, the SHA-256 of ``git diff HEAD --binary``, so stage new
files first), the environment, every pair's end-to-end metrics (a
``run`` case's are ``wall_s`` and ``peak_rss_mb``) with ``correct`` and
``failed`` (a ``run`` case's digest), each side's median
and quartiles (``spread`` of ``bench/record.py``), the pairs each side won
(ties count for neither) and a verdict per metric, with ``better`` and
``bound`` read from ``BENCHMARK.json``:

- ``gain``: the working tree won at least nine of the ten pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
- ``void``: that would be a gain, but the working tree failed more
  operations than the parent or a run of it was not correct (for a
  ``run`` case: the two trees wrote different outputs);
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
import shutil
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # per case; fewer never make a gain
GAIN_SHARE = 0.9  # of the pairs, that the change must win to claim a gain
RUN_METRICS = ("wall_s", "peak_rss_mb")  # of a ``run`` case


def _load(name: str, file: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / file)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


quartiles = _load("bench_record", "record.py").spread  # median, q1 and q3 as the benchmark takes them
_run_bench = _load("bench_run_bench", "run_bench.py")  # its memory poll, process kill and digest


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


# `python -m padland`, as -m runs it, then the process's own peak RSS in
# kB written to the file named by the first argument
_PADLAND = """import resource, runpy, sys
peak = sys.argv.pop(1)
try:
    runpy.run_module("padland", run_name="__main__", alter_sys=True)
finally:
    with open(peak, "w") as f:
        f.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
"""


def padland_run(tree: Path, seed: int, trials: int, workers: int, out: Path) -> dict:
    """One ``python -m padland run`` of tree's sources and default config
    into out, which it removes after: the wall time, the peak RSS (see the
    module docstring) and the SHA-256 over every output file."""
    peak = out.with_name(f"{out.name}.peak_kb")
    cmd = [sys.executable, "-c", _PADLAND, str(peak), "run", "--config",
           str(tree / "configs" / "default.json"), "--out", str(out), "--seed", str(seed),
           "--trials", str(trials), "--workers", str(workers)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=tree, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        memory = _run_bench.WorkerMemory(proc.pid)
        try:
            code = proc.wait(timeout=_run_bench.CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            wall_s = time.perf_counter() - t0
            worker_kb = memory.stop()
            _run_bench._kill_group(proc)  # stray workers, or the whole group on timeout
            proc.wait()
        if code != 0:
            err.seek(0)
            sys.exit(f"{tree}: padland {' '.join(cmd[4:])} failed (exit {code}):\n"
                     f"{err.read()[-3000:].decode(errors='replace')}")
    own_kb = int(peak.read_text())
    peak.unlink()
    digest = _run_bench.tree_digest(out)["sha256"]
    shutil.rmtree(out)
    return {"metrics": {"wall_s": wall_s, "peak_rss_mb": (own_kb + worker_kb) / 1024},
            "sha256": digest}


def run_pairs(trees: dict[str, Path], name: str, measure) -> list[dict]:
    """PAIRS pairs of measure(tree), the parent first in odd pairs."""
    pairs = []
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = measure(trees[side])
            print(f"{name} pair {i + 1}/{PAIRS} {side}: "
                  f"wall_s {pair[side]['metrics'].get('wall_s')}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def compare(pairs: list[dict], metrics: dict, sound: bool) -> dict:
    """The verdict of each of metrics, by name, over pairs."""
    compared = {}
    for name, spec in metrics.items():
        values = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs]
        compared[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                          **verdict(values, spec["better"], spec["bound"], sound)}
    return compared


def run_case(trees: dict[str, Path], workload: str, seed: int, seconds: float,
             metrics: dict) -> dict:
    pairs = run_pairs(trees, f"{workload} seed {seed}",
                      lambda tree: bench(tree, workload, seed, seconds))
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
    return {"workload": workload, "seed": seed, "metrics": compare(pairs, metrics, sound),
            "sides": sides, "pairs": pairs}


def run_command_case(trees: dict[str, Path], seed: int, trials: int, workers: int,
                     metrics: dict) -> dict:
    with tempfile.TemporaryDirectory(prefix="ab_run_") as tmp:
        pairs = run_pairs(trees, f"run:{seed}:{trials}:{workers}",
                          lambda tree: padland_run(tree, seed, trials, workers, Path(tmp) / "out"))
    return summarize_runs(pairs, seed, trials, workers, metrics)


def summarize_runs(pairs: list[dict], seed: int, trials: int, workers: int,
                   metrics: dict) -> dict:
    """A ``run`` case from its pairs: a gain is void unless every pair's
    two trees wrote the same outputs."""
    same = all(p["parent"]["sha256"] == p["change"]["sha256"] for p in pairs)
    compared = compare(pairs, {name: metrics[name] for name in RUN_METRICS}, same)
    return {"workload": "run", "seed": seed, "trials": trials, "workers": workers,
            "same_output": same, "metrics": compared, "pairs": pairs}


def parse_case(text: str) -> tuple:
    """("run", SEED, TRIALS, WORKERS) from run:SEED:TRIALS:WORKERS, else
    (WORKLOAD, SEED) from WORKLOAD:SEED."""
    if text.startswith("run:"):
        fields = text.split(":")[1:]
        if len(fields) != 3 or not all(f.isdigit() for f in fields) or min(map(int, fields[1:])) < 1:
            raise argparse.ArgumentTypeError(
                f"expected run:SEED:TRIALS:WORKERS, TRIALS and WORKERS >= 1, got {text!r}")
        return ("run", *map(int, fields))
    workload, _, seed = text.rpartition(":")
    if not workload or not seed.isdigit():
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED, got {text!r}")
    return workload, int(seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--case", type=parse_case, action="append", required=True,
                        help="WORKLOAD:SEED or run:SEED:TRIALS:WORKERS, once per case")
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
        cases = [
            run_command_case(trees, *case[1:], metrics) if case[0] == "run"
            else run_case(trees, *case, seconds, metrics)
            for case in args.case
        ]

    doc = {
        "command": ["tools/ab_pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "commits": {"parent": parent, "change": change},
        "environment": {
            "platform": platform.platform(),
            "libc": " ".join(platform.libc_ver()),
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "bench": next((c["pairs"][0]["change"]["env"] for c in cases if c["workload"] != "run"),
                          None),
        },
        "settings": {"pairs": PAIRS, "seconds": seconds, "trace": 0},
        "cases": cases,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for case in cases:
        if case["workload"] == "run":
            print(f"run:{case['seed']}:{case['trials']}:{case['workers']}, "
                  f"same output: {case['same_output']}:")
        else:
            print(f"{case['workload']} seed {case['seed']}:")
        for name, m in case["metrics"].items():
            print(f"  {name:<14} {m['parent']['median']:>10.4g} -> {m['change']['median']:<10.4g}"
                  f" wins {m['change_wins']}/{PAIRS}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
