#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/record.py --seeds 1-10 [--trace 0|1] [--label NAME]

For each seed (outer loop) and every workload of ``BENCHMARK.json``
(inner loop) this runs ``bench/run_bench.py`` once for ``run_seconds``,
then prints for every metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, i.e. the distance
between the quartiles as a share of the median, next to the metric's
bound. A bounded metric is steady when its spread is below a third of
its bound; ``setup_s`` is the exception, because the benchmark contract
bounds only the drift of its median, so its spread is printed but not
judged. When ``bench/results.json`` already holds a set from the same
commit and trace setting, each median is also compared with that set's:
a second set agrees when no median is worse than the first by more than
the bound, and, in a traced set over the same seeds, when every work
count equals the first set's. The exit code is 1 when a judged figure
fails. Each run's ``run.json`` is kept as
``.bench_out/record/<workload>.trace<t>.seed<n>.json``. With ``--label``
the summary is appended to ``bench/results.json``, the benchmark's
trajectory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results.json"
# per-layer counts a speed-only change must leave identical, seed for seed
WORK_COUNTS = ("harness.frames", "experts.detect_calls", "experts.present_ratio",
               "gating.switches", "gating.coast_frames")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run_bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout[-3000:], done.stderr[-3000:], file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    run_json = ROOT / ".bench_out" / workload / "run.json"
    record = json.loads(run_json.read_text())
    kept = ROOT / ".bench_out" / "record" / f"{workload}.trace{trace}.seed{seed}.json"
    kept.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(run_json, kept)
    return {"result": result, "record": record, "elapsed_s": elapsed}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default=None, help="append the summary to bench/results.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    history = json.loads(RESULTS.read_text()) if RESULTS.exists() else []

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            run = run_once(w, seed, seconds, args.trace)
            runs[w].append(run)
            r = run["result"]
            print(f"{w} seed {seed}: correct {r['correct']} failed {r['failed']}/{r['attempted']} "
                  f"elapsed {run['elapsed_s']:.1f}s", flush=True)

    commit = runs[workloads[0]][0]["record"]["env"]["commit"]
    earlier = [h for h in history if h["env"]["commit"] == commit and h["trace"] == args.trace]
    first = earlier[0]["workloads"] if earlier else {}
    if earlier:
        print(f"\ncomparing medians with '{earlier[0]['label']}', the first set of commit {commit}")

    summary = {}
    steady = True
    for w, items in runs.items():
        names = list(items[0]["result"]["metrics"])
        block = {}
        print(f"\n{w}: {len(items)} runs")
        for name in names:
            values = [it["result"]["metrics"][name]["value"] for it in items]
            stats = spread(values)
            stats.update(unit=items[0]["result"]["metrics"][name]["unit"], values=values)
            block[name] = stats
            bound = bounds.get(name)
            flag = ""
            before = first.get(w, {}).get("metrics", {}).get(name)
            if name in WORK_COUNTS and before and first[w]["seeds"] == seeds:
                same = values == before["values"]
                steady &= same
                flag = "same as first set" if same else "DIFFERS FROM FIRST SET"
            if bound:
                flag = f"bound {bound:<5}"
                if name != "setup_s":  # the contract bounds setup_s's median drift only
                    ok = stats["spread"] < bound / 3
                    steady &= ok
                    flag += " ok" if ok else " SPREAD >= bound/3"
                if before:
                    change = stats["median"] / before["median"] - 1
                    worse = change if better[name] == "lower" else -change
                    ok = worse <= bound
                    steady &= ok
                    flag += f"  vs first set {change:+.3f} {'agrees' if ok else 'WORSE THAN BOUND'}"
            print(f"  {name:<28} median {stats['median']:>12.6g} {stats['unit']:<5} "
                  f"q1 {stats['q1']:>12.6g} q3 {stats['q3']:>12.6g} spread {stats['spread']:7.3f}  {flag}")
        summary[w] = {
            "seeds": seeds,
            "correct": all(it["result"]["correct"] for it in items),
            "attempted": sum(it["result"]["attempted"] for it in items),
            "failed": sum(it["result"]["failed"] for it in items),
            "elapsed_s": [round(it["elapsed_s"], 1) for it in items],
            "outputs_sha256": [it["record"]["outputs"]["sha256"] for it in items],
            "metrics": block,
        }
        print(f"  run time per seed: median {statistics.median(summary[w]['elapsed_s']):.1f}s, "
              f"max {max(summary[w]['elapsed_s']):.1f}s")

    if args.label:
        history.append({
            "label": args.label,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "env": runs[workloads[0]][0]["record"]["env"],
            "trace": args.trace,
            "seconds": seconds,
            "workloads": summary,
        })
        RESULTS.write_text(json.dumps(history, indent=1) + "\n")
        print(f"appended '{args.label}' to {RESULTS.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
