"""One benchmark operation in a fresh interpreter.

Usage: ``python3 bench/child.py JOB.json`` with padland importable (the
runner puts ``src`` on PYTHONPATH). The job file names the operation:

- ``campaign``: the calls ``padland run`` makes (load_config,
  build_campaign, run_campaign, write_campaign_outputs), timed per stage.
- ``replay``: ``padland.cli.main(["replay", ...])`` once per detection log.
- ``verify``: optionally run the campaign serially first, then check the
  properties every correct output directory has.

The result is written as JSON to the job's ``result`` path. padland is
imported only after the set-up clock starts, so ``setup_s`` covers
``import padland`` plus load_config and build_campaign.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import resource
import sys
import time
from pathlib import Path


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def _setup(job, tracer):
    t0 = time.perf_counter()
    import padland
    import padland.cli

    if tracer is not None:
        tracer.install(padland)
        build = tracer.wrap("config.build_campaign", padland.config.build_campaign)
    else:
        build = padland.config.build_campaign
    doc = padland.load_config(job["config"])
    spec = build(doc)
    return padland, spec, time.perf_counter() - t0


PROBE_LOOPS = 5000  # 1.5 to 3 ms of CPU per probe on a 2-vCPU VM
BOUNDARY_PROBES = 5  # probes on each side of each stage


def probe() -> float:
    """CPU seconds a fixed piece of pure-Python arithmetic takes now: how
    fast this vCPU runs at this moment. Thread CPU time, so the time a probe
    waits while padland's other processes hold the CPU is not counted, but
    a host that runs the vCPU slowly is. It imports nothing, so set-up
    still pays for every import padland makes."""
    t0 = time.thread_time()
    x, acc = 1, 0.0
    for _ in range(PROBE_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += math.atan2(math.sqrt(x * 1e-9 + 1.0), 1.0)
    return time.thread_time() - t0


def _probes() -> list[float]:
    return [probe() for _ in range(BOUNDARY_PROBES)]


def _probe_tasks(harness) -> None:
    """Probe the CPU just before and just after each campaign task, where
    the task runs (here or in a worker), and carry the two probe times back
    on the TrialRun it returns. functools.wraps keeps the name a worker
    pool pickles the task function by."""
    task = harness._trial_task

    @functools.wraps(task)
    def probed_task(args):
        before = probe()
        out = task(args)
        out[2]._bench_probes = (before, probe())
        return out

    harness._trial_task = probed_task


def op_campaign(job, tracer) -> dict:
    """Without a tracer each stage is bracketed by CPU probes (see probe),
    made outside the set-up and write clocks, and each campaign task too;
    compute_s excludes the task probes, which run on the workers in
    parallel when there are workers."""
    untraced = tracer is None
    probes = {"setup": _probes() if untraced else []}
    inside = []
    padland, spec, setup_s = _setup(job, tracer)
    run_campaign, write = padland.run_campaign, padland.write_campaign_outputs
    if untraced:
        probes["setup"] += _probes()
        _probe_tasks(padland.harness)
        probes["compute"] = _probes()
    else:
        run_campaign = tracer.wrap("harness.run_campaign", run_campaign)
        write = tracer.wrap("reporting.write_campaign_outputs", write)

    t0 = time.perf_counter()
    campaign = run_campaign(
        scenario=spec.scenario,
        config=spec.trials,
        modes=list(spec.modes),
        n_workers=job["workers"],
    )
    compute_s = time.perf_counter() - t0
    runs = [run for mode in spec.modes for run in campaign.runs[mode]]
    if untraced:
        inside += [p for run in runs for p in run.__dict__.pop("_bench_probes")]
        compute_s -= sum(inside) / job["workers"]
        probes["compute"] += inside + _probes()
        probes["write"] = _probes()
    else:
        tracer.harvest(campaign)

    write_times = []
    for out in job["outs"]:
        t0 = time.perf_counter()
        write(campaign, out)
        write_times.append(time.perf_counter() - t0)
    if untraced:
        probes["write"] += _probes()
    frames = sum(run.result.steps for run in runs)
    # wall time the probes added to this process; task probes ran spread over the workers
    probe_s = sum(map(sum, probes.values())) - sum(inside) + sum(inside) / job["workers"]
    return {"setup_s": setup_s, "compute_s": compute_s, "write_times": write_times,
            "frames": frames, "probes": probes, "probe_s": probe_s}


def op_replay(job, tracer) -> dict:
    padland, _, setup_s = _setup(job, tracer)
    main = padland.cli.main
    if tracer is not None:
        main = tracer.wrap("cli.replay", main)

    per_log, codes = [], []
    sink = io.StringIO()
    for i, log in enumerate(job["logs"]):
        argv = ["replay", "--log", log, "--config", job["config"], "--out", f"{job['out']}/{i:03d}"]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            codes.append(main(argv))
        per_log.append(time.perf_counter() - t0)
    return {"setup_s": setup_s, "compute_s": sum(per_log), "per_log_s": per_log, "codes": codes}


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1  # minus the header


def op_verify(job, tracer) -> dict:
    """Check an output directory against properties any correct padland has."""
    if job.get("run_first"):
        op_campaign({**job, "workers": 1, "outs": [job["out"]]}, None)
    import padland
    from padland.reporting import rebuild_results

    out = Path(job["out"])
    doc = padland.load_config(job["config"])
    problems = []
    summary = json.loads((out / "summary.json").read_text())
    table = padland.format_comparison_table(padland.compare_modes(rebuild_results(summary)))
    if table + "\n" != (out / "comparison.txt").read_text():
        problems.append("comparison.txt does not rebuild from summary.json")
    if summary["seed"] != doc["trials"]["seed"] or summary["n_trials"] != doc["trials"]["n_trials"]:
        problems.append("summary seed or n_trials differs from the config")
    if sorted(summary["modes"]) != sorted(doc["trials"]["modes"]):
        problems.append(f"summary modes {sorted(summary['modes'])} differ from the config")

    frames = 0
    starts = None
    for mode, block in summary["modes"].items():
        trials = block["trials"]
        if starts is None:
            starts = [t["initial_position"] for t in trials]
        elif starts != [t["initial_position"] for t in trials]:
            problems.append(f"{mode}: initial states are not paired with the first mode")
        for t in trials:
            tag = f"{mode} trial {t['trial_id']}"
            steps = t["steps"]
            frames += steps
            traj = out / t["trajectory_log_path"]
            if _count_lines(traj) != steps:
                problems.append(f"{tag}: trajectory rows != steps")
            if _count_lines(out / "detections" / traj.name) != 2 * steps:
                problems.append(f"{tag}: detection records != 2 * steps")
            if t["success"] != (t["termination_reason"] == "landed"):
                problems.append(f"{tag}: success disagrees with termination_reason")
            if sum(t["expert_usage"].values()) > steps:
                problems.append(f"{tag}: expert usage exceeds steps")
            if not (math.isfinite(t["touchdown_error"]) and t["touchdown_error"] >= 0):
                problems.append(f"{tag}: touchdown_error not a finite non-negative number")
    return {"problems": problems, "frames": frames}


OPS = {"campaign": op_campaign, "replay": op_replay, "verify": op_verify}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer()
    result = OPS[job["op"]](job, tracer)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = _versions()
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(Path(job["spans"]))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
