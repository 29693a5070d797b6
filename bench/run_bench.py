#!/usr/bin/env python3
"""padland benchmark runner.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it uses the checkout's ``src`` and
``configs/default.json`` and writes only under ``.bench_out/``. The
workload seed becomes ``trials.seed`` of a config document generated from
``configs/default.json``; padland receives only that document.

Workloads (closed loop, one client: each operation starts after the
previous one ends; at most two padland processes compute at once):

- ``campaign_default``: the default config (10 trials x 3 modes), serial,
  writing every output, i.e. what ``padland run`` does.
- ``campaign_parallel``: 30 trials x 3 modes with ``n_workers=2``, where
  task and result pickling between processes matters.

Each operation runs in a fresh child process (``bench/child.py``). The
runner keeps starting children until ``--seconds`` have passed and at
least three have run, and reports medians over them. End-to-end times are
scaled to a fixed CPU speed measured by a probe inside each child (see
``Run.end_to_end``); the measured seconds are kept too. With ``--trace 1``
the first child runs untraced and the rest record spans around padland's
layer entry points (``bench/spans.py``); the per-layer metrics come from
those, and the tracing overhead is their compute time minus the untraced
child's. A traced run also replays every detection log of its first
campaign through ``padland.cli.main(["replay", ...])``, one call per log,
for the log-reading and replay figures.

Correctness gate (no golden digest; any correct padland passes): all
children of a run write byte-identical outputs; ``campaign_parallel``
matches a serial run of the same config byte for byte; ``summary.json``
rebuilds into the same ``comparison.txt``; trajectory and detection-log
row counts match the reported steps; each replayed log reproduces the
campaign's ``selected``/``u_hat``/``v_hat`` columns. Every output's
SHA-256 is kept in ``.bench_out/<workload>/run.json``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). An operation is one campaign; a
wrong output counts as a failed operation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    "campaign_default": {"trials": None, "workers": 1},
    "campaign_parallel": {"trials": 30, "workers": 2},
}
MIN_TIMED = 3  # children per run, so every timing is a median of >= 3
TAIL_TRIALS = 100  # traced trials needed for a p90 with >= 10 trials beyond it
CHILD_TIMEOUT_S = 150
IMPORTTIME_REPEATS = 3
REF_PROBE_S = 1.5e-3  # probe CPU time that end-to-end times are scaled to (see Run.end_to_end)

E2E_UNITS = {
    "setup_s": "s",
    "compute_s": "s",
    "wall_s": "s",
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "geometry.us_per_frame": "us",
    "experts.us_per_frame": "us",
    "gating.us_per_frame": "us",
    "servo.us_per_frame": "us",
    "dynamics.us_per_frame": "us",
    "harness.self_us_per_frame": "us",
    "harness.frames": "count",
    "experts.detect_calls": "count",
    "experts.present_ratio": "ratio",
    "gating.switches": "count",
    "gating.coast_frames": "count",
    "harness.ipc_bytes_per_task": "B",
    "harness.trial_ms_p50": "ms",
    "harness.trial_ms_p90": "ms",
    "reporting.write_s": "s",
    "reporting.bytes_written": "B",
    "experts.log_bytes": "B",
    "experts.log_read_s": "s",
    "cli.replay_s_per_log": "s",
    "stats.compare_s": "s",
    "stats.import_s": "s",
    "import.padland_s": "s",
    "config.build_s": "s",
    "trace.overhead_s": "s",
}


# per-layer metric -> span names (bench/spans.py) whose self time it sums
LAYER_SPANS = {
    "geometry.us_per_frame": ("geometry.project_helipad", "geometry.apparent_width"),
    "experts.us_per_frame": ("experts.detect",),
    "gating.us_per_frame": ("gating.select_expert",),
    "servo.us_per_frame": ("servo.compute_errors", "servo.compute_command"),
    "dynamics.us_per_frame": ("dynamics.step",),
    "harness.self_us_per_frame": ("harness.run_trial",),
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no padland sources)."""


# -- child processes ------------------------------------------------------


def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                kids = Path(f"/proc/{current}/task/{tid}/children").read_text().split()
            except OSError:
                continue
            for kid in map(int, kids):
                found.append(kid)
                todo.append(kid)
    return found


def _hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class WorkerMemory:
    """Polls the peak RSS (VmHWM) of a child's descendants, i.e. its workers.

    The child reports its own peak exactly; a worker's last growth before
    it exits can fall between two polls.
    """

    def __init__(self, pid: int, interval_s: float = 0.02):
        self.pid, self.interval_s = pid, interval_s
        self.peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self):
        while not self._stop.wait(self.interval_s):
            for pid in _descendants(self.pid):
                self.peaks[pid] = max(self.peaks.get(pid, 0), _hwm_kb(pid))

    def stop(self) -> int:
        self._stop.set()
        self._thread.join()
        return sum(self.peaks.values())


def _child_env() -> dict:
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(job: dict, work: Path, tag: str) -> dict | None:
    """Run one child operation; returns its result plus wall time and worker
    memory, or None if it failed (the reason goes to stderr)."""
    job = dict(job, result=str(work / f"{tag}.result.json"))
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    with open(work / f"{tag}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(job_path)],
            cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=err, stderr=err, start_new_session=True,
        )
        memory = WorkerMemory(proc.pid)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            wall_s = time.perf_counter() - t0
            worker_kb = memory.stop()
            _kill_group(proc)  # stray workers, or the whole group on timeout
            proc.wait()
    result_path = Path(job["result"])
    if code != 0 or not result_path.exists():
        tail = (work / f"{tag}.stderr").read_text(errors="replace")[-2000:]
        print(f"child {tag} ({job['op']}) failed with exit {code}:\n{tail}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["wall_s"] = wall_s
    result["peak_rss_mb"] = (result["maxrss_kb"] + worker_kb) / 1024
    return result


# -- outputs ----------------------------------------------------------------


def tree_digest(root: Path) -> dict:
    """SHA-256 of every file under root, plus one digest over all of them."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        files[path.relative_to(root).as_posix()] = (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            path.stat().st_size,
        )
    overall = hashlib.sha256()
    for rel, (digest, _) in files.items():
        overall.update(f"{rel}\0{digest}\n".encode())
    return {
        "sha256": overall.hexdigest(),
        "summary_sha256": files.get("summary.json", ("", 0))[0],
        "bytes": sum(size for _, size in files.values()),
        "log_bytes": sum(size for rel, (_, size) in files.items() if rel.startswith("detections/")),
    }


def _data_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1  # minus the header


def _columns(path: Path, names: tuple[str, ...]) -> list[tuple[str, ...]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    index = [rows[0].index(name) for name in names]
    return [tuple(row[i] for i in index) for row in rows[1:]]


def replay_matches_campaign(replay_csv: Path, trajectory_csv: Path) -> bool:
    cols = ("selected", "u_hat", "v_hat")
    return _columns(replay_csv, cols) == _columns(trajectory_csv, cols)


# -- environment ------------------------------------------------------------


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(child_versions: dict) -> dict:
    """nproc, the git commit, and the versions the child processes imported."""
    return {"nproc": len(os.sched_getaffinity(0)), "commit": git_commit(), **child_versions}


def import_times() -> dict:
    """Cumulative import time of padland and padland.stats, from
    ``python -X importtime`` in fresh processes (median of a few)."""
    samples = {"padland": [], "padland.stats": []}
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import padland"],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"import padland failed:\n{done.stderr[-2000:]}")
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {name: statistics.median(values) for name, values in samples.items()}


# -- the run ----------------------------------------------------------------


def make_config(workload: str, seed: int, trials: int | None) -> dict:
    doc = json.loads((ROOT / "configs" / "default.json").read_text())
    doc["trials"]["seed"] = seed
    n = trials or WORKLOADS[workload]["trials"]
    if n:
        doc["trials"]["n_trials"] = n
    return doc


def median(values):
    return statistics.median(values) if values else 0.0


def _scale(probe_times: list[float]) -> float:
    """Factor from seconds measured at the probed CPU speed to seconds at
    the reference speed."""
    return REF_PROBE_S / statistics.fmean(probe_times)


class Run:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.work = OUT / args.workload
        self.problems: list[str] = []  # failures that hit every operation
        self.children: list[dict] = []  # one per timed child, with "ok" and "traced"
        self.record: dict = {}
        self.verified_frames = None  # frames counted by the verify child
        self.replay = None  # the traced replay child's result (--trace 1)

    def job(self, **fields) -> dict:
        return {"config": str(self.config_path), "workers": self.spec["workers"], **fields}

    def prepare(self):
        for needed in (ROOT / "src" / "padland" / "__init__.py", ROOT / "configs" / "default.json"):
            if not needed.is_file():
                raise BenchError(f"{needed.relative_to(ROOT)} not found: run from a padland checkout")
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.doc = make_config(self.args.workload, self.args.seed, self.args.trials)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.doc, indent=2) + "\n")
        # compile padland's bytecode once, so no timed import pays for it
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "padland")],
                       check=True, stdout=subprocess.DEVNULL)

    def verify(self, out: Path, run_first: bool = False) -> None:
        """Check an output tree in a child process; with run_first the child
        first runs the campaign serially and writes it to out."""
        job = self.job(op="verify", out=str(out), run_first=run_first)
        checked = run_child(job, self.work, f"verify_{out.name}")
        if checked is None:
            self.problems.append(f"verifying {out.name} crashed")
            return
        self.problems.extend(checked["problems"])
        self.verified_frames = checked["frames"]

    # -- timed loop ---------------------------------------------------------

    def min_traced(self) -> int:
        tasks = self.doc["trials"]["n_trials"] * len(self.doc["trials"]["modes"])
        return max(1, min(4, math.ceil(TAIL_TRIALS / tasks)))

    def loop(self):
        trace = bool(self.args.trace)
        start = time.perf_counter()
        i = 0
        while True:
            traced_done = sum(c["traced"] for c in self.children)
            enough = traced_done >= self.min_traced() if trace else i >= MIN_TIMED
            if enough and time.perf_counter() - start >= self.args.seconds:
                break
            traced = trace and i > 0
            out = self.work / f"child{i}"
            job = self.job(op="campaign", outs=[str(out)], trace=traced)
            if traced:
                job["spans"] = str(self.work / "spans" / f"child{i}.bin")
            result = run_child(job, self.work, f"child{i}")
            child = {"ok": result is not None, "traced": traced, "result": result}
            if result is not None:
                child["digest"] = tree_digest(out)
                child["frames"] = result["frames"]
                if i > 0:  # child0's outputs stay for the checks and the replay
                    shutil.rmtree(out, ignore_errors=True)
            self.children.append(child)
            i += 1

    def check_replay(self, campaign_out: Path) -> None:
        """--trace 1: replay every detection log of campaign_out through
        ``padland replay`` in one traced child; each replay must reproduce the
        campaign's selected/u_hat/v_hat columns."""
        logs = sorted((campaign_out / "detections").glob("*.csv"))
        out = self.work / "replay"
        job = self.job(op="replay", out=str(out), logs=[str(p) for p in logs], trace=True,
                       spans=str(self.work / "spans" / "replay.bin"))
        result = run_child(job, self.work, "replay")
        if result is None or any(result["codes"]):
            self.problems.append("replaying the campaign's detection logs failed")
            return
        for k, log in enumerate(logs):
            replayed = out / f"{k:03d}" / "replay.csv"
            if not replay_matches_campaign(replayed, campaign_out / "trajectories" / log.name):
                self.problems.append(f"replay of {log.name} differs from the campaign")
        self.replay = result

    # -- correctness gate ---------------------------------------------------

    def gate(self) -> tuple[int, int]:
        """Apply the correctness checks; returns (attempted, failed)."""
        ok = [c for c in self.children if c["ok"]]
        attempted = len(self.children)
        failed = attempted - len(ok)
        if not ok:
            self.problems.append("every child failed")
            return attempted, attempted
        reference = ok[0]["digest"]
        for c in ok:
            if c["digest"]["sha256"] != reference["sha256"]:
                c["ok"] = False
                failed += 1
        first = self.work / f"child{self.children.index(ok[0])}"
        if self.spec["workers"] > 1:
            serial = self.work / "serial"
            self.verify(serial, run_first=True)
            if tree_digest(serial)["sha256"] != reference["sha256"]:
                self.problems.append("the parallel campaign differs from a serial run")
            shutil.rmtree(serial, ignore_errors=True)
        else:
            self.verify(first)
        if self.verified_frames not in (None, ok[0]["frames"]):
            self.problems.append("reported frames differ from the written trajectories")
        if self.args.trace:
            self.check_replay(first)
        self.record["outputs"] = reference
        traced = [c for c in ok if c["traced"]]
        counts = {json.dumps(self.layer_counts(c), sort_keys=True) for c in traced}
        if len(counts) > 1:
            self.problems.append("deterministic per-layer counts differ between traced children")
        if self.problems:
            failed = attempted
        return attempted, failed

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, untraced: list[dict]) -> dict:
        """End-to-end metrics: medians over the untraced children.

        Each vCPU of a shared host flips between a fast and a ~2x slower
        state, every second or so and at times for minutes, which no number
        of repeats averages out. So every time is scaled to one CPU speed:
        the child times a fixed pure-Python probe in thread CPU time on each
        side of every stage and of every campaign task, in the process that
        runs it (``bench/child.py``), and a stage's seconds are multiplied
        by REF_PROBE_S over the mean probe time of that stage. Probes leave
        out time spent waiting for the CPU, so contention among padland's
        own processes stays in the figures. The measured seconds stay in
        ``run.json``.
        """
        rows = []
        for c in untraced:
            r, probes = c["result"], c["result"]["probes"]
            stages = {"setup": r["setup_s"], "compute": r["compute_s"], "write": sum(r["write_times"])}
            scaled = {stage: seconds * _scale(probes[stage]) for stage, seconds in stages.items()}
            # interpreter start and exit, and the result file: scaled by every probe
            rest = r["wall_s"] - sum(stages.values()) - r["probe_s"]
            rows.append({
                "setup_s": scaled["setup"],
                "compute_s": scaled["compute"],
                "write_s": scaled["write"],
                "wall_s": sum(scaled.values()) + rest * _scale([p for ps in probes.values() for p in ps]),
                "frames_per_s": c["frames"] / scaled["compute"],
                "peak_rss_mb": r["peak_rss_mb"],
            })
        self.record["measured"] = {
            name: median([c["result"][name] for c in untraced]) for name in ("setup_s", "compute_s", "wall_s")}
        return {name: median([row[name] for row in rows]) for name in rows[0]}

    def layer_counts(self, child: dict) -> dict:
        counts = child["result"]["trace"]["counts"]
        calls = counts["detect_calls"]
        return {
            "harness.frames": child["frames"],
            "experts.detect_calls": calls,
            "experts.present_ratio": counts["detect_present"] / calls if calls else 0.0,
            "gating.switches": counts["gate_switches"],
            "gating.coast_frames": counts["gate_coast"],
        }

    def per_layer(self, untraced: list[dict], traced: list[dict]) -> dict:
        def med(fn):
            return median([fn(c) for c in traced])

        def self_s(c, name):
            return c["result"]["trace"]["self_ns"].get(name, 0.0) / 1e9

        def total_s(c, name):
            return c["result"]["trace"]["total_ns"].get(name, 0.0) / 1e9

        metrics = {}
        for key, names in LAYER_SPANS.items():
            metrics[key] = med(lambda c: sum(self_s(c, n) for n in names) * 1e6 / c["frames"])
        metrics.update(self.layer_counts(traced[0]))
        trials_ms = [ns / 1e6 for c in traced for ns in c["result"]["trace"]["trial_ns"]]
        tail = statistics.quantiles(trials_ms, n=10)[-1] if len(trials_ms) >= 2 else 0.0
        ipc = [b for c in traced for b in c["result"]["trace"]["ipc_bytes"]]
        replay = {"result": self.replay} if self.replay else None
        imports = import_times()
        metrics.update({
            "harness.ipc_bytes_per_task": sum(ipc) / len(ipc) if ipc else 0.0,
            "harness.trial_ms_p50": median(trials_ms),
            "harness.trial_ms_p90": tail,
            "reporting.write_s": med(lambda c: self_s(c, "reporting.write_campaign_outputs")),
            "reporting.bytes_written": self.record["outputs"]["bytes"],
            "experts.log_bytes": self.record["outputs"]["log_bytes"],
            "experts.log_read_s": total_s(replay, "experts.read_detection_log") if replay else 0.0,
            "cli.replay_s_per_log": median(self.replay["per_log_s"]) if replay else 0.0,
            "stats.compare_s": med(lambda c: total_s(c, "stats.compare_modes")),
            "stats.import_s": imports["padland.stats"],
            "import.padland_s": imports["padland"],
            "config.build_s": med(lambda c: total_s(c, "config.build_campaign")),
            "trace.overhead_s": med(lambda c: c["result"]["compute_s"]) - untraced[0]["result"]["compute_s"],
        })
        self.record["trial_samples"] = len(trials_ms)
        self.record["traced_children"] = len(traced)
        return metrics

    def execute(self) -> dict | None:
        self.prepare()
        self.loop()
        attempted, failed = self.gate()
        ok = [c for c in self.children if c["ok"]]
        untraced = [c for c in ok if not c["traced"]]
        traced = [c for c in ok if c["traced"]]
        if not untraced or (self.args.trace and not traced):
            return None
        env = environment(ok[0]["result"]["versions"])
        e2e = self.end_to_end(untraced)
        if self.args.trace:
            metrics, units = self.per_layer(untraced, traced), LAYER_UNITS
        else:
            metrics, units = e2e, E2E_UNITS
        self.record.update({
            "workload": self.args.workload, "seed": self.args.seed, "seconds": self.args.seconds,
            "trace": self.args.trace, "env": env, "attempted": attempted, "failed": failed,
            "problems": self.problems, "end_to_end": e2e, "metrics": metrics,
            "children": [{k: v for k, v in c.items() if k != "result"} | {
                "timings": {k: v for k, v in (c["result"] or {}).items() if k != "trace"}}
                for c in self.children],
        })
        (self.work / "run.json").write_text(json.dumps(self.record, indent=1) + "\n")
        return {
            "correct": failed == 0 and not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }


def report(run: Run, result: dict) -> None:
    rec = run.record
    env = rec["env"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"children {len(run.children)}  nproc {env['nproc']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  commit {env['commit']}")
    print(f"outputs sha256 {rec['outputs']['sha256']}  summary.json sha256 {rec['outputs']['summary_sha256']}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    units = dict(E2E_UNITS, **LAYER_UNITS, write_s="s")  # write_s: text report only
    shown = dict(rec["end_to_end"]) if rec["trace"] else {}
    shown.update(rec["metrics"])
    for name, value in shown.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    measured = "  ".join(f"{name} {value:.6g}" for name, value in rec["measured"].items())
    print(f"  (measured, unscaled medians: {measured})")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<28} {ratio:>16.6g} ratio  ({result['failed']}/{result['attempted']} operations)")
    if rec["trace"]:
        print(f"  harness.ipc_bytes_per_task is computed (pickled sizes); "
              f"trial percentiles over {rec['trial_samples']} trials "
              f"from {rec['traced_children']} traced children")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed, used as trials.seed")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None, help="override n_trials (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    run = Run(args)
    try:
        result = run.execute()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result is None:
        print("error: no operation succeeded; see the messages above", file=sys.stderr)
        return 1
    report(run, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
