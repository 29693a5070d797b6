"""In-memory span recorder for the traced benchmark run.

The recorder wraps padland's layer entry points where the calling module
looks them up (``padland.harness``, ``padland.cli``, ``padland.reporting``),
so padland itself is unchanged. Each call records one span: a name code,
start and end in ``perf_counter_ns``, the parent span id and a trial code.
Spans live in one flat ``array('q')`` (five int64 per span) so a traced
40-trial campaign costs ~40 MB instead of a list of tuples.

Trial tasks may run in forked worker processes. The wrapper around
``padland.harness._trial_task`` therefore moves the spans and counters a
task recorded onto the ``TrialRun`` it returns, which carries them back
through the result pickle; :meth:`Tracer.harvest` merges them into the
parent's record. ``perf_counter_ns`` is CLOCK_MONOTONIC on Linux, so
timestamps from workers and the parent share one time base.

Every wrapper call costs a little time inside its own span and a little
around it, which lands in the parent's self time. :func:`span_overhead_ns`
measures both once per process on an empty wrapped call, and
:meth:`Tracer.summary` subtracts them, so a layer's self time does not
grow with the number of wrapped calls it makes. Work counters run inside
the span of the call they count.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np

STRIDE = 5  # name code, start ns, end ns, parent span id, trial code
COUNTERS = ("detect_calls", "detect_present", "gate_switches", "gate_coast")


class Tracer:
    def __init__(self):
        self.buf = array("q")
        self.names: list[str] = []
        self.stack = [-1]
        self.trial = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.ipc_bytes: list[int] = []

    def code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        """Return fn recording one span per call."""
        code = self.code(name)
        buf, stack, clock = self.buf, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(buf) // STRIDE
            buf.extend((code, clock(), 0, stack[-1], self.trial))
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                buf[sid * STRIDE + 2] = clock()

        return wrapper

    # -- padland-specific wrappers -------------------------------------

    def install(self, padland) -> None:
        """Wrap the layer entry points as bound in padland's modules."""
        harness, cli, reporting = padland.harness, padland.cli, padland.reporting
        for mod, attr, name in (
            (harness, "project_helipad", "geometry.project_helipad"),
            (harness, "apparent_width", "geometry.apparent_width"),
            (harness, "compute_errors", "servo.compute_errors"),
            (harness, "compute_command", "servo.compute_command"),
            (harness, "step", "dynamics.step"),
            (cli, "compute_errors", "servo.compute_errors"),
            (cli, "read_detection_log", "experts.read_detection_log"),
            (reporting, "compare_modes", "stats.compare_modes"),
        ):
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        harness.detect = self.wrap("experts.detect", self._count_detect(harness.detect))
        for mod in (harness, cli):
            mod.select_expert = self.wrap("gating.select_expert", self._count_gate(mod.select_expert))
        harness.run_trial = self._trial(harness.run_trial, list(harness.Mode))
        harness._trial_task = self._task(harness._trial_task)

    def _count_detect(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def detect(*args, **kwargs):
            det = fn(*args, **kwargs)
            counts["detect_calls"] += 1
            counts["detect_present"] += det.box is not None
            return det

        return detect

    def _count_gate(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def select_expert(det_far, det_near, state, cam):
            previous = state.last_selected
            out = fn(det_far, det_near, state, cam)
            if out.selected_expert is None:
                counts["gate_coast"] += 1
            elif previous is not None and out.selected_expert is not previous:
                counts["gate_switches"] += 1
            return out

        return select_expert

    def _trial(self, fn, modes):
        inner = self.wrap("harness.run_trial", fn)

        @functools.wraps(fn)
        def run_trial(*args, **kwargs):
            mode = kwargs["mode"] if "mode" in kwargs else args[1]
            self.trial = modes.index(mode) * 1_000_000 + kwargs.get("trial_id", 0)
            try:
                return inner(*args, **kwargs)
            finally:
                self.trial = -1

        return run_trial

    def _task(self, fn):
        """Wrap one campaign task so its spans, counters and computed IPC
        sizes travel back on the returned TrialRun."""

        @functools.wraps(fn)
        def trial_task(args):
            start = len(self.buf) // STRIDE
            saved = dict(self.counts)
            self.counts.update(dict.fromkeys(COUNTERS, 0))
            result = fn(args)
            ipc = len(ForkingPickler.dumps(args)) + len(ForkingPickler.dumps(result))
            run = result[2]
            run._bench = (start, self.buf[start * STRIDE :], dict(self.counts), ipc)
            del self.buf[start * STRIDE :]
            self.counts.update(saved)
            return result

        return trial_task

    def harvest(self, campaign) -> None:
        """Merge the spans and counters carried on each TrialRun, then drop them."""
        for runs in campaign.runs.values():
            for run in runs:
                start, spans, counts, ipc = run.__dict__.pop("_bench")
                rows = np.frombuffer(spans, dtype=np.int64).reshape(-1, STRIDE).copy()
                offset = len(self.buf) // STRIDE
                inner = rows[:, 3] >= start
                rows[inner, 3] += offset - start
                self.buf.frombytes(rows.tobytes())
                for key, value in counts.items():
                    self.counts[key] += value
                self.ipc_bytes.append(ipc)

    # -- analysis --------------------------------------------------------

    def rows(self) -> np.ndarray:
        return np.frombuffer(self.buf, dtype=np.int64).reshape(-1, STRIDE)

    def summary(self) -> dict:
        """Per-name total and self time (ns), run_trial durations and
        counters, all net of the tracer's own per-span cost."""
        rows = self.rows()
        n = len(rows)
        inside, outside = span_overhead_ns()
        parent = rows[:, 3]
        nested = parent >= 0
        kids = np.bincount(parent[nested], minlength=n)
        # tracer cost within each span: its own, plus its children's
        # wrappers, plus everything charged inside its descendants
        overhead = inside + kids * outside
        depth = np.zeros(n, dtype=np.int64)
        up = parent.copy()
        while (up >= 0).any():
            live = up >= 0
            depth[live] += 1
            up[live] = parent[up[live]]
        for level in range(int(depth.max(initial=0)), 0, -1):
            at = depth == level
            np.add.at(overhead, parent[at], overhead[at])
        raw = (rows[:, 2] - rows[:, 1]).astype(np.float64)
        dur = raw - overhead
        covered = np.bincount(parent[nested], weights=raw[nested], minlength=n)
        self_ns = raw - covered - inside - kids * outside
        total_by = np.bincount(rows[:, 0], weights=dur, minlength=len(self.names))
        self_by = np.bincount(rows[:, 0], weights=self_ns, minlength=len(self.names))
        trial_code = self.names.index("harness.run_trial") if "harness.run_trial" in self.names else -1
        return {
            "total_ns": {name: float(total_by[i]) for i, name in enumerate(self.names)},
            "self_ns": {name: float(self_by[i]) for i, name in enumerate(self.names)},
            "trial_ns": dur[rows[:, 0] == trial_code].tolist(),
            "counts": dict(self.counts),
            "ipc_bytes": list(self.ipc_bytes),
            "spans": n,
            "span_overhead_ns": {"inside": inside, "outside": outside},
        }

    def dump(self, path: Path) -> None:
        """Write the spans as raw int64 rows plus a JSON header naming the codes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            self.buf.tofile(fh)
        header = {"stride": STRIDE, "columns": ["name", "start_ns", "end_ns", "parent", "trial"],
                  "names": self.names, "trial_code": "mode_index * 1000000 + trial_id"}
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def span_overhead_ns(calls: int = 20_000, repeats: int = 5) -> tuple[float, float]:
    """The tracer's cost per span, as (inside the span, charged to the
    parent's self time): medians over a few probes of an empty wrapped call
    made in a loop. The second figure includes one loop step, the parent's
    own cost of making a call."""
    inside, outside = [], []
    for _ in range(repeats):
        probe = Tracer()
        empty = probe.wrap("empty", lambda: None)

        def outer():
            for _ in range(calls):
                empty()

        probe.wrap("outer", outer)()
        dur = np.diff(probe.rows()[:, 1:3], axis=1)[:, 0].astype(np.float64)
        inside.append(dur[1:].mean())
        outside.append((dur[0] - dur[1:].sum()) / calls)
    return statistics.median(inside), statistics.median(outside)
