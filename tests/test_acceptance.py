"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import rankdata

from padland.experts import ABSENT, Detection, ExpertId, ExpertProfile
from padland.gating import GateState, l1_center_distance, select_expert
from padland.geometry import BoundingBox, CameraModel, VehicleState, apparent_width, project_helipad
from padland.harness import (
    RECORD_COLUMNS,
    SELECTION_LABELS,
    Mode,
    Scenario,
    TerminationReason,
    TrialConfig,
    replay_detect,
    run_campaign,
    run_trial,
)
from padland.geometry import HelipadSpec
from padland.reporting import read_detection_log, write_campaign_outputs, write_detection_log
from padland.stats import compare_modes, wilcoxon_signed_rank

CAM = CameraModel()
PAD = HelipadSpec()


def ok(criterion: str, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: PASS {detail}")


def far(u, v):
    return Detection(BoundingBox(u, v, 24.0, 24.0), 0.9)


def near(u, v):
    return Detection(BoundingBox(u, v, 24.0, 24.0), 0.9)


def test_criterion_1_gating_exactness():
    rng = np.random.default_rng(1001)
    state = GateState()
    t0 = time.perf_counter()
    violations = 0
    for _ in range(10_000):
        df = far(rng.uniform(0, 448), rng.uniform(0, 448))
        dn = near(rng.uniform(0, 448), rng.uniform(0, 448))
        out = select_expert(df, dn, state, CAM)
        d_far = l1_center_distance(df.box, CAM)
        d_near = l1_center_distance(dn.box, CAM)
        best = min(d_far, d_near)
        chosen = d_far if out.selected_expert is ExpertId.FAR else d_near
        if chosen != best:
            violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 1.0

    # tie resolution follows the hysteresis rule
    state = GateState()
    out = select_expert(far(254.0, 224.0), near(194.0, 224.0), state, CAM)
    assert out.selected_expert is ExpertId.NEAR  # no prior selection: NEAR
    select_expert(far(250.0, 224.0), ABSENT, state, CAM)
    out = select_expert(far(254.0, 224.0), near(194.0, 224.0), state, CAM)
    assert out.selected_expert is ExpertId.FAR  # keeps last selection on tie
    ok("1 (gating exactness)", f"0 violations in 10000 pairs, {elapsed:.3f}s")


def test_criterion_2_smoothing_exactness_and_variance_reduction():
    # exact windowed mean against independent bookkeeping
    rng = np.random.default_rng(2002)
    state = GateState(window_size=5, coast_limit=10)
    raw_selected = []
    for _ in range(2000):
        r = rng.uniform()
        df = far(rng.uniform(0, 448), rng.uniform(0, 448)) if r < 0.7 else ABSENT
        dn = near(rng.uniform(0, 448), rng.uniform(0, 448)) if rng.uniform() < 0.7 else ABSENT
        out = select_expert(df, dn, state, CAM)
        if out.selected_expert is not None:
            chosen = df if out.selected_expert is ExpertId.FAR else dn
            raw_selected.append(chosen.box)
        if raw_selected and out.smoothed_box is not None:
            window = raw_selected[-5:]
            n = len(window)
            assert out.smoothed_box.u == sum(b.u for b in window) / n
            assert out.smoothed_box.v == sum(b.v for b in window) / n
            assert out.smoothed_box.w == sum(b.w for b in window) / n
            assert out.smoothed_box.h == sum(b.h for b in window) / n

    # variance reduction through a full N = 5 window
    sigma = 3.0
    rng = np.random.default_rng(2003)
    state = GateState(window_size=5)
    smoothed = []
    for i in range(10_004):
        out = select_expert(far(224.0 + sigma * rng.standard_normal(), 224.0), ABSENT, state, CAM)
        if i >= 4:
            smoothed.append(out.smoothed_box.u)
    empirical = float(np.std(smoothed))
    expected = sigma / math.sqrt(5.0)
    assert abs(empirical - expected) / expected < 0.15
    ok("2 (smoothing exactness + variance reduction)",
       f"std ratio {empirical / expected:.3f} of sigma/sqrt(5)")


def test_criterion_3_servo_convergence():
    scen = Scenario(
        far_profile=ExpertProfile.ideal(),
        near_profile=ExpertProfile.ideal(),
    )
    root = np.random.SeedSequence(3)
    rf, rn = (np.random.default_rng(s) for s in root.spawn(2))
    run = run_trial(VehicleState(-86.0, 75.0, 70.0), Mode.DUAL, scen, TrialConfig(), rf, rn)
    r = run.result
    assert r.termination_reason is TerminationReason.LANDED
    assert r.steps < 2000
    assert r.touchdown_error < 0.5
    ok("3 (servo convergence)",
       f"LANDED in {r.steps} steps, error {r.touchdown_error:.4f} m")


def test_criterion_4_qualitative_table_ordering():
    t0 = time.perf_counter()
    scen = Scenario()
    n_campaigns = 20
    ordering_hits = 0
    for seed in range(100, 100 + n_campaigns):
        camp = run_campaign(scen, TrialConfig(seed=seed))
        dual = camp.results(Mode.DUAL)
        assert all(t.success for t in dual), f"DUAL failure at seed {seed}"
        for t in camp.results(Mode.NEAR_ONLY):
            if t.initial_position[2] == 110.0:
                assert t.termination_reason is TerminationReason.TRACKING_LOST, (
                    f"NEAR_ONLY 110 m trial did not lose tracking (seed {seed})"
                )
        comp = compare_modes({m: camp.results(m) for m in camp.runs})
        s = comp.summaries
        if (
            s["dual"].mean_error < s["far_only"].mean_error
            and s["dual"].std_error <= s["far_only"].std_error
            and s["dual"].std_error <= s["near_only"].std_error
        ):
            ordering_hits += 1
    elapsed = time.perf_counter() - t0
    assert ordering_hits >= 18, f"ordering held in only {ordering_hits}/20 campaigns"
    assert elapsed < 120.0
    ok("4 (qualitative ordering)",
       f"DUAL 100% success in 20/20, ordering in {ordering_hits}/20, {elapsed:.1f}s")


def brute_force_p(diffs):
    nonzero = [d for d in diffs if d != 0.0]
    n = len(nonzero)
    if n == 0:
        return 1.0
    ranks = list(rankdata([abs(d) for d in nonzero]))
    total = n * (n + 1) / 2.0
    w_plus_obs = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    stat_obs = min(w_plus_obs, total - w_plus_obs)
    hits = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        w_plus = sum(r for r, sgn in zip(ranks, signs) if sgn > 0)
        if min(w_plus, total - w_plus) <= stat_obs:
            hits += 1
    return hits / 2**n


def test_criterion_5_wilcoxon_exactness():
    res5 = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert res5.p_two_sided == 0.0625

    res10 = wilcoxon_signed_rank([float(i + 1) for i in range(10)], [0.0] * 10)
    assert res10.p_two_sided == 2.0 / 1024.0

    rng = np.random.default_rng(5005)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        a = rng.normal(2.0, 1.5, size=n)
        b = rng.normal(2.0, 1.5, size=n)
        if rng.uniform() < 0.3:
            a, b = np.round(a), np.round(b)
        res = wilcoxon_signed_rank(list(a), list(b))
        rev = wilcoxon_signed_rank(list(b), list(a))
        assert res.p_two_sided == brute_force_p(list(a - b))
        assert res.w_plus + res.w_minus == pytest.approx(
            res.n_effective * (res.n_effective + 1) / 2.0
        )
        assert (res.w_plus, res.w_minus, res.p_two_sided) == (
            rev.w_minus, rev.w_plus, rev.p_two_sided
        )
    ok("5 (Wilcoxon exactness)",
       "n=5 -> 0.0625, n=10 -> 2/1024, 200 random lists == brute force")


def test_criterion_6_determinism(tmp_path):
    scen = Scenario()
    cfg = TrialConfig(seed=606, n_trials=4)
    outs = []
    for name, workers in (("a", 1), ("b", 1), ("pool", 2)):
        camp = run_campaign(scen, cfg, n_workers=workers)
        out = tmp_path / name
        write_campaign_outputs(camp, out)
        outs.append(out)

    def tree(root):  # every output file's bytes, by path under root
        files = (p for p in root.rglob("*") if p.is_file())
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in files}

    ref = tree(outs[0])
    assert len(ref) == 2 + 2 * 3 * cfg.n_trials  # summary, table, two CSVs per trial
    for other in outs[1:]:
        assert tree(other) == ref
    ok("6 (determinism)", "byte-identical output trees, serial and 2-worker")


def test_criterion_7_projection_invariants():
    # centered pad maps to the principal point exactly, at any altitude
    for z in (110.0, 70.0, 25.0, 9.0):
        box = project_helipad(VehicleState(PAD.x, PAD.y, z), PAD, CAM)
        assert (box.u, box.v) == (224.0, 224.0)

    # unclamped area strictly monotone over a sampled descent
    zs = np.linspace(115.0, 6.5, 80)
    areas = [apparent_width(VehicleState(PAD.x, PAD.y, z), PAD, CAM) ** 2 for z in zs]
    assert all(b > a for a, b in zip(areas, areas[1:]))

    # linear offset-to-pixel mapping within machine precision
    rng = np.random.default_rng(7007)
    for _ in range(100):
        z = rng.uniform(15.0, 120.0)
        dx = rng.uniform(-z / 8.0, z / 8.0)
        dy = rng.uniform(-z / 8.0, z / 8.0)
        box = project_helipad(VehicleState(PAD.x - dx, PAD.y - dy, z), PAD, CAM)
        assert box.u - CAM.cx == pytest.approx(CAM.focal_length * dx / z, rel=1e-12, abs=1e-9)
        assert box.v - CAM.cy == pytest.approx(CAM.focal_length * dy / z, rel=1e-12, abs=1e-9)
    ok("7 (projection invariants)", "centering exact, area monotone, mapping linear")


def test_criterion_8_replay_round_trip(tmp_path):
    scen = Scenario()  # default noisy profiles
    cfg = TrialConfig(seed=808)
    root = np.random.SeedSequence(808)
    rf, rn = (np.random.default_rng(s) for s in root.spawn(2))
    run = run_trial(VehicleState(-88.0, 82.0, 90.0), Mode.DUAL, scen, cfg, rf, rn)

    codes = run.frames[:, RECORD_COLUMNS.index("selected")].tolist()
    original = [SELECTION_LABELS[int(c)] for c in codes]  # "" when coasting

    path = tmp_path / "detections.csv"
    write_detection_log(run.frames, path)
    log = read_detection_log(path)
    assert log.tobytes() == run.frames[:, : log.shape[1]].tobytes()

    state = GateState(window_size=scen.window_size, coast_limit=scen.coast_limit)
    replayed = []
    for frame in range(len(log)):
        df, dn = replay_detect(log, frame)
        out = select_expert(df, dn, state, CAM)
        replayed.append(out.selected_expert.value if out.selected_expert else "")

    assert replayed == original
    ok("8 (replay round trip)", f"{len(replayed)} frames, selection sequences identical")
