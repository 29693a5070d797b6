"""The benchmark's traced mode wraps padland functions by module and name
(bench/spans.py, Tracer.install). Each name it wraps must still exist and
still be called where it is looked up, or `--trace 1` breaks or reports
empty layers. bench/ is only read here."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import json
    import sys
    from pathlib import Path

    import numpy as np

    import padland
    import padland.cli
    import spans

    def counts(tracer):
        per_code = np.bincount(tracer.rows()[:, 0], minlength=len(tracer.names))
        return dict(zip(tracer.names, per_code.tolist()))

    out = Path(sys.argv[1])
    tracer = spans.Tracer()
    tracer.install(padland)
    campaign = padland.run_campaign(
        padland.Scenario(), padland.TrialConfig(n_trials=1), modes=[padland.Mode.DUAL]
    )
    tracer.harvest(campaign)
    steps = campaign.runs[padland.Mode.DUAL][0].result.steps
    padland.write_campaign_outputs(campaign, out / "run")
    after_campaign = counts(tracer)

    config = out / "config.json"
    config.write_text(json.dumps(padland.default_config()))
    code = padland.cli.main([
        "replay", "--log", str(out / "run" / "detections" / "trial_000_dual.csv"),
        "--config", str(config), "--out", str(out / "replay"),
    ])
    print(json.dumps(
        {"code": code, "steps": steps, "campaign": after_campaign, "total": counts(tracer)}
    ))
    """
)


def test_benchmark_hooks_record_spans(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    campaign, total = report["campaign"], report["total"]
    # every wrapped entry point ran at least once
    assert all(n > 0 for n in total.values()), total
    for name in ("gating.select_expert", "servo.compute_errors", "experts.detect"):
        assert campaign.get(name, 0) > 0, name
    # each per-frame name is called through its wrapper as often per frame
    # as the frame loop calls it: once per frame, per tracked frame or per
    # expert on frames with the pad in view
    steps = report["steps"]
    assert campaign["gating.select_expert"] == campaign["geometry.project_helipad"] == steps
    assert campaign["servo.compute_errors"] == campaign["servo.compute_command"]
    assert campaign["experts.detect"] == 2 * campaign["geometry.apparent_width"]
    # replay goes through the wrappers installed on padland.cli
    for name in ("gating.select_expert", "servo.compute_errors", "experts.read_detection_log"):
        assert total[name] > campaign.get(name, 0), name
