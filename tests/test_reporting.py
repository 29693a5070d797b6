import hashlib
import json
from pathlib import Path

import pytest

from padland.cli import main
from padland.harness import Mode, Scenario, TerminationReason, TrialConfig, run_campaign
from padland.reporting import rebuild_results, write_campaign_outputs

ROOT = Path(__file__).resolve().parents[1]
# SHA-256 of every file `padland run` writes for configs/default.json, in
# `sha256sum -c` format (run it from inside an output directory). A change
# that alters output bytes on purpose updates this file and says so.
GOLDEN = Path(__file__).with_name("golden_default.sha256")


def test_default_campaign_outputs_match_golden_digests(tmp_path):
    assert main(["run", "--config", str(ROOT / "configs" / "default.json"), "--out", str(tmp_path)]) == 0
    expected = {}
    for line in GOLDEN.read_text().splitlines():
        digest, name = line.split("  ", 1)
        expected[name] = digest
    actual = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*")
        if p.is_file()
    }
    assert actual == expected


def test_writing_outputs_leaves_results_unchanged(tmp_path):
    config = TrialConfig(seed=3, n_trials=2)
    written = run_campaign(Scenario(), config)
    unwritten = run_campaign(Scenario(), config)
    write_campaign_outputs(written, tmp_path)
    for mode in unwritten.runs:
        assert written.results(mode) == unwritten.results(mode)


# Together these two campaigns end trials in every TerminationReason: with
# seed 3, 1000 steps lands some trials, loses one near_only trial and times
# out the rest; 300 steps times out every trial.
ROUND_TRIP_CAMPAIGNS = {
    "all-modes": (TrialConfig(seed=3, n_trials=4, max_steps=1000), None),
    "dual-timeouts": (TrialConfig(seed=5, n_trials=2, max_steps=300), [Mode.DUAL]),
}


@pytest.fixture(scope="module", params=sorted(ROUND_TRIP_CAMPAIGNS))
def written_campaign(request, tmp_path_factory):
    config, modes = ROUND_TRIP_CAMPAIGNS[request.param]
    campaign = run_campaign(Scenario(), config, modes)
    out = tmp_path_factory.mktemp(request.param)
    returned = write_campaign_outputs(campaign, out)
    loaded = json.loads((out / "summary.json").read_text())
    return campaign, returned, loaded


def test_round_trip_campaigns_cover_every_termination_reason():
    reasons = set()
    for config, modes in ROUND_TRIP_CAMPAIGNS.values():
        campaign = run_campaign(Scenario(), config, modes)
        reasons.update(r.termination_reason for m in campaign.runs for r in campaign.results(m))
    assert reasons == set(TerminationReason)


def test_returned_summary_equals_written_file(written_campaign):
    _, returned, loaded = written_campaign
    # equal only if the returned dict holds plain JSON types: a tuple where
    # the file has a list would compare unequal
    assert returned == loaded


def test_rebuilt_results_equal_originals(written_campaign):
    campaign, _, loaded = written_campaign
    # a list never equals a tuple, nor a value its enum member, so this also
    # checks that positions and termination reasons come back restored
    assert rebuild_results(loaded) == {m: campaign.results(m) for m in campaign.runs}
