"""The cells no record stores are exact where they are written. A
trajectory's `t` is its row number times dynamics.dt, and the e_x, e_y, A
and e_z of a trajectory or replay row are servo.compute_errors of that
row's smoothed box, blank without one: the writers derive them block by
block from arrays, and every cell must read back as the scalar formula,
one frame at a time, gives it."""

import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from padland.config import build_campaign, default_config
from padland.geometry import BoundingBox
from padland.harness import BOX_COLUMNS, DERIVED_COLUMNS, RECORD_COLUMNS, replay_log, run_campaign
from padland.reporting import read_detection_log, write_campaign_outputs, write_replay_csv
from padland.servo import compute_errors

from test_config_cli import config_docs

SERVO = DERIVED_COLUMNS[1:]  # e_x, e_y, A, e_z
BOX = [RECORD_COLUMNS.index(name) for name in BOX_COLUMNS]


def rows(path: Path) -> list[dict[str, str]]:
    """The CSV's rows after its header, each cell by its column's name."""
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def spelled(x: float) -> str:
    return "" if math.isnan(x) else repr(x)


def servo_cells(box: BoundingBox, scenario) -> list[str]:
    """The e_x, e_y, A and e_z cells of a row with box, from the scalar formula."""
    return list(map(spelled, compute_errors(box, scenario.camera, scenario.gains)))


def over_the_pad(doc: dict, x: tuple[float, float], y: tuple[float, float]) -> dict:
    """doc with its trials starting inside the camera's view of the pad from
    the lowest start altitude, x and y given as fractions of the view's
    half width and height from the pad's center (so that boxes are seen,
    and those near -1 or 1 clipped at the image's edges), and no more than
    2 trials of 300 steps."""
    camera, trials = doc["camera"], doc["trials"]
    low = min(trials["altitude_set"]) / camera["focal_length"] / 2
    cx, cy = doc["helipad"]["center"]
    half_x, half_y = low * camera["image_width"], low * camera["image_height"]
    trials["x_range"] = sorted(cx + f * half_x for f in x)
    trials["y_range"] = sorted(cy + f * half_y for f in y)
    trials["n_trials"] = min(trials["n_trials"], 2)
    trials["max_steps"] = min(trials["max_steps"], 300)
    return doc


fractions = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=25, deadline=None)
@given(doc=config_docs(), x=fractions, y=fractions)
@example(doc=default_config(), x=(-0.5, 0.5), y=(-0.5, 0.5))
# from 70 m the pad's box starts clipped at the image's left edge: not square
@example(doc=default_config(), x=(0.94, 0.94), y=(0.0, 0.0))
def test_derived_cells_read_back_as_the_scalar_formula(doc, x, y):
    spec = build_campaign(over_the_pad(doc, x, y))
    scenario, dt = spec.scenario, spec.scenario.dynamics.dt
    campaign = run_campaign(scenario, spec.trials, list(spec.modes))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_campaign_outputs(campaign, out)
        for mode, runs in campaign.runs.items():
            for run in runs:
                name = f"trial_{run.result.trial_id:03d}_{mode.value}.csv"
                written = rows(out / "trajectories" / name)
                assert len(written) == len(run.frames)
                for k, (row, frame) in enumerate(zip(written, run.frames.tolist())):
                    assert row["t"] == repr(k * dt), (name, k)
                    box = BoundingBox(*(frame[j] for j in BOX))
                    assert [row[c] for c in SERVO] == servo_cells(box, scenario), (name, k)

                replayed = replay_log(read_detection_log(out / "detections" / name), scenario)
                write_replay_csv(replayed, scenario, out / "replay.csv")
                for k, row in enumerate(rows(out / "replay.csv")):
                    cells = (float(row[c]) if row[c] else math.nan for c in BOX_COLUMNS)
                    box = BoundingBox(*cells)
                    assert [row[c] for c in SERVO] == servo_cells(box, scenario), (name, k)
