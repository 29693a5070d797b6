import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from padland.experts import ABSENT, Detection, ExpertId
from padland.gating import GateOutput, GateState, l1_center_distance, select_expert
from padland.geometry import BoundingBox, CameraModel

CAM = CameraModel()


def far(u, v, w=24.0, h=24.0, conf=0.9) -> Detection:
    return Detection(BoundingBox(u, v, w, h), conf)


def near(u, v, w=24.0, h=24.0, conf=0.9) -> Detection:
    return Detection(BoundingBox(u, v, w, h), conf)


class TestL1Distance:
    def test_centered_box_is_zero(self):
        assert l1_center_distance(BoundingBox(224.0, 224.0, 10.0, 10.0), CAM) == 0.0

    @pytest.mark.parametrize(
        "u,v,expected", [(200.0, 230.0, 30.0), (240.0, 210.0, 30.0), (224.0, 200.0, 24.0)]
    )
    def test_values(self, u, v, expected):
        assert l1_center_distance(BoundingBox(u, v, 10.0, 10.0), CAM) == expected


class TestSelection:
    def test_closer_expert_wins(self):
        state = GateState()
        out = select_expert(far(250.0, 224.0), near(230.0, 224.0), state, CAM)
        assert out.selected_expert is ExpertId.NEAR
        # window of one: smoothed box equals the near box
        assert out.smoothed_box == BoundingBox(230.0, 224.0, 24.0, 24.0)

    def test_single_present_selected_regardless_of_distance(self):
        state = GateState()
        out = select_expert(far(10.0, 10.0), ABSENT, state, CAM)
        assert out.selected_expert is ExpertId.FAR
        assert not out.tracking_lost

    def test_tie_keeps_last_selected(self):
        state = GateState()
        select_expert(far(250.0, 224.0), ABSENT, state, CAM)  # FAR selected
        out = select_expert(far(254.0, 224.0), near(194.0, 224.0), state, CAM)  # both D=30
        assert out.selected_expert is ExpertId.FAR

    def test_tie_defaults_to_near_on_first_frame(self):
        state = GateState()
        out = select_expert(far(254.0, 224.0), near(194.0, 224.0), state, CAM)
        assert out.selected_expert is ExpertId.NEAR

    def test_argmin_against_brute_force_oracle(self):
        rng = np.random.default_rng(55)
        state = GateState()
        for _ in range(10_000):
            df = far(rng.uniform(0, 448), rng.uniform(0, 448))
            dn = near(rng.uniform(0, 448), rng.uniform(0, 448))
            out = select_expert(df, dn, state, CAM)
            oracle = {
                ExpertId.FAR: l1_center_distance(df.box, CAM),
                ExpertId.NEAR: l1_center_distance(dn.box, CAM),
            }
            assert oracle[out.selected_expert] <= oracle[
                ExpertId.FAR if out.selected_expert is ExpertId.NEAR else ExpertId.NEAR
            ]


class TestSmoothing:
    def test_windowed_mean_of_five(self):
        state = GateState()
        out = None
        for u in (220.0, 222.0, 224.0, 226.0, 228.0):
            out = select_expert(far(u, 224.0), ABSENT, state, CAM)
        assert out.smoothed_box.u == pytest.approx(224.0)
        assert out.smoothed_box.v == 224.0

    def test_warmup_averages_available_entries(self):
        state = GateState()
        select_expert(far(220.0, 224.0), ABSENT, state, CAM)
        out = select_expert(far(230.0, 224.0), ABSENT, state, CAM)
        assert out.smoothed_box.u == pytest.approx(225.0)

    def test_exact_windowed_mean_oracle(self):
        # independent bookkeeping of the raw selected boxes; means must agree
        # to full precision
        rng = np.random.default_rng(808)
        state = GateState(window_size=5)
        selected: list[BoundingBox] = []
        for _ in range(500):
            df = far(rng.uniform(0, 448), rng.uniform(0, 448), rng.uniform(5, 60), rng.uniform(5, 60))
            dn = near(rng.uniform(0, 448), rng.uniform(0, 448), rng.uniform(5, 60), rng.uniform(5, 60))
            out = select_expert(df, dn, state, CAM)
            chosen = df if out.selected_expert is ExpertId.FAR else dn
            selected.append(chosen.box)
            window = selected[-5:]
            n = len(window)
            assert out.smoothed_box.u == sum(b.u for b in window) / n
            assert out.smoothed_box.v == sum(b.v for b in window) / n
            assert out.smoothed_box.w == sum(b.w for b in window) / n
            assert out.smoothed_box.h == sum(b.h for b in window) / n

    def test_variance_reduction_factor(self):
        # i.i.d. center noise through a full window of 5: std shrinks ~ 1/sqrt(5)
        rng = np.random.default_rng(99)
        sigma = 4.0
        state = GateState(window_size=5)
        smoothed_u = []
        for i in range(10_004):
            u = 224.0 + sigma * rng.standard_normal()
            out = select_expert(far(u, 224.0), ABSENT, state, CAM)
            if i >= 4:  # full window only
                smoothed_u.append(out.smoothed_box.u)
        empirical = float(np.std(smoothed_u))
        assert empirical == pytest.approx(sigma / np.sqrt(5.0), rel=0.15)

    def test_window_blends_across_expert_switch(self):
        state = GateState()
        select_expert(far(200.0, 224.0), ABSENT, state, CAM)
        out = select_expert(ABSENT, near(240.0, 224.0), state, CAM)
        assert out.smoothed_box.u == pytest.approx(220.0)


class TestCoasting:
    def test_coast_reuses_previous_smoothed_box(self):
        state = GateState(coast_limit=3)
        ref = select_expert(far(230.0, 224.0), ABSENT, state, CAM)
        out = select_expert(ABSENT, ABSENT, state, CAM)
        assert out.selected_expert is None
        assert not out.tracking_lost
        assert out.smoothed_box == ref.smoothed_box

    def test_loss_after_coast_limit_exceeded(self):
        state = GateState(coast_limit=3)
        select_expert(far(230.0, 224.0), ABSENT, state, CAM)
        outs = [select_expert(ABSENT, ABSENT, state, CAM) for _ in range(4)]
        assert [o.tracking_lost for o in outs] == [False, False, False, True]
        assert outs[-1].smoothed_box is None

    def test_loss_from_empty_window(self):
        state = GateState(coast_limit=10)
        outs = [select_expert(ABSENT, ABSENT, state, CAM) for _ in range(11)]
        assert all(o.smoothed_box is None for o in outs)
        assert outs[-1].tracking_lost and not outs[-2].tracking_lost

    def test_detection_resets_coast(self):
        state = GateState(coast_limit=2)
        select_expert(far(230.0, 224.0), ABSENT, state, CAM)
        select_expert(ABSENT, ABSENT, state, CAM)
        select_expert(ABSENT, ABSENT, state, CAM)
        out = select_expert(far(231.0, 224.0), ABSENT, state, CAM)
        assert out.selected_expert is ExpertId.FAR
        assert state.coast_counter == 0


class TestTotality:
    def test_every_presence_combination_returns_output(self):
        for df in (far(250.0, 230.0), ABSENT):
            for dn in (near(220.0, 210.0), ABSENT):
                state = GateState()
                out = select_expert(df, dn, state, CAM)
                assert isinstance(out, GateOutput)
                present = (out.smoothed_box is not None)
                assert present == (len(state.window) > 0 and not out.tracking_lost)

    def test_single_expert_degeneracy(self):
        # with NEAR permanently silent, the gated stream equals FAR's
        # detections passed through the smoother
        rng = np.random.default_rng(321)
        state = GateState(window_size=5, coast_limit=10)
        window: list[BoundingBox] = []
        for _ in range(300):
            if rng.uniform() < 0.8:
                df = far(rng.uniform(0, 448), rng.uniform(0, 448))
            else:
                df = ABSENT
            out = select_expert(df, ABSENT, state, CAM)
            if df.box is not None:
                assert out.selected_expert is ExpertId.FAR
                window.append(df.box)
                n = len(window[-5:])
                assert out.smoothed_box.u == sum(b.u for b in window[-5:]) / n


class TestGateState:
    def test_invariants(self):
        with pytest.raises(ValueError):
            GateState(window_size=0)
        with pytest.raises(ValueError):
            GateState(coast_limit=-1)

    def test_window_never_exceeds_capacity(self):
        state = GateState(window_size=3)
        for u in range(10):
            select_expert(far(200.0 + u, 224.0), ABSENT, state, CAM)
            assert len(state.window) <= 3


# -- property tests ---------------------------------------------------------

coord = st.floats(0.0, 448.0)
size = st.floats(1.0, 100.0)
boxes = st.builds(BoundingBox, coord, coord, size, size)
maybe_boxes = st.one_of(st.none(), boxes)
# a frame: FAR's box and NEAR's box, None when that expert saw nothing
frames = st.lists(st.tuples(maybe_boxes, maybe_boxes), max_size=40)


def detection(box: BoundingBox | None) -> Detection:
    return ABSENT if box is None else Detection(box, 0.5)


def play(state: GateState, history) -> list[GateOutput]:
    return [
        select_expert(detection(bf), detection(bn), state, CAM)
        for bf, bn in history
    ]


class TestGateProperties:
    @given(frames, boxes, boxes)
    def test_selects_the_l1_argmin(self, history, box_far, box_near):
        state = GateState()
        play(state, history)
        out = play(state, [(box_far, box_near)])[0]
        d_far = abs(box_far.u - CAM.cx) + abs(box_far.v - CAM.cy)
        d_near = abs(box_near.u - CAM.cx) + abs(box_near.v - CAM.cy)
        if d_far != d_near:
            assert out.selected_expert is (ExpertId.FAR if d_far < d_near else ExpertId.NEAR)

    @given(frames, boxes, size)
    def test_exact_tie_keeps_previous_or_near(self, history, box, near_size):
        # CAM.cx == CAM.cy, so swapping u and v keeps the L1 distance exactly
        state = GateState()
        play(state, history)
        previous = state.last_selected
        tied = BoundingBox(box.v, box.u, near_size, near_size)
        out = play(state, [(box, tied)])[0]
        assert out.selected_expert is (previous or ExpertId.NEAR)

    @given(frames, st.integers(0, 15), st.integers(1, 8), st.integers(1, 30))
    def test_tracking_lost_exactly_after_coast_limit(self, history, coast_limit, window, gap):
        state = GateState(window_size=window, coast_limit=coast_limit)
        play(state, history)
        start = state.coast_counter  # absent frames already running at the end of history
        outs = play(state, [(None, None)] * gap)
        for i, out in enumerate(outs, start=start + 1):
            assert out.tracking_lost == (i >= coast_limit + 1)
            assert out.selected_expert is None
            if out.tracking_lost:
                assert out.smoothed_box is None

    @given(frames, st.integers(1, 8))
    def test_smoothed_box_is_sequential_mean_of_window(self, history, window):
        state = GateState(window_size=window)
        raw: list[BoundingBox] = []
        for (bf, bn), out in zip(history, play(state, history)):
            if out.selected_expert is not None:
                raw.append(bf if out.selected_expert is ExpertId.FAR else bn)
            if out.smoothed_box is None:
                continue
            last = raw[-window:]
            expected = []
            for field in ("u", "v", "w", "h"):
                total = 0.0
                for b in last:  # chronological order, one addition at a time
                    total += getattr(b, field)
                expected.append(total / len(last))
            assert out.smoothed_box == BoundingBox(*expected)
