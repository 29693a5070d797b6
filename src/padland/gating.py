"""Hard-gated expert selection and temporal box smoothing.

Per frame the gate picks the expert whose detection center is closest to
the camera principal point (L1 distance, winner-take-all), pushes the raw
selected box into a short window, and emits the window's component-wise
mean as the stabilized box. When neither expert detects, the gate coasts
on the previous smoothed box for a bounded number of frames before
declaring tracking lost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .experts import Detection, ExpertId
from .geometry import BoundingBox, CameraModel, Count, PositiveCount, check_fields


# per-frame results are built with tuple.__new__, skipping the generated
# __new__: it checks only arity, and each call site passes a literal tuple


# globals: reading an Enum member off its class takes a slow __getattr__ path
_FAR, _NEAR = ExpertId.FAR, ExpertId.NEAR


def l1_center_distance(box: BoundingBox, cam: CameraModel) -> float:
    """|u - c_x| + |v - c_y|; zero iff the box sits on the principal point."""
    return abs(box.u - cam.cx) + abs(box.v - cam.cy)


@dataclass
class GateState:
    """Mutable per-trial gate memory.

    window holds the last raw selected boxes (most recent last), a deque
    capped at window_size so appending drops the oldest; coast_counter
    counts consecutive frames with no detection from either expert.
    """

    window_size: PositiveCount = 5  # below 2**63 too, the longest deque on a 64-bit build
    coast_limit: Count = 10
    window: deque = field(init=False)
    last_selected: ExpertId | None = field(default=None, init=False)
    coast_counter: int = field(default=0, init=False)

    def __post_init__(self):
        check_fields(self)
        self.window = deque(maxlen=self.window_size)


class GateOutput(NamedTuple):
    """One frame of gate output.

    smoothed_box is present iff the window is nonempty and tracking is not
    lost; selected_expert is None on coasting frames.
    """

    smoothed_box: BoundingBox | None
    selected_expert: ExpertId | None
    tracking_lost: bool


def _window_mean(window: deque) -> BoundingBox:
    # plain sequential sum in chronological order, from the int 0 as sum()
    # starts; tests recompute the same mean independently and require
    # bit-exact agreement
    n = len(window)
    su = sv = sw = sh = 0
    for u, v, w, h in window:
        su += u
        sv += v
        sw += w
        sh += h
    return tuple.__new__(BoundingBox, (su / n, sv / n, sw / n, sh / n))


def select_expert(
    det_far: Detection,
    det_near: Detection,
    state: GateState,
    cam: CameraModel,
) -> GateOutput:
    """Run one gating step; mutates `state` and returns the frame output.

    Both present: argmin of the L1 center distance, ties keeping the
    previously selected expert (NEAR if none yet). One present: select it.
    None present: coast on the existing window for up to coast_limit
    consecutive frames, then report tracking lost. The selection is named
    by the argument that won: FAR for det_far, NEAR for det_near.
    """
    box_far = det_far.box
    box_near = det_near.box

    if box_far is None and box_near is None:
        state.coast_counter += 1
        lost = state.coast_counter > state.coast_limit
        smoothed = _window_mean(state.window) if state.window and not lost else None
        return tuple.__new__(GateOutput, (smoothed, None, lost))

    if box_near is None:
        far_won = True
    elif box_far is None:
        far_won = False
    else:
        d_far = l1_center_distance(box_far, cam)
        d_near = l1_center_distance(box_near, cam)
        if d_far < d_near:
            far_won = True
        elif d_near < d_far:
            far_won = False
        else:
            # exact tie: hysteresis on the previous selection, NEAR at start
            far_won = state.last_selected is _FAR

    chosen = _FAR if far_won else _NEAR
    state.window.append(box_far if far_won else box_near)  # maxlen drops the oldest
    state.last_selected = chosen
    state.coast_counter = 0

    return tuple.__new__(GateOutput, (_window_mean(state.window), chosen, False))
