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

from .experts import Detection, ExpertId
from .geometry import BoundingBox, CameraModel


def l1_center_distance(box: BoundingBox, cam: CameraModel) -> float:
    """|u - c_x| + |v - c_y|; zero iff the box sits on the principal point."""
    return abs(box.u - cam.cx) + abs(box.v - cam.cy)


@dataclass
class GateState:
    """Mutable per-trial gate memory.

    window holds the last raw selected boxes (most recent last), capped at
    window_size; coast_counter counts consecutive frames with no
    detection from either expert.
    """

    window_size: int = 5
    coast_limit: int = 10
    window: deque = field(default_factory=deque)
    last_selected: ExpertId | None = None
    coast_counter: int = 0

    def __post_init__(self):
        if self.window_size < 1:
            raise ValueError(f"window_size: must be >= 1 (got {self.window_size})")
        if self.coast_limit < 0:
            raise ValueError(f"coast_limit: must be >= 0 (got {self.coast_limit})")


@dataclass(frozen=True)
class GateOutput:
    """One frame of gate output.

    smoothed_box is present iff the window is nonempty and tracking is not
    lost; selected_expert is None on coasting frames.
    """

    smoothed_box: BoundingBox | None
    selected_expert: ExpertId | None
    tracking_lost: bool


def _window_mean(window: deque) -> BoundingBox:
    # plain sequential sum in chronological order; tests recompute the same
    # mean independently and require bit-exact agreement
    n = len(window)
    u = sum(b.u for b in window) / n
    v = sum(b.v for b in window) / n
    w = sum(b.w for b in window) / n
    h = sum(b.h for b in window) / n
    return BoundingBox(u=u, v=v, w=w, h=h)


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
    consecutive frames, then report tracking lost.
    """
    candidates = [d for d in (det_far, det_near) if d.box is not None]

    if not candidates:
        state.coast_counter += 1
        lost = state.coast_counter > state.coast_limit
        smoothed = _window_mean(state.window) if state.window and not lost else None
        return GateOutput(smoothed_box=smoothed, selected_expert=None, tracking_lost=lost)

    if len(candidates) == 1:
        chosen = candidates[0]
    else:
        d_far = l1_center_distance(det_far.box, cam)
        d_near = l1_center_distance(det_near.box, cam)
        if d_far < d_near:
            chosen = det_far
        elif d_near < d_far:
            chosen = det_near
        else:
            # exact tie: hysteresis on the previous selection, NEAR at start
            keep = state.last_selected if state.last_selected is not None else ExpertId.NEAR
            chosen = det_far if keep is ExpertId.FAR else det_near

    state.window.append(chosen.box)
    while len(state.window) > state.window_size:
        state.window.popleft()
    state.last_selected = chosen.expert_id
    state.coast_counter = 0

    return GateOutput(
        smoothed_box=_window_mean(state.window),
        selected_expert=chosen.expert_id,
        tracking_lost=False,
    )
