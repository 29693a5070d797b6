"""First-order vehicle motion under velocity commands.

Deliberately simple: velocity relaxes toward the command with a single
time constant, then position integrates the new velocity. Altitude is
floored at the ground.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import VehicleState
from .servo import VelocityCommand


@dataclass(frozen=True)
class DynamicsParams:
    dt: float = 0.05  # seconds per simulation step
    tau: float = 0.4  # velocity-tracking time constant; 0 = instantaneous

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt: must be strictly positive (got {self.dt})")
        if self.tau < 0:
            raise ValueError(f"tau: must be >= 0 (got {self.tau})")


def step(state: VehicleState, cmd: VelocityCommand, params: DynamicsParams) -> VehicleState:
    """Advance one step: v += (dt/max(tau, dt)) * (cmd - v); p += dt * v."""
    alpha = params.dt / max(params.tau, params.dt)
    vx = state.vx + alpha * (cmd.v_x - state.vx)
    vy = state.vy + alpha * (cmd.v_y - state.vy)
    vz = state.vz + alpha * (cmd.v_z - state.vz)
    return VehicleState(
        x=state.x + params.dt * vx,
        y=state.y + params.dt * vy,
        z=max(0.0, state.z + params.dt * vz),
        vx=vx,
        vy=vy,
        vz=vz,
    )
