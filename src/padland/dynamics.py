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
    dt = params.dt
    alpha = dt / max(params.tau, dt)
    x, y, z, vx, vy, vz = state
    v_x, v_y, v_z = cmd
    vx = vx + alpha * (v_x - vx)
    vy = vy + alpha * (v_y - vy)
    vz = vz + alpha * (v_z - vz)
    return VehicleState(x + dt * vx, y + dt * vy, max(0.0, z + dt * vz), vx, vy, vz)
