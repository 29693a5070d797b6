"""First-order vehicle motion under velocity commands.

Deliberately simple: velocity relaxes toward the command with a single
time constant, then position integrates the new velocity. Altitude is
floored at the ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .geometry import VehicleState, check_fields
from .servo import VelocityCommand


# per-frame results are built with tuple.__new__, skipping the generated
# __new__: it checks only arity, and each call site passes a literal tuple


@dataclass(frozen=True)
class DynamicsParams:
    dt: float = 0.05  # seconds per simulation step
    tau: float = 0.4  # velocity-tracking time constant; 0 = instantaneous

    def __post_init__(self):
        check_fields(self)
        if self.dt <= 0:
            raise ValueError(f"dt: must be positive (got {self.dt})")
        if self.tau < 0:
            raise ValueError(f"tau: must be >= 0 (got {self.tau})")

    @cached_property
    def alpha(self) -> float:
        """Fraction of the velocity error closed per step: dt / max(tau, dt)."""
        return self.dt / max(self.tau, self.dt)


def step(state: VehicleState, cmd: VelocityCommand, params: DynamicsParams) -> VehicleState:
    """Advance one step: v += (dt/max(tau, dt)) * (cmd - v); p += dt * v."""
    dt = params.dt
    alpha = params.alpha
    x, y, z, vx, vy, vz = state
    v_x, v_y, v_z = cmd
    vx = vx + alpha * (v_x - vx)
    vy = vy + alpha * (v_y - vy)
    vz = vz + alpha * (v_z - vz)
    z = z + dt * vz
    # max(0.0, z) spelled out as the builtin evaluates it (see geometry.clamp_box)
    z = z if z > 0.0 else 0.0
    return tuple.__new__(VehicleState, (x + dt * vx, y + dt * vy, z, vx, vy, vz))
