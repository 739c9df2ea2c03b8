"""Closed-form kinematics of two discs in uniform planar motion.

Seen from disc k, disc l moves on a straight line: relative position dp at the
epoch, relative velocity dv.  A `UniformMotionState` carries both, derived once
when it is built.  Its closest approach comes at t_min = -dp.dv / |dv|^2, at
center distance d_min = |dp x dv| / |dv|, taken no farther than the current
distance |dp|.  The motion is rigid, with no closest approach, when |dv|^2 is
below the smallest normal float: a subnormal |dv|^2 has lost the precision
d_min needs.  Everything downstream (story derivation, transition instants,
degeneracy warnings) is computed from those numbers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

MIN_MOVING_SPEED_SQ = sys.float_info.min  # the smallest |dv|^2 of a moving state


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Vec2:
    """Immutable 2-D vector (position in m or velocity in m/s by context)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite("x", self.x)
        _require_finite("y", self.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> float:
        return self.dot(self)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class Disc:
    """A circular entity: center position (m) and radius (m)."""

    center: Vec2
    radius: float

    def __post_init__(self) -> None:
        _require_finite("radius", self.radius)
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")


@dataclass(frozen=True)
class UniformMotionState:
    """Two discs with constant velocities; centers given at `epoch`.

    `dp` and `dv` are the position and velocity of disc l relative to disc k,
    derived from the other fields; a difference that overflows is rejected.
    """

    disc_k: Disc
    vel_k: Vec2
    disc_l: Disc
    vel_l: Vec2
    epoch: float = 0.0
    dp: Vec2 = field(init=False, repr=False, compare=False)
    dv: Vec2 = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_finite("epoch", self.epoch)
        object.__setattr__(self, "dp", self.disc_l.center - self.disc_k.center)
        object.__setattr__(self, "dv", self.vel_l - self.vel_k)


def closest_approach_state(state: UniformMotionState) -> tuple[float | None, float]:
    """Time of minimum center distance (epoch-relative) and that distance.

    The distance is the rejection of the relative position from the relative
    velocity, |dp x dv| / |dv|, which stays accurate when the discs pass very
    close (the expanded form |dp|^2 - (dp.dv)^2/|dv|^2 cancels there).  It is
    capped at the current distance |dp|: the two round differently near
    closest approach, and a minimum above the distance now would place the
    relation holding now outside the story read off the minimum.
    Rigid motion (|dv|^2 below `MIN_MOVING_SPEED_SQ`, subnormal or 0) has no
    distinguished instant and returns (None, |dp|).  Raises ValueError when
    |dv|^2, t_min or d_min overflows.
    """
    dp, dv = state.dp, state.dv
    a = dv.norm_sq()
    if a < MIN_MOVING_SPEED_SQ:
        return None, dp.norm()
    t_min = -dp.dot(dv) / a
    d_min = abs(dp.cross(dv)) / math.sqrt(a)
    if not (math.isfinite(a) and math.isfinite(t_min) and math.isfinite(d_min)):
        raise ValueError(
            f"relative motion overflows: |dv|^2={a!r}, t_min={t_min!r}, d_min={d_min!r}"
        )
    return t_min, min(d_min, dp.norm())


def center_distance_at(state: UniformMotionState, t: float) -> float:
    """Center distance at epoch-relative time t, computed from positions.

    This is the scalar definition of the distance; the sampling oracle's
    float closure and its `math.hypot` re-evaluations reproduce it bit for
    bit in the frame of their plan's middle."""
    d = math.hypot(state.dp.x + state.dv.x * t, state.dp.y + state.dv.y * t)
    _require_finite("center distance", d)
    return d
