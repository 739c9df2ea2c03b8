"""Brute-force references: sampled story reconstruction and phase-space sweeps.

Nothing here is used on the classification fast path; these functions exist to
cross-check the analytic story derivation and to validate derived structures.
The sampler works purely from positional distances, never from the
closed-form closest approach, in the time frame of its plan's middle.  It
takes its grid distances with `np.hypot` and classifies them in one array
pass (`stories.Axis.rows_at`); `math.hypot` is taken again only on samples
whose last bit could move a row or the minimum's index, and on subnormal and
nearly overflowing ones, so the grid equals `center_distance_at`'s bit for
bit.  Only its label-change bisection, `resolve_changes`, and its minimum
search are scalar, and both read one float closure of the motion.  The
bisection narrows each change to adjacent floats and returns the story itself:
the first label and one (instant, label) per change.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .kinematics import Disc, UniformMotionState, Vec2, closest_approach_state
from .stories import (
    DEFAULT_TOLERANCE,
    RccRelation,
    TemporalSequence,
    Tolerance,
    axis,
    distance_inside,
    story_of,
)

# The minimum search's stop, relative to the local time scale.  A stop at
# float resolution would run into its iteration cap near tau = 0, which is
# where every default plan puts the minimum.
_REFINE_REL = 1e-13

# np.hypot and math.hypot may round a distance to neighbouring floats.  A grid
# distance is taken again with math.hypot where a relative change far above
# that 1-ulp error could move it across a break or tie it with the minimum;
# below the smallest normal float an ulp is no longer relative.
_HYPOT_MARGIN = 2.0**-40
_SMALLEST_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class SamplingPlan:
    """`points` evenly spaced instants from `middle - half_width` to
    `middle + half_width`, both finite, as is the grid's width; the sampler
    works in the frame of `middle`."""

    middle: float
    half_width: float
    points: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.middle):
            raise ValueError(f"middle must be finite, got {self.middle!r}")
        w = self.half_width
        if not (w > 0 and math.isfinite(2.0 * w) and math.isfinite(abs(self.middle) + w)):
            raise ValueError(f"half_width must be positive and keep the grid finite, got {w!r}")
        if self.points < 11:
            raise ValueError(f"points must be at least 11, got {self.points!r}")


def default_plan(state: UniformMotionState, n_points: int = 801) -> SamplingPlan:
    """`n_points` instants about closest approach, reaching DC at both ends;
    under rigid motion, where every window shows the one relation, about the
    epoch.  The ends lie a margin past the radii's sum, 1 m or a relative
    2^-40 of it, whichever is larger, so the margin is not lost in rounding."""
    t_min, _ = closest_approach_state(state)
    if t_min is None:
        return SamplingPlan(0.0, 1.0, n_points)
    r_sum = state.disc_k.radius + state.disc_l.radius
    reach = r_sum + max(1.0, r_sum * 2.0**-40)
    return SamplingPlan(t_min, reach / state.dv.norm() + 1.0, n_points)


def _refine_minimum(distance: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section minimum of `distance` on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = distance(c)
    fd = distance(d)
    for _ in range(120):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = distance(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = distance(d)
        if b - a <= _REFINE_REL * max(1.0, abs(a), abs(b)):
            break
    return (a + b) / 2.0


def resolve_changes(
    classify: Callable[[float], Any], samples: Sequence[tuple[float, Any]]
) -> list[tuple[float, Any]]:
    """Reduce chronological (t, label) samples to the first sample and one
    (t, label) per label change, so consecutive labels differ.

    Each change is bisected, earliest first, until its ends are adjacent
    floats (the midpoint rounds to one of them) and yields the later end; a
    third label met in between is bisected on both sides, so labels holding
    for less than the sample spacing are found.
    """
    out = [samples[0]]
    stack = [(t0, r0, t1, r1) for (t0, r0), (t1, r1) in zip(samples, samples[1:]) if r1 != r0]
    stack.reverse()
    while stack:
        t0, r0, t1, r1 = stack.pop()
        tm = (t0 + t1) / 2.0
        if tm == t0 or tm == t1:
            out.append((t1, r1))
            continue
        rm = classify(tm)
        if rm != r1:
            stack.append((tm, rm, t1, r1))
        if rm != r0:
            stack.append((t0, r0, tm, rm))
    return out


def sample_story(
    state: UniformMotionState,
    plan: SamplingPlan,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> TemporalSequence:
    """Reconstruct the relation sequence by sampling distances on a grid.

    Grid classification alone misses relations holding only for an instant
    (tangencies) with probability one, so the sampler additionally refines
    the distance minimum and bisects every detected boundary to adjacent floats.
    The grid distances are `np.hypot` of `center_distance_at`'s coordinates;
    `math.hypot` is taken again only where the last bit could change a row
    or the minimum's index, and on subnormal and nearly overflowing samples.
    Samples away from a label change and the minimum are dropped.  The
    minimum search and the bisection read one float closure of the motion.
    It samples `np.linspace(-half_width, half_width, points)` in the frame
    tau = t - middle of the plan, as far from the epoch a tangency can be
    shorter than a float step there.  The sequence's labels and boundaries
    are `resolve_changes`'s, and its interval is the whole grid; each instant
    returns to epoch-relative time by adding `middle` back, last.  Where the
    grid's two ends round to one float, the interval is the floats around it.
    """
    mid, half, dp, dv = plan.middle, plan.half_width, state.dp, state.dv
    at_mid = Vec2(dp.x + dv.x * mid, dp.y + dv.y * mid)  # disc l relative to disc k
    px, py, vx, vy = at_mid.x, at_mid.y, dv.x, dv.y

    def distance(tau: float) -> float:
        d = math.hypot(px + vx * tau, py + vy * tau)
        if not d < math.inf:  # center_distance_at's error
            raise ValueError(f"center distance must be finite, got {d!r}")
        return d

    grid = np.linspace(-half, half, plan.points)
    ax = axis(state.disc_k.radius, state.disc_l.radius, tol)
    rels, breaks = [row.rel for row in ax.rows], ax.breaks
    with np.errstate(over="ignore"):  # rows_at rejects the infinite distance
        xs, ys = px + vx * grid, py + vy * grid
        dists = np.hypot(xs, ys)
        below, above = dists * (1.0 - _HYPOT_MARGIN), dists * (1.0 + _HYPOT_MARGIN)
        # searchsorted, as rows_at would reject the overflowing margin.
        redo = np.searchsorted(breaks, below, "right") != np.searchsorted(breaks, above, "right")
        redo |= (dists < _SMALLEST_NORMAL) | (above == math.inf)
        if vx or vy:  # under rigid motion every sample is one float and argmin is 0
            redo |= dists <= dists.min() * (1.0 + _HYPOT_MARGIN)
    at = np.flatnonzero(redo)
    dists[at] = list(map(math.hypot, xs[at].tolist(), ys[at].tolist()))
    rows = ax.rows_at(dists)

    def classify(tau: float) -> RccRelation:
        return rels[bisect_right(breaks, distance(tau))]

    # Locate the minimum-distance instant; tangency stories are visible only there.
    i_min, last = int(np.argmin(dists)), len(grid) - 1
    lo, hi = max(0, i_min - 1), min(last, i_min + 1)
    changes = np.flatnonzero(rows[1:] != rows[:-1])
    keep = np.unique(np.concatenate(([0, last, lo, i_min, hi], changes, changes + 1)))
    ts = grid.tolist()
    samples = [(ts[i], rels[r]) for i, r in zip(keep.tolist(), rows[keep].tolist())]
    if ts[lo] < ts[hi]:
        t_at_min = _refine_minimum(distance, ts[lo], ts[hi])
        if abs(t_at_min) < half and t_at_min not in ts[lo : hi + 1]:
            samples.append((t_at_min, classify(t_at_min)))
            samples.sort(key=lambda s: s[0])

    refined = resolve_changes(classify, samples)
    start, end = ts[0] + mid, ts[-1] + mid
    if start == end:  # the grid is narrower than a float step at its middle
        start, end = math.nextafter(start, -math.inf), math.nextafter(end, math.inf)
    return TemporalSequence(
        tuple(rel for _, rel in refined), (start, end), tuple(t + mid for t, _ in refined[1:])
    )


def canonical_state(
    r_k: float,
    r_l: float,
    miss_distance: float,
    time_to_approach: float,
    speed: float = 1.0,
) -> UniformMotionState:
    """A state with disc l motionless at the origin and disc k approaching
    along a horizontal line with the given perpendicular miss distance.

    `time_to_approach` is the (signed) time from the epoch until closest
    approach: positive means the discs are still approaching.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    if miss_distance < 0:
        raise ValueError("miss distance must be non-negative")
    # Relative position of l from k at the epoch.
    dp = Vec2(-speed * time_to_approach, miss_distance)
    return UniformMotionState(
        disc_k=Disc(Vec2(-dp.x, -dp.y), r_k),
        vel_k=Vec2(-speed, 0.0),
        disc_l=Disc(Vec2(0.0, 0.0), r_l),
        vel_l=Vec2(0.0, 0.0),
        epoch=0.0,
    )


def rigid_state(r_k: float, r_l: float, distance: float, vel: Vec2 = Vec2(0.0, 0.0)) -> UniformMotionState:
    """Both discs share `vel`; centers a fixed `distance` apart."""
    if distance < 0:
        raise ValueError("distance must be non-negative")
    return UniformMotionState(
        disc_k=Disc(Vec2(-distance, 0.0), r_k),
        vel_k=vel,
        disc_l=Disc(Vec2(0.0, 0.0), r_l),
        vel_l=vel,
        epoch=0.0,
    )


def _targeted_states(r_k: float, r_l: float, tol: Tolerance) -> list[UniformMotionState]:
    """A state with its closest approach inside each miss-distance regime, and
    a rigid state at that distance."""
    distances = [distance_inside(span) for span in axis(r_k, r_l, tol).spans]
    return [canonical_state(r_k, r_l, h, time_to_approach=3.0) for h in distances] + [
        rigid_state(r_k, r_l, d) for d in distances
    ]


def sweep_stories(
    r_k: float,
    r_l: float,
    n_states: int,
    seed: int = 20170720,
    tol: Tolerance = DEFAULT_TOLERANCE,
    targeted: bool = True,
) -> frozenset[tuple[RccRelation, ...]]:
    """Deduplicated label sequences found by a pseudo-random phase-space sweep.

    Random sampling alone never hits the measure-zero tangency regimes or the
    rigid (equal-velocity) subspace, so targeted samples landing exactly on
    each threshold are mixed in by default.
    """
    if n_states < 1:
        raise ValueError("need at least one state")
    rng = np.random.default_rng(seed)
    found: set[tuple[RccRelation, ...]] = set()
    for _ in range(n_states):
        px, py, qx, qy = rng.uniform(-50.0, 50.0, size=4)
        speeds = rng.uniform(0.0, 10.0, size=2)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=2)
        state = UniformMotionState(
            disc_k=Disc(Vec2(px, py), r_k),
            vel_k=Vec2(speeds[0] * math.cos(angles[0]), speeds[0] * math.sin(angles[0])),
            disc_l=Disc(Vec2(qx, qy), r_l),
            vel_l=Vec2(speeds[1] * math.cos(angles[1]), speeds[1] * math.sin(angles[1])),
        )
        found.add(story_of(state, tol).labels)
    if targeted:
        for state in _targeted_states(r_k, r_l, tol):
            found.add(story_of(state, tol).labels)
    return frozenset(found)
