"""Brute-force references: sampled story reconstruction and phase-space sweeps.

Nothing here is used on the classification fast path; these functions exist to
cross-check the analytic story derivation and to validate derived structures.
The sampler works purely from positional distances, never from the
closed-form closest approach, in the time frame of its plan's middle.  Under
rigid motion every sample is one float, so one `math.hypot` and its row give
the one-label story over the grid's interval.  Otherwise the grid is
`np.linspace`'s arithmetic on a cached ramp, and one array pass,
`stories.hypot_at_breaks`, the rule the batch classifier shares, yields its
distances and their rows: `math.hypot` is taken again, with its row, only
where a sample's last bit could move a row.  The sampler itself takes again
the samples that could tie with the minimum and rejects an infinite
distance, so the grid's rows and the minimum's index are those of
`center_distance_at`.  Only its two searches are scalar, and both read one
float closure of the motion: `_refine_minimum` fits parabolas through the
least distances until a step rounds onto a sample it has, and
`resolve_changes` takes secant steps toward each label change's break, with
a midpoint after any that does not halve its bracket, down to adjacent
floats.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kinematics import Disc, UniformMotionState, Vec2, closest_approach_state
from .stories import (
    DEFAULT_TOLERANCE,
    HYPOT_MARGIN,
    RccRelation,
    TemporalSequence,
    Tolerance,
    axis,
    hypot_at_breaks,
    story_of,
)

# The minimum search's golden-section share and its floor, per its first bracket.
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_MIN_FLOOR = 2.0**-52
_Sample = tuple[float, float]  # (tau, distance)


@dataclass(frozen=True)
class SamplingPlan:
    """`points` evenly spaced instants from `middle - half_width` to
    `middle + half_width`, both finite, as is the grid's width; the sampler
    works in the frame of `middle`.  `points` is an integer, of any type
    `operator.index` takes, and at least 11."""

    middle: float
    half_width: float
    points: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.middle):
            raise ValueError(f"middle must be finite, got {self.middle!r}")
        w = self.half_width
        if not (w > 0 and math.isfinite(2.0 * w) and math.isfinite(abs(self.middle) + w)):
            raise ValueError(f"half_width must be positive and keep the grid finite, got {w!r}")
        try:
            points = operator.index(self.points)
        except TypeError:
            raise ValueError(f"points must be an integer, got {self.points!r}") from None
        if points < 11:
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


@functools.lru_cache(maxsize=8)
def _ramp(points: int) -> np.ndarray:
    """`np.arange(points)` as floats, read-only."""
    ramp = np.arange(points, dtype=float)
    ramp.flags.writeable = False
    return ramp


def _grid(half: float, points: int) -> np.ndarray:
    """`np.linspace(-half, half, points)`, bit for bit: its arithmetic on a
    cached ramp, or linspace itself where its step underflows to 0."""
    step = 2.0 * half / (points - 1)
    if not step:
        return np.linspace(-half, half, points)
    grid = _ramp(points) * step - half
    grid[-1] = half
    return grid


def _refine_minimum(
    distance: Callable[[float], float], lo: _Sample, best: _Sample, hi: _Sample
) -> _Sample:
    """The least (tau, distance) found from samples `lo`, `best` (the least)
    and `hi` by successive parabolic interpolation through the three least
    samples; a golden-section step, into the larger side of the best, where
    they do not bend up or the vertex is outside the bracket or not nearer than
    half the step before last.  It stops where the vertex is not a float of
    distance below the best, at 2^-52 of the first bracket, or where a step
    rounds onto a sample taken: the best or an end.  Each factor of the
    vertex is a time, a slope or a ratio of them, so none overflows."""
    (a, _), (x, fx), (b, _) = lo, best, hi
    floor, least = _MIN_FLOOR * (b - a), sorted({lo, best, hi}, key=lambda p: p[1])
    before = step = b - a
    while b - a > floor:
        u = math.nan
        if len(least) == 3:
            (t0, f0), (t1, f1), (t2, f2) = sorted(least)
            m0, m1 = (f1 - f0) / (t1 - t0), (f2 - f1) / (t2 - t1)
            if m0 < m1:
                u = (t0 + t1) / 2.0 - (t2 - t0) * (m0 / (m1 - m0)) / 2.0
                if fx - (m1 - m0) * ((u - x) / (t2 - t0)) * (u - x) == fx:
                    break
        if a < u < b and abs(u - x) < before / 2.0:
            before, step = step, abs(u - x)
        else:
            side = a - x if x - a > b - x else b - x
            before, step, u = abs(side), abs(side) * _GOLDEN, x + side * _GOLDEN
        if u in (a, x, b):
            break
        fu = distance(u)
        if fu < fx:
            a, b, x, fx = (a, x, u, fu) if u < x else (x, b, u, fu)
        else:
            a, b = (u, b) if u < x else (a, u)
        least = sorted([*least, (u, fu)], key=lambda p: p[1])[:3]
    return x, fx


def resolve_changes(
    distance: Callable[[float], float], breaks: Sequence[float], samples: Sequence[_Sample]
) -> list[_Sample]:
    """Reduce chronological (tau, distance) samples to the first and one per
    change of row, `bisect_right(breaks, distance)`, so consecutive rows differ.

    Each change is searched, earliest first, to adjacent floats (where the
    midpoint rounds to an end) and yields the later end; a third row met
    inside is searched on both sides.  A trial is the secant estimate, through
    the two latest samples, of where the distance meets the break next to the
    earlier end's row, kept a float inside the bracket; a trial that does not
    halve the bracket is followed by its midpoint, so the search takes at most
    twice the bisection's trials.
    """
    out = [samples[0]]
    rows = [bisect_right(breaks, d) for _, d in samples]
    stack = [(*s0, *s1) for s0, s1, r0, r1 in zip(samples, samples[1:], rows, rows[1:]) if r0 != r1]
    stack.reverse()  # the earliest change on top
    while stack:
        a, da, b, db = tp, dp, tq, dq = stack.pop()
        ra, rb = bisect_right(breaks, da), bisect_right(breaks, db)
        halved, interpolate = (b - a) / 2.0, True
        while a < (t := (a + b) / 2.0) < b:
            if interpolate and dq != dp:
                y = breaks[ra] if ra < rb else breaks[ra - 1]
                t = tq + (tq - tp) * ((y - dq) / (dq - dp))
                t = min(max(t, math.nextafter(a, b)), math.nextafter(b, a))
            d = distance(t)
            r = bisect_right(breaks, d)
            if r == ra:
                a, da = t, d
            else:
                if r != rb:
                    stack.append((t, d, b, db))
                b, db, rb = t, d, r
            tp, dp, tq, dq = tq, dq, t, d
            halved, interpolate = ((b - a) / 2.0, True) if b - a <= halved else (halved, False)
        out.append((b, db))
    return out


def sample_story(
    state: UniformMotionState,
    plan: SamplingPlan,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> TemporalSequence:
    """Reconstruct the relation sequence by sampling distances on a grid,
    `np.linspace(-half_width, half_width, points)` in the frame tau = t -
    middle of the plan, as far from the epoch a tangency can be shorter than
    a float step there.  Grid classification alone misses relations holding
    only for an instant (tangencies), so the least distance is refined and
    each label change searched: the labels and boundaries are those of
    `resolve_changes`, with `middle` added back last, and the interval is the
    whole grid, or the floats about it where its two ends round to one.
    Under rigid motion (dv exactly 0) every sample is one float, taken once."""
    mid, half, dp, dv = plan.middle, plan.half_width, state.dp, state.dv
    at_mid = Vec2(dp.x + dv.x * mid, dp.y + dv.y * mid)  # disc l relative to disc k
    px, py, vx, vy = at_mid.x, at_mid.y, dv.x, dv.y
    ax = axis(state.disc_k.radius, state.disc_l.radius, tol)
    rels, breaks = [row.rel for row in ax.rows], ax.breaks
    start, end = mid - half, mid + half  # the grid's ends, -half and half, moved back
    if start == end:  # the grid is narrower than a float step at its middle
        start, end = math.nextafter(start, -math.inf), math.nextafter(end, math.inf)
    if not (vx or vy):  # rigid: every sample is the float (px, py)
        return TemporalSequence((rels[ax.row(math.hypot(px, py))],), (start, end), ())

    def distance(tau: float) -> float:
        d = math.hypot(px + vx * tau, py + vy * tau)
        if not d < math.inf:  # center_distance_at's error
            raise ValueError(f"center distance must be finite, got {d!r}")
        return d

    points = operator.index(plan.points)
    grid = _grid(half, points)
    with np.errstate(over="ignore"):
        xs, ys = px + vx * grid, py + vy * grid
        dists, rows = hypot_at_breaks(xs, ys, breaks)
        # Samples that could tie with the minimum are taken again; their rows stand.
        at = np.flatnonzero(dists <= dists.min() * (1.0 + HYPOT_MARGIN))
        dists[at] = list(map(math.hypot, xs[at].tolist(), ys[at].tolist()))
    ax.row(float(dists.max()))  # an infinite distance raises, as under rigid motion

    # Locate the minimum-distance instant; tangency stories are visible only there.
    i_min, last = int(np.argmin(dists)), points - 1
    lo, hi = max(0, i_min - 1), min(last, i_min + 1)
    changes = np.flatnonzero(rows[1:] != rows[:-1]).tolist()
    keep = sorted({0, last, lo, i_min, hi, *changes, *(i + 1 for i in changes)})
    kept = {i: (t, distance(t)) for i, t in zip(keep, grid[keep].tolist())}
    samples = list(kept.values())
    if kept[lo][0] < kept[hi][0]:
        t_at_min, d_at_min = _refine_minimum(distance, kept[lo], kept[i_min], kept[hi])
        if t_at_min != kept[i_min][0]:
            insort(samples, (t_at_min, d_at_min))
    refined = resolve_changes(distance, breaks, samples)
    labels = tuple(rels[bisect_right(breaks, d)] for _, d in refined)
    return TemporalSequence(labels, (start, end), tuple(t + mid for t, _ in refined[1:]))


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
    ax = axis(r_k, r_l, tol)
    distances = ax.pick(np.arange(len(ax.rows))).tolist()
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
        # Python floats, not numpy scalars: at huge radii a product in
        # `story_of` overflows to inf without a numpy RuntimeWarning.
        px, py, qx, qy = rng.uniform(-50.0, 50.0, size=4).tolist()
        speeds = rng.uniform(0.0, 10.0, size=2).tolist()
        angles = rng.uniform(0.0, 2.0 * math.pi, size=2).tolist()
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
