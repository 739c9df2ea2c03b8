import bisect
import functools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from motionstories.kinematics import (
    Disc,
    UniformMotionState,
    Vec2,
    center_distance_at,
    closest_approach_state,
)
import motionstories.oracle
from motionstories.oracle import (
    SamplingPlan,
    _grid,
    _refine_minimum,
    canonical_state,
    default_plan,
    resolve_changes,
    rigid_state,
    sample_story,
    sweep_stories,
)
from motionstories.stories import (
    DEFAULT_TOLERANCE,
    STORY_LABELS,
    RccRelation,
    StoryId,
    TemporalSequence,
    Tolerance,
    axis,
    classify_discs,
    story_of,
)

R = RccRelation

SCENARIO_A = UniformMotionState(
    disc_k=Disc(Vec2(0, 0), 1.0),
    vel_k=Vec2(2, 0),
    disc_l=Disc(Vec2(10, 3), 2.0),
    vel_l=Vec2(-1, 0),
)
SCENARIO_B = UniformMotionState(
    disc_k=Disc(Vec2(0, 0), 1.0),
    vel_k=Vec2(1, -1),
    disc_l=Disc(Vec2(10, -5), 2.0),
    vel_l=Vec2(-1, 0),
)


class TestSamplingPlan:
    def test_rejects_bad_intervals(self):
        for middle in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="middle must be finite"):
                SamplingPlan(middle, 1.0, 11)
        for half_width in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="half_width must be positive"):
                SamplingPlan(0.0, half_width, 11)
        with pytest.raises(ValueError, match="points must be at least 11, got 10"):
            SamplingPlan(0.0, 1.0, 10)  # grid too coarse

    @pytest.mark.parametrize("points", [12.0, 801.0, np.float64(801), "801", None])
    def test_rejects_points_that_are_no_integer(self, points):
        with pytest.raises(ValueError, match=r"points must be an integer, got "):
            SamplingPlan(3.0, 5.0, points)

    @pytest.mark.parametrize("points", [np.int64(801), np.int32(12), 801])
    def test_takes_integer_types(self, points):
        plan = SamplingPlan(3.0, 5.0, points)
        state = canonical_state(1.0, 2.0, 0.5, 3.0)
        assert _bits(sample_story(state, plan)) == _bits(sample_story(state, SamplingPlan(3.0, 5.0, int(points))))

    # The grid's width 2·half_width overflows, or one of its ends does.
    @pytest.mark.parametrize(
        "middle, half_width", [(0.0, 1e308), (-1.0, 1e308), (1.7e308, 5e307), (-1.7e308, 5e307)]
    )
    def test_rejects_overflowing_half_width(self, middle, half_width):
        with pytest.raises(ValueError, match="half_width must be positive and keep the grid finite"):
            sample_story(canonical_state(1.0, 2.0, 0.5, 0.0, 1.0), SamplingPlan(middle, half_width, 201))

    def test_ends_may_reach_the_largest_float(self):
        top = sys.float_info.max
        assert SamplingPlan(top / 2, top / 2, 11).half_width == top / 2

    def test_default_plan_reaches_dc_at_both_ends(self):
        plan = default_plan(SCENARIO_B)
        labels = sample_story(SCENARIO_B, plan).labels
        assert labels[0] is R.DC and labels[-1] is R.DC

    # From r_sum near 1e16 on, r_sum + 1 rounds to r_sum: an absolute 1 m
    # margin would end the grid on the EC tangency.
    @pytest.mark.parametrize("r", [1e16, 1e17, 1e20, 1e100, 1e200])
    def test_default_plan_reaches_dc_at_large_radii(self, r):
        state = canonical_state(r, 2.0 * r, 0.5, 3.0, 1.0)
        labels = sample_story(state, default_plan(state)).labels
        assert labels[0] is R.DC and labels[-1] is R.DC

    def test_default_plan_is_deterministic(self):
        assert default_plan(SCENARIO_B) == default_plan(SCENARIO_B)

    @pytest.mark.parametrize("n_points", [-1, 0, 1, 2, 10])
    @pytest.mark.parametrize("state", [SCENARIO_B, rigid_state(1.0, 2.0, 0.5)], ids=["moving", "rigid"])
    def test_default_plan_needs_eleven_points(self, state, n_points):
        with pytest.raises(ValueError, match=f"points must be at least 11, got {n_points}"):
            default_plan(state, n_points)

    def test_default_plan_of_eleven_points(self):
        assert default_plan(rigid_state(1.0, 2.0, 0.5), 11) == SamplingPlan(0.0, 1.0, 11)


class TestSampleStory:
    def test_scenario_b_nine_labels(self):
        seq = sample_story(SCENARIO_B, default_plan(SCENARIO_B))
        assert seq.labels == STORY_LABELS[StoryId.S15]

    def test_scenario_a_detects_instantaneous_tangency(self):
        seq = sample_story(SCENARIO_A, default_plan(SCENARIO_A))
        assert seq.labels == (R.DC, R.EC, R.DC)
        # The EC span is the tolerance band around the tangency instant;
        # its midpoint must agree with the analytic minimum.
        enter, leave = seq.boundaries
        assert abs((enter + leave) / 2 - 10 / 3) < 1e-5

    def test_scenario_b_boundaries_match_analytic(self):
        seq = sample_story(SCENARIO_B, default_plan(SCENARIO_B))
        e, i = 3 / math.sqrt(5), 1 / math.sqrt(5)
        analytic = (5 - e, 5 - i, 5 + i, 5 + e)
        # Boundary pairs straddle each analytic crossing within the band width.
        for idx, t in enumerate(analytic):
            pair = seq.boundaries[2 * idx : 2 * idx + 2]
            assert min(abs(b - t) for b in pair) < 1e-6

    def test_rigid_containment(self):
        state = rigid_state(1.0, 2.0, 0.5, vel=Vec2(3, 3))
        seq = sample_story(state, default_plan(state))
        assert seq.labels == (R.NTPP,)

    def test_agrees_with_analytic_on_tangent_story(self):
        state = canonical_state(1.0, 2.0, miss_distance=1.0, time_to_approach=4.0)
        assert story_of(state).id is StoryId.S14
        assert sample_story(state, default_plan(state)).labels == STORY_LABELS[StoryId.S14]

    # At 1e5 s the float step is 1.5e-11 s, and the TPP band of a 0.5 m miss
    # lasts 2.3e-9 s: absolute-time bisection stopped at 1e-8 s and lost it.
    @pytest.mark.parametrize("speed", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("tta", [1e5, 1e6, 1e8])
    def test_far_from_the_epoch(self, tta, speed):
        state = canonical_state(1.0, 2.0, 0.5, tta, speed)
        assert sample_story(state, default_plan(state)).labels == story_of(state).labels

    def test_random_states_far_from_the_epoch(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            miss, speed = rng.uniform(0.0, 4.0), rng.uniform(0.5, 5.0)
            state = canonical_state(1.0, 2.0, miss, 1e5, speed)
            assert sample_story(state, default_plan(state)).labels == story_of(state).labels

    # At the EC crossings, |tau| = 3.5e5 s, the discs cross the EC band in
    # 2.3e-9 s, about 40 float steps of tau, far below 1e-13·|tau|.
    def test_crossing_tangencies_at_large_radii(self):
        state = UniformMotionState(
            Disc(Vec2(-1e6, 2e5), 1e5), Vec2(1.0, 0.0), Disc(Vec2(0.0, 0.0), 3e5), Vec2(0.0, 0.0)
        )
        assert sample_story(state, default_plan(state)).labels == story_of(state).labels

    # Radii near 1e-300 under eps 1e-310: every change lies within 1e-299 s
    # of closest approach in a window 2 s wide, about a thousand bisection
    # levels below the grid and far below 1e-13 s.
    def test_tangencies_at_tiny_radii(self):
        state, tol = canonical_state(1e-300, 3e-300, 2e-300, 0.0, 1.0), Tolerance(1e-310)
        story = story_of(state, tol)
        assert story.id is StoryId.S14
        assert sample_story(state, default_plan(state), tol).labels == story.labels

    # t_min -/+ 5 s round to the one float 1e17 (ulp 16): the interval must
    # still hold the story, as the floats around it.
    def test_closest_approach_1e17_s_away(self):
        state = canonical_state(1.0, 2.0, 0.5, 1e17, 1.0)
        assert sample_story(state, default_plan(state)).labels == story_of(state).labels

    # Each plan's last grid step holds a label change: the interval must still
    # end at the plan's end, after the last boundary.
    @pytest.mark.parametrize(
        "state, plan",
        [
            (canonical_state(3.0, 1e4, 0.0, 0.0, 1.0), None),
            (canonical_state(1.0, 2.0, 0.0, -2.05), SamplingPlan(0.0, 1.0, 11)),
        ],
        ids=["default-plan", "explicit-plan"],
    )
    def test_interval_ends_at_the_plan_end(self, state, plan):
        plan = plan or default_plan(state)
        seq = sample_story(state, plan)
        assert seq.interval[1] == plan.half_width + plan.middle
        assert seq.boundaries[-1] < seq.interval[1]

    @pytest.mark.parametrize("r_k, r_l", [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5)])
    def test_instants_agree_with_analytic(self, r_k, r_l):
        # Random states as in acceptance criterion 5, at random epochs.  Each
        # threshold theta is crossed while the center distance passes through
        # its eps band, t_min -/+ sqrt((theta +/- eps)^2 - h^2) / |dv| before
        # and after closest approach.  Both sampled boundaries of a crossing
        # and the analytic instant must lie in that span, widened by a few
        # float steps of the span and of the epoch: the bisection stops at
        # adjacent floats, and the absolute analytic instants round there.
        eps = DEFAULT_TOLERANCE.eps
        thresholds = (r_k + r_l, abs(r_k - r_l))
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 150:
            px, py, qx, qy = rng.uniform(-30.0, 30.0, size=4)
            vx, vy, wx, wy = rng.uniform(-5.0, 5.0, size=4)
            state = UniformMotionState(
                Disc(Vec2(px, py), r_k), Vec2(vx, vy),
                Disc(Vec2(qx, qy), r_l), Vec2(wx, wy), rng.uniform(-1e3, 1e3),
            )
            t_min, h = closest_approach_state(state)
            if t_min is None or min(abs(h - theta) for theta in thresholds) <= 10 * eps:
                continue
            checked += 1
            story = story_of(state)
            sampled = sample_story(state, default_plan(state))
            assert sampled.labels == story.labels

            def reach(d):
                return math.sqrt((d - h) * (d + h)) / state.dv.norm()

            above = sorted(theta for theta in thresholds if theta > h)
            spans = [(t_min - reach(th + eps), t_min - reach(th - eps)) for th in reversed(above)]
            spans += [(t_min + reach(th - eps), t_min + reach(th + eps)) for th in above]
            analytic = [b - state.epoch for b in story.boundaries]
            for j, (lo, hi) in enumerate(spans):
                slack = 4 * (math.ulp(max(abs(lo), abs(hi))) + math.ulp(state.epoch))
                for t in (*sampled.boundaries[2 * j : 2 * j + 2], *analytic[2 * j : 2 * j + 2]):
                    assert lo - slack <= t <= hi + slack


def _scalar_changes(state, plan, tol=DEFAULT_TOLERANCE):
    """The sampler before its grid became arrays, kept as the reference:
    `center_distance_at` at every grid instant, then every sample into
    `_refine_minimum` and `resolve_changes` with the axis's breaks, all in
    the frame of the plan's middle.  Returns the state moved to that frame,
    with disc k at rest at the origin, and the (tau, distance) changes."""
    mid, half, dp, dv = plan.middle, plan.half_width, state.dp, state.dv
    r_k, r_l = state.disc_k.radius, state.disc_l.radius
    at_mid = Disc(Vec2(dp.x + dv.x * mid, dp.y + dv.y * mid), r_l)
    state = UniformMotionState(Disc(Vec2(0.0, 0.0), r_k), Vec2(0.0, 0.0), at_mid, dv)
    distance = functools.partial(center_distance_at, state)
    grid = np.linspace(-half, half, plan.points).tolist()
    samples = [(t, distance(t)) for t in grid]
    i_min = int(np.argmin([d for _, d in samples]))
    lo, hi = max(0, i_min - 1), min(len(grid) - 1, i_min + 1)
    if (dv.x or dv.y) and grid[lo] < grid[hi]:
        t_at_min, d_at_min = _refine_minimum(distance, samples[lo], samples[i_min], samples[hi])
        if t_at_min != grid[i_min]:
            samples.append((t_at_min, d_at_min))
            samples.sort()
    return state, resolve_changes(distance, axis(r_k, r_l, tol).breaks, samples)


def _scalar_sample_story(state, plan, tol=DEFAULT_TOLERANCE):
    """`_scalar_changes` as a sequence: `classify_discs` of each distance,
    the whole grid as its interval, and the interval and boundaries shifted
    back at the end."""
    r_k, r_l, mid, half = state.disc_k.radius, state.disc_l.radius, plan.middle, plan.half_width
    _, refined = _scalar_changes(state, plan, tol)
    return TemporalSequence(
        tuple(classify_discs(d, r_k, r_l, tol) for _, d in refined),
        (-half + mid, half + mid),  # np.linspace's ends are exactly its bounds
        tuple(t + mid for t, _ in refined[1:]),
    )


def _bits(seq):
    """A temporal sequence's labels and the bits of its instants."""
    return seq.labels, [t.hex() for t in (*seq.interval, *seq.boundaries)]


def _equivalence_states(r_k, r_l):
    """Moving states with their miss distance drawn from each regime, in a
    random direction about a random point; canonical states at each threshold
    moved by 0, 0.5, 1 and 2 eps either way; rigid states in each regime."""
    eps = DEFAULT_TOLERANCE.eps
    rng = np.random.default_rng(15)
    spans = axis(r_k, r_l).spans
    states = []
    for lo, hi in spans:
        for _ in range(16):
            h = rng.uniform(lo, min(hi, lo + 3.0))
            a, speed, tau = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 5.0), rng.uniform(-4, 4)
            (cx, cy), (wx, wy) = rng.uniform(-30.0, 30.0, 2), rng.uniform(-3.0, 3.0, 2)
            dvx, dvy = speed * math.cos(a), speed * math.sin(a)
            xl = cx - h * math.sin(a) - tau * dvx
            yl = cy + h * math.cos(a) - tau * dvy
            states.append(UniformMotionState(
                Disc(Vec2(cx, cy), r_k), Vec2(wx, wy), Disc(Vec2(xl, yl), r_l), Vec2(wx + dvx, wy + dvy),
            ))
    for theta in axis(r_k, r_l).thresholds:
        for f in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            if theta + f * eps >= 0:
                states.append(canonical_state(r_k, r_l, theta + f * eps, rng.uniform(-4, 4)))
    vel = Vec2(*rng.uniform(-3.0, 3.0, 2))
    picks = axis(r_k, r_l).pick(np.arange(len(spans))).tolist()
    return states + [rigid_state(r_k, r_l, d, vel) for d in picks]


class TestArrayGrid:
    @pytest.mark.parametrize("r_k, r_l", [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5)], ids=["lt", "gt", "eq"])
    def test_equals_the_scalar_sampler(self, r_k, r_l):
        for state in _equivalence_states(r_k, r_l):
            # An odd point count puts a grid point at the minimum; 200 does not.
            for plan in (default_plan(state), default_plan(state, 201), default_plan(state, 200)):
                assert _bits(sample_story(state, plan)) == _bits(_scalar_sample_story(state, plan))

    def test_center_distance_takes_vec2_float_operations(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c, d = (Vec2(*rng.uniform(-50.0, 50.0, 2)) for _ in range(4))
            state = UniformMotionState(Disc(a, 1.0), b, Disc(c, 2.0), d)
            t = rng.uniform(-1e3, 1e3)
            dp, dv = state.dp, state.dv
            assert center_distance_at(state, t) == Vec2(dp.x + dv.x * t, dp.y + dv.y * t).norm()

    @pytest.mark.parametrize(
        "vel, t",
        [
            (Vec2(1e300, 0.0), 1e10),  # dv.x * t overflows
            (Vec2(0.0, -1e300), 1e10),  # dv.y * t overflows
            (Vec2(1e308, 0.0), 1.0),  # dp.x + dv.x * t overflows
            (Vec2(0.0, 1.7e308), 1.0),  # only the distance overflows
            (Vec2(0.0, 0.0), math.inf),  # 0 * inf
            (Vec2(1.0, 1.0), math.nan),
        ],
    )
    def test_center_distance_overflow_raises(self, vel, t):
        state = UniformMotionState(Disc(Vec2(-1e308, 0.0), 1.0), Vec2(0.0, 0.0), Disc(Vec2(0.0, 0.0), 2.0), vel)
        with pytest.raises(ValueError, match="must be finite"):
            center_distance_at(state, t)

    def test_grid_overflow_raises(self):
        state = UniformMotionState(
            Disc(Vec2(0.0, 0.0), 1.0), Vec2(0.0, 0.0), Disc(Vec2(1.0, 0.0), 2.0), Vec2(1e300, 0.0)
        )
        with pytest.raises(ValueError, match=r"^center distance must be finite and >= 0, got inf$"):
            sample_story(state, SamplingPlan(0.0, 1e10, 21))

    @pytest.mark.parametrize("vx", [1e307, -1e307])
    def test_overflow_at_one_end_of_the_grid_raises(self, vx):
        # The samples at one end lie past the largest float; the least
        # distance, at the other, is finite.
        state = UniformMotionState(
            Disc(Vec2(0.0, 0.0), 1.0), Vec2(0.0, 0.0), Disc(Vec2(math.copysign(1.78e308, vx), 0.0), 2.0),
            Vec2(vx, 0.0),
        )
        with pytest.raises(ValueError, match=r"^center distance must be finite and >= 0, got inf$"):
            sample_story(state, SamplingPlan(0.0, 1.0, 11))


def _rigid_reference(state, plan, tol):
    """The story of every sample of `np.linspace`'s grid, each distance taken
    with `math.hypot` and classified on its own; the interval is the grid's,
    widened a float each way where its ends round to one."""
    mid, dp, dv = plan.middle, state.dp, state.dv
    px, py = dp.x + dv.x * mid, dp.y + dv.y * mid
    r_k, r_l = state.disc_k.radius, state.disc_l.radius
    grid = np.linspace(-plan.half_width, plan.half_width, plan.points).tolist()
    labels = {classify_discs(math.hypot(px + dv.x * t, py + dv.y * t), r_k, r_l, tol) for t in grid}
    start, end = grid[0] + mid, grid[-1] + mid
    if start == end:
        start, end = math.nextafter(start, -math.inf), math.nextafter(end, math.inf)
    assert len(labels) == 1
    return TemporalSequence(tuple(labels), (start, end), ())


class TestGridAndRigidMotion:
    # The largest half-width a plan takes: twice it is the largest float.
    _TOP = sys.float_info.max / 2.0

    @pytest.mark.parametrize("points", [11, 200, 201, 801])
    def test_grid_equals_linspace_bit_for_bit(self, points):
        rng = np.random.default_rng(points)
        halves = [
            *rng.uniform(1e-3, 1e3, 100).tolist(),
            *(10.0 ** rng.uniform(-300.0, 300.0, 100)).tolist(),
            1e-320, 5e-324, sys.float_info.min, self._TOP, math.nextafter(self._TOP, 0.0), self._TOP / 3.0,
        ]
        # The step underflows to 0 at the smallest half-width, and not at 1e-320.
        assert 2.0 * 5e-324 / (points - 1) == 0.0 < 2.0 * 1e-320 / (points - 1)
        for half in halves:
            SamplingPlan(0.0, half, points)  # each is a plan's half-width
            grid, expected = _grid(half, points), np.linspace(-half, half, points)
            assert grid.view(np.int64).tolist() == expected.view(np.int64).tolist(), half

    def test_rigid_on_the_ec_break_at_eps_1e_20(self):
        tol = Tolerance(1e-20)
        state = rigid_state(1.0, 2.0, 3.0)
        assert axis(1.0, 2.0, tol).breaks[2] == 3.0
        got = sample_story(state, default_plan(state), tol)
        assert got.labels == (R.EC,)
        assert _bits(got) == _bits(_rigid_reference(state, default_plan(state), tol))

    @pytest.mark.parametrize("r_k, r_l", [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5)], ids=["lt", "gt", "eq"])
    def test_rigid_in_every_row_equals_every_sample(self, r_k, r_l):
        ax = axis(r_k, r_l)
        # A distance inside each row, and each break with the float below it.
        ds = ax.pick(np.arange(len(ax.rows))).tolist()
        ds += [*ax.breaks[1:], *(math.nextafter(b, 0.0) for b in ax.breaks[1:])]
        plans = [SamplingPlan(0.0, 1.0, 801), SamplingPlan(-3.5, 7.0, 200), SamplingPlan(1e17, 1.0, 11)]
        for d in ds:
            for vel in (Vec2(0.0, 0.0), Vec2(-2.5, 1e-300)):
                state = rigid_state(r_k, r_l, d, vel)
                for plan in [default_plan(state), *plans]:
                    expected = _rigid_reference(state, plan, DEFAULT_TOLERANCE)
                    assert _bits(sample_story(state, plan)) == _bits(expected), (d, plan)

    def test_rigid_takes_one_sample(self, monkeypatch):
        # No grid pass: under rigid motion the array placement is never called.
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was sampled")

        monkeypatch.setattr(motionstories.oracle, "hypot_at_breaks", no_grid)
        state = rigid_state(1.0, 2.0, 3.0, Vec2(4.0, -1.0))
        assert sample_story(state, default_plan(state)).labels == (R.EC,)

    def test_rigid_overflowing_distance_raises(self):
        # Both offsets are finite; their hypot overflows.
        state = UniformMotionState(
            Disc(Vec2(-1e308, 0.0), 1.0), Vec2(3.0, 0.0), Disc(Vec2(0.0, 1.5e308), 2.0), Vec2(3.0, 0.0)
        )
        with pytest.raises(ValueError, match=r"^center distance must be finite and >= 0, got inf$"):
            sample_story(state, default_plan(state))


class TestOnRealMotions:
    @pytest.mark.parametrize("r_k, r_l", [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5)], ids=["lt", "gt", "eq"])
    def test_each_change_is_between_adjacent_floats(self, r_k, r_l):
        # Each sampled boundary t, in the plan's frame, has the previous label
        # one float before it and the new label at it.  The sampler's
        # boundaries are these, bit for bit (TestArrayGrid).
        for state in _equivalence_states(r_k, r_l):
            for plan in (default_plan(state), default_plan(state, 200)):
                moved, refined = _scalar_changes(state, plan)

                def label(t):
                    return classify_discs(center_distance_at(moved, t), r_k, r_l)

                for (_, before), (t, after) in zip(refined, refined[1:]):
                    assert label(math.nextafter(t, -math.inf)) == classify_discs(before, r_k, r_l)
                    assert label(t) == classify_discs(after, r_k, r_l)

    @pytest.mark.xfail(
        strict=True, reason="an even plan misses the EQ instant of an eq pass whose miss is eps"
    )
    def test_an_even_plan_sees_the_eq_instant_of_a_pass_at_eps(self):
        # canonical_state(1.5, 1.5, 1e-9, ...): the EQ row lasts about 1e-17 s
        # about closest approach, which the 200-point plan has no point at,
        # and the minimum search stops short of it.  The 201- and 800-point
        # plans see all seven labels of S15E.
        state = _equivalence_states(1.5, 1.5)[66]
        assert sample_story(state, default_plan(state, 200)).labels == story_of(state).labels

    # 200 passes per radius pair, miss then speed drawn per state.  At
    # (1e7, 3e7) and (1e200, 3e200) the EC band can be shorter than a float
    # step of tau, so no sampler in time sees it: the bisection's counts
    # there are the limits.
    @pytest.mark.parametrize(
        "r_k, r_l, most",
        [(1.0, 2.0, 0), (1e4, 3e4, 0), (1e5, 3e5, 0), (1e7, 3e7, 2), (1e200, 3e200, 5), (1e-300, 3e-300, 0)],
    )
    def test_sweep_at_every_radius_scale(self, r_k, r_l, most):
        rng = np.random.default_rng(0)
        disagree = 0
        for _ in range(200):
            state = canonical_state(r_k, r_l, rng.uniform(0.0, r_k + r_l), 0.0, rng.uniform(0.5, 5.0))
            disagree += sample_story(state, default_plan(state)).labels != story_of(state).labels
        assert disagree <= most


_CONFIGS = [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (1.0, 1.0 + 5e-10)]
_CONFIG_IDS = ["lt", "gt", "eq", "eq-near"]

# On this plan grid point 512 is tau = 0 exactly, the state's position itself.
_PLAN_AT_ZERO = SamplingPlan(0.0, 1.0, 1025)


def _ulps(x, k):
    """x moved k float steps."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _hypot_circle(d, n, seed):
    """n points at distance about d in random directions, with the math.hypot
    and the np.hypot of each."""
    th = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, n)
    xs, ys = d * np.cos(th), d * np.sin(th)
    with np.errstate(over="ignore"):
        fast = np.hypot(xs, ys)
    exact = np.array(list(map(math.hypot, xs.tolist(), ys.tolist())))
    return xs, ys, exact, fast


def _first(xs, ys, *preferences):
    """The first point of the first mask that holds anywhere, else the first
    point."""
    for mask in preferences:
        if mask.any():
            i = int(np.flatnonzero(mask)[0])
            return float(xs[i]), float(ys[i])
    return float(xs[0]), float(ys[0])


def _point_at(d, breaks):
    """A point whose math.hypot is d, where np.hypot rounds it into another
    row of `breaks` if such a point is found, else where the two differ."""
    xs, ys, exact, fast = _hypot_circle(d, 4096, 20)
    on = exact == d
    across = np.searchsorted(breaks, fast, "right") != np.searchsorted(breaks, d, "right")
    return _first(xs, ys, on & across, on & (fast != d), on)


def _at(r_k, r_l, x, y, dv):
    """Disc k at rest at the origin, disc l at (x, y) moving at dv."""
    return UniformMotionState(Disc(Vec2(0.0, 0.0), r_k), Vec2(0.0, 0.0), Disc(Vec2(x, y), r_l), dv)


def _argmin_discords(state, plan):
    """Whether np.hypot and math.hypot place the minimum of the plan's grid
    (in the frame of its middle) at different points."""
    mid, dp, dv = plan.middle, state.dp, state.dv
    tau = np.linspace(-plan.half_width, plan.half_width, plan.points)
    xs, ys = (dp.x + dv.x * mid) + dv.x * tau, (dp.y + dv.y * mid) + dv.y * tau
    exact = list(map(math.hypot, xs.tolist(), ys.tolist()))
    return int(np.argmin(np.hypot(xs, ys))) != int(np.argmin(exact))


def _assert_bits_match(state, plan, tol=DEFAULT_TOLERANCE):
    assert _bits(sample_story(state, plan, tol)) == _bits(_scalar_sample_story(state, plan, tol))


class TestHypotExactness:
    """The np.hypot grid against the scalar sampler, bit for bit, on samples
    where np.hypot and math.hypot round a distance apart and the difference
    reaches a row or the minimum's index.  Such points are searched for among
    random directions; where a platform's two hypots agree on all of them,
    each case still compares the two samplers."""

    @pytest.mark.parametrize("r_k, r_l", _CONFIGS, ids=_CONFIG_IDS)
    def test_samples_within_two_ulps_of_every_break(self, r_k, r_l):
        # Disc l recedes radially: grid point 512 sits at the break, and the
        # minimum at grid point 0.
        breaks = axis(r_k, r_l).breaks
        for b in breaks:
            for k in range(-2, 3):
                x, y = _point_at(_ulps(b, k), breaks)
                _assert_bits_match(_at(r_k, r_l, x, y, Vec2(x, y)), _PLAN_AT_ZERO)

    @pytest.mark.parametrize("r_k, r_l", _CONFIGS, ids=_CONFIG_IDS)
    def test_rigid_within_two_ulps_of_every_break(self, r_k, r_l):
        breaks = axis(r_k, r_l).breaks
        for b in breaks:
            for k in range(-2, 3):
                state = _at(r_k, r_l, *_point_at(_ulps(b, k), breaks), Vec2(0.0, 0.0))
                _assert_bits_match(state, default_plan(state))

    @pytest.mark.parametrize("speed", [1.0, 1e-12], ids=["moving", "near-rigid"])
    @pytest.mark.parametrize("r_k, r_l", _CONFIGS, ids=_CONFIG_IDS)
    def test_minimum_between_two_samples(self, r_k, r_l, speed):
        # Passes at each threshold distance whose closest approach falls
        # midway between grid points 99 and 100: their distances tie up to
        # rounding.  The grid is nearly flat about the minimum, yet both
        # points lie outside the band, so only the refined minimum shows it.
        half = 0.02 / speed
        plan = SamplingPlan(0.0, half, 200)
        rng = np.random.default_rng(21)
        for h in axis(r_k, r_l).thresholds:
            states = []
            for a, t0 in zip(rng.uniform(0.0, 2.0 * math.pi, 600), rng.uniform(-1e-11, 1e-11, 600) / speed):
                ux, uy = -math.sin(a), math.cos(a)
                x, y = h * math.cos(a) - speed * ux * t0, h * math.sin(a) - speed * uy * t0
                states.append(_at(r_k, r_l, x, y, Vec2(speed * ux, speed * uy)))
            for state in states[:1] + [s for s in states if _argmin_discords(s, plan)][:3]:
                _assert_bits_match(state, plan)

    def test_subnormal_distances(self):
        # Below about 2.7e-312 a distance's 2**-40 margin is under half an
        # ulp, so only the smallest-normal rule redoes it.  The radii put the
        # EC band's lower break at the larger of its two hypots.
        xs, ys, exact, fast = _hypot_circle(2e-312, 2**17, 23)
        x, y = _first(xs, ys, exact != fast)
        eps = 2.0**-1060
        r_sum = max(math.hypot(x, y), float(np.hypot(x, y))) + eps
        r_k = r_sum / 4
        tol = Tolerance(eps)
        assert axis(r_k, r_sum - r_k, tol).breaks[2] == r_sum - eps
        for dv in (Vec2(0.0, 0.0), Vec2(x, y)):
            state = _at(r_k, r_sum - r_k, x, y, dv)
            _assert_bits_match(state, _PLAN_AT_ZERO, tol)

    def test_distances_above_1e307(self):
        r_k, r_l = 1e307, 3e307
        breaks = axis(r_k, r_l).breaks
        for b in breaks:
            for k in range(-2, 3):
                x, y = _point_at(_ulps(b, k), breaks)
                _assert_bits_match(_at(r_k, r_l, x, y, Vec2(x, y)), _PLAN_AT_ZERO)
        # Finite distances whose margin overflows, at rest and passing, and
        # one that np.hypot alone rounds up to infinity.
        top = sys.float_info.max
        xs, ys, exact, fast = _hypot_circle(top, 2**17, 22)
        far = _first(xs, ys, (fast == math.inf) & (exact < math.inf), exact < math.inf)
        for x, y, dv in [(top, 0.0, Vec2(0.0, 0.0)), (top, 0.0, Vec2(0.0, 1.0)), (*far, Vec2(0.0, 0.0))]:
            _assert_bits_match(_at(r_k, r_l, x, y, dv), SamplingPlan(0.0, 1.0, 17))


def _identity():
    """The identity distance of t, recording each call.  With `breaks =
    edges` its row is bisect_right(edges, t): label i between edges i-1 and
    i."""
    calls: list[float] = []

    def distance(t: float) -> float:
        calls.append(t)
        return t

    return distance, calls


def _cliff(edge: float, limit: int):
    """A distance of t that creeps up to a quarter at `edge`, then jumps to 1
    and climbs at 2^40 per second; past `limit` calls it fails.  Each secant
    estimate of the break at 0.5 lands next to an end of the bracket, where
    it helps nothing: left alone, the estimates crawl."""
    calls: list[float] = []

    def distance(t: float) -> float:
        calls.append(t)
        assert len(calls) <= limit, f"more than {limit} calls"
        return 0.25 + (t - edge) * 2.0**-10 if t < edge else 1.0 + (t - edge) * 2.0**40

    return distance


def _bisections(t0: float, t1: float, edge: float) -> int:
    """The midpoints a bisection takes to bring (t0, t1) to adjacent floats
    about the first float at or after `edge`."""
    n = 0
    while t0 < (tm := (t0 + t1) / 2.0) < t1:
        n += 1
        t0, t1 = (t0, tm) if tm >= edge else (tm, t1)
    return n


def _rows(out, breaks):
    return [(t, bisect.bisect_right(breaks, d)) for t, d in out]


# A plan about 1e-307 s wide: every grid distance rounds to one float, so the
# least is the first and the minimum's bracket is the grid's first two
# instants.  From the first, the golden step rounds onto the second.
_NARROW_STATE = UniformMotionState(
    Disc(Vec2(0.0, 0.0), 1.0), Vec2(0.0, 0.0),
    Disc(Vec2(1.6177281034193953, 1.0), 2.0), Vec2(1.2150516959952737e267, -2.3593731213285383e141),
)
_NARROW_PLAN = SamplingPlan(0.988784897199986, 1.4246875747002734e-307, 11)


def _limited(f, calls):
    """f, raising once it has been called `calls` times."""
    count = iter(range(calls))

    def limited(*args):
        if next(count, None) is None:
            raise AssertionError(f"more than {calls} calls")
        return f(*args)

    return limited


class TestRefineMinimum:
    def test_a_step_onto_a_bracket_end_stops(self):
        mid, dp, dv = _NARROW_PLAN.middle, _NARROW_STATE.dp, _NARROW_STATE.dv
        px, py = dp.x + dv.x * mid, dp.y + dv.y * mid
        distance = _limited(lambda t: math.hypot(px + dv.x * t, py + dv.y * t), 300)
        a, b = _grid(_NARROW_PLAN.half_width, _NARROW_PLAN.points)[:2].tolist()
        lo, hi = (a, distance(a)), (b, distance(b))
        assert lo[1] == hi[1]
        assert _refine_minimum(distance, lo, lo, hi) == lo

    def test_a_plan_narrower_than_a_float_step_returns(self, monkeypatch):
        monkeypatch.setattr(math, "hypot", _limited(math.hypot, 1000))
        got = sample_story(_NARROW_STATE, _NARROW_PLAN)
        assert got.labels == (R.DC,) and got.boundaries == ()


class TestResolveChanges:
    def test_finds_a_label_narrower_than_the_sample_spacing(self):
        # Label 1 holds on [0.33, 0.335): between the grid points 0.3 and 0.4.
        edges = (0.33, 0.335)
        distance, _ = _identity()
        grid = [(i / 10, distance(i / 10)) for i in range(11)]
        out = resolve_changes(distance, edges, grid)
        assert out[0] == grid[0]
        assert _rows(out, edges) == [(0.0, 0), (0.33, 1), (0.335, 2)]

    @pytest.mark.parametrize("t0", [0.0, 1e3, -1e3])
    def test_stops_at_adjacent_floats(self, t0):
        # The change is the first float with the new label, at any time scale.
        edge = t0 + 0.537
        distance, _ = _identity()
        grid = [(t0 + i / 10, distance(t0 + i / 10)) for i in range(11)]
        assert _rows(resolve_changes(distance, (edge,), grid), (edge,)) == [(grid[0][0], 0), (edge, 1)]

    def test_unchanged_labels_make_no_calls(self):
        distance, calls = _identity()
        grid = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        out = resolve_changes(distance, (1.5,), grid)
        # Only the segment (1, 2) changes label; the repeats add nothing.
        assert calls and all(1.0 < t < 2.0 for t in calls)
        assert _rows(out, (1.5,)) == [(0.0, 0), (1.5, 1)]
        calls.clear()
        assert resolve_changes(distance, (1.5,), grid[:2]) == grid[:1]
        assert calls == []

    def test_a_change_at_the_1e_300_scale(self):
        # Labels 1 and 2 hold for a few hundred float steps each, about a
        # thousand halvings below the grid, and the distance is the label
        # itself, a step on which interpolation cannot help: the search must
        # not recurse.
        edges = (3e-300, 3e-300 + 1e-313, 3e-300 + 2e-313)
        calls: list[float] = []

        def distance(t: float) -> float:
            calls.append(t)
            return float(bisect.bisect_right(edges, t))

        breaks = (0.5, 1.5, 2.5)
        grid = [(-1.0, 0.0), (0.0, 0.0), (1.0, 3.0)]
        out = resolve_changes(distance, breaks, grid)
        assert _rows(out, breaks) == [(-1.0, 0), *((e, i + 1) for i, e in enumerate(edges))]
        assert len(calls) > 1000

    @pytest.mark.parametrize("edge", [0.3, 0.5, 0.999, 1e-300])
    def test_at_most_twice_the_bisection_where_interpolation_is_useless(self, edge):
        # Twice the bisection's midpoints, one more, and the two grid samples.
        distance = _cliff(edge, 2 * _bisections(0.0, 1.0, edge) + 3)
        grid = [(0.0, distance(0.0)), (1.0, distance(1.0))]
        assert _rows(resolve_changes(distance, (0.5,), grid), (0.5,)) == [(0.0, 0), (edge, 1)]

    def test_a_smooth_change_takes_a_few_calls(self):
        # Where the distance is nearly straight, the secant lands next to the
        # break at once: far fewer calls than the bisection's 50 or so.
        distance, calls = _identity()
        grid = [(0.25, 0.25), (0.5, 0.5)]
        assert _rows(resolve_changes(distance, (1 / 3,), grid), (1 / 3,)) == [(0.25, 0), (1 / 3, 1)]
        assert len(calls) <= 6 < _bisections(0.25, 0.5, 1 / 3)

    @given(
        edges=st.lists(st.floats(0.0, 10.0), max_size=8),
        labels=st.lists(st.integers(0, 2), min_size=9, max_size=9),
        times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20, unique=True),
    )
    def test_no_consecutive_duplicates(self, edges, labels, times):
        # A step distance whose neighbouring steps may share a label: the
        # label is the distance, and the breaks lie between labels.
        edges.sort()
        breaks = (0.5, 1.5)

        def distance(t):
            return float(labels[bisect.bisect_right(edges, t)])

        def classify(t):
            return bisect.bisect_right(breaks, distance(t))

        samples = [(t, distance(t)) for t in sorted(times)]
        out = _rows(resolve_changes(distance, breaks, samples), breaks)
        assert out[0] == (samples[0][0], classify(samples[0][0])) and out[-1][1] == classify(samples[-1][0])
        assert all(a[1] != b[1] and a[0] < b[0] for a, b in zip(out, out[1:]))
        assert all(classify(t) == label for t, label in out)
        # Each change is found at float resolution.
        assert all(classify(math.nextafter(t, -math.inf)) == a[1] for a, (t, _) in zip(out, out[1:]))

    @given(
        breaks=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4, unique=True),
        centre=st.floats(0.0, 10.0),
        slope=st.floats(0.01, 100.0),
        base=st.floats(0.0, 5.0),
        times=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=20, unique=True),
    )
    def test_a_v_shaped_distance_meets_the_contract(self, breaks, centre, slope, base, times):
        # A distance falling and rising again, as past closest approach: each
        # change is between adjacent floats, whichever rows lie between.
        breaks.sort()

        def distance(t):
            return base + slope * abs(t - centre)

        def row(t):
            return bisect.bisect_right(breaks, distance(t))

        samples = [(t, distance(t)) for t in sorted(times)]
        out = _rows(resolve_changes(distance, breaks, samples), breaks)
        assert out[0] == (samples[0][0], row(samples[0][0])) and out[-1][1] == row(samples[-1][0])
        assert all(a[1] != b[1] and a[0] < b[0] for a, b in zip(out, out[1:]))
        assert all(row(t) == r and row(math.nextafter(t, -math.inf)) == a[1] for a, (t, r) in zip(out, out[1:]))


class TestSweep:
    def test_canonical_radii_find_exactly_the_nine_sequences(self):
        found = sweep_stories(1.0, 2.0, 300)
        expected = frozenset(
            STORY_LABELS[sid]
            for sid in (
                StoryId.S02, StoryId.S03, StoryId.S04, StoryId.S05,
                StoryId.S11, StoryId.S12, StoryId.S13, StoryId.S14, StoryId.S15,
            )
        )
        assert found == expected

    def test_equal_radii_find_exactly_seven(self):
        found = sweep_stories(1.0, 1.0, 300)
        assert len(found) == 7
        assert STORY_LABELS[StoryId.S15E] in found
        assert (R.EQ,) in found

    def test_random_only_misses_measure_zero_stories(self):
        found = sweep_stories(1.0, 2.0, 300, targeted=False)
        assert STORY_LABELS[StoryId.S12] not in found
        assert STORY_LABELS[StoryId.S14] not in found

    def test_random_only_sequences_at_canonical_radii(self):
        found = sweep_stories(1.0, 2.0, 300, targeted=False)
        assert found == {STORY_LABELS[s] for s in (StoryId.S11, StoryId.S13, StoryId.S15)}

    @pytest.mark.parametrize(
        "targeted, expected",
        [
            (True, "S02 S03 S04 S05 S11 S12 S13 S14 S15"),
            (False, "S15"),  # centres within 100 m: the discs stay nested
        ],
    )
    def test_huge_radii_raise_no_warning(self, targeted, expected):
        # The drawn states hold Python floats, whose products overflow to inf
        # silently; numpy scalars would warn inside `story_of`.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = sweep_stories(1e200, 3e200, 50, targeted=targeted)
        assert found == {STORY_LABELS[StoryId[s]] for s in expected.split()}

    def test_seed_determinism(self):
        assert sweep_stories(1.0, 2.0, 100) == sweep_stories(1.0, 2.0, 100)

    def test_rejects_zero_states(self):
        with pytest.raises(ValueError):
            sweep_stories(1.0, 2.0, 0)


class TestStateFactories:
    def test_canonical_state_geometry(self):
        s = canonical_state(1.0, 2.0, miss_distance=3.0, time_to_approach=2.0, speed=2.0)
        story = story_of(s)
        assert story.id is StoryId.S12
        assert story.boundaries == pytest.approx((2.0, 2.0))

    def test_canonical_state_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            canonical_state(1.0, 2.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            canonical_state(1.0, 2.0, 1.0, 1.0, speed=0.0)

    def test_rigid_state_rejects_a_negative_distance(self):
        with pytest.raises(ValueError, match="distance must be non-negative"):
            rigid_state(1.0, 2.0, -1.0)

    def test_rigid_state_distance(self):
        s = rigid_state(1.0, 2.0, 4.0)
        assert s.dp.norm() == pytest.approx(4.0)
        assert story_of(s).rigid
