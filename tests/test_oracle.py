import math

import numpy as np
import pytest

from motionstories.kinematics import (
    Disc,
    UniformMotionState,
    Vec2,
    center_distance_at,
    closest_approach_state,
)
from motionstories.oracle import (
    _REFINE_REL,
    SamplingPlan,
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
    TimedLabel,
    axis,
    classify_discs,
    compress,
    distance_inside,
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
        with pytest.raises(ValueError):
            SamplingPlan(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            SamplingPlan(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            SamplingPlan(0.0, 1.0, 0.5)  # dt too coarse

    def test_default_plan_reaches_dc_at_both_ends(self):
        plan = default_plan(SCENARIO_B)
        labels = sample_story(SCENARIO_B, plan).labels
        assert labels[0] is R.DC and labels[-1] is R.DC

    def test_default_plan_is_deterministic(self):
        assert default_plan(SCENARIO_B) == default_plan(SCENARIO_B)

    @pytest.mark.parametrize("n_points", [-1, 0, 1, 2, 10])
    @pytest.mark.parametrize("state", [SCENARIO_B, rigid_state(1.0, 2.0, 0.5)], ids=["moving", "rigid"])
    def test_default_plan_needs_eleven_points(self, state, n_points):
        with pytest.raises(ValueError, match=f"n_points must be at least 11, got {n_points}"):
            default_plan(state, n_points)

    def test_default_plan_of_eleven_points(self):
        assert default_plan(rigid_state(1.0, 2.0, 0.5), 11) == SamplingPlan(-1.0, 1.0, 0.2)

    def test_default_plan_of_eleven_points_for_moving_states(self):
        # dt was 2·half/10, which can exceed a tenth of the rounded interval.
        rng = np.random.default_rng(3)
        for _ in range(2000):
            state = canonical_state(
                1.0, 2.0, rng.uniform(0, 5), rng.uniform(-10, 10), rng.uniform(0.1, 3)
            )
            plan = default_plan(state, 11)
            assert plan.dt == (plan.t_end - plan.t_start) / 10


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

    @pytest.mark.parametrize("r_k, r_l", [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5)])
    def test_instants_agree_with_analytic(self, r_k, r_l):
        # Random states as in acceptance criterion 5, at random epochs.  Each
        # threshold theta is crossed while the center distance passes through
        # its eps band, t_min -/+ sqrt((theta +/- eps)^2 - h^2) / |dv| before
        # and after closest approach.  Both sampled boundaries of a crossing
        # and the analytic instant must lie in that span, widened by a few
        # refinement floors and by the rounding of the absolute analytic
        # instants at the epoch.
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
                slack = 4 * (_REFINE_REL * max(1.0, abs(lo), abs(hi)) + math.ulp(state.epoch))
                for t in (*sampled.boundaries[2 * j : 2 * j + 2], *analytic[2 * j : 2 * j + 2]):
                    assert lo - slack <= t <= hi + slack


def _scalar_sample_story(state, plan, tol=DEFAULT_TOLERANCE):
    """The sampler before its grid became arrays, kept as the reference:
    `center_distance_at` at every grid instant, `classify_discs` of each, and
    every sample into `resolve_changes`, all in the frame of the plan's
    middle, with the interval and boundaries shifted back at the end."""
    mid = (plan.t_start + plan.t_end) / 2.0
    t_start, t_end = plan.t_start - mid, plan.t_end - mid
    dp, dv = state.dp, state.dv
    r_k, r_l = state.disc_k.radius, state.disc_l.radius
    at_mid = Disc(Vec2(dp.x + dv.x * mid, dp.y + dv.y * mid), r_l)
    state = UniformMotionState(Disc(Vec2(0.0, 0.0), r_k), Vec2(0.0, 0.0), at_mid, dv)
    n = int(math.floor((plan.t_end - plan.t_start) / plan.dt)) + 1
    grid = [t_start + i * plan.dt for i in range(n)]
    if grid[-1] < t_end:
        grid.append(t_end)
    dists = [center_distance_at(state, t) for t in grid]
    samples = [(t, classify_discs(d, r_k, r_l, tol)) for t, d in zip(grid, dists)]

    def classify(t):
        return classify_discs(center_distance_at(state, t), r_k, r_l, tol)

    i_min = int(np.argmin(dists))
    lo = grid[max(0, i_min - 1)]
    hi = grid[min(len(grid) - 1, i_min + 1)]
    if lo < hi:
        t_at_min = _refine_minimum(state, lo, hi)
        if t_start < t_at_min < t_end and t_at_min not in grid:
            samples.append((t_at_min, classify(t_at_min)))
            samples.sort(key=lambda s: s[0])
    refined = resolve_changes(classify, samples, _REFINE_REL)
    seq = compress([TimedLabel(t, rel) for t, rel in refined])
    interval = (seq.interval[0] + mid, seq.interval[1] + mid)
    return TemporalSequence(seq.labels, interval, tuple(b + mid for b in seq.boundaries))


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
    return states + [rigid_state(r_k, r_l, distance_inside(span), vel) for span in spans]


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
        with pytest.raises(ValueError, match="must be finite"):
            sample_story(state, SamplingPlan(-1e10, 1e10, 1e9))


def _steps(*edges: float):
    """A classifier of t: label i between edges i-1 and i; records each call."""
    calls: list[float] = []

    def classify(t: float) -> int:
        calls.append(t)
        return sum(t >= e for e in edges)

    return classify, calls


class TestResolveChanges:
    FLOOR = 1e-7

    def test_finds_a_label_narrower_than_the_sample_spacing(self):
        # Label 1 holds on [0.33, 0.335): between the grid points 0.3 and 0.4,
        # wider than the floor.
        classify, _ = _steps(0.33, 0.335)
        grid = [(i / 10, classify(i / 10)) for i in range(11)]
        out = resolve_changes(classify, grid, self.FLOOR)
        firsts = {label: t for t, label in reversed(out)}
        assert list(dict.fromkeys(label for _, label in out)) == [0, 1, 2]
        assert 0 <= firsts[1] - 0.33 <= self.FLOOR
        assert 0 <= firsts[2] - 0.335 <= self.FLOOR
        assert [t for t, _ in out] == sorted(t for t, _ in out)

    @pytest.mark.parametrize("t0", [0.0, 1e3])
    def test_brackets_a_change_within_the_floor(self, t0):
        # The floor is relative to the time scale: at t ~ 1e3 it is 1e3 wider.
        edge = t0 + 0.537
        classify, _ = _steps(edge)
        grid = [(t0 + i / 10, classify(t0 + i / 10)) for i in range(11)]
        out = resolve_changes(classify, grid, self.FLOOR)
        first = next(t for t, label in out if label == 1)
        assert 0 <= first - edge <= self.FLOOR * max(1.0, abs(first))
        assert out[:6] == grid[:6] and out[-4:] == grid[-4:]

    def test_unchanged_labels_make_no_calls(self):
        classify, calls = _steps(1.5)
        grid = [(0.0, 0), (1.0, 0), (2.0, 1), (3.0, 1)]
        out = resolve_changes(classify, grid, self.FLOOR)
        # Only the segment (1, 2) changes label.
        assert calls and all(1.0 < t < 2.0 for t in calls)
        assert out[:2] == grid[:2] and out[-1] == grid[-1]
        calls.clear()
        assert resolve_changes(classify, grid[:2], self.FLOOR) == grid[:2]
        assert calls == []


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

    def test_rigid_state_distance(self):
        s = rigid_state(1.0, 2.0, 4.0)
        assert s.dp.norm() == pytest.approx(4.0)
        assert story_of(s).rigid
