import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import motionstories
from motionstories.kinematics import Disc, UniformMotionState, Vec2, closest_approach_state
from motionstories.oracle import canonical_state
from motionstories.stories import (
    _INDEX,
    _guards,
    _least_reaching,
    _row_at,
    CELLS,
    DEFAULT_TOLERANCE,
    HYPOT_MARGIN,
    REGIMES,
    RELATIONS,
    RIGID_STORIES,
    ROW_OF,
    STORY_LABELS,
    AugmentedRelation,
    DegenerateMotionError,
    Phase,
    RccRelation,
    Story,
    StoryId,
    TemporalSequence,
    Tolerance,
    UnitVec,
    asymptotic_direction,
    augmented_chain,
    augmented_relation,
    augmented_relation_indices,
    augmented_set,
    axis,
    central,
    classify_discs,
    format_story,
    hypot_at_breaks,
    radius_config,
    stories_set,
    story_of,
    story_to_json_dict,
    tsr_over_interval,
)

R = RccRelation

# The catalogue written out by hand: every story's chain of augmented
# relations, in chronological order.
CHAINS = {
    StoryId.S02: "S02(EC)",
    StoryId.S03: "S03(PO)",
    StoryId.S04: "S04(TPP)",
    StoryId.S05: "S05(NTPP)",
    StoryId.S04I: "S04I(TPPI)",
    StoryId.S05I: "S05I(NTPPI)",
    StoryId.S0E: "S0E(EQ)",
    StoryId.S11: "S11(DC)",
    StoryId.S12: "S12(DC-) S12(EC) S12(DC+)",
    StoryId.S13: "S13(DC-) S13(EC-) S13(PO) S13(EC+) S13(DC+)",
    StoryId.S14: "S14(DC-) S14(EC-) S14(PO-) S14(TPP) S14(PO+) S14(EC+) S14(DC+)",
    StoryId.S15: (
        "S15(DC-) S15(EC-) S15(PO-) S15(TPP-) S15(NTPP) "
        "S15(TPP+) S15(PO+) S15(EC+) S15(DC+)"
    ),
    StoryId.S14I: "S14I(DC-) S14I(EC-) S14I(PO-) S14I(TPPI) S14I(PO+) S14I(EC+) S14I(DC+)",
    StoryId.S15I: (
        "S15I(DC-) S15I(EC-) S15I(PO-) S15I(TPPI-) S15I(NTPPI) "
        "S15I(TPPI+) S15I(PO+) S15I(EC+) S15I(DC+)"
    ),
    StoryId.S15E: "S15E(DC-) S15E(EC-) S15E(PO-) S15E(EQ) S15E(PO+) S15E(EC+) S15E(DC+)",
}


def state(px, py, vx, vy, qx, qy, wx, wy, rk=1.0, rl=2.0, epoch=0.0):
    return UniformMotionState(
        disc_k=Disc(Vec2(px, py), rk),
        vel_k=Vec2(vx, vy),
        disc_l=Disc(Vec2(qx, qy), rl),
        vel_l=Vec2(wx, wy),
        epoch=epoch,
    )


# Grazing pass: perpendicular offset 3 = r_k + r_l, tangency at t = 10/3.
SCENARIO_A = state(0, 0, 2, 0, 10, 3, -1, 0)
# Collinear collision course: d_min = 0 at t = 5.
SCENARIO_B = state(0, 0, 1, -1, 10, -5, -1, 0)


def at_closest_approach(miss, phi, speed, rk, rl):
    """Disc l passing disc k at perpendicular offset `miss`, now."""
    c, s = math.cos(phi), math.sin(phi)
    return state(0, 0, 0, 0, -miss * s, miss * c, speed * c, speed * s, rk=rk, rl=rl)


class TestTemporalSequence:
    def test_rejects_decreasing_boundaries(self):
        with pytest.raises(ValueError):
            TemporalSequence((R.DC, R.EC, R.DC), (0.0, 10.0), (5.0, 4.0))

    def test_allows_repeated_boundary_for_instant_labels(self):
        TemporalSequence((R.DC, R.EC, R.DC), (0.0, 10.0), (5.0, 5.0))

    @pytest.mark.parametrize(
        "labels, interval, boundaries, message",
        [
            ((), (0.0, 10.0), (), "at least one label"),
            ((R.DC, R.DC), (0.0, 10.0), (5.0,), "consecutive labels must differ"),
            ((R.DC, R.EC), (0.0, 10.0), (), "exactly one boundary per adjacent label pair"),
            ((R.DC, R.EC), (0.0, 10.0), (4.0, 5.0), "exactly one boundary per adjacent label pair"),
            ((R.DC, R.EC), (5.0, 5.0), (5.0,), "interval must have positive length"),
            ((R.DC, R.EC), (0.0, 10.0), (11.0,), "boundaries must lie inside the interval"),
            ((R.DC, R.EC), (0.0, 10.0), (-1.0,), "boundaries must lie inside the interval"),
        ],
        ids=["empty", "repeated", "too-few", "too-many", "zero-length", "after", "before"],
    )
    def test_rejects_malformed_sequences(self, labels, interval, boundaries, message):
        with pytest.raises(ValueError, match=message):
            TemporalSequence(labels, interval, boundaries)


class TestStory:
    @pytest.mark.parametrize(
        "sid, rigid, boundaries, message",
        [
            (StoryId.S15, True, None, "rigid stories are singletons"),
            (StoryId.S11, False, (1.0,), "one boundary per adjacent label pair"),
            (StoryId.S15, False, (1.0, 2.0), "one boundary per adjacent label pair"),
        ],
        ids=["rigid-chain", "singleton-with-boundary", "chain-too-few"],
    )
    def test_rejects_malformed_stories(self, sid, rigid, boundaries, message):
        with pytest.raises(ValueError, match=message):
            Story(sid, rigid, boundaries)

    def test_accepts_a_boundary_per_label_change(self):
        assert Story(StoryId.S12, False, (1.0, 2.0)).labels == (R.DC, R.EC, R.DC)


class TestStoryOf:
    def test_half_width_is_the_root_of_one_product(self):
        # sqrt(theta - h) * sqrt(theta + h) is taken only where the product
        # overflows; it rounds differently on about a third of these states.
        rng = np.random.default_rng(7)
        for _ in range(300):
            state = canonical_state(1.0, 2.0, rng.uniform(0.0, 2.9), rng.uniform(-5.0, 5.0), rng.uniform(0.1, 5.0))
            t_min, h = closest_approach_state(state)
            width = math.sqrt((3.0 - h) * (3.0 + h)) / state.dv.norm()
            assert story_of(state).boundaries[0] == t_min - width

    def test_half_width_whose_product_overflows(self):
        # dp = (3e200, -1e200), dv = (-1e100, 0): h = |r_l - r_k| = 1e200 and
        # (3e200 - h)(3e200 + h) = 8e400.
        state = UniformMotionState(
            Disc(Vec2(-3e200, 1e200), 1e200), Vec2(1e100, 0.0),
            Disc(Vec2(0.0, 0.0), 2e200), Vec2(0.0, 0.0), epoch=1e100,
        )
        story = story_of(state)
        assert story.id is StoryId.S14
        assert story.boundaries[::2] == (1.1715728752538102e100, 4e100, 6.8284271247461905e100)

    def test_scenario_a_is_grazing(self):
        story = story_of(SCENARIO_A)
        assert story.id is StoryId.S12
        assert story.labels == (R.DC, R.EC, R.DC)
        assert not story.rigid
        assert story.boundaries == pytest.approx((10 / 3, 10 / 3))

    def test_scenario_b_is_full_passage(self):
        story = story_of(SCENARIO_B)
        assert story.id is StoryId.S15
        assert len(story.labels) == 9
        e = 3 / math.sqrt(5)
        i = 1 / math.sqrt(5)
        assert story.boundaries == pytest.approx(
            (5 - e, 5 - e, 5 - i, 5 - i, 5 + i, 5 + i, 5 + e, 5 + e), abs=1e-9
        )
        # Radii 1 and 1 + 1e-6, head-on, 1000 s before closest approach: the
        # NTPP span lasts 2e-6 s and must not collapse to a point.
        story = story_of(canonical_state(1.0, 1.0 + 1e-6, 0.0, 1000.0))
        assert story.id is StoryId.S15
        assert story.boundaries[3:5] == pytest.approx((999.999999, 1000.000001), abs=1e-9)

    def test_rigid_containment(self):
        s = state(0.2, 0, 3, 3, 0, 0, 3, 3)
        story = story_of(s)
        assert story.rigid
        assert story.id is StoryId.S05
        assert story.labels == (R.NTPP,)
        assert story.boundaries == ()

    @pytest.mark.parametrize(
        "miss, sid",
        [
            (4.0, StoryId.S11),
            (3.0, StoryId.S12),
            (2.0, StoryId.S13),
            (1.0, StoryId.S14),
            (0.5, StoryId.S15),
        ],
    )
    def test_miss_distance_regimes(self, miss, sid):
        s = state(-10, miss, 1, 0, 0, 0, 0, 0)
        assert story_of(s).id is sid

    def test_inverse_configuration(self):
        s = state(-10, 0.5, 1, 0, 0, 0, 0, 0, rk=2.0, rl=1.0)
        story = story_of(s)
        assert story.id is StoryId.S15I
        assert R.NTPPI in story.labels

    def test_equal_radii(self):
        hit = state(-10, 0, 1, 0, 0, 0, 0, 0, rk=1.0, rl=1.0)
        assert story_of(hit).id is StoryId.S15E
        near = state(-10, 1.0, 1, 0, 0, 0, 0, 0, rk=1.0, rl=1.0)
        assert story_of(near).id is StoryId.S13

    def test_overflowing_state_raises(self):
        with pytest.raises(ValueError):
            story_of(state(0, 0, 1e200, 0, 1e200, 0, -1e200, 0))

    def test_boundaries_are_absolute_times(self):
        shifted = state(2, 0, 2, 0, 9, 3, -1, 0, epoch=1.0)  # SCENARIO_A 1 s on
        assert story_of(shifted).boundaries == pytest.approx((10 / 3, 10 / 3))

    @given(
        st.floats(-20, 20, allow_nan=False),
        st.floats(0.1, 5, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
    )
    def test_palindrome_and_extreme_dc(self, off, miss, vx, vy):
        if abs(vx) + abs(vy) < 1e-3:
            return
        s = state(off, miss, vx, vy, 0, 0, 0, 0)
        story = story_of(s)
        assert story.labels == story.labels[::-1]
        if not story.rigid and len(story.labels) > 1:
            assert story.labels[0] is R.DC and story.labels[-1] is R.DC

    @given(st.floats(-50, 50, allow_nan=False))
    def test_epoch_translation_invariance(self, dt):
        assert story_of(state(dt, -dt, 1, -1, 10 - dt, -5, -1, 0, epoch=dt)).id is StoryId.S15

    @given(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
    def test_common_velocity_boost_invariance(self, bx, by):
        boosted = state(0, 0, 1 + bx, -1 + by, 10, -5, -1 + bx, by)
        assert story_of(boosted).id is StoryId.S15


class TestTsrOverInterval:
    def test_whole_line(self):
        seq = tsr_over_interval(SCENARIO_A, -math.inf, math.inf)
        assert seq.labels == (R.DC, R.EC, R.DC)

    def test_half_line_from_tangency(self):
        seq = tsr_over_interval(SCENARIO_A, 10 / 3, math.inf)
        assert seq.labels == (R.EC, R.DC)

    def test_containment_window(self):
        seq = tsr_over_interval(SCENARIO_B, 4.8, 5.2)
        assert seq.labels == (R.NTPP,)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            tsr_over_interval(SCENARIO_A, 5.0, 5.0)


class TestAugmentedRelation:
    def test_scenario_b_epochs(self):
        assert str(augmented_relation(SCENARIO_B)) == "S15(DC-)"
        # SCENARIO_B 5 s and 5.5 s on.
        at_5 = state(5, -5, 1, -1, 5, -5, -1, 0, epoch=5.0)
        at_5_5 = state(5.5, -5.5, 1, -1, 4.5, -5, -1, 0, epoch=5.5)
        assert str(augmented_relation(at_5)) == "S15(NTPP)"
        assert str(augmented_relation(at_5_5)) == "S15(PO+)"

    def test_scenario_a_unique_ec_has_no_phase(self):
        t = 10 / 3
        at_tangency = state(2 * t, 0, 2, 0, 10 - t, 3, -1, 0, epoch=t)
        aug = augmented_relation(at_tangency)
        assert aug == AugmentedRelation(StoryId.S12, R.EC, Phase.NONE)

    def test_relation_at_closest_approach_lies_in_the_story(self):
        # |dp| rounds one ulp below |dp x dv| / |dv| here; the relation now
        # (PO) must still come out inside the story found at the minimum.
        s = at_closest_approach(2.999999999, 7.03, 1.0, 1.0, 2.0)
        assert augmented_relation(s) == AugmentedRelation(StoryId.S13, R.PO, Phase.NONE)

    @given(
        st.sampled_from([(1.0, 2.0, 3.0), (1.0, 2.0, 1.0), (2.0, 1.0, 3.0),
                         (2.0, 1.0, 1.0), (1.5, 1.5, 3.0), (1.5, 1.5, 0.0)]),
        st.sampled_from([-1.0, 1.0]),
        st.sampled_from([1.0 - 1e-6, 1.0, 1.0 + 1e-6]),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.1, 10.0),
    )
    def test_band_edges_at_closest_approach(self, radii, side, scale, phi, speed):
        rk, rl, theta = radii
        miss = theta + side * DEFAULT_TOLERANCE.eps * scale
        if miss < 0:
            return
        aug = augmented_relation(at_closest_approach(miss, phi, speed, rk, rl))
        assert aug.rel in STORY_LABELS[aug.story]

    def test_rigid_phase_is_none(self):
        aug = augmented_relation(state(0.2, 0, 3, 3, 0, 0, 3, 3))
        assert aug == AugmentedRelation(StoryId.S05, R.NTPP, Phase.NONE)

    def test_parse_round_trip(self):
        for text in ("S15(DC-)", "S12(EC)", "S11(DC)", "S14I(PO+)", "S15E(EQ)"):
            assert str(AugmentedRelation.parse(text)) == text

    def test_text_is_derived_once_and_left_out_of_equality(self):
        for rk, rl in [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)]:
            for a in augmented_set(rk, rl):
                twin = AugmentedRelation(a.story, a.rel, a.phase)
                assert str(a) == f"{a.story.value}({a.rel.value}{a.phase.value})" == str(twin)
                assert repr(a) == f"AugmentedRelation(story={a.story!r}, rel={a.rel!r}, phase={a.phase!r})"
                assert a == twin and hash(a) == hash(twin)

    def test_parse_rejects_garbage(self):
        for text in ("S15", "S15(XX-)", "S99(DC-)", "S15(DC?)", ""):
            with pytest.raises(ValueError):
                AugmentedRelation.parse(text)

    def test_constructor_enforces_phase_rules(self):
        with pytest.raises(ValueError):
            AugmentedRelation(StoryId.S15, R.NTPP, Phase.MINUS)  # unique label
        with pytest.raises(ValueError):
            AugmentedRelation(StoryId.S15, R.DC, Phase.NONE)  # repeated label
        with pytest.raises(ValueError):
            AugmentedRelation(StoryId.S12, R.PO, Phase.NONE)  # absent label
        with pytest.raises(ValueError):
            AugmentedRelation(StoryId.S02, R.EC, Phase.MINUS)  # rigid singleton
        with pytest.raises(ValueError):
            AugmentedRelation(StoryId.S11, R.DC, Phase.PLUS)  # moving singleton

    def test_phase_sweep_reproduces_chain(self):
        expected = augmented_chain(StoryId.S15)
        seen = []
        t = 0.0
        while t <= 10.0:
            aug = augmented_relation(state(t, -t, 1, -1, 10 - t, -5, -1, 0, epoch=t))
            if not seen or aug != seen[-1]:
                seen.append(aug)
            t += 0.001
        # The dense grid misses the instantaneous tangency relations; the
        # surviving subsequence must appear in chain order.
        it = iter(expected)
        assert all(any(aug == e for e in it) for aug in seen)
        assert seen[0] == expected[0] and seen[-1] == expected[-1]

    @pytest.mark.parametrize("sid", list(CHAINS), ids=str)
    def test_chain_phases(self, sid):
        chain = augmented_chain(sid)
        assert " ".join(map(str, chain)) == CHAINS[sid]
        assert tuple(a.rel for a in chain) == STORY_LABELS[sid]
        assert [a for a in chain if a.phase is Phase.NONE] == [central(sid)]


class TestCatalogue:
    def test_canonical_set_has_nine_stories(self):
        ss = stories_set(1.0, 2.0)
        assert len(ss) == 9
        assert {s.id for s in ss} == {
            StoryId.S02, StoryId.S03, StoryId.S04, StoryId.S05,
            StoryId.S11, StoryId.S12, StoryId.S13, StoryId.S14, StoryId.S15,
        }
        assert {s.labels for s in ss} == {
            (R.EC,), (R.PO,), (R.TPP,), (R.NTPP,),
            STORY_LABELS[StoryId.S11], STORY_LABELS[StoryId.S12],
            STORY_LABELS[StoryId.S13], STORY_LABELS[StoryId.S14],
            STORY_LABELS[StoryId.S15],
        }

    def test_duplicate_dc_story_is_merged(self):
        ss = stories_set(1.0, 2.0)
        dc_stories = [s for s in ss if s.labels == (R.DC,)]
        assert len(dc_stories) == 1
        assert dc_stories[0].id is StoryId.S11

    def test_mirror_set(self):
        ids = {s.id for s in stories_set(2.0, 1.0)}
        assert StoryId.S04I in ids and StoryId.S15I in ids
        assert StoryId.S04 not in ids and StoryId.S15 not in ids
        assert len(ids) == 9

    def test_equal_radii_set_has_seven_stories(self):
        ss = stories_set(1.0, 1.0)
        assert len(ss) == 7
        assert {s.id for s in ss} == {
            StoryId.S02, StoryId.S03, StoryId.S0E,
            StoryId.S11, StoryId.S12, StoryId.S13, StoryId.S15E,
        }

    def test_augmented_set_sizes(self):
        assert len(augmented_set(1.0, 2.0)) == 29
        assert len(augmented_set(2.0, 1.0)) == 29
        # 3 rigid non-DC + EQ rigid counted within: 4 rigid + 1 + 3 + 5 + 7.
        assert len(augmented_set(1.0, 1.0)) == 19

    def test_augmented_members_are_consistent(self):
        for aug in augmented_set(1.0, 2.0):
            assert aug.rel in STORY_LABELS[aug.story]

    @pytest.mark.parametrize("rk, rl", [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)])
    def test_cells_decode_to_the_story_at_closest_approach(self, rk, rl):
        # A moving state's current row is never below its closest approach's;
        # a rigid one's is that row.  The cell's story is that of the row of
        # closest approach, and the phase says whether the discs close in.
        config = radius_config(rk, rl)
        table, cells = REGIMES[config], CELLS[config]
        n = len(table)
        assert set(cells) == {
            (i, j, rigid, closing)
            for i in range(n) for j in range(n) for rigid in (False, True) for closing in (False, True)
            if (i == j if rigid else i <= j)
        }
        for (i, j, rigid, closing), a in cells.items():
            assert a.story is (table[i].rigid if rigid else table[i].story)
            assert a.rel is table[j].rel
            assert a.phase is (Phase.NONE if i == j else Phase.MINUS if closing else Phase.PLUS)
        assert RELATIONS[config] == tuple(sorted(set(cells.values()), key=str))
        # Rest at DC is the moving story S11; every other rest is a story of its own.
        assert RIGID_STORIES[config] == {s.id for s in stories_set(rk, rl) if s.rigid}
        assert RIGID_STORIES[config] == {r.rigid for r in table} - {StoryId.S11}

    def test_longest_story_is_unique(self):
        lengths = sorted(len(s.labels) for s in stories_set(1.0, 2.0))
        assert lengths[-1] == 9 and lengths[-2] < 9


class TestAsymptoticDirection:
    def test_known_direction(self):
        s = state(0, 0, 2, -1, 10, 3, 0, 0)  # dv = (-2, 1)
        fwd = asymptotic_direction(s, +1)
        assert (fwd.x, fwd.y) == pytest.approx((-2 / math.sqrt(5), 1 / math.sqrt(5)))
        back = asymptotic_direction(s, -1)
        assert (back.x, back.y) == pytest.approx((2 / math.sqrt(5), -1 / math.sqrt(5)))

    def test_negation_identity(self):
        s = SCENARIO_B
        fwd = asymptotic_direction(s, +1)
        back = asymptotic_direction(s, -1)
        assert abs(fwd.x + back.x) < 1e-12 and abs(fwd.y + back.y) < 1e-12

    def test_rigid_motion_is_an_error(self):
        with pytest.raises(DegenerateMotionError):
            asymptotic_direction(state(0, 0, 1, 1, 5, 0, 1, 1), +1)

    @pytest.mark.parametrize(
        "speed", [0.0, 1e-200, 1.6e-162, 1e-155, 1.49e-154, 1.5e-154, 1e-150, 1.0]
    )
    def test_undefined_exactly_for_rigid_stories(self, speed):
        # |dv|^2 underflows to 0 at 1e-200 m/s and is subnormal from about
        # 1.5e-154 m/s down: the story is rigid, at rest at EC.  A subnormal
        # |dv|^2 has lost the precision of d_min: at 1.6e-162 m/s,
        # |dp x dv| / sqrt(|dv|^2) reads 2.159 where the miss distance is 3.
        # The scalar and array decoders agree on the relation.
        s = state(0, 0, 0, 0, 0, 3, speed, 0)
        rigid = story_of(s).rigid
        assert rigid is (speed * speed < sys.float_info.min)
        assert (closest_approach_state(s)[0] is None) is rigid
        aug = augmented_relation(s)
        assert aug == AugmentedRelation(StoryId.S02 if rigid else StoryId.S12, R.EC, Phase.NONE)
        columns = (np.array([x]) for x in (s.dp.x, s.dp.y, s.dv.x, s.dv.y))
        [code] = augmented_relation_indices(*columns, axis(1.0, 2.0))
        assert RELATIONS[radius_config(1.0, 2.0)][code] == aug
        if rigid:
            with pytest.raises(DegenerateMotionError):
                asymptotic_direction(s, +1)
        else:
            assert asymptotic_direction(s, +1) == UnitVec(1.0, 0.0)

    def test_unit_vec_enforces_norm(self):
        with pytest.raises(ValueError):
            UnitVec(1.0, 1.0)

    def test_nan_sign_is_an_error(self):
        with pytest.raises(ValueError):
            asymptotic_direction(SCENARIO_B, math.nan)

    def test_unit_vec_rejects_nan(self):
        with pytest.raises(ValueError):
            UnitVec(math.nan, math.nan)


class TestSerialization:
    def test_json_dict(self):
        d = story_to_json_dict(story_of(SCENARIO_A))
        assert d["id"] == "S12"
        assert d["labels"] == ["DC", "EC", "DC"]
        assert d["boundaries"] == pytest.approx([10 / 3, 10 / 3])

    def test_text_format(self):
        text = format_story(story_of(SCENARIO_A))
        assert text.startswith("S12: DC @(-inf,")
        assert "EC @3.33333" in text
        assert text.endswith(",+inf)")

    def test_rigid_format(self):
        text = format_story(story_of(state(0.2, 0, 3, 3, 0, 0, 3, 3)))
        assert text == "S05: NTPP @(-inf,+inf)"


class TestRadiusConfig:
    def test_three_configs(self):
        assert radius_config(1.0, 2.0) == "lt"
        assert radius_config(2.0, 1.0) == "gt"
        assert radius_config(1.0, 1.0) == "eq"
        assert radius_config(1.0, 1.0 + 1e-10) == "eq"

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            radius_config(0.0, 1.0)
        with pytest.raises(ValueError, match="finite sum"):
            radius_config(1e308, 1e308)  # each finite, the sum is not

    def test_nonrigid_order_is_by_increasing_miss_distance(self):
        assert REGIMES["lt"][-1].story is StoryId.S11
        assert REGIMES["lt"][0].story is StoryId.S15
        for table in REGIMES.values():
            # Bands and open intervals alternate.
            bands = [r.band is not None for r in table]
            assert all(a != b for a, b in zip(bands, bands[1:]))

    @pytest.mark.parametrize(
        "rk, rl", [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (1.0, 1.0 + 5e-10), (1e-9, 1.0)]
    )
    def test_classify_discs_walks_the_rows_in_order(self, rk, rl):
        # The validator looks a relation's row up in ROW_OF, so each relation
        # must name one row, and the rows the walk gives must rise with
        # distance.
        config = radius_config(rk, rl)
        rows = ROW_OF[config]
        assert len({r.rel for r in REGIMES[config]}) == len(REGIMES[config])
        eps = DEFAULT_TOLERANCE.eps
        ds = [i * (rk + rl) / 1000 for i in range(2001)]
        for theta in (rk + rl, abs(rk - rl), 0.0):
            for edge in (theta - eps, theta, theta + eps):
                ds += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
        seen = [rows[classify_discs(d, rk, rl)] for d in sorted(d for d in ds if d >= 0)]
        assert seen == sorted(seen)


# lt, gt and eq radii, and lt radii whose two thresholds are both 1.0 in
# floats, so the PO row between them is empty.
_SPAN_RADII = [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (1e-17, 1.0)]
# Those, radii whose NTPP or NTPPI row is narrower than a few eps, tiny radii
# with eps scaled alike, and radii so large that each band is one float.
_PICK_RADII = [(rk, rl, 1e-9) for rk, rl in _SPAN_RADII] + [
    (1.0, 1.0 + 2e-9, 1e-9), (1.0 + 2.5e-9, 1.0, 1e-9), (1e-100, 3e-100, 1e-109), (1e100, 3e100, 1e-9),
]


class TestRegimeSpans:
    @pytest.mark.parametrize("rk, rl", _SPAN_RADII)
    def test_spans_tile_the_distance_axis(self, rk, rl):
        ax = axis(rk, rl)
        spans = ax.spans
        assert len(spans) == len(ax.rows) == len(REGIMES[radius_config(rk, rl)])
        assert spans[0][0] == 0.0 and spans[-1][1] == math.inf
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        bands = [s for s, r in zip(spans, ax.rows) if r.band is not None]
        assert bands == [(theta, theta) for theta in ax.thresholds]

    @pytest.mark.parametrize("rk, rl, eps", _PICK_RADII)
    def test_pick_lies_in_its_row(self, rk, rl, eps):
        # Narrow rows too: a pick past a row's float extent moves inside it.
        ax = axis(rk, rl, Tolerance(eps))
        for k, (lo, hi) in enumerate(ax.spans):
            below, above = ax.ends[2:4, k]
            if not below < above:
                # Overlapping bands leave a row no float of its own: at
                # (1e-17, 1) both thresholds are 1.0, so TPP and PO are empty.
                continue
            top = hi if hi < math.inf else lo + 10.0
            floors = np.append(np.linspace(0.0, top, 9), [lo, math.nextafter(top, 0.0), below])
            for floor in (0.0, floors):
                d = np.atleast_1d(ax.pick(np.full(np.shape(floor), k), floor))
                assert (np.searchsorted(ax.break_array, d, "right") == k).all(), (k, floor)
                # Each pick is the span's, or the middle of the row's extent.
                assert np.all((d >= np.maximum(lo, floor)) | (d == ax.ends[4, k])), (k, floor)
                assert np.all(d <= hi), (k, floor)

    @pytest.mark.parametrize("rk, rl, eps", _PICK_RADII)
    def test_inside_keeps_distances_of_the_row(self, rk, rl, eps):
        ax = axis(rk, rl, Tolerance(eps))
        ends = ax.ends[:4][np.isfinite(ax.ends[:4])]
        d = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, math.inf), [0.5, 7.0]])
        for k in range(len(ax.rows)):
            if not ax.ends[2, k] < ax.ends[3, k]:
                continue  # no float of its own, as above
            moved = ax.inside(np.full(d.shape, k), d)
            assert (np.searchsorted(ax.break_array, moved, "right") == k).all(), k
            own = np.searchsorted(ax.break_array, d, "right") == k
            assert own.any() and (moved[own] == d[own]).all(), k


def _ladder(d: float, r_k: float, r_l: float, eps: float) -> RccRelation:
    """The branch ladder that classified distances before the table walk,
    kept as the reference the walk must reproduce."""
    r_sum = r_k + r_l
    r_diff = abs(r_k - r_l)
    if abs(d - r_sum) <= eps:
        return RccRelation.EC
    if d > r_sum:
        return RccRelation.DC
    if r_diff > eps and abs(d - r_diff) <= eps:
        return RccRelation.TPP if r_k < r_l else RccRelation.TPPI
    if r_diff <= eps:
        return RccRelation.EQ if d <= eps else RccRelation.PO
    if d > r_diff:
        return RccRelation.PO
    return RccRelation.NTPP if r_k < r_l else RccRelation.NTPPI


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _radii_eps_distance(draw):
    """lt, gt and eq radii (overlapping bands included), an eps, and a
    distance that is random or an eps-band edge moved by 0-3 ulp."""
    eps = draw(st.sampled_from([1e-9, 1e-6, 0.3]) | st.floats(1e-12, 1.0))
    r_l = draw(st.floats(1e-9, 10.0))
    r_k = draw(
        st.floats(1e-9, 10.0)  # mostly lt or gt
        | st.floats(-1.0, 1.0).map(lambda f: r_l + f * eps)  # eq, or just past it
        | st.floats(0.0, 2.0).map(lambda f: max(f * eps, 1e-12))  # overlapping bands
    )
    assume(r_k > 0)
    theta = draw(st.sampled_from([r_k + r_l, abs(r_k - r_l), 0.0]))
    edge = theta + draw(st.sampled_from([-eps, 0.0, eps]))
    d = _nudged(edge, draw(st.integers(-3, 3)))
    d = draw(st.just(d) | st.floats(0.0, 2.0 * (r_k + r_l)))
    assume(d >= 0)
    return r_k, r_l, eps, d


class TestClassifyDiscs:
    @given(_radii_eps_distance())
    @example((0.5, 0.5 + 2**-20, 2**-20, 2**-20))  # |r_k - r_l| == eps exactly: eq
    @settings(max_examples=400)
    def test_walk_equals_the_ladder(self, case):
        r_k, r_l, eps, d = case
        assert classify_discs(d, r_k, r_l, Tolerance(eps)) is _ladder(d, r_k, r_l, eps)

    def test_radii_whose_sum_overflows_are_rejected(self):
        # The one departure from the ladder, which classified them.
        assert _ladder(1.0, 1e308, 1e308, 1e-9) is RccRelation.PO
        with pytest.raises(ValueError, match="finite sum"):
            classify_discs(1.0, 1e308, 1e308)


# Radius pairs at the default eps: lt, gt, eq; eq bands 5e-10 apart; lt bands
# 1e-6 apart; overlapping lt bands; thresholds whose ulp exceeds eps.
_TABLE_RADII = [
    (1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (1.0, 1.0 + 5e-10), (1.0, 1.0 + 1e-6),
    (1e-9, 1.0), (3e7, 1.1e8),
]


@st.composite
def _radii_eps_distances(draw):
    """Radii and eps as `_radii_eps_distance` draws them, or one of
    `_TABLE_RADII` at the default eps, with up to 40 distances, each random
    or an eps-band edge or breakpoint moved by 0-2 ulp."""
    named = st.sampled_from(_TABLE_RADII).map(lambda r: (*r, DEFAULT_TOLERANCE.eps, 0.0))
    r_k, r_l, eps, _ = draw(_radii_eps_distance() | named)
    edges = [theta + s * eps for theta in (r_k + r_l, abs(r_k - r_l), 0.0) for s in (-1, 0, 1)]
    edges += axis(r_k, r_l, Tolerance(eps)).breaks
    edge = st.tuples(st.sampled_from(edges), st.integers(-2, 2)).map(lambda e: _nudged(*e))
    ds = draw(st.lists(edge | st.floats(0.0, 2.0 * (r_k + r_l)), min_size=1, max_size=40))
    return r_k, r_l, eps, np.array([d for d in ds if d >= 0])


class TestRowsAt:
    @given(_radii_eps_distances())
    @example((1.0, 2.0, 1e-9, np.array([3.0 + 1e-9, 1.0 - 1e-9, 0.5, 3.5])))  # lt
    @example((2.0, 1.0, 1e-9, np.array([3.0 - 1e-9, 1.0 + 1e-9, 1.5, 0.5])))  # gt
    @example((1.5, 1.5, 1e-9, np.array([1e-9, 3.0, 2.0, 0.0])))  # eq
    @settings(max_examples=400)
    def test_array_walk_equals_the_scalar_walk(self, case):
        # Both lookups in the breakpoint table against the walk it is built
        # from: the cached break array and `Axis.row`.
        r_k, r_l, eps, ds = case
        ax = axis(r_k, r_l, Tolerance(eps))
        expected = [_row_at(d, ax.thetas, eps) for d in ds.tolist()]
        assert np.searchsorted(ax.break_array, ds, "right").tolist() == expected
        assert [ax.row(d) for d in ds.tolist()] == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_rejects_what_the_scalar_walk_rejects(self, bad):
        ax = axis(1.0, 2.0, Tolerance(1e-9))
        with pytest.raises(ValueError) as scalar:
            _row_at(bad, ax.thetas, ax.eps)
        with pytest.raises(ValueError) as lookup:
            ax.row(bad)
        assert str(lookup.value) == str(scalar.value)


class TestBreakpointTable:
    @pytest.mark.parametrize("r_k, r_l", _TABLE_RADII)
    def test_breaks_are_where_the_walk_steps_up(self, r_k, r_l):
        ax = axis(r_k, r_l)
        thetas, eps, breaks = ax.thetas, ax.eps, ax.breaks
        assert len(breaks) == len(REGIMES[radius_config(r_k, r_l)]) - 1
        assert list(breaks) == sorted(breaks)
        for k, b in enumerate(breaks, start=1):
            assert _row_at(b, thetas, eps) >= k
            assert b == 0.0 or _row_at(math.nextafter(b, 0.0), thetas, eps) < k

    def test_a_row_no_finite_distance_reaches_breaks_at_inf(self):
        # The sum band of these radii reaches past the largest float, so DC
        # (row 4) holds at no finite distance.
        ax = axis(0.3e308, 1.4e308, Tolerance(2e307))
        assert ax.config == "lt"
        assert ax.breaks[-1] == math.inf
        assert ax.row(sys.float_info.max) == 3

    def test_no_table_is_built_at_import(self):
        code = (
            "import motionstories.cli, motionstories.stories as s; "
            "print(s.axis.cache_info().currsize)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(motionstories.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "0"


class TestAxis:
    def test_a_repeat_call_returns_the_same_record(self):
        for args in [(1.0, 2.0), (2.0, 1.0, Tolerance(1e-6)), (1.5, 1.5, DEFAULT_TOLERANCE)]:
            assert axis(*args) is axis(*args)

    @pytest.mark.parametrize("r_k, r_l, config", [(1, 3, "lt"), (3, 1, "gt"), (2, 2, "eq")])
    def test_thetas_are_float_thresholds_also_for_int_radii(self, r_k, r_l, config):
        axis.cache_clear()  # so that the int radii make the first call
        ax = axis(r_k, r_l)
        assert (ax.config, ax.rows, ax.eps) == (config, REGIMES[config], DEFAULT_TOLERANCE.eps)
        at = {"sum": r_k + r_l, "diff": abs(r_k - r_l), "zero": 0}
        assert ax.thetas == tuple(None if r.band is None else at[r.band] for r in ax.rows)
        assert all(type(theta) is float for theta in ax.thresholds)
        assert axis(float(r_k), float(r_l)) is ax


class TestMotionRccRelation:
    def test_examples(self):
        assert story_of(SCENARIO_A).id is StoryId.S12
        assert story_of(SCENARIO_B).id is StoryId.S15
        assert story_of(state(0.2, 0, 3, 3, 0, 0, 3, 3)).id is StoryId.S05

    def test_rigid_dc_maps_to_s11(self):
        assert story_of(state(0, 0, 1, 1, 10, 0, 1, 1)).id is StoryId.S11


def _math_hypot_indices(dpx, dpy, dvx, dvy, r_k, r_l, tol, distances=None):
    """`augmented_relation_indices` as it was with `math.hypot` mapped over
    every state, verbatim; or with `distances(dpx, dpy, breaks)` in its
    place."""
    ax = axis(r_k, r_l, tol)
    with np.errstate(all="ignore"):
        a = dvx * dvx + dvy * dvy
        dot = dpx * dvx + dpy * dvy
        d_min = np.abs(dpx * dvy - dpy * dvx) / np.sqrt(a)
        if distances is None:
            d = np.array(list(map(math.hypot, dpx.tolist(), dpy.tolist())))
        else:
            d = distances(dpx, dpy, ax.breaks)
        rigid = a < sys.float_info.min
        # hypot is finite exactly when both its arguments are.
        usable = np.isfinite([d, dvx, dvy]).all(axis=0) & (
            rigid | np.isfinite([a, dot / a, d_min]).all(axis=0)
        )
    h = np.where(rigid, d, np.minimum(d_min, d))
    # An unusable state's rows are read from NaN or inf, which sort last.
    i, j = np.searchsorted(ax.breaks, [h, d], "right")
    return np.where(usable, _INDEX[ax.config][i, j, rigid.astype(int), (dot < 0).astype(int)], -1)


def _scalar_code(column: list[float], r_k: float, r_l: float, tol: Tolerance, index: dict) -> int:
    """The index of the scalar `augmented_relation` of a batch column with
    disc k at rest at the origin, -1 where the state or its relation is
    rejected."""
    dpx, dpy, dvx, dvy = column
    try:
        state = UniformMotionState(
            Disc(Vec2(0.0, 0.0), r_k), Vec2(0.0, 0.0), Disc(Vec2(dpx, dpy), r_l), Vec2(dvx, dvy)
        )
        return index[augmented_relation(state, tol)]
    except ValueError:
        return -1


# Components that are subnormal, near the largest float, or not finite.
_ODD = [5e-324, -5e-324, 1e-310, -2e-308, 1.7e308, -1.7e308, 9e307, math.nan, math.inf, -math.inf]


def _near_break_states(r_k: float, r_l: float, tol: Tolerance, n: int, seed: int) -> np.ndarray:
    """n states as a (4, n) batch whose current distance lies within 3 ulps
    of a finite break, in a random direction, and whose miss distance is
    within 3 ulps of a break below it, or random; at a speed of about 1, a
    subnormal squared speed or 0.  A fifth of them get one component, and a
    tenth both position components, from `_ODD`."""
    rng = np.random.default_rng(seed)
    breaks = np.array([b for b in axis(r_k, r_l, tol).breaks if b < math.inf])

    def near(b: np.ndarray) -> np.ndarray:
        steps = rng.integers(-3, 4, len(b))  # positive floats step one ulp per bit
        return np.maximum(b.view(np.int64) + steps, 0).view(np.float64)

    d = near(breaks[rng.integers(0, len(breaks), n)])
    miss = np.minimum(near(breaks[rng.integers(0, len(breaks), n)]), d)
    turn = np.where(rng.random(n) < 0.5, np.arcsin(miss / d), rng.uniform(0.0, np.pi, n))
    turn = np.where(rng.random(n) < 0.5, turn, np.pi - turn)  # closing in or moving apart
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    speed = rng.choice([1.0, 0.7, 1.3, 1e-160, 0.0], n)
    batch = np.stack([
        d * np.cos(theta), d * np.sin(theta),
        speed * np.cos(theta + turn), speed * np.sin(theta + turn),
    ])
    odd = np.flatnonzero(rng.random(n) < 0.2)
    batch[rng.integers(0, 4, len(odd)), odd] = rng.choice(_ODD, len(odd))
    both = np.flatnonzero(rng.random(n) < 0.1)
    batch[:2, both] = rng.choice(_ODD, (2, len(both)))
    return batch


def _distances_only(x, y, breaks):
    """`hypot_at_breaks` as it was before it placed rows, verbatim: the
    distances alone, whose rows a second search looked up."""
    d = np.hypot(x, y)
    below, above = d * (1.0 - HYPOT_MARGIN), d * (1.0 + HYPOT_MARGIN)
    redo = np.searchsorted(breaks, below, "right") != np.searchsorted(breaks, above, "right")
    redo |= (d < sys.float_info.min) | (above == math.inf)
    at = np.flatnonzero(redo)
    d[at] = list(map(math.hypot, x[at].tolist(), y[at].tolist()))
    return d


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where a and b hold the same float, bit for bit, or both a NaN."""
    return (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))


# Radii from 1e-300 to 1e300, each at a relative eps of 1e-9 and at one so
# small that every tangency break is its threshold or the float above it.
_PLACEMENT_CASES = [
    (r * k, r * l, r * rel)
    for r in (1e-300, 1e-155, 1e-20, 1.0, 1e20, 1e155, 1e300)
    for k, l in ((1.0, 2.0), (2.0, 1.0), (1.5, 1.5))
    for rel in (1e-9, 1e-20)
]


class TestOnePassPlacement:
    """`hypot_at_breaks` places each distance in its row in the pass that
    takes it: from the margin search where that settles the row, by
    `bisect_right` where `math.hypot` is taken again."""

    @staticmethod
    def _mixed(r_k, r_l, tol, seed):
        # Positions within 3 ulps of a break, in random directions, mixed
        # with subnormal, nearly overflowing, infinite and NaN components.
        x, y = _near_break_states(r_k, r_l, tol, 4_000, seed)[:2]
        odd = np.array(_ODD + [0.0, sys.float_info.max, -sys.float_info.max, 2.0**-1022])
        x, y = np.concatenate([x, np.repeat(odd, len(odd))]), np.concatenate([y, np.tile(odd, len(odd))])
        return x, y

    @pytest.mark.parametrize("r_k, r_l, eps", _PLACEMENT_CASES)
    def test_rows_and_retaken_distances(self, r_k, r_l, eps):
        tol = Tolerance(eps)
        ax = axis(r_k, r_l, tol)
        x, y = self._mixed(r_k, r_l, tol, seed=17)
        with np.errstate(over="ignore"):
            fast = np.hypot(x, y)
            low, high = fast * (1.0 - HYPOT_MARGIN), fast * (1.0 + HYPOT_MARGIN)
        exact = np.array(list(map(math.hypot, x.tolist(), y.tolist())))
        ask = np.random.default_rng(5).random(len(x)) < 0.01
        # Taken again, by the rule: the margin straddles a break, d is
        # subnormal or its margin overflows, or `also` asks.
        margin = ax.break_array.searchsorted(low, "right") != ax.break_array.searchsorted(high, "right")
        odd = (fast < sys.float_info.min) | (high == math.inf)
        assert margin.any() and odd.any()
        for breaks in (ax.break_array, ax.breaks):
            for also, asked in ((None, False), (lambda d: ask, ask)):
                with np.errstate(over="ignore"):
                    d, rows = hypot_at_breaks(x, y, breaks, also)
                assert rows.tolist() == np.searchsorted(ax.breaks, d, "right").tolist()
                # Each row is that of math.hypot's distance.
                assert rows.tolist() == np.searchsorted(ax.breaks, exact, "right").tolist()
                retaken = margin | odd | asked
                assert _same_bits(d[retaken], exact[retaken]).all()
                assert _same_bits(d[~retaken], fast[~retaken]).all()

    @pytest.mark.parametrize("r_k, r_l, eps", _PLACEMENT_CASES)
    def test_codes_equal_the_two_search_path(self, r_k, r_l, eps):
        tol = Tolerance(eps)
        batch = _near_break_states(r_k, r_l, tol, 4_000, seed=19)
        got = augmented_relation_indices(*batch, axis(r_k, r_l, tol))
        assert got.tolist() == _math_hypot_indices(*batch, r_k, r_l, tol, _distances_only).tolist()

    def test_finite_raises_for_the_first_infinite_distance(self):
        ax = axis(1.0, 2.0)
        # The third distance is the largest float, taken again as its margin
        # overflows; the fourth overflows.
        x = np.array([0.5, 3.0, sys.float_info.max, 1.7e308, math.inf, 1.0])
        y = np.array([0.0, 0.0, 1e300, 1.7e308, 0.0, 0.0])
        with np.errstate(over="ignore"):
            for k in (0, 3, 4):
                with pytest.raises(ValueError, match="center distance must be finite and >= 0, got inf"):
                    hypot_at_breaks(x[k:], y[k:], ax.break_array, finite=True)
            d, rows = hypot_at_breaks(x[:3], y[:3], ax.break_array, finite=True)
            # Finite distances whose sum overflows pass.
            top, top_rows = hypot_at_breaks(x[[2, 2]], y[[2, 2]], ax.break_array, finite=True)
        assert d.tolist() == [0.5, 3.0, sys.float_info.max]
        assert rows.tolist() == [ax.row(0.5), ax.row(3.0), len(ax.breaks)]
        assert top.tolist() == [sys.float_info.max] * 2 and top_rows.tolist() == [len(ax.breaks)] * 2


def _floats_about(centres, n=12):
    """The n floats either side of each centre and the centre, where not negative."""
    out = set()
    for c in centres:
        lo = hi = c
        out.add(c)
        for _ in range(n):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out |= {lo, hi}
    return [v for v in out if not v < 0]


class TestGuardTable:
    """One search of the guard table takes again exactly the distances the
    two margin searches take again, and gives every other its row."""

    @staticmethod
    def _check(breaks, d):
        # x = d and y = 0 make np.hypot's d exact, so a distance taken again
        # shows as the sentinel that stands for math.hypot here.
        x, y = np.array(d), np.zeros(len(d))
        with np.errstate(over="ignore"):
            expected = _distances_only(x, y, np.asarray(breaks))
            got, rows = hypot_at_breaks(x, y, breaks)
        assert _same_bits(got, expected).all(), np.asarray(d)[~_same_bits(got, expected)][:5]
        # The sentinel is negative, in row 0, as bisect_right places it.
        assert rows.tolist() == np.searchsorted(breaks, got, "right").tolist()
        return got < 0

    @pytest.fixture(autouse=True)
    def _sentinel(self, monkeypatch):
        hypot = math.hypot
        monkeypatch.setattr(math, "hypot", lambda a, b: -1.0 - hypot(a, b))

    @pytest.mark.parametrize("r_k, r_l, eps", _PLACEMENT_CASES)
    def test_equals_the_two_search_rule(self, r_k, r_l, eps):
        breaks = axis(r_k, r_l, Tolerance(eps)).breaks
        edges, counts = _guards(breaks)
        m = HYPOT_MARGIN
        centres = [*breaks, *(b / (1.0 + m) for b in breaks), *(b / (1.0 - m) for b in breaks)]
        centres += [e for e in edges.tolist() if math.isfinite(e)]
        retaken = self._check(breaks, _floats_about(centres))
        assert retaken.any() and not retaken.all()
        if eps < r_k * 1e-15:
            # Each tangency band is its threshold or the float above it: the
            # two breaks' intervals merge into one.
            assert len(edges) // 2 < len(breaks) + 2
            assert len(counts) == len(edges) // 2 + 1

    def test_each_bound_is_the_least_float_reaching_its_break(self):
        rng = np.random.default_rng(29)
        breaks = np.ldexp(rng.uniform(0.5, 1.0, 4000), rng.integers(-1074, 1024, 4000)).tolist()
        for b in [*breaks, 0.0, 5e-324, sys.float_info.min, sys.float_info.max, math.inf]:
            for factor in (1.0 + HYPOT_MARGIN, 1.0 - HYPOT_MARGIN):
                d = _least_reaching(b, factor)
                assert d * factor >= b > math.nextafter(d, -math.inf) * factor, (b, factor)

    @pytest.mark.parametrize("breaks", [(1.0, 3.0, math.inf), (math.inf,), (2.0**-1022, 1.0, math.inf)])
    def test_an_inf_break(self, breaks):
        top = sys.float_info.max
        centres = [*(b for b in breaks if b < math.inf), top / (1.0 + HYPOT_MARGIN), top, 1.0]
        retaken = self._check(breaks, _floats_about(centres) + [math.inf])
        assert retaken[-1]

    def test_nan_inf_subnormal_and_nearly_overflowing_distances(self):
        breaks = axis(1.0, 2.0).breaks
        top, tiny = sys.float_info.max, sys.float_info.min
        odd = [math.nan, math.inf, 0.0, 5e-324, 1e-310, tiny, top, top / (1.0 + HYPOT_MARGIN)]
        d = odd + _floats_about([tiny, top / (1.0 + HYPOT_MARGIN), top])
        retaken = self._check(breaks, d)
        # NaN is not taken again and sits in the last row; inf and the
        # subnormal distances are taken again.
        assert retaken[1:5].all() and not retaken[0]
        with np.errstate(over="ignore"):
            got, rows = hypot_at_breaks(np.array([math.nan]), np.array([0.0]), breaks)
        assert math.isnan(got[0]) and rows.tolist() == [len(breaks)]


class TestHypotMargin:
    # `np.hypot` is taken again with `math.hypot` only where its last bits
    # could move a row; the codes stay those of `math.hypot` on every state.

    @pytest.mark.parametrize(
        "r_k, r_l, eps",
        [(1.0, 2.0, 1e-9), (2.0, 1.0, 1e-9), (1.5, 1.5, 1e-9), (1e200, 3e200, 1e-9),
         (1e-155, 3e-155, 1e-170)],
    )
    def test_codes_equal_the_math_hypot_path_and_the_scalar_one(self, r_k, r_l, eps):
        tol = Tolerance(eps)
        batch = _near_break_states(r_k, r_l, tol, 20_000, seed=7)
        with np.errstate(all="ignore"):
            d = np.hypot(*batch[:2])
        exact = np.array(list(map(math.hypot, *batch[:2].tolist())))
        # The states reach where the two hypots round into different rows.
        breaks = axis(r_k, r_l, tol).breaks
        assert (np.searchsorted(breaks, d, "right") != np.searchsorted(breaks, exact, "right")).any()
        got = augmented_relation_indices(*batch, axis(r_k, r_l, tol))
        assert got.tolist() == _math_hypot_indices(*batch, r_k, r_l, tol).tolist()
        index = {a: k for k, a in enumerate(RELATIONS[radius_config(r_k, r_l, tol)])}
        scalar = [_scalar_code(c, r_k, r_l, tol, index) for c in batch[:, ::4].T.tolist()]
        assert got[::4].tolist() == scalar

    def test_retakes_only_near_a_break(self):
        # Far from every break np.hypot stands; at a break's float, and where
        # `also` asks, math.hypot's value is taken.
        breaks = (1.0, 3.0)
        x, y = np.array([0.6, 1.8, 5e-324, 1.7e308]), np.array([0.8, 2.4, 0.0, 1.7e308])
        with np.errstate(over="ignore"):
            d, _ = hypot_at_breaks(x, y, breaks)
        assert d.tolist() == [math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())]
        rng = np.random.default_rng(3)
        x, y = rng.uniform(1.2, 1.5, 10_000), rng.uniform(1.2, 1.5, 10_000)
        assert hypot_at_breaks(x, y, breaks)[0].tolist() == np.hypot(x, y).tolist()
        also, _ = hypot_at_breaks(x, y, breaks, lambda d: np.ones(len(d), bool))
        assert also.tolist() == list(map(math.hypot, x.tolist(), y.tolist()))
