import pytest

from motionstories.neighborhood import motion_cng
from motionstories.patterns import (
    AVOIDANCE_PATTERN,
    MatchResult,
    Pattern,
    StepMatcher,
    control_suggestion,
    dedup,
    detect_avoidance,
    match_pattern,
)
from motionstories.stories import (
    AugmentedRelation,
    Phase,
    RccRelation,
    StoryId,
    augmented_chain,
    augmented_set,
)

R = RccRelation


def aug(text: str) -> AugmentedRelation:
    return AugmentedRelation.parse(text)


AVOIDANCE = [
    aug("S15(DC-)"), aug("S14(DC-)"), aug("S13(DC-)"),
    aug("S12(DC-)"), aug("S11(DC)"),
]


class TestDedup:
    def test_merges_consecutive_repeats(self):
        stream = [aug("S15(DC-)")] * 3 + [aug("S14(DC-)")] * 2 + [aug("S15(DC-)")]
        assert dedup(stream) == [aug("S15(DC-)"), aug("S14(DC-)"), aug("S15(DC-)")]

    def test_empty(self):
        assert dedup([]) == []


class TestStepMatcher:
    def test_wildcards(self):
        any_dc = StepMatcher(story=None, rel=R.DC, phase=None)
        assert any_dc.matches(aug("S15(DC-)"))
        assert any_dc.matches(aug("S11(DC)"))
        assert not any_dc.matches(aug("S15(EC-)"))

    def test_exact(self):
        m = StepMatcher.exact(aug("S15(DC-)"))
        assert m.matches(aug("S15(DC-)"))
        assert not m.matches(aug("S15(DC+)"))


class TestPattern:
    def test_needs_at_least_one_step(self):
        with pytest.raises(ValueError):
            Pattern(())

    def test_from_json_list(self):
        p = Pattern.from_json_list(
            [
                {"story": "S15", "rel": "DC", "phase": "-"},
                {"story": "*", "rel": "DC"},
                {"rel": "*", "phase": "*"},
            ]
        )
        assert p.steps[0] == StepMatcher(StoryId.S15, R.DC, Phase.MINUS)
        assert p.steps[1] == StepMatcher(None, R.DC, None)
        assert p.steps[2] == StepMatcher(None, None, None)

    def test_from_json_list_rejects_bad_values(self):
        with pytest.raises(ValueError, match="step 0"):
            Pattern.from_json_list([{"story": "S99"}])
        with pytest.raises(ValueError, match="step 1"):
            Pattern.from_json_list([{}, {"rel": "XX"}])


class TestMatchPattern:
    def test_avoidance_pattern_steps(self):
        assert AVOIDANCE_PATTERN.steps == tuple(
            StepMatcher.exact(aug(text))
            for text in ("S15(DC-)", "S14(DC-)", "S13(DC-)", "S12(DC-)", "S11(DC)")
        )

    def test_exact_match(self):
        results = match_pattern(AVOIDANCE, AVOIDANCE_PATTERN)
        assert results == [MatchResult(0, 4)]

    def test_match_with_repeats_uses_dedup_indices(self):
        stream = [a for a in AVOIDANCE for _ in range(3)]
        prefix = [aug("S15(EC-)")] * 2
        results = match_pattern(prefix + stream, AVOIDANCE_PATTERN)
        assert results == [MatchResult(1, 5)]

    def test_no_match(self):
        assert match_pattern(AVOIDANCE[:-1], AVOIDANCE_PATTERN) == []
        assert match_pattern(list(reversed(AVOIDANCE)), AVOIDANCE_PATTERN) == []

    def test_non_overlapping_leftmost(self):
        stream = AVOIDANCE + AVOIDANCE
        results = match_pattern(stream, AVOIDANCE_PATTERN)
        assert results == [MatchResult(0, 4), MatchResult(5, 9)]

    def test_wildcard_pattern(self):
        p = Pattern((StepMatcher(None, R.DC, Phase.MINUS),))
        results = match_pattern(AVOIDANCE, p)
        assert [r.start_index for r in results] == [0, 1, 2, 3]


class TestDetectAvoidance:
    def test_strict_detects_full_chain(self):
        assert detect_avoidance(AVOIDANCE) == [MatchResult(0, 4)]

    def test_strict_rejects_skipped_story(self):
        skipped = [aug("S15(DC-)"), aug("S14(DC-)"), aug("S12(DC-)"), aug("S11(DC)")]
        assert detect_avoidance(skipped) == []
        assert detect_avoidance(skipped, relaxed=True) == [MatchResult(0, 3)]

    def test_relaxed_requires_increasing_rank(self):
        backward = [aug("S12(DC-)"), aug("S14(DC-)"), aug("S11(DC)")]
        assert detect_avoidance(backward, relaxed=True) == [MatchResult(1, 2)]

    def test_relaxed_requires_terminal_s11(self):
        unfinished = [aug("S15(DC-)"), aug("S13(DC-)"), aug("S12(EC)")]
        assert detect_avoidance(unfinished, relaxed=True) == []

    def test_approach_is_not_avoidance(self):
        approach = list(augmented_chain(StoryId.S15))
        assert detect_avoidance(approach) == []
        assert detect_avoidance(approach, relaxed=True) == []

    def test_embedded_in_noise(self):
        noisy = list(augmented_chain(StoryId.S13))[:2] + AVOIDANCE + [aug("S11(DC)")]
        assert detect_avoidance(noisy) == [MatchResult(2, 6)]


@pytest.fixture(scope="module")
def graph():
    return motion_cng(augmented_set(1.0, 2.0))


class TestControlSuggestion:
    def test_collision_to_clear(self, graph):
        steps = control_suggestion(aug("S15(NTPP)"), aug("S11(DC)"), graph)
        assert steps == [aug("S14(TPP)"), aug("S13(PO)"), aug("S12(EC)"), aug("S11(DC)")]

    def test_avoidance_route(self, graph):
        steps = control_suggestion(aug("S15(DC-)"), aug("S11(DC)"), graph)
        assert steps == AVOIDANCE[1:]

    def test_already_there(self, graph):
        assert control_suggestion(aug("S11(DC)"), aug("S11(DC)"), graph) == []

    def test_unknown_relation_raises(self, graph):
        with pytest.raises(KeyError):
            control_suggestion(aug("S15(DC-)"), "nowhere", graph)
