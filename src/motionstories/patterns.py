"""Recognition of qualitative motion patterns over augmented-relation streams.

Streams are deduplicated (consecutive equal elements merged) before matching,
since classifier output at high sampling rates repeats each relation many
times; match indices refer to the deduplicated stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .neighborhood import Cng, shortest_path
from .stories import (
    REGIMES, STORY_RANK, AugmentedRelation, Phase, RccRelation, StoryId, augmented_chain
)


@dataclass(frozen=True)
class StepMatcher:
    """Matches one augmented relation; a None field is a wildcard."""

    story: StoryId | None
    rel: RccRelation | None
    phase: Phase | None

    def matches(self, aug: AugmentedRelation) -> bool:
        return (
            (self.story is None or self.story is aug.story)
            and (self.rel is None or self.rel is aug.rel)
            and (self.phase is None or self.phase is aug.phase)
        )

    @classmethod
    def exact(cls, aug: AugmentedRelation) -> "StepMatcher":
        return cls(aug.story, aug.rel, aug.phase)


@dataclass(frozen=True)
class Pattern:
    """An ordered, non-empty sequence of step matchers."""

    steps: tuple[StepMatcher, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a pattern needs at least one step")

    @classmethod
    def from_relations(cls, relations: Sequence[AugmentedRelation]) -> "Pattern":
        return cls(tuple(StepMatcher.exact(a) for a in relations))

    @classmethod
    def from_json_list(cls, items: object) -> "Pattern":
        """Parse `[{"story": "S15", "rel": "DC", "phase": "-"}, ...]`, a parsed
        JSON document; "*" (or a missing key) makes that field a wildcard."""

        def field(item: dict, key: str, parse):
            value = item.get(key, "*")
            return None if value == "*" else parse(value)

        if not isinstance(items, list):
            raise ValueError("a pattern is a JSON list of step objects")
        steps = []
        for i, item in enumerate(items):
            try:
                if not isinstance(item, dict):
                    raise ValueError("a step is a JSON object")
                steps.append(
                    StepMatcher(
                        story=field(item, "story", StoryId),
                        rel=field(item, "rel", RccRelation),
                        phase=field(item, "phase", Phase),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"bad pattern step {i}: {exc}") from None
        return cls(tuple(steps))


@dataclass(frozen=True)
class MatchResult:
    """A contiguous match; indices refer to the deduplicated stream."""

    start_index: int
    end_index: int

    def __post_init__(self) -> None:
        if self.start_index > self.end_index:
            raise ValueError("start_index must not exceed end_index")


def dedup(stream: Sequence[AugmentedRelation]) -> list[AugmentedRelation]:
    """Merge consecutive equal elements."""
    out: list[AugmentedRelation] = []
    for aug in stream:
        if not out or aug != out[-1]:
            out.append(aug)
    return out


def match_pattern(
    stream: Sequence[AugmentedRelation], p: Pattern
) -> list[MatchResult]:
    """Leftmost non-overlapping contiguous matches of p in the deduplicated stream."""
    seq = dedup(stream)
    n, m = len(seq), len(p.steps)
    results: list[MatchResult] = []
    i = 0
    while i + m <= n:
        if all(step.matches(seq[i + k]) for k, step in enumerate(p.steps)):
            results.append(MatchResult(i, i + m - 1))
            i += m
        else:
            i += 1
    return results


# The first relation of each story of a configuration by increasing miss
# distance: DC while approaching, ending in the forever-disconnected S11(DC).
_AVOIDANCE = {
    config: tuple(augmented_chain(r.story)[0] for r in table) for config, table in REGIMES.items()
}
AVOIDANCE_PATTERN = Pattern.from_relations(_AVOIDANCE["lt"])


def detect_avoidance(
    stream: Sequence[AugmentedRelation], relaxed: bool = False
) -> list[MatchResult]:
    """Find collision-avoidance maneuvers: a disconnected-while-approaching
    chain of stories with increasing closest-approach distance that ends in
    the forever-disconnected story.

    One scan reads each longest run of DC− relations of strictly rising
    distance rank (every DC− relation belongs to a non-rigid story, so each
    has a rank); a run followed by S11(DC) is a match in relaxed mode, which
    tolerates skipped intermediate stories.  Strict mode (default) takes it
    only where the run and S11(DC) are one configuration's own chain: five
    stories for unequal radii (`AVOIDANCE_PATTERN` for disc k the smaller),
    four for equal ones.  Every chain starts at rank 0, so none starts
    inside a longer run.
    """
    seq = dedup(stream)
    goal = AugmentedRelation(StoryId.S11, RccRelation.DC, Phase.NONE)

    def is_dc_minus(aug: AugmentedRelation) -> bool:
        return aug.rel is RccRelation.DC and aug.phase is Phase.MINUS

    results: list[MatchResult] = []
    i = 0
    while i < len(seq):
        if not is_dc_minus(seq[i]):
            i += 1
            continue
        j = i
        while (
            j + 1 < len(seq)
            and is_dc_minus(seq[j + 1])
            and STORY_RANK[seq[j + 1].story] > STORY_RANK[seq[j].story]
        ):
            j += 1
        run = tuple(seq[i : j + 2])  # and the relation after it, if any
        if run[-1] == goal and (relaxed or run in _AVOIDANCE.values()):
            results.append(MatchResult(i, j + 1))
        i = j + 1
    return results


def control_suggestion(
    current: AugmentedRelation, target: AugmentedRelation, g: Cng
) -> list[AugmentedRelation] | None:
    """The steps (excluding the current relation) of a shortest maneuver from
    current to target; None when no path exists."""
    path = shortest_path(g, current, target)
    if path is None:
        return None
    return path[1:]
