"""Stories: finite relation sequences of two discs over the whole time line.

Under uniform motion the relation sequence of two discs is determined by the
minimum center distance relative to the thresholds r_k + r_l, |r_k - r_l|
and, for equal radii, 0.  `REGIMES` lists the resulting stretches of the
distance axis once per radius configuration; the finite story catalogue, the
rigid singletons and the transition instants are all read from it.  Each
story is a qualitative motion relation, and pairing it with the current
spatial relation (plus a chronological phase for repeated labels) gives the
augmented motion relations.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

from .kinematics import (
    UniformMotionState,
    closest_approach_state,
    relative_state,
)
from .rcc import DEFAULT_TOLERANCE, RccRelation, Tolerance, classify_discs

_R = RccRelation


class DegenerateMotionError(ValueError):
    """Raised when an operation needs a nonzero relative velocity."""


class Phase(Enum):
    MINUS = "-"
    PLUS = "+"
    NONE = ""

    def __str__(self) -> str:
        return self.value


class StoryId(Enum):
    # rigid singletons (DC is shared with S11)
    S02 = "S02"    # (EC)
    S03 = "S03"    # (PO)
    S04 = "S04"    # (TPP)
    S05 = "S05"    # (NTPP)
    S04I = "S04I"  # (TPPI)
    S05I = "S05I"  # (NTPPI)
    S0E = "S0E"    # (EQ)
    # non-rigid stories, ordered by increasing miss distance
    S11 = "S11"
    S12 = "S12"
    S13 = "S13"
    S14 = "S14"
    S15 = "S15"
    S14I = "S14I"
    S15I = "S15I"
    S15E = "S15E"

    def __str__(self) -> str:
        return self.value


STORY_LABELS: dict[StoryId, tuple[RccRelation, ...]] = {
    StoryId.S02: (_R.EC,),
    StoryId.S03: (_R.PO,),
    StoryId.S04: (_R.TPP,),
    StoryId.S05: (_R.NTPP,),
    StoryId.S04I: (_R.TPPI,),
    StoryId.S05I: (_R.NTPPI,),
    StoryId.S0E: (_R.EQ,),
    StoryId.S11: (_R.DC,),
    StoryId.S12: (_R.DC, _R.EC, _R.DC),
    StoryId.S13: (_R.DC, _R.EC, _R.PO, _R.EC, _R.DC),
    StoryId.S14: (_R.DC, _R.EC, _R.PO, _R.TPP, _R.PO, _R.EC, _R.DC),
    StoryId.S15: (_R.DC, _R.EC, _R.PO, _R.TPP, _R.NTPP, _R.TPP, _R.PO, _R.EC, _R.DC),
    StoryId.S14I: (_R.DC, _R.EC, _R.PO, _R.TPPI, _R.PO, _R.EC, _R.DC),
    StoryId.S15I: (_R.DC, _R.EC, _R.PO, _R.TPPI, _R.NTPPI, _R.TPPI, _R.PO, _R.EC, _R.DC),
    StoryId.S15E: (_R.DC, _R.EC, _R.PO, _R.EQ, _R.PO, _R.EC, _R.DC),
}


@dataclass(frozen=True)
class Regime:
    """One stretch of the closest-approach distance axis.

    `story` is the non-rigid story whose minimum distance falls here and
    `rigid` the singleton story whose relation holds at such a distance.  A
    regime with a `band` ("sum" for r_k + r_l, "diff" for |r_k - r_l|, "zero")
    is the eps band around that threshold; otherwise it is the open interval
    between its neighbours' bands.
    """

    story: StoryId
    rigid: StoryId
    band: str | None = None

    @property
    def rel(self) -> RccRelation:
        """The relation holding at a center distance inside the regime."""
        return STORY_LABELS[self.rigid][0]


# The regimes of each radius configuration (disc k smaller, larger, or equal
# within eps to disc l) by increasing miss distance; bands and open intervals
# alternate.  The walk in `_regime_index` compares one gap d - threshold
# against eps per band (above: gap > eps, on it: gap >= -eps), so the regimes
# partition the distance axis exactly, with no rounding slivers.
REGIMES: dict[str, tuple[Regime, ...]] = {
    "lt": (
        Regime(StoryId.S15, StoryId.S05),
        Regime(StoryId.S14, StoryId.S04, "diff"),
        Regime(StoryId.S13, StoryId.S03),
        Regime(StoryId.S12, StoryId.S02, "sum"),
        Regime(StoryId.S11, StoryId.S11),
    ),
    "gt": (
        Regime(StoryId.S15I, StoryId.S05I),
        Regime(StoryId.S14I, StoryId.S04I, "diff"),
        Regime(StoryId.S13, StoryId.S03),
        Regime(StoryId.S12, StoryId.S02, "sum"),
        Regime(StoryId.S11, StoryId.S11),
    ),
    "eq": (
        Regime(StoryId.S15E, StoryId.S0E, "zero"),
        Regime(StoryId.S13, StoryId.S03),
        Regime(StoryId.S12, StoryId.S02, "sum"),
        Regime(StoryId.S11, StoryId.S11),
    ),
}


def radius_config(r_k: float, r_l: float, tol: Tolerance = DEFAULT_TOLERANCE) -> str:
    """The key of the radii's table in `REGIMES`."""
    if not (r_k > 0 and r_l > 0 and math.isfinite(r_k) and math.isfinite(r_l)):
        raise ValueError(f"radii must be positive and finite, got {r_k!r}, {r_l!r}")
    if abs(r_k - r_l) <= tol.eps:
        return "eq"
    return "lt" if r_k < r_l else "gt"


def _threshold(band: str, r_k: float, r_l: float) -> float:
    if band == "sum":
        return r_k + r_l
    return abs(r_k - r_l) if band == "diff" else 0.0


def _regime_index(
    table: tuple[Regime, ...], d: float, r_k: float, r_l: float, eps: float
) -> int:
    """Row of `table` holding center distance d, found from the top down."""
    for i in range(len(table) - 1, -1, -1):
        band = table[i].band
        if band is not None:
            gap = d - _threshold(band, r_k, r_l)
            if gap > eps:
                return i + 1
            if gap >= -eps:
                return i
    return 0


def regime_spans(
    r_k: float, r_l: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[tuple[float, float], ...]:
    """Distance extent (lo, hi) of each regime of the radii's table.

    A band spans its threshold alone; the lowest interval starts at 0 and the
    highest ends at infinity.
    """
    table = REGIMES[radius_config(r_k, r_l, tol)]
    thetas = [None if r.band is None else _threshold(r.band, r_k, r_l) for r in table]
    spans = []
    for i, theta in enumerate(thetas):
        if theta is None:
            lo = thetas[i - 1] if i > 0 else 0.0
            hi = thetas[i + 1] if i + 1 < len(thetas) else math.inf
            spans.append((lo, hi))
        else:
            spans.append((theta, theta))
    return tuple(spans)


def distance_inside(span: tuple[float, float], floor: float = 0.0) -> float:
    """A center distance inside a regime span, not below `floor` where the
    span allows: a band's threshold, else the midpoint of [max(lo, floor), hi],
    or half a meter past that start for the unbounded top interval."""
    lo, hi = span
    if lo == hi:
        return lo
    lo = max(lo, floor)
    return lo + 0.5 if hi == math.inf else (lo + hi) / 2.0


@dataclass(frozen=True)
class TimedLabel:
    t: float
    rel: RccRelation

    def __post_init__(self) -> None:
        if not math.isfinite(self.t):
            raise ValueError(f"timestamp must be finite, got {self.t!r}")


@dataclass(frozen=True)
class TemporalSequence:
    """Consecutive-duplicate-free labels over a (possibly unbounded) interval.

    `boundaries` holds one transition instant per adjacent label pair;
    instantaneous labels repeat the instant, so values are non-decreasing.
    """

    labels: tuple[RccRelation, ...]
    interval: tuple[float, float]
    boundaries: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("a temporal sequence needs at least one label")
        for a, b in zip(self.labels, self.labels[1:]):
            if a is b:
                raise ValueError("consecutive labels must differ")
        if len(self.boundaries) != len(self.labels) - 1:
            raise ValueError("need exactly one boundary per adjacent label pair")
        for a, b in zip(self.boundaries, self.boundaries[1:]):
            if b < a:
                raise ValueError("boundaries must be non-decreasing")
        lo, hi = self.interval
        if not lo < hi and len(self.labels) > 1:
            raise ValueError("interval must have positive length")
        for b in self.boundaries:
            if not (lo <= b <= hi):
                raise ValueError("boundaries must lie inside the interval")


@dataclass(frozen=True)
class Story:
    """A temporal sequence over the whole time line, with its catalogue id.

    `boundaries` carries absolute transition instants for stories derived
    from a concrete motion state, and None for abstract catalogue members.
    """

    id: StoryId
    labels: tuple[RccRelation, ...]
    rigid: bool
    boundaries: tuple[float, ...] | None

    def __post_init__(self) -> None:
        if self.labels != STORY_LABELS[self.id]:
            raise ValueError(f"label sequence does not match story {self.id}")
        if self.rigid and len(self.labels) != 1:
            raise ValueError("rigid stories are singletons")
        if self.boundaries is not None and len(self.boundaries) != max(0, len(self.labels) - 1):
            raise ValueError("need one boundary per adjacent label pair")


@dataclass(frozen=True)
class AugmentedRelation:
    """A story paired with one of its spatial relations and its phase index.

    The phase distinguishes repeated occurrences of a label inside a story:
    MINUS before closest approach, PLUS after, NONE for unique occurrences.
    """

    story: StoryId
    rel: RccRelation
    phase: Phase

    def __post_init__(self) -> None:
        labels = STORY_LABELS[self.story]
        count = labels.count(self.rel)
        if count == 0:
            raise ValueError(f"{self.rel} does not occur in story {self.story}")
        if count == 1 and self.phase is not Phase.NONE:
            raise ValueError(f"{self.story}({self.rel}) occurs once; phase must be NONE")
        if count > 1 and self.phase is Phase.NONE:
            raise ValueError(f"{self.story}({self.rel}) repeats; phase must be +/-")

    def __str__(self) -> str:
        return f"{self.story.value}({self.rel.value}{self.phase.value})"

    _PATTERN = re.compile(r"^(S[0-9]+[IE]?)\(([A-Z]+)([+-]?)\)$")

    @classmethod
    def parse(cls, text: str) -> "AugmentedRelation":
        m = cls._PATTERN.match(text.strip())
        if m is None:
            raise ValueError(f"cannot parse augmented relation {text!r}")
        try:
            story = StoryId(m.group(1))
            rel = RccRelation(m.group(2))
        except ValueError as exc:
            raise ValueError(f"cannot parse augmented relation {text!r}: {exc}") from None
        return cls(story, rel, Phase(m.group(3)))


@dataclass(frozen=True)
class StoriesSet:
    """The realizable stories for one radius configuration."""

    rigid: frozenset[Story]
    nonrigid: frozenset[Story]
    all: tuple[Story, ...]


@dataclass(frozen=True)
class UnitVec:
    x: float
    y: float

    def __post_init__(self) -> None:
        if abs(math.hypot(self.x, self.y) - 1.0) > 1e-12:
            raise ValueError("components must have unit norm")


def compress(samples: list[TimedLabel]) -> TemporalSequence:
    """Merge consecutive duplicate labels of a chronological sample list.

    Each boundary is the first timestamp at which the new label is observed.
    """
    if not samples:
        raise ValueError("cannot compress an empty sample list")
    for a, b in zip(samples, samples[1:]):
        if b.t <= a.t:
            raise ValueError(f"timestamps must be strictly increasing at t={b.t!r}")
    labels = [samples[0].rel]
    boundaries: list[float] = []
    for s in samples[1:]:
        if s.rel is not labels[-1]:
            labels.append(s.rel)
            boundaries.append(s.t)
    return TemporalSequence(
        labels=tuple(labels),
        interval=(samples[0].t, samples[-1].t),
        boundaries=tuple(boundaries),
    )


def is_rigid(state: UniformMotionState, vel_tol: float = 0.0) -> bool:
    """True when both discs move with the same velocity (within vel_tol)."""
    _, dv = relative_state(state)
    return dv.norm() <= vel_tol


def augmented_chain(story_id: StoryId) -> tuple[AugmentedRelation, ...]:
    """The story's labels paired with phases, in chronological order."""
    labels = STORY_LABELS[story_id]
    seen: dict[RccRelation, int] = {}
    chain = []
    for rel in labels:
        if labels.count(rel) == 1:
            phase = Phase.NONE
        else:
            phase = Phase.MINUS if seen.get(rel, 0) == 0 else Phase.PLUS
        seen[rel] = seen.get(rel, 0) + 1
        chain.append(AugmentedRelation(story_id, rel, phase))
    return tuple(chain)


def story_of(
    state: UniformMotionState,
    tol: Tolerance = DEFAULT_TOLERANCE,
    vel_tol: float = 0.0,
) -> Story:
    """The story this motion state belongs to, with absolute transition instants."""
    r_k = state.disc_k.radius
    r_l = state.disc_l.radius
    table = REGIMES[radius_config(r_k, r_l, tol)]
    dp, dv = relative_state(state)
    speed = dv.norm()
    t_min, h = closest_approach_state(state)

    # Rigid within vel_tol, or a relative speed too small to square in floats.
    if speed <= vel_tol or t_min is None:
        sid = table[_regime_index(table, dp.norm(), r_k, r_l, tol.eps)].rigid
        return Story(sid, STORY_LABELS[sid], rigid=True, boundaries=())

    i = _regime_index(table, h, r_k, r_l, tol.eps)
    above = [_threshold(r.band, r_k, r_l) for r in table[i + 1 :] if r.band is not None]
    # Each threshold above the regime is crossed symmetrically about t_min,
    # the outermost first; (theta - h)(theta + h) keeps the half-width exact
    # when theta and h nearly agree.
    widths = [math.sqrt((theta - h) * (theta + h)) / speed for theta in reversed(above)]
    instants = [t_min - w for w in widths]
    if table[i].band is not None:
        instants.append(t_min)
    instants += [t_min + w for w in reversed(widths)]
    sid = table[i].story
    # Every transition enters or leaves an instantaneous tangency label, so
    # each instant bounds two labels.
    return Story(
        id=sid,
        labels=STORY_LABELS[sid],
        rigid=False,
        boundaries=tuple(state.epoch + t for t in instants for _ in (0, 1)),
    )


def _label_spans(
    story: Story,
) -> list[tuple[float, float, RccRelation]]:
    """Closed span per label; instantaneous labels collapse to a point.

    Non-point spans are open at their endpoints: the boundary instant itself
    belongs to the adjacent instantaneous label.
    """
    if story.boundaries is None:
        raise ValueError("story has no concrete transition instants")
    n = len(story.labels)
    spans = []
    for i, rel in enumerate(story.labels):
        lo = story.boundaries[i - 1] if i > 0 else -math.inf
        hi = story.boundaries[i] if i < n - 1 else math.inf
        spans.append((lo, hi, rel))
    return spans


def tsr_over_interval(
    state: UniformMotionState,
    t_a: float,
    t_b: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> TemporalSequence:
    """Restriction of the state's story to the absolute interval [t_a, t_b]."""
    if not t_a < t_b:
        raise ValueError(f"empty or inverted interval ({t_a!r}, {t_b!r})")
    story = story_of(state, tol)
    labels: list[RccRelation] = []
    boundaries: list[float] = []
    for lo, hi, rel in _label_spans(story):
        if lo == hi:
            active = t_a <= lo <= t_b
        else:
            active = lo < t_b and hi > t_a
        if active:
            if labels:
                boundaries.append(lo)
            labels.append(rel)
    return TemporalSequence(
        labels=tuple(labels), interval=(t_a, t_b), boundaries=tuple(boundaries)
    )


def augmented_relation(
    state: UniformMotionState,
    tol: Tolerance = DEFAULT_TOLERANCE,
    vel_tol: float = 0.0,
) -> AugmentedRelation:
    """Story plus the spatial relation currently holding, with its phase."""
    story = story_of(state, tol, vel_tol)
    dp, dv = relative_state(state)
    rel = classify_discs(dp.norm(), state.disc_k.radius, state.disc_l.radius, tol)
    if story.labels.count(rel) <= 1:
        return AugmentedRelation(story.id, rel, Phase.NONE)
    # A repeated label needs a moving story.  Closest approach is still ahead
    # (t_min = -dp.dv / |dv|^2 > 0) exactly while the discs close in.
    phase = Phase.MINUS if dp.dot(dv) < 0 else Phase.PLUS
    return AugmentedRelation(story.id, rel, phase)


def stories_set(
    r_k: float, r_l: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> StoriesSet:
    """All realizable stories for the given radii, duplicates merged."""
    table = REGIMES[radius_config(r_k, r_l, tol)]
    rigid = frozenset(
        Story(r.rigid, STORY_LABELS[r.rigid], rigid=True, boundaries=None) for r in table
    )
    nonrigid = frozenset(
        Story(r.story, STORY_LABELS[r.story], rigid=False, boundaries=None) for r in table
    )
    merged: dict[tuple[RccRelation, ...], Story] = {}
    for story in sorted(nonrigid, key=lambda s: s.id.value) + sorted(
        rigid, key=lambda s: s.id.value
    ):
        merged.setdefault(story.labels, story)
    return StoriesSet(
        rigid=rigid,
        nonrigid=nonrigid,
        all=tuple(sorted(merged.values(), key=lambda s: s.id.value)),
    )


def augmented_set(
    r_k: float, r_l: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> frozenset[AugmentedRelation]:
    """Phase-indexed expansion of every story realizable for the radii."""
    out: set[AugmentedRelation] = set()
    for story in stories_set(r_k, r_l, tol).all:
        out.update(augmented_chain(story.id))
    return frozenset(out)


def extreme_relations(story: Story) -> tuple[RccRelation, RccRelation]:
    """The relations holding as t -> -inf and t -> +inf."""
    return story.labels[0], story.labels[-1]


def asymptotic_direction(state: UniformMotionState, sign: float) -> UnitVec:
    """Limit of the k-to-l connecting unit vector as t -> +/- infinity."""
    _, dv = relative_state(state)
    n = dv.norm()
    if n == 0.0:
        raise DegenerateMotionError("direction undefined: discs move rigidly")
    if sign == 0:
        raise ValueError("sign must be positive (toward +inf) or negative (toward -inf)")
    s = 1.0 if sign > 0 else -1.0
    return UnitVec(s * dv.x / n, s * dv.y / n)


def story_to_json_dict(story: Story) -> dict:
    d: dict = {"id": story.id.value, "labels": [rel.value for rel in story.labels]}
    d["boundaries"] = list(story.boundaries) if story.boundaries is not None else None
    return d


def format_story(story: Story) -> str:
    """One-line text rendering: labels with their active spans."""
    if story.boundaries is None or len(story.labels) == 1:
        return f"{story.id.value}: {story.labels[0].value} @(-inf,+inf)"
    parts = []
    for lo, hi, rel in _label_spans(story):
        if lo == hi:
            parts.append(f"{rel.value} @{lo:g}")
        else:
            lo_s = "-inf" if lo == -math.inf else f"{lo:g}"
            hi_s = "+inf" if hi == math.inf else f"{hi:g}"
            left = "(" if lo == -math.inf else "["
            right = ")" if hi == math.inf else "]"
            parts.append(f"{rel.value} @{left}{lo_s},{hi_s}{right}")
    return f"{story.id.value}: " + " ".join(parts)

