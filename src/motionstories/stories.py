"""Stories: finite relation sequences of two discs over the whole time line.

The relations are RCC-8's for two discs (`RccRelation`, `INVERSE`).  The
tangencies (EC, TPP/TPPI, EQ) hold on measure-zero distance sets, so they are
assigned within `Tolerance.eps` of their exact thresholds.  Under uniform
motion the relation sequence of two discs is determined by the minimum center
distance relative to the thresholds r_k + r_l, |r_k - r_l| and, for equal
radii, 0.  `REGIMES` lists the resulting stretches of the distance axis, each
with the relation holding there, once per radius configuration.  It is the
only hand-written part of the catalogue: story labels, phased chains and the
cells of the state code (`CELLS`: a state's rows at closest approach and now,
whether it moves rigidly and whether the discs close in) with the augmented
relation each decodes to are built from it once, at import; the relation
sets and the motion graph are read from the cells.  Rest at DC is S11(DC),
no story of its own (`RIGID_STORIES`).  `axis(r_k, r_l, tol)` holds one pair
of radii's rows, their thresholds and, built on first use from one walk over
the band rows, the distances where the walk's row steps up.  It gives every
distance its row, for `classify_discs`, `story_of` and
`augmented_relation_indices` alike, and an array of them (`Axis.rows_at`);
and it is the one rule that places arrays of distances in rows (`Axis.pick`,
kept inside each row's float extent by `Axis.inside`).  Each story is a
qualitative motion relation, and pairing it with the current spatial relation
(plus a phase, MINUS before closest approach and PLUS after, for the repeated
labels) gives the augmented motion relations.
"""

from __future__ import annotations

import functools
import math
import re
import struct
import sys
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Callable

import numpy as np

from .kinematics import MIN_MOVING_SPEED_SQ, UniformMotionState, closest_approach_state


class RccRelation(Enum):
    DC = "DC"          # disconnected
    EC = "EC"          # externally connected (tangent, no overlap)
    PO = "PO"          # partial overlap
    TPP = "TPP"        # k tangential proper part of l
    NTPP = "NTPP"      # k non-tangential proper part of l
    EQ = "EQ"          # identical regions
    TPPI = "TPPI"      # l tangential proper part of k
    NTPPI = "NTPPI"    # l non-tangential proper part of k

    def __str__(self) -> str:
        return self.value


INVERSE: dict[RccRelation, RccRelation] = {
    RccRelation.DC: RccRelation.DC,
    RccRelation.EC: RccRelation.EC,
    RccRelation.PO: RccRelation.PO,
    RccRelation.EQ: RccRelation.EQ,
    RccRelation.TPP: RccRelation.TPPI,
    RccRelation.TPPI: RccRelation.TPP,
    RccRelation.NTPP: RccRelation.NTPPI,
    RccRelation.NTPPI: RccRelation.NTPP,
}


@dataclass(frozen=True)
class Tolerance:
    """Half-width (m) of the band within which tangency relations apply."""

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps!r}")


DEFAULT_TOLERANCE = Tolerance()

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


@dataclass(frozen=True)
class Regime:
    """One stretch of the closest-approach distance axis.

    `rel` is the relation holding at a center distance inside the regime,
    `story` the non-rigid story whose minimum distance falls here and `rigid`
    the singleton story that holds `rel` throughout.  A regime with a `band`
    ("sum" for r_k + r_l, "diff" for |r_k - r_l|, "zero") is the eps band
    around that threshold; otherwise it is the open interval between its
    neighbours' bands.
    """

    story: StoryId
    rigid: StoryId
    rel: RccRelation
    band: str | None = None


# The regimes of each radius configuration (disc k smaller, larger, or equal
# within eps to disc l) by increasing miss distance; bands and open intervals
# alternate.  Within a table every row holds a distinct relation, so a
# relation names its row (`ROW_OF`).  Rows rise with distance and the closest
# approach is never farther than the current distance, so the story found at
# the minimum contains the relation now.
REGIMES: dict[str, tuple[Regime, ...]] = {
    "lt": (
        Regime(StoryId.S15, StoryId.S05, _R.NTPP),
        Regime(StoryId.S14, StoryId.S04, _R.TPP, "diff"),
        Regime(StoryId.S13, StoryId.S03, _R.PO),
        Regime(StoryId.S12, StoryId.S02, _R.EC, "sum"),
        Regime(StoryId.S11, StoryId.S11, _R.DC),
    ),
    "gt": (
        Regime(StoryId.S15I, StoryId.S05I, _R.NTPPI),
        Regime(StoryId.S14I, StoryId.S04I, _R.TPPI, "diff"),
        Regime(StoryId.S13, StoryId.S03, _R.PO),
        Regime(StoryId.S12, StoryId.S02, _R.EC, "sum"),
        Regime(StoryId.S11, StoryId.S11, _R.DC),
    ),
    "eq": (
        Regime(StoryId.S15E, StoryId.S0E, _R.EQ, "zero"),
        Regime(StoryId.S13, StoryId.S03, _R.PO),
        Regime(StoryId.S12, StoryId.S02, _R.EC, "sum"),
        Regime(StoryId.S11, StoryId.S11, _R.DC),
    ),
}


def _labels(story_id: StoryId) -> tuple[RccRelation, ...]:
    """A non-rigid story comes in from the top row, walks down to its own
    row's relation at closest approach and climbs back; a rigid one holds its
    row's relation."""
    for table in REGIMES.values():
        for i, r in enumerate(table):
            if story_id is r.story:
                return tuple(x.rel for x in table[:i:-1] + table[i:])
            if story_id is r.rigid:
                return (r.rel,)
    raise ValueError(f"story {story_id} is in no regime table")


STORY_LABELS: dict[StoryId, tuple[RccRelation, ...]] = {sid: _labels(sid) for sid in StoryId}

# The row of each relation and of each non-rigid story, per table.
ROW_OF: dict[str, dict[RccRelation | StoryId, int]] = {
    config: {key: i for i, r in enumerate(table) for key in (r.rel, r.story)}
    for config, table in REGIMES.items()
}

# A non-rigid story's row in the first table that lists it: its rank by miss
# distance across configurations (S13 ranks as in "lt").
STORY_RANK: dict[StoryId, int] = {
    r.story: i for table in reversed(REGIMES.values()) for i, r in enumerate(table)
}


def radius_config(r_k: float, r_l: float, tol: Tolerance = DEFAULT_TOLERANCE) -> str:
    """The key of the radii's table in `REGIMES`."""
    # Positive radii with a finite sum are finite themselves.
    if not (r_k > 0 and r_l > 0 and math.isfinite(r_k + r_l)):
        raise ValueError(f"radii must be positive with a finite sum, got {r_k!r}, {r_l!r}")
    if abs(r_k - r_l) <= tol.eps:
        return "eq"
    return "lt" if r_k < r_l else "gt"


def _require_distance(d: float) -> None:
    if not (math.isfinite(d) and d >= 0):
        raise ValueError(f"center distance must be finite and >= 0, got {d!r}")


def _row_at(d: float, thetas: tuple[float | None, ...], eps: float) -> int:
    """The row holding center distance d, given each row's band threshold
    (None off the bands).  Walking the bands outermost first, d within eps of
    a threshold gets the band's row, d above it the row just above, and d
    below every band row 0; so where bands overlap, EC wins over TPP/TPPI and
    they win over EQ.

    This walk defines the rows; callers read them from `Axis.breaks`."""
    _require_distance(d)
    i = len(thetas)
    for theta in reversed(thetas):
        i -= 1
        if theta is None:
            continue
        if abs(d - theta) <= eps:
            return i
        if d > theta:
            return i + 1
    return 0


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@dataclass(frozen=True)
class Axis:
    """The closest-approach distance axis of one pair of radii and eps: the
    rows of their `REGIMES` table, each band row's threshold (None off the
    bands), and `breaks`, where entry k - 1 is the smallest non-negative
    float d with `_row_at(d) >= k`, or inf where no finite d reaches row k."""

    config: str
    rows: tuple[Regime, ...]
    thetas: tuple[float | None, ...]
    eps: float
    breaks: tuple[float, ...]

    def row(self, d: float) -> int:
        """`_row_at(d)`, looked up in the breakpoint table."""
        _require_distance(d)
        return bisect_right(self.breaks, d)

    def rows_at(self, d: np.ndarray) -> np.ndarray:
        """`row` of each distance in d; the first NaN, infinite or negative
        entry raises its ValueError."""
        bad = ~(np.isfinite(d) & (d >= 0))
        if bad.any():
            _require_distance(float(d[bad][0]))
        return np.searchsorted(self.breaks, d, "right")

    @property
    def spans(self) -> tuple[tuple[float, float], ...]:
        """Distance extent (lo, hi) of each row.  A band spans its threshold
        alone; the lowest interval starts at 0 and the highest ends at
        infinity."""
        ends = (0.0, *self.thetas, math.inf)  # row i lies between ends[i] and ends[i + 2]
        return tuple(
            (theta, theta) if theta is not None else (ends[i], ends[i + 2])
            for i, theta in enumerate(self.thetas)
        )

    @property
    def thresholds(self) -> tuple[float, ...]:
        """The threshold of each band row, by increasing row."""
        return tuple(x for x in self.thetas if x is not None)

    @functools.cached_property
    def ends(self) -> np.ndarray:
        """A column per row, read-only: the ends of its span (`spans`) and of
        its float extent [lo, hi) (`breaks`), and the extent's `_midway`, or
        lo where a one-float extent's midpoint rounds up to hi."""
        lo, hi = extent = np.array([(0.0, *self.breaks), (*self.breaks, math.inf)])
        middle = _midway(lo, hi)
        ends = np.vstack((np.array(self.spans).T, extent, np.where(middle < hi, middle, lo)))
        ends.flags.writeable = False
        return ends

    def inside(self, rows: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Each d where it lies in its row's float extent, else that extent's
        middle: spans end at thresholds, which a row narrower than a few eps
        does not reach.  Elementwise, as is `pick`."""
        lo, hi, middle = self.ends[2:, rows]
        return np.where((lo <= d) & (d < hi), d, middle)

    def pick(self, rows: np.ndarray, floor: np.ndarray | float = 0.0) -> np.ndarray:
        """A center distance in each row, not below `floor` (a miss distance,
        so reachable on its trajectory) where the row allows: its span's
        `_midway`, moved `inside` the row."""
        return self.inside(rows, _midway(*self.ends[:2, rows], floor))


def _midway(lo: np.ndarray, hi: np.ndarray, floor: np.ndarray | float = 0.0) -> np.ndarray:
    """A distance in each span [lo, hi], not below `floor` where the span
    allows: a band's threshold, else the midpoint of [max(lo, floor), hi], or
    half a meter past that start for the unbounded top interval."""
    start = np.maximum(lo, floor)
    with np.errstate(over="ignore"):  # a band's unused midpoint may overflow
        return np.where(lo == hi, lo, np.where(hi == math.inf, start + 0.5, (start + hi) / 2.0))


@functools.lru_cache(maxsize=256)
def axis(r_k: float, r_l: float, tol: Tolerance = DEFAULT_TOLERANCE) -> Axis:
    """The radii's distance axis, built on first use.  Every comparison of
    `_row_at` is monotone in d (rounding is), so its row is too, and each
    break is found by bisecting the bit patterns of the non-negative floats,
    which are ordered as their values."""
    config = radius_config(r_k, r_l, tol)
    r_k, r_l = float(r_k), float(r_l)
    at = {"sum": r_k + r_l, "diff": abs(r_k - r_l), "zero": 0.0, None: None}
    thetas = tuple(at[r.band] for r in REGIMES[config])
    breaks = []
    for k in range(1, len(thetas)):
        lo, hi = 0, 0x7FF0_0000_0000_0000  # the bits of 0.0 and of inf
        while lo < hi:
            mid = (lo + hi) // 2
            if _row_at(_float_of_bits(mid), thetas, tol.eps) >= k:
                hi = mid
            else:
                lo = mid + 1
        breaks.append(_float_of_bits(lo))
    return Axis(config, REGIMES[config], thetas, tol.eps, tuple(breaks))


def classify_discs(
    d: float, r_k: float, r_l: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> RccRelation:
    """The discs' relation at center distance d: the relation of its row."""
    ax = axis(r_k, r_l, tol)
    return ax.rows[ax.row(d)].rel


def bands_overlap(r_k: float, r_l: float, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True when the tolerance bands of two adjacent thresholds collide
    (pathological radii).

    Classification stays deterministic in that case (EC wins over TPP/TPPI,
    which win over EQ), but results near the thresholds are not meaningful.
    """
    thetas = axis(r_k, r_l, tol).thresholds
    return any(hi - lo <= 2.0 * tol.eps for lo, hi in zip(thetas, thetas[1:]))


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
    rigid: bool
    boundaries: tuple[float, ...] | None

    @property
    def labels(self) -> tuple[RccRelation, ...]:
        return STORY_LABELS[self.id]

    def __post_init__(self) -> None:
        if self.rigid and len(self.labels) != 1:
            raise ValueError("rigid stories are singletons")
        if self.boundaries is not None and len(self.boundaries) != max(0, len(self.labels) - 1):
            raise ValueError("need one boundary per adjacent label pair")


@dataclass(frozen=True)
class AugmentedRelation:
    """A story paired with one of its spatial relations and its phase index.

    The phase distinguishes repeated occurrences of a label inside a story:
    MINUS before closest approach, PLUS after.  Only the middle label, the
    relation at closest approach, occurs once; its phase is NONE.  A stream
    of states holds its index into `RELATIONS` (`augmented_relation_indices`).
    """

    story: StoryId
    rel: RccRelation
    phase: Phase

    def __post_init__(self) -> None:
        labels = STORY_LABELS[self.story]
        if self.rel not in labels:
            raise ValueError(f"{self.rel} does not occur in story {self.story}")
        once = self.rel is labels[len(labels) // 2]
        if once and self.phase is not Phase.NONE:
            raise ValueError(f"{self.story}({self.rel}) occurs once; phase must be NONE")
        if not once and self.phase is Phase.NONE:
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


def _chain(story_id: StoryId) -> tuple[AugmentedRelation, ...]:
    labels = STORY_LABELS[story_id]
    half = len(labels) // 2
    phases = [Phase.MINUS] * half + [Phase.NONE] + [Phase.PLUS] * half
    return tuple(AugmentedRelation(story_id, rel, p) for rel, p in zip(labels, phases))


# Each story's labels paired with phases, in chronological order.
_CHAINS: dict[StoryId, tuple[AugmentedRelation, ...]] = {sid: _chain(sid) for sid in StoryId}


def _cells(table: tuple[Regime, ...]) -> dict[tuple[int, int, bool, bool], AugmentedRelation]:
    """The augmented relation of each cell (i, j, rigid, closing) of the state
    code that some state has: i is the row of the state's closest approach, j
    the row of its current distance, rigid whether it moves rigidly and
    closing whether the discs close in.  A repeated label comes MINUS first
    in its story's chain, so closing in picks the first occurrence and moving
    apart the last."""
    cells = {}
    rows = list(enumerate(table))
    for (i, low), (j, now), rigid, closing in product(rows, rows, *[(False, True)] * 2):
        hits = [a for a in _CHAINS[low.rigid if rigid else low.story] if a.rel is now.rel]
        if hits:
            cells[i, j, rigid, closing] = hits[0] if closing else hits[-1]
    return cells


CELLS = {config: _cells(table) for config, table in REGIMES.items()}

# The phase-indexed expansion of each configuration's stories (all that its
# cells decode to), in the order `augmented_relation_indices` counts them.
RELATIONS: dict[str, tuple[AugmentedRelation, ...]] = {
    config: tuple(sorted(set(cells.values()), key=str)) for config, cells in CELLS.items()
}
_RELATION_SETS = {config: frozenset(relations) for config, relations in RELATIONS.items()}

# Rest in each row but DC's is a rigid story of its own; rest at DC is S11(DC).
RIGID_STORIES: dict[str, frozenset[StoryId]] = {
    config: frozenset(r.rigid for r in table if r.rigid is not r.story)
    for config, table in REGIMES.items()
}


def _index(config: str) -> np.ndarray:
    """The index into `RELATIONS[config]` of each cell's relation, at [i, j,
    rigid, closing]; -1 for cells no state has."""
    index = np.full((len(REGIMES[config]),) * 2 + (2, 2), -1)
    for (i, j, rigid, closing), a in CELLS[config].items():
        index[i, j, int(rigid), int(closing)] = RELATIONS[config].index(a)
    return index


_INDEX = {config: _index(config) for config in REGIMES}


@dataclass(frozen=True)
class UnitVec:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not abs(math.hypot(self.x, self.y) - 1.0) <= 1e-12:
            raise ValueError("components must have unit norm")


def augmented_chain(story_id: StoryId) -> tuple[AugmentedRelation, ...]:
    """The story's labels paired with phases, in chronological order."""
    return _CHAINS[story_id]


def central(story_id: StoryId) -> AugmentedRelation:
    """The relation holding at closest approach (mid-chain)."""
    chain = _CHAINS[story_id]
    return chain[len(chain) // 2]


def _root_of_product(a: float, b: float) -> float:
    ab = a * b
    return math.sqrt(ab) if math.isfinite(ab) else math.sqrt(a) * math.sqrt(b)


def story_of(state: UniformMotionState, tol: Tolerance = DEFAULT_TOLERANCE) -> Story:
    """The story this motion state belongs to, with absolute transition
    instants; an instant whose half-width overflows floats is -inf or inf."""
    ax = axis(state.disc_k.radius, state.disc_l.radius, tol)
    table = ax.rows
    t_min, h = closest_approach_state(state)
    i = ax.row(h)
    # Rigid motion, including a relative speed too small to square in floats;
    # h is then the constant center distance.
    if t_min is None:
        return Story(table[i].rigid, rigid=True, boundaries=())

    speed = state.dv.norm()
    above = [theta for theta in ax.thetas[i + 1 :] if theta is not None]
    # Each threshold above the regime is crossed symmetrically about t_min,
    # the outermost first; (theta - h)(theta + h) keeps the half-width exact
    # when theta and h nearly agree, and is split where the product overflows.
    widths = [_root_of_product(theta - h, theta + h) / speed for theta in reversed(above)]
    instants = [t_min - w for w in widths]
    if table[i].band is not None:
        instants.append(t_min)
    instants += [t_min + w for w in reversed(widths)]
    # Every transition enters or leaves an instantaneous tangency label, so
    # each instant bounds two labels.
    return Story(
        id=table[i].story,
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


# np.hypot and math.hypot may round a distance to neighbouring floats; a
# relative change far above that 1-ulp error moves no distance across a break
# its margin does not straddle.  Below the smallest normal float an ulp is no
# longer relative.
HYPOT_MARGIN = 2.0**-40


def hypot_at_breaks(
    x: np.ndarray, y: np.ndarray, breaks: tuple[float, ...],
    also: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """`np.hypot` of x and y, taken again with `math.hypot` (as `Vec2.norm`)
    where d (1 +/- `HYPOT_MARGIN`) lies on both sides of a break, where d is
    subnormal or the margin overflows, and where `also(d)` holds; so each d
    has the row of `math.hypot`'s, bit for bit where it was taken again.  (A
    NaN d is NaN from both.)  Overflow warnings are the caller's to silence."""
    d = np.hypot(x, y)
    below, above = d * (1.0 - HYPOT_MARGIN), d * (1.0 + HYPOT_MARGIN)
    redo = np.searchsorted(breaks, below, "right") != np.searchsorted(breaks, above, "right")
    redo |= (d < sys.float_info.min) | (above == math.inf)
    if also is not None:
        redo |= also(d)
    at = np.flatnonzero(redo)
    d[at] = list(map(math.hypot, x[at].tolist(), y[at].tolist()))
    return d


def augmented_relation_indices(
    dpx: np.ndarray, dpy: np.ndarray, dvx: np.ndarray, dvy: np.ndarray,
    r_k: float, r_l: float, tol: Tolerance,
) -> np.ndarray:
    """The index into the radii's `RELATIONS` of each state's augmented
    relation, given its relative position and velocity; -1 marks each state
    `augmented_relation` rejects, and no other.
    `closest_approach_state`'s float operations run on arrays; the current
    distance is `hypot_at_breaks`', so in the row of `Vec2.norm`'s, and so is
    the miss distance it caps.  The rows of both distances, from the
    breakpoint table, are decoded as `augmented_relation` decodes them."""
    ax = axis(r_k, r_l, tol)
    with np.errstate(all="ignore"):
        a = dvx * dvx + dvy * dvy
        dot = dpx * dvx + dpy * dvy
        d_min = np.abs(dpx * dvy - dpy * dvx) / np.sqrt(a)
        d = hypot_at_breaks(dpx, dpy, ax.breaks)
        rigid = a < MIN_MOVING_SPEED_SQ
        # hypot is finite exactly when both its arguments are.
        usable = np.isfinite([d, dvx, dvy]).all(axis=0) & (
            rigid | np.isfinite([a, dot / a, d_min]).all(axis=0)
        )
    h = np.where(rigid, d, np.minimum(d_min, d))
    # An unusable state's rows are read from NaN or inf, which sort last.
    i, j = np.searchsorted(ax.breaks, [h, d], "right")
    return np.where(usable, _INDEX[ax.config][i, j, rigid.astype(int), (dot < 0).astype(int)], -1)


def augmented_relation(
    state: UniformMotionState, tol: Tolerance = DEFAULT_TOLERANCE
) -> AugmentedRelation:
    """Story plus the spatial relation currently holding, with its phase."""
    story = story_of(state, tol)
    ax = axis(state.disc_k.radius, state.disc_l.radius, tol)
    # The story's middle label is the relation of its closest approach's row.
    low = ROW_OF[ax.config][central(story.id).rel]
    now = ax.row(state.dp.norm())
    # Closest approach is still ahead (t_min = -dp.dv / |dv|^2 > 0) exactly
    # while the discs close in.
    closing = state.dp.dot(state.dv) < 0
    return RELATIONS[ax.config][_INDEX[ax.config][low, now, int(story.rigid), int(closing)]]


def stories_set(
    r_k: float, r_l: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[Story, ...]:
    """All realizable stories for the given radii, by id; S11 is listed once,
    as non-rigid."""
    config = radius_config(r_k, r_l, tol)
    nonrigid = {Story(r.story, rigid=False, boundaries=None) for r in REGIMES[config]}
    rigid = {Story(sid, rigid=True, boundaries=None) for sid in RIGID_STORIES[config]}
    return tuple(sorted(nonrigid | rigid, key=lambda s: s.id.value))


def augmented_set(
    r_k: float, r_l: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> frozenset[AugmentedRelation]:
    """Phase-indexed expansion of every story realizable for the radii."""
    return _RELATION_SETS[radius_config(r_k, r_l, tol)]


def relation_config(relations: frozenset[AugmentedRelation]) -> str:
    """The key of the table whose stories expand to exactly these relations."""
    for config, expansion in _RELATION_SETS.items():
        if relations == expansion:
            return config
    raise ValueError("incomplete augmented relation set: not a full configuration")


def asymptotic_direction(state: UniformMotionState, sign: float) -> UnitVec:
    """Limit of the k-to-l connecting unit vector as t -> +/- infinity.

    Undefined exactly when `story_of` gives a rigid story: |dv|^2 is below
    the smallest normal float, the rigid test of `closest_approach_state`.
    """
    dv = state.dv
    if dv.norm_sq() < MIN_MOVING_SPEED_SQ:
        raise DegenerateMotionError("direction undefined: discs move rigidly")
    if not (sign > 0 or sign < 0):
        raise ValueError("sign must be positive (toward +inf) or negative (toward -inf)")
    s = 1.0 if sign > 0 else -1.0
    n = dv.norm()
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

