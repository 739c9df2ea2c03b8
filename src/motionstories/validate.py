"""Perturbation check of the motion neighborhood graph.

Does the derived motion graph match the transitions actually reachable
through small phase-space perturbations?  Every miss distance and center
distance used to build a witness or a random state is read from the radii's
regime table: rows from `stories.REGIMES` and `stories.ROW_OF`, extents from
`stories.regime_spans`.  Every witness and trial is a batch column of relative
motion built by `_Axis.moving` or `_Axis.comoving`.  A pair of two rigid
relations, or of two stories off every band, has no witness.
The graph's nodes must be exactly the radii's `stories.augmented_set`.
Trials and path grids are classified in batches (`stories.augmented_relations`),
and label changes along a path are bisected with `oracle.resolve_changes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kinematics import Disc, UniformMotionState, Vec2
from .neighborhood import Cng
from .oracle import resolve_changes
from .rcc import DEFAULT_TOLERANCE, RccRelation, Tolerance
from .stories import (
    REGIMES,
    ROW_OF,
    STORY_LABELS,
    AugmentedRelation,
    Phase,
    StoryId,
    augmented_chain,
    augmented_relation,
    augmented_relations,
    augmented_set,
    central,
    distance_inside,
    radius_config,
    regime_spans,
)

_PATH_SAMPLES = 25
_BISECT_FLOOR = 1e-7
Pair = tuple[AugmentedRelation, AugmentedRelation]
Floats = float | np.ndarray  # a number, or one per state of a batch


class TrialCounts(NamedTuple):
    """The random trials of one sampled non-edge (u, v): drawn, classified u,
    and of those, perturbed into a state classified v."""

    attempted: int
    at_u: int
    to_v: int


@dataclass
class ValidationReport:
    unwitnessed_edges: list[Pair] = field(default_factory=list)
    spurious_transitions: list[Pair] = field(default_factory=list)
    trial_counts: dict[Pair, TrialCounts] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.unwitnessed_edges and not self.spurious_transitions


class _Axis:
    """The regime table of one pair of radii, with each regime's distance span,
    and its states in batches of relative motion: (4, n) arrays, a column per
    state, rows dpx, dpy, dvx, dvy (`UniformMotionState.dp` and `.dv`)."""

    def __init__(self, r_k: float, r_l: float, tol: Tolerance) -> None:
        self.r_k, self.r_l, self.tol, self.eps = r_k, r_l, tol, tol.eps
        config = radius_config(r_k, r_l, tol)
        self.rows, self.row_of = REGIMES[config], ROW_OF[config]
        self.spans = regime_spans(r_k, r_l, tol)
        self.rigid = {r.rigid for r in self.rows if r.rigid is not r.story}

    def is_band(self, sid: StoryId) -> bool:
        return self.rows[self.row_of[sid]].band is not None

    def miss(self, sid: StoryId, side: int = 0) -> float:
        """A miss distance inside the story's regime; side -1/+1 hugs its lower
        or upper end (3 eps inside), 0 picks a representative value.  A band
        has one miss distance, its threshold."""
        lo, hi = self.spans[self.row_of[sid]]
        if side == 0 or lo == hi:
            return distance_inside((lo, hi))
        return lo + 3.0 * self.eps if side < 0 else hi - 3.0 * self.eps

    def target(self, rel: RccRelation, h: Floats) -> Floats:
        """A center distance at which `rel` holds, reachable on a trajectory
        with miss distance h (never below h); elementwise for an array h."""
        return distance_inside(self.spans[self.row_of[rel]], floor=h)

    def moving(
        self, h: Floats, d: Floats, approach: bool | np.ndarray, speed: Floats = 1.0
    ) -> np.ndarray:
        """The `oracle.canonical_state` with miss distance h now at center
        distance d, approaching (closest approach ahead) or receding, as a
        batch column; elementwise for arrays, as a batch."""
        tta = np.sqrt(np.maximum(0.0, d * d - h * h)) / speed
        dpx = speed * np.where(approach, -tta, tta)
        return np.stack(np.broadcast_arrays(dpx, h, speed, 0.0))

    def comoving(self, d: Floats) -> np.ndarray:
        """The `oracle.rigid_state` at center distance d as a batch column;
        elementwise for an array d, as a batch."""
        return np.stack(np.broadcast_arrays(d, 0.0, 0.0, 0.0))

    def state(self, column: np.ndarray) -> UniformMotionState:
        """The state of a batch column: disc k at rest at the origin."""
        dpx, dpy, dvx, dvy = column.tolist()
        k, l = Disc(Vec2(0.0, 0.0), self.r_k), Disc(Vec2(dpx, dpy), self.r_l)
        return UniformMotionState(k, Vec2(0.0, 0.0), l, Vec2(dvx, dvy))

    def classify(self, batch: np.ndarray) -> list[AugmentedRelation]:
        """The `augmented_relation` of each state of the batch; a state it
        rejects raises its ValueError."""
        relations, usable = augmented_relations(*batch, self.r_k, self.r_l, self.tol)
        for j in np.flatnonzero(~usable):
            relations[j] = augmented_relation(self.state(batch[:, j]), self.tol)
        return relations


def _path(cu: np.ndarray, cv: np.ndarray, s: Floats) -> np.ndarray:
    """The batch of states at parameters s on the straight path between two
    batch columns, componentwise u + s (v - u)."""
    return cu[:, None] + s * (cv - cu)[:, None]


def _continuous_transition(
    cu: np.ndarray, cv: np.ndarray, u: AugmentedRelation, v: AugmentedRelation, axis: _Axis
) -> bool:
    """True if interpolating between the states (batch columns) moves u -> v
    without any third classification appearing.

    The interpolation parameter is first sampled on a grid of `_PATH_SAMPLES`
    steps, classified as one batch; `oracle.resolve_changes` then bisects
    every label change, so intermediate regimes narrower than the grid step
    are still discovered down to a width of `_BISECT_FLOOR`.
    """
    steps = np.arange(_PATH_SAMPLES + 1) / _PATH_SAMPLES
    labels = axis.classify(_path(cu, cv, steps))
    # Wrong ends or a third label on the grid decide before any bisection.
    if labels[0] != u or labels[-1] != v or any(c not in (u, v) for c in labels):
        return False

    def cls(s: float) -> AugmentedRelation:
        return augmented_relation(axis.state(_path(cu, cv, s)[:, 0]), axis.tol)

    grid = list(zip(steps.tolist(), labels))
    return all(c in (u, v) for _, c in resolve_changes(cls, grid, _BISECT_FLOOR))


def _edge_witness(
    a: AugmentedRelation, b: AugmentedRelation, axis: _Axis
) -> tuple[np.ndarray, np.ndarray]:
    """Two nearby batch columns classified as the edge's endpoints, in (a, b) order.

    Raises ValueError when the pair's shape admits no witness."""
    eps = axis.eps
    if a.story in axis.rigid and b.story in axis.rigid:
        raise ValueError(f"{a} and {b} are both rigid; no kick joins them")

    if a.story in axis.rigid or b.story in axis.rigid:
        # Attachment edge: the moving state at the rigid relation's distance,
        # with an eps-scale velocity that sets the miss regime and phase; the
        # rigid state is the same position at rest.
        rigid, moving = (a, b) if a.story in axis.rigid else (b, a)
        d0 = axis.target(rigid.rel, 0.0)
        h = min(axis.miss(moving.story), d0)
        kicked = axis.moving(h, d0, moving.phase is not Phase.PLUS, 3.0 * eps)
        base = kicked * (1.0, 1.0, 0.0, 0.0)
        return (base, kicked) if rigid == a else (kicked, base)

    if a.story is b.story:
        # Chronological neighbors: exactly one endpoint (the odd chain index)
        # is instantaneous, holding on a tangency band; place the other just
        # outside that band on its own side.
        chain = augmented_chain(a.story)
        i, j = chain.index(a), chain.index(b)
        center = len(chain) // 2
        inst, i_inst, i_other = (a, i, j) if i % 2 == 1 else (b, j, i)
        theta = axis.target(inst.rel, 0.0)
        h = axis.miss(a.story)
        outward = abs(i_other - center) > abs(i_inst - center)
        d_other = theta + (2.5 * eps if outward else -2.5 * eps)
        approach = min(i, j) < center
        c_inst = axis.moving(h, theta, approach)
        c_other = axis.moving(h, d_other, approach)
        return (c_inst, c_other) if inst == a else (c_other, c_inst)

    # Cross-story edge: one story is a tangency band, the other an adjacent
    # interior regime; move the miss distance across the regime boundary.
    band, interior = (a, b) if axis.is_band(a.story) else (b, a)
    if not axis.is_band(band.story):
        raise ValueError(f"neither {a} nor {b} lies on a tangency band")
    theta_band = axis.miss(band.story)
    side = 1 if axis.row_of[interior.story] < axis.row_of[band.story] else -1
    h_int = axis.miss(interior.story, side)
    band_central = band == central(band.story)
    int_central = interior == central(interior.story)
    if band_central and int_central:
        # Both sit at closest approach; only the miss distance differs.
        d_band, d_int = theta_band, h_int
    elif band_central or int_central:
        d_band = d_int = theta_band if band_central else h_int
    else:
        d_band = d_int = axis.target(a.rel, max(h_int, theta_band))
    c_band = axis.moving(theta_band, d_band, band.phase is not Phase.PLUS)
    c_int = axis.moving(h_int, d_int, interior.phase is not Phase.PLUS)
    return (c_band, c_int) if band == a else (c_int, c_band)


def _trial_states(
    aug: AugmentedRelation, axis: _Axis, rng: np.random.Generator, n: int
) -> np.ndarray:
    """A batch of n random states meant to classify `aug`, biased toward
    regime boundaries.  Each trial draws every coin and the numbers of both
    branches a coin picks between, so all trials draw alike."""
    eps = axis.eps

    def coin(p: float = 0.5) -> np.ndarray:
        return rng.uniform(size=n) < p

    def draw(lo: float, hi: float) -> np.ndarray:
        return rng.uniform(lo, hi, n)

    if aug.story in axis.rigid:
        jitter = np.where(coin(), 0.0, draw(-0.9, 0.9) * eps)
        return axis.comoving(np.maximum(0.0, axis.target(aug.rel, 0.0) + jitter))

    i = axis.row_of[aug.story]
    lo, hi = axis.spans[i]
    if axis.is_band(aug.story):
        h = np.maximum(0.0, lo + draw(-0.9, 0.9) * eps)
    else:
        # Keep 2 eps clear of the bands below and above; the unbounded top
        # interval is sampled 2 m deep.
        hi = hi - 2.0 * eps if hi < math.inf else lo + 2.0
        lo = lo + 2.0 * eps if i > 0 else lo
        spread, inside = coin(), lo + draw(0.0, 1.0) * (hi - lo)
        edge = np.where(coin(), lo, hi)  # or hug a regime boundary
        h = np.where(spread, inside, np.minimum(hi, np.maximum(lo, edge + draw(-4.0, 4.0) * eps)))
    # Pin the epoch to closest approach for genuinely central relations; the
    # single-label story S11 holds DC everywhere, so only pin it half the time
    # to also cover epochs away from the minimum.
    pin = (aug == central(aug.story)) & ((len(STORY_LABELS[aug.story]) > 1) | coin())
    d_t = axis.target(aug.rel, h)
    d_t = np.where(pin, h, np.where(coin(0.3), np.maximum(h, d_t + draw(-0.9, 0.9) * eps), d_t))
    speed = draw(0.5, 2.0)
    recede = (aug.phase is Phase.PLUS) | ((aug.phase is Phase.NONE) & coin())
    return axis.moving(h, d_t, ~recede, speed)


def _pair_trials(
    u: AugmentedRelation, v: AugmentedRelation, axis: _Axis, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, TrialCounts, np.ndarray]:
    """n random trials of the pair: start states meant to classify u, their
    ends after a kick of 9 eps-scale normals (on positions and velocities,
    then a time step), the counts, and the trials from u to v in order."""
    start = _trial_states(u, axis, rng, n)
    kick = rng.normal(0.0, 3.0 * axis.eps, (n, 9)).T
    end = start + (kick[4:8] - kick[:4])  # disc l's kick minus disc k's
    end[:2] += end[2:] * kick[8]
    at_u = np.flatnonzero([a == u for a in axis.classify(start)])
    to_v = at_u[np.array([a == v for a in axis.classify(end[:, at_u])], dtype=bool)]
    return start, end, TrialCounts(n, len(at_u), len(to_v)), to_v


def validate_motion_cng(
    g: Cng,
    r_k: float,
    r_l: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
    n_pairs: int = 200,
    n_trials: int = 10_000,
    seed: int = 0,
) -> ValidationReport:
    """Check the motion graph against continuously reachable transitions.

    Every edge must have a witness: a state classified as one endpoint plus an
    eps-scale perturbation classified as the other, with every intermediate
    classification along the straight interpolation confined to the two
    endpoints.  Sampled non-edge pairs must admit no such single-step
    transition across `n_trials` random perturbations each.  `seed` picks
    the pairs; the pair at index i of the sorted non-edges draws its trials
    as one batch from `np.random.default_rng([seed, i])`, so a spurious
    transition replays from (seed, i) alone, and its counts go to
    `trial_counts`.
    """
    if g.nodes != augmented_set(r_k, r_l, tol):
        raise ValueError("graph nodes are not the augmented relations of the given radii")
    axis = _Axis(r_k, r_l, tol)
    rng = np.random.default_rng(seed)
    report = ValidationReport()

    for edge in sorted(g.edges, key=lambda e: tuple(sorted(map(str, e)))):
        a, b = sorted(edge, key=str)
        try:
            cu, cv = _edge_witness(a, b, axis)
            witnessed = _continuous_transition(cu, cv, a, b, axis)
        except ValueError:
            # No witness is even constructible for this pair; the edge cannot
            # correspond to a continuous single-step transition.
            witnessed = False
        if not witnessed:
            report.unwitnessed_edges.append((a, b))

    nodes = sorted(g.nodes, key=str)
    non_edges = [
        (u, v)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1 :]
        if not g.has_edge(u, v)
    ]
    idx = rng.choice(len(non_edges), size=min(n_pairs, len(non_edges)), replace=False)
    for i in sorted(int(j) for j in idx):
        u, v = non_edges[i]
        # The pair's own generator: its trials replay from (seed, i) alone.
        rng_i = np.random.default_rng([seed, i])
        start, end, counts, to_v = _pair_trials(u, v, axis, rng_i, n_trials)
        report.trial_counts[u, v] = counts
        if any(_continuous_transition(start[:, k], end[:, k], u, v, axis) for k in to_v):
            report.spurious_transitions.append((u, v))
    return report
