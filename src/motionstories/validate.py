"""Perturbation check of the motion neighborhood graph.

Does the derived motion graph match the transitions actually reachable
through small phase-space perturbations?  Every miss distance and center
distance used to build a witness or a random state is read from the radii's
`stories.axis`: its rows, looked up through `stories.ROW_OF`, and their
extents (`Axis.spans`), or the middle of a row's float extent where a row
narrower than a few eps leaves the span's pick outside it.  Every witness
and trial is a batch column of relative motion built by `_Axis.moving` or
`_Axis.comoving`.  A pair of two rigid relations, or of two stories off
every band, has no witness.
The graph's nodes must be exactly the radii's `stories.augmented_set`.
States are classified in batches, as indices into the radii's
`stories.RELATIONS` (`stories.augmented_relation_indices`); a state it
rejects, code -1, holds no relation.  Every path of
one check (all edge witnesses of the graph, or all trials of a pair that end
in v) is classified on one grid and then bisected at every label change,
level by level, one batch per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .neighborhood import Cng
from .stories import (
    DEFAULT_TOLERANCE,
    RELATIONS,
    RIGID_STORIES,
    ROW_OF,
    STORY_LABELS,
    AugmentedRelation,
    Phase,
    RccRelation,
    StoryId,
    Tolerance,
    augmented_chain,
    augmented_relation_indices,
    augmented_set,
    axis as radii_axis,  # `axis` names each check's `_Axis` below
    central,
    distance_inside,
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
    """Lookups on the `stories.axis` of one pair of radii, and its states in
    batches of relative motion: (4, n) arrays, a column per state, rows dpx,
    dpy, dvx, dvy (`UniformMotionState.dp` and `.dv`)."""

    def __init__(self, r_k: float, r_l: float, tol: Tolerance) -> None:
        self.r_k, self.r_l, self.tol, self.eps = r_k, r_l, tol, tol.eps
        ax = radii_axis(r_k, r_l, tol)
        self.rows, self.spans, self.row_of = ax.rows, ax.spans, ROW_OF[ax.config]
        self.extents = tuple(zip((0.0, *ax.breaks), (*ax.breaks, math.inf)))
        self.relations = RELATIONS[ax.config]
        self.index = {a: k for k, a in enumerate(self.relations)}
        self.rigid = RIGID_STORIES[ax.config]

    def is_band(self, sid: StoryId) -> bool:
        return self.rows[self.row_of[sid]].band is not None

    def inside(self, key: StoryId | RccRelation, d: Floats) -> Floats:
        """d where it lies in the float extent (`Axis.breaks`) of the row of
        `key`, else that extent's middle: spans end at thresholds, which a row
        narrower than a few eps does not reach.  Elementwise for an array d."""
        lo, hi = self.extents[self.row_of[key]]
        if np.ndim(d):
            return np.where((lo <= d) & (d < hi), d, distance_inside((lo, hi)))
        return d if lo <= d < hi else distance_inside((lo, hi))

    def miss(self, sid: StoryId, side: int = 0) -> float:
        """A miss distance inside the story's regime; side -1/+1 hugs its lower
        or upper end (3 eps inside), 0 picks a representative value.  A band
        has one miss distance, its threshold."""
        lo, hi = self.spans[self.row_of[sid]]
        if side == 0 or lo == hi:
            return self.inside(sid, distance_inside((lo, hi)))
        return self.inside(sid, lo + 3.0 * self.eps if side < 0 else hi - 3.0 * self.eps)

    def target(self, rel: RccRelation, h: Floats) -> Floats:
        """A center distance at which `rel` holds, reachable on a trajectory
        with miss distance h (never below h, unless h lies in a narrow row of
        `rel`); elementwise for an array h."""
        return self.inside(rel, distance_inside(self.spans[self.row_of[rel]], floor=h))

    def moving(
        self, h: Floats, d: Floats, approach: bool | np.ndarray, speed: Floats = 1.0
    ) -> np.ndarray:
        """The `oracle.canonical_state` with miss distance h now at center
        distance d, approaching (closest approach ahead) or receding, as a
        batch column; elementwise for arrays, as a batch."""
        # inf or nan where d overflows or lies below -h, which `labels` rejects
        with np.errstate(over="ignore", invalid="ignore"):
            tta = np.sqrt(np.maximum(0.0, d - h)) * np.sqrt(d + h) / speed
            dpx = speed * np.where(approach, -tta, tta)
        return np.stack(np.broadcast_arrays(dpx, h, speed, 0.0))

    def comoving(self, d: Floats) -> np.ndarray:
        """The `oracle.rigid_state` at center distance d as a batch column;
        elementwise for an array d, as a batch."""
        return np.stack(np.broadcast_arrays(d, 0.0, 0.0, 0.0))

    def labels(self, batch: np.ndarray) -> np.ndarray:
        """The index into `relations` of each state's `augmented_relation`,
        -1 for a state it rejects."""
        return augmented_relation_indices(*batch, self.r_k, self.r_l, self.tol)


@np.errstate(over="ignore", invalid="ignore")  # a state too far to place gets -1
def _continuous_transitions(
    cu: np.ndarray, cv: np.ndarray, u: np.ndarray | int, v: np.ndarray | int, axis: _Axis
) -> np.ndarray:
    """For each path p, from batch column cu[:, p] to cv[:, p], True if
    interpolating componentwise, cu + s (cv - cu) for s from 0 to 1, moves
    from relation u[p] to v[p] (indices into `axis.relations`) without any
    third classification appearing.

    Each path is first sampled on a grid of `_PATH_SAMPLES` steps; wrong ends
    or a third label there fail it.  Then every label change is bisected on
    both sides of each new midpoint until its bracket is at most
    `_BISECT_FLOOR * max(1, |s0|, |s1|)` wide, so intermediate regimes
    narrower than the grid step are still discovered; a third label fails the
    path.  Every open bracket of every path is bisected together, one batch
    per level.  A state `axis.labels` rejects (code -1) is neither u[p] nor
    v[p], so it fails its path.
    """
    n = cu.shape[1]
    u, v = np.broadcast_to(u, n), np.broadcast_to(v, n)
    steps = np.arange(_PATH_SAMPLES + 1) / _PATH_SAMPLES
    du = cv - cu
    grid = axis.labels((cu[:, :, None] + steps * du[:, :, None]).reshape(4, -1))
    grid = grid.reshape(n, len(steps))
    ok = (grid[:, 0] == u) & (grid[:, -1] == v)
    ok &= ((grid == u[:, None]) | (grid == v[:, None])).all(axis=1)
    # The brackets (path, s0, r0, s1, r1) of every label change on a grid that passed.
    p, k = np.nonzero(ok[:, None] & (grid[:, 1:] != grid[:, :-1]))
    brackets = p, steps[k], grid[p, k], steps[k + 1], grid[p, k + 1]
    while True:
        p, s0, r0, s1, r1 = brackets
        floor = _BISECT_FLOOR * np.maximum(1.0, np.maximum(abs(s0), abs(s1)))
        live = ok[p] & (s1 - s0 > floor)
        if not live.any():
            return ok
        p, s0, r0, s1, r1 = (x[live] for x in brackets)
        sm = (s0 + s1) / 2.0
        rm = axis.labels(cu[:, p] + sm * du[:, p])
        ok[p[(rm != u[p]) & (rm != v[p])]] = False
        left, right = rm != r0, rm != r1
        brackets = tuple(
            np.concatenate((a[left], b[right]))
            for a, b in ((p, p), (s0, sm), (r0, rm), (sm, s1), (rm, r1))
        )


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
        d_other = axis.inside(chain[i_other].rel, theta + (2.5 if outward else -2.5) * eps)
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
    at_u = np.flatnonzero(axis.labels(start) == axis.index[u])
    to_v = at_u[axis.labels(end[:, at_u]) == axis.index[v]]
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
    `trial_counts`.  A state the classifier rejects (code -1, as when its
    numbers overflow) holds no relation: it is no trial of u, fails every
    path through it and so leaves its edge unwitnessed.
    """
    if g.nodes != augmented_set(r_k, r_l, tol):
        raise ValueError("graph nodes are not the augmented relations of the given radii")
    axis = _Axis(r_k, r_l, tol)
    rng = np.random.default_rng(seed)
    report = ValidationReport()

    edges = [tuple(sorted(e, key=str)) for e in g.edges]
    edges.sort(key=lambda e: tuple(map(str, e)))
    columns = {}
    for a, b in edges:
        try:
            columns[a, b] = _edge_witness(a, b, axis)
        except ValueError:
            # No witness is even constructible for this pair; the edge cannot
            # correspond to a continuous single-step transition.
            pass
    witnessed = set()
    if columns:
        cu, cv = (np.stack(c, axis=1) for c in zip(*columns.values()))
        u, v = ([axis.index[x] for x in end] for end in zip(*columns))
        found = _continuous_transitions(cu, cv, u, v, axis)
        witnessed = {pair for pair, ok in zip(columns, found.tolist()) if ok}
    report.unwitnessed_edges = [pair for pair in edges if pair not in witnessed]

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
        paths = start[:, to_v], end[:, to_v], axis.index[u], axis.index[v], axis
        if _continuous_transitions(*paths).any():
            report.spurious_transitions.append((u, v))
    return report
