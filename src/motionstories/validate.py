"""Perturbation check of the motion neighborhood graph.

Does the derived motion graph match the transitions actually reachable
through small phase-space perturbations?  Every miss distance and center
distance used to build a witness or a random state is read from the radii's
`stories.axis`: its rows, looked up through `stories.ROW_OF`, and their
extents (`Axis.spans`), or the middle of a row's float extent where a row
narrower than a few eps leaves the span's pick outside it.  Every witness
and trial is a batch column of relative motion built by `_Axis.moving` or
`_Axis.comoving`.  An edge is witnessed from a pair of touching cells that
decode to its ends (`neighborhood.touching_cells`, the rule the graph is
drawn by), one state in each cell (`_cell_witness`); a pair of relations no
touching cells decode to has no witness.
The graph's nodes must be exactly the radii's `stories.augmented_set`.
States are classified in batches, as indices into the radii's
`stories.RELATIONS` (`stories.augmented_relation_indices`); a state it
rejects, code -1, holds no relation.  Each sampled non-edge draws its trials
from its own generator, but the trials of as many whole pairs as fit in
`_BATCH_COLUMNS` columns are classified and path-checked together.  Every
path of one check (all edge witnesses of the graph, or all trials of a batch
of pairs that end in their v) is classified on one grid and then bisected at
every label change, level by level, one batch per level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .neighborhood import Cell, Cng, touching_cells
from .stories import (
    CELLS,
    DEFAULT_TOLERANCE,
    RELATIONS,
    RIGID_STORIES,
    ROW_OF,
    STORY_LABELS,
    AugmentedRelation,
    Phase,
    Tolerance,
    augmented_relation_indices,
    augmented_set,
    axis as radii_axis,  # `axis` names each check's `_Axis` below
    central,
    distance_inside,
)

_PATH_SAMPLES = 25
# Trial columns the validator classifies at once: as many whole sampled pairs
# as fit, or a single pair when its trials alone reach this.
_BATCH_COLUMNS = 2**11
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


@functools.cache
def _touching(config: str) -> dict[Pair, tuple[Cell, Cell]]:
    """The first touching cell pair (`neighborhood.touching_cells`) that
    decodes to each edge of the configuration's motion graph, both ways
    round."""
    cells, pairs = CELLS[config], {}
    for x, y in touching_cells(config):
        pairs.setdefault((cells[x], cells[y]), (x, y))
        pairs.setdefault((cells[y], cells[x]), (y, x))
    return pairs


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
        self.touching = _touching(ax.config)

    def inside(self, row: int, d: Floats) -> Floats:
        """d where it lies in the row's float extent (`Axis.breaks`), else that
        extent's middle: spans end at thresholds, which a row narrower than a
        few eps does not reach.  Elementwise for an array d."""
        lo, hi = self.extents[row]
        if np.ndim(d):
            return np.where((lo <= d) & (d < hi), d, distance_inside((lo, hi)))
        return d if lo <= d < hi else distance_inside((lo, hi))

    def pick(self, row: int, floor: Floats = 0.0) -> Floats:
        """A center distance in the row, not below `floor` (a miss distance,
        so reachable on its trajectory) unless `floor` lies in a narrow row of
        its own; elementwise for an array floor."""
        return self.inside(row, distance_inside(self.spans[row], floor))

    def place(self, a: int, b: int, offset: float, floor: float = 0.0) -> tuple[float, float]:
        """A distance in row a and one in row b: one point in a row they share,
        not below `floor`; else one on each side of the break between the two
        adjacent rows, the band's threshold and `offset` eps inside the
        interior row."""
        if a == b:
            return (self.pick(a, floor),) * 2
        lower = min(a, b)
        band = lower if self.rows[lower].band is not None else lower + 1
        theta, step = self.spans[band][0], offset * self.eps
        return tuple(self.inside(k, theta + (k - band) * step) for k in (a, b))

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


def _cell_witness(x: Cell, y: Cell, axis: _Axis) -> tuple[np.ndarray, np.ndarray]:
    """A batch column in each of two touching cells, in (x, y) order.

    Each column's miss distance h comes from its row i and its current
    distance d from its row j, both placed by `_Axis.place` (3 eps for h,
    2.5 eps for d, d not below h where a row is shared); two cells at
    closest approach keep h = d.  A rest cell is its kicked partner's
    position, on the partner's closing side, with dv = 0; the kick is
    eps-scale."""
    if x[2] or y[2]:
        i, j, _, closing = y if x[2] else x
        h = axis.pick(i)
        kicked = axis.moving(h, h if i == j else axis.pick(j, h), closing, 3.0 * axis.eps)
        rest = kicked * (1.0, 1.0, 0.0, 0.0)
        return (rest, kicked) if x[2] else (kicked, rest)
    hx, hy = axis.place(x[0], y[0], 3.0)
    if x[0] == x[1] and y[0] == y[1]:
        dx, dy = hx, hy
    else:
        dx, dy = axis.place(x[1], y[1], 2.5, max(hx, hy))
    return axis.moving(hx, dx, x[3]), axis.moving(hy, dy, y[3])


def _edge_witness(
    a: AugmentedRelation, b: AugmentedRelation, axis: _Axis
) -> tuple[np.ndarray, np.ndarray]:
    """Two nearby batch columns classified as the edge's endpoints, in (a, b)
    order: the `_cell_witness` of the first touching cell pair that decodes
    to them.

    Raises ValueError when no touching cells decode to a and b."""
    if (a, b) not in axis.touching:
        raise ValueError(f"no touching cells decode to {a} and {b}")
    return _cell_witness(*axis.touching[a, b], axis)


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

    j = axis.row_of[aug.rel]
    if aug.story in axis.rigid:
        jitter = np.where(coin(), 0.0, draw(-0.9, 0.9) * eps)
        return axis.comoving(np.maximum(0.0, axis.pick(j) + jitter))

    i = axis.row_of[aug.story]
    lo, hi = axis.spans[i]
    if axis.rows[i].band is not None:
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
    d_t = axis.pick(j, h)
    d_t = np.where(pin, h, np.where(coin(0.3), np.maximum(h, d_t + draw(-0.9, 0.9) * eps), d_t))
    speed = draw(0.5, 2.0)
    recede = (aug.phase is Phase.PLUS) | ((aug.phase is Phase.NONE) & coin())
    return axis.moving(h, d_t, ~recede, speed)


def _draw_trials(
    u: AugmentedRelation, axis: _Axis, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n random trials of relation u: start states meant to classify u and
    their ends after a kick of 9 eps-scale normals (on positions and
    velocities, then a time step)."""
    start = _trial_states(u, axis, rng, n)
    kick = rng.normal(0.0, 3.0 * axis.eps, (n, 9)).T
    end = start + (kick[4:8] - kick[:4])  # disc l's kick minus disc k's
    end[:2] += end[2:] * kick[8]
    return start, end


def _pair_trials(
    pairs: list[Pair], axis: _Axis, rngs: list[np.random.Generator], n: int
) -> tuple[list[TrialCounts], list[int]]:
    """n random trials of each pair (u, v), drawn from the pair's own
    generator (`_draw_trials`), then classified and path-checked together:
    each pair's counts, and how many of its trials cross from u to v on a
    continuous path."""
    drawn = (_draw_trials(u, axis, rng, n) for (u, _), rng in zip(pairs, rngs))
    start, end = (np.concatenate(c, axis=1) for c in zip(*drawn))
    pair = np.repeat(np.arange(len(pairs)), n)  # each trial's index into pairs
    u, v = (np.array([axis.index[x] for x in side])[pair] for side in zip(*pairs))
    at_u = np.flatnonzero(axis.labels(start) == u)
    to_v = at_u[axis.labels(end[:, at_u]) == v[at_u]]
    crossed = to_v[_continuous_transitions(start[:, to_v], end[:, to_v], u[to_v], v[to_v], axis)]
    at_u, to_v, crossed = (
        np.bincount(pair[k], minlength=len(pairs)).tolist() for k in (at_u, to_v, crossed)
    )
    return [TrialCounts(n, a, b) for a, b in zip(at_u, to_v)], crossed


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
    from `np.random.default_rng([seed, i])`, so a spurious transition
    replays from (seed, i) alone, and its counts go to `trial_counts`.  The
    drawn trials of consecutive pairs are classified and path-checked in
    batches of whole pairs, up to `_BATCH_COLUMNS` trials or one pair, which
    changes no count.  A state the classifier rejects (code -1, as when its
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
    # An edge no touching cells decode to has no witness.
    columns = {e: _cell_witness(*axis.touching[e], axis) for e in edges if e in axis.touching}
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
    chosen = sorted(int(j) for j in idx)
    per_batch = max(1, _BATCH_COLUMNS // max(1, n_trials))
    for b in range(0, len(chosen), per_batch):
        batch = chosen[b : b + per_batch]
        pairs = [non_edges[i] for i in batch]
        # Each pair's own generator: its trials replay from (seed, i) alone.
        rngs = [np.random.default_rng([seed, i]) for i in batch]
        counts, crossed = _pair_trials(pairs, axis, rngs, n_trials)
        report.trial_counts.update(zip(pairs, counts))
        report.spurious_transitions += [pair for pair, k in zip(pairs, crossed) if k]
    return report
