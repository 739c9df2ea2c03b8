"""Perturbation check of the motion neighborhood graph.

Does the derived motion graph match the transitions actually reachable
through small phase-space perturbations?  Every miss distance and center
distance used to build a witness or a random state is placed in its row by
the radii's `stories.axis` (`Axis.pick`, `Axis.inside`), the rows read through
`stories.ROW_OF`.  Every witness and trial is a batch column of relative
motion built by `_Axis.moving` or `_Axis.comoving`.  The graph is read as a
code-by-code adjacency over the radii's `stories.RELATIONS`.  An edge is
witnessed from a pair of touching cells that decode to its ends
(`neighborhood.touching_cells`, the rule the graph is drawn by), one state in
each cell; every edge's witnesses are built in one array pass (`_witnesses`).
A pair of relations no touching cells decode to has no witness.
The graph's nodes must be exactly the radii's `stories.augmented_set`.
States are classified in batches, as indices into `stories.RELATIONS`
(`stories.augmented_relation_indices`); a state it rejects, code -1, holds
no relation.  Each sampled non-edge draws its trials from its own
generator, but the trials of as many whole pairs as fit in `_BATCH_COLUMNS`
columns are built in one array pass (`_draw_trials`), then classified and
path-checked together.  Every path of one check (all edge witnesses of the
graph, or all trials of a batch of pairs that end in their v) is
classified on one grid and then bisected at every label change, level by
level, one batch per level.
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
    REGIMES,
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
)

_PATH_SAMPLES = 25
# Trial columns the validator classifies at once: as many whole sampled pairs
# as fit, or a single pair when its trials alone reach this.
_BATCH_COLUMNS = 2**11
_BISECT_FLOOR = 1e-7
Pair = tuple[AugmentedRelation, AugmentedRelation]


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
def _touching(config: str) -> dict[tuple[int, int], tuple[Cell, Cell]]:
    """The first touching cell pair (`neighborhood.touching_cells`) that
    decodes to each edge of the configuration's motion graph, both ways
    round, by the edge's codes (indices into `RELATIONS[config]`)."""
    code = {a: k for k, a in enumerate(RELATIONS[config])}
    cells, pairs = {cell: code[a] for cell, a in CELLS[config].items()}, {}
    for x, y in touching_cells(config):
        pairs.setdefault((cells[x], cells[y]), (x, y))
        pairs.setdefault((cells[y], cells[x]), (y, x))
    return pairs


# A trial's kind (rigid, on a band row, on an interior row) and the uniforms
# it draws, in one block: the last rows of its column of 9, in draw order.
# A uniform r in [0, 1) drawn on [lo, hi) is lo + (hi - lo) r, bit for bit as
# `rng.uniform` maps it; each hi - lo written below is exact.
_RIGID, _BAND, _INTERIOR = range(3)
_UNIFORMS = (2, 6, 9)


@functools.cache
def _kinds(config: str) -> np.ndarray:
    """Per relation code of one configuration, a column of what its trials
    read: their kind, the rows of the relation and of its story's closest
    approach (the relation's, for a rigid story), and as 0 or 1 whether it
    is its story's central relation, whether that story has several labels,
    and whether its phase is PLUS or NONE."""
    table, row_of, columns = REGIMES[config], ROW_OF[config], []
    for a in RELATIONS[config]:
        rigid = a.story in RIGID_STORIES[config]
        low = row_of[a.rel if rigid else a.story]
        kind = _RIGID if rigid else _INTERIOR if table[low].band is None else _BAND
        columns.append((
            kind, row_of[a.rel], low, a == central(a.story),
            len(STORY_LABELS[a.story]) > 1, a.phase is Phase.PLUS, a.phase is Phase.NONE,
        ))
    kinds = np.array(columns).T
    kinds.flags.writeable = False  # cached, so shared by every check of the configuration
    return kinds


class _Axis:
    """Lookups on the `stories.axis` of one pair of radii, `ax`, which places
    every distance (`Axis.pick`, `Axis.inside`), and its states in batches of
    relative motion: (4, n) arrays, a column per state, rows dpx, dpy, dvx,
    dvy (`UniformMotionState.dp` and `.dv`)."""

    def __init__(self, r_k: float, r_l: float, tol: Tolerance) -> None:
        self.r_k, self.r_l, self.tol, self.eps = r_k, r_l, tol, tol.eps
        self.ax = ax = radii_axis(r_k, r_l, tol)
        self.span = ax.ends[:2]
        self.banded = np.array([r.band is not None for r in ax.rows])
        self.relations = RELATIONS[ax.config]
        self.index = {a: k for k, a in enumerate(self.relations)}
        self.kinds = _kinds(ax.config)
        self.touching = _touching(ax.config)

    def place(
        self, a: np.ndarray, b: np.ndarray, offset: float, floor: np.ndarray | float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """For each pair of rows a[k], b[k], a distance in each: one point in a
        row they share, not below `floor`; else one on each side of the break
        between the two adjacent rows, the band's threshold and `offset` eps
        inside the interior row."""
        lower = np.minimum(a, b)
        band = np.where(self.banded[lower], lower, np.maximum(a, b))
        theta, step, shared = self.span[0, band], offset * self.eps, self.ax.pick(a, floor)
        return tuple(
            np.where(a == b, shared, self.ax.inside(k, theta + (k - band) * step)) for k in (a, b)
        )

    def moving(
        self, h: np.ndarray, d: np.ndarray, approach: np.ndarray, speed: np.ndarray | float = 1.0
    ) -> np.ndarray:
        """The `oracle.canonical_state` with miss distance h now at center
        distance d, approaching (closest approach ahead) or receding, as a
        batch column; elementwise for arrays, as a batch."""
        # inf or nan where d overflows or lies below -h, which `labels` rejects
        with np.errstate(over="ignore", invalid="ignore"):
            tta = np.sqrt(np.maximum(0.0, d - h)) * np.sqrt(d + h) / speed
            dpx = speed * np.where(approach, -tta, tta)
        return np.stack(np.broadcast_arrays(dpx, h, speed, 0.0))

    def comoving(self, d: np.ndarray) -> np.ndarray:
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


def _witnesses(pairs: list[tuple[Cell, Cell]], axis: _Axis) -> tuple[np.ndarray, np.ndarray]:
    """A state in each of two touching cells x and y, for each pair (x, y), in
    one array pass: two batches, a column per pair, x's and y's.

    Each state's miss distance h comes from its row i and its current
    distance d from its row j, both placed by `_Axis.place` (3 eps for h,
    2.5 eps for d, d not below h where a row is shared); two cells at
    closest approach keep h = d.  A rest cell takes its kicked partner's h,
    d and closing side, at the kick's eps-scale speed, with dv = 0."""
    x, y = cells = np.array(pairs).transpose(1, 2, 0)  # side, (i, j, rigid, closing), pair
    h = np.array(axis.place(x[0], y[0], 3.0))
    at_min = (cells[:, 0] == cells[:, 1]).all(axis=0)
    d = np.where(at_min, h, axis.place(x[1], y[1], 2.5, h.max(axis=0)))
    resting = cells[:, 2] == 1
    rest = resting.any(axis=0)
    i, j, _, closing = np.where(resting[0], y, x)  # a rest pair's kicked cell
    h = np.where(rest, axis.ax.pick(i), h)
    d = np.where(rest, np.where(i == j, h[0], axis.ax.pick(j, h[0])), d)
    speed = np.where(rest, 3.0 * axis.eps, 1.0)
    batch = axis.moving(h, d, np.where(rest, closing, cells[:, 3]), speed)
    batch[2:, resting] = 0.0
    return batch[:, 0], batch[:, 1]


@np.errstate(over="ignore", invalid="ignore")  # a formula of another kind may overflow
def _trial_starts(us: np.ndarray, axis: _Axis, u: np.ndarray) -> np.ndarray:
    """The start state of each trial column k, meant to classify relation
    us[k] (a code) and biased toward regime boundaries, read from the
    column's uniforms u[:, k] (`_UNIFORMS`) in one array pass: every
    column's numbers are worked out for each kind of trial, and its own
    kind's kept."""
    eps = axis.eps
    kind, now, low = axis.kinds[:3, us]
    is_central, several, plus, none = axis.kinds[3:, us].astype(bool)
    # A band row's miss distance lies within 0.9 eps of its threshold.
    lo, hi = axis.span[:, low]
    band = np.maximum(0.0, lo + (-0.9 + 1.8 * u[3]) * eps)
    # An interior row keeps 2 eps clear of the bands below and above; the
    # unbounded top interval is sampled 2 m deep.  Half the trials spread
    # over it and half hug a regime boundary.
    hi = np.where(hi < math.inf, hi - 2.0 * eps, lo + 2.0)
    lo = np.where(low > 0, lo + 2.0 * eps, lo)
    edge = np.where(u[2] < 0.5, lo, hi)
    hug = np.minimum(hi, np.maximum(lo, edge + (-4.0 + 8.0 * u[3]) * eps))
    h = np.where(kind == _BAND, band, np.where(u[0] < 0.5, lo + u[1] * (hi - lo), hug))
    # Pin the epoch to closest approach for genuinely central relations; the
    # single-label story S11 holds DC everywhere, so only pin it half the time
    # to also cover epochs away from the minimum.
    pin = is_central & (several | (u[4] < 0.5))
    d_t, nudge = axis.ax.pick(now, h), (-0.9 + 1.8 * u[6]) * eps
    d_t = np.where(pin, h, np.where(u[5] < 0.3, np.maximum(h, d_t + nudge), d_t))
    recede = plus | (none & (u[8] < 0.5))
    start = axis.moving(h, d_t, ~recede, 0.5 + 1.5 * u[7])
    # Rigid: the row's pick, jittered by up to 0.9 eps half the time.
    rigid = kind == _RIGID
    jitter = np.where(u[7, rigid] < 0.5, 0.0, (-0.9 + 1.8 * u[8, rigid]) * eps)
    start[:, rigid] = axis.comoving(np.maximum(0.0, axis.ax.pick(now[rigid]) + jitter))
    return start


def _draw_trials(
    us: np.ndarray, axis: _Axis, rngs: list[np.random.Generator], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n random trials of each relation us[p] (a code), drawn from its own
    generator rngs[p], a column per trial, relation by relation: start
    states (`_trial_starts`) and their ends after a kick of 9 eps-scale
    normals (on positions and velocities, then a time step).  Each relation
    draws its uniforms as one block, then its kicks."""
    uniforms, kicks = np.zeros((9, len(us), n)), np.empty((len(us), n, 9))
    for p, (kind, rng) in enumerate(zip(axis.kinds[0, us].tolist(), rngs)):
        uniforms[9 - _UNIFORMS[kind] :, p] = rng.random((_UNIFORMS[kind], n))
        kicks[p] = rng.normal(0.0, 3.0 * axis.eps, (n, 9))
    start = _trial_starts(np.repeat(us, n), axis, uniforms.reshape(9, -1))
    kick = kicks.reshape(-1, 9).T
    end = start + (kick[4:8] - kick[:4])  # disc l's kick minus disc k's
    end[:2] += end[2:] * kick[8]
    return start, end


def _pair_trials(
    pairs: np.ndarray, axis: _Axis, rngs: list[np.random.Generator], n: int
) -> tuple[list[TrialCounts], list[int]]:
    """n random trials of each pair (u, v) of codes, drawn from the pair's own
    generator (`_draw_trials`), then classified and path-checked together:
    each pair's counts, and how many of its trials cross from u to v on a
    continuous path."""
    pairs = np.asarray(pairs).reshape(-1, 2)
    start, end = _draw_trials(pairs[:, 0], axis, rngs, n)
    pair = np.repeat(np.arange(len(pairs)), n)  # each trial's index into pairs
    u, v = pairs[pair].T
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
    relations = axis.relations

    # The graph over codes: RELATIONS is sorted by str, so its upper triangle,
    # row by row, holds each node pair once, both ends and pairs in str order.
    adjacent = np.zeros((len(relations),) * 2, dtype=bool)
    ends = np.array([[axis.index[x] for x in e] for e in g.edges], dtype=int).reshape(-1, 2)
    adjacent[ends[:, 0], ends[:, 1]] = adjacent[ends[:, 1], ends[:, 0]] = True
    upper = np.triu_indices(len(relations), 1)
    edge = adjacent[upper]
    edges, non_edges = np.transpose(upper)[edge], np.transpose(upper)[~edge]

    # An edge no touching cells decode to has no witness.
    drawn = [e for e in map(tuple, edges.tolist()) if e in axis.touching]
    witnessed = set()
    if drawn:
        cu, cv = _witnesses([axis.touching[e] for e in drawn], axis)
        found = _continuous_transitions(cu, cv, *np.transpose(drawn), axis)
        witnessed = {e for e, ok in zip(drawn, found.tolist()) if ok}
    report.unwitnessed_edges = [
        (relations[a], relations[b]) for a, b in edges.tolist() if (a, b) not in witnessed
    ]

    idx = rng.choice(len(non_edges), size=min(n_pairs, len(non_edges)), replace=False)
    chosen = np.sort(idx).tolist()
    per_batch = max(1, _BATCH_COLUMNS // max(1, n_trials))
    for b in range(0, len(chosen), per_batch):
        batch = chosen[b : b + per_batch]
        # Each pair's own generator: its trials replay from (seed, i) alone.
        rngs = [np.random.default_rng([seed, i]) for i in batch]
        counts, crossed = _pair_trials(non_edges[batch], axis, rngs, n_trials)
        pairs = [(relations[u], relations[v]) for u, v in non_edges[batch].tolist()]
        report.trial_counts.update(zip(pairs, counts))
        report.spurious_transitions += [pair for pair, k in zip(pairs, crossed) if k]
    return report
