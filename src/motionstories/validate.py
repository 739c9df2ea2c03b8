"""Perturbation check of the motion neighborhood graph.

Does the derived motion graph match the transitions actually reachable
through small phase-space perturbations?  A check runs on the radii's
`stories.axis`, which places every miss distance and center distance of a
witness or a random state in its row (`Axis.pick`, `Axis.inside`), a
relation's rows read from its first cell in `stories.CELLS`.  Every witness
and trial is a batch column of relative motion (`_moving`, `_comoving`),
and every batch is classified on the axis as indices into
`stories.RELATIONS` (`stories.augmented_relation_indices`); a state it
rejects, code -1, holds no relation.  The graph's nodes must be exactly the
radii's `stories.augmented_set`, and it is read as a code-by-code
adjacency.  An edge is witnessed from the touching cell pair that the
graph's own table holds for its ends (`neighborhood.motion_edges`), one
state in each cell, all edges in one array pass (`_witnesses`); a pair of
relations the table lacks has no witness.  Each sampled non-edge draws its
trials from its own generator, but the trials of as many whole pairs as
fit in `_BATCH_COLUMNS` columns are built in one array pass
(`_draw_trials`), then classified and path-checked together.  Every path of
one check (all edge witnesses, or all trials of a batch of pairs that end
in their v) is classified on one grid and then bisected at every label
change, level by level, one batch per level.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .neighborhood import Cell, Cng, motion_edges
from .stories import (
    CELLS,
    DEFAULT_TOLERANCE,
    REGIMES,
    RELATIONS,
    STORY_LABELS,
    AugmentedRelation,
    Axis,
    Phase,
    Tolerance,
    augmented_relation_indices,
    augmented_set,
    axis,
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


# A trial's kind (rigid, on a band row, on an interior row) and the uniforms
# it draws, in one block: the last rows of its column of 9, in draw order.
# A uniform r in [0, 1) drawn on [lo, hi) is lo + (hi - lo) r, bit for bit as
# `rng.uniform` maps it; each hi - lo written below is exact.
_RIGID, _BAND, _INTERIOR = range(3)
_UNIFORMS = (2, 6, 9)


@functools.cache
def _kinds(config: str) -> np.ndarray:
    """Per relation code of one configuration, a column of what its trials
    read from the first cell (i, j, rigid, closing) of `CELLS[config]` that
    decodes to it: their kind, the rows j now and i at closest approach, and
    as 0 or 1 whether it is central (of phase NONE), whether its story has
    several labels, and whether its phase is PLUS."""
    table, columns = REGIMES[config], []
    first = {a: cell for cell, a in reversed(CELLS[config].items())}
    for a in RELATIONS[config]:
        i, j, rigid, _ = first[a]
        kind = _RIGID if rigid else _INTERIOR if table[i].band is None else _BAND
        columns.append((
            kind, j, i, a.phase is Phase.NONE,
            len(STORY_LABELS[a.story]) > 1, a.phase is Phase.PLUS,
        ))
    kinds = np.array(columns).T
    kinds.flags.writeable = False  # cached, so shared by every check of the configuration
    return kinds


def _place(
    ax: Axis, a: np.ndarray, b: np.ndarray, offset: float, floor: np.ndarray | float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """For each pair of rows a[k], b[k], a distance in each: one point in a
    row they share, not below `floor`; else one on each side of the break
    between the two adjacent rows, the band's threshold and `offset` eps
    inside the interior row."""
    lower = np.minimum(a, b)
    banded = np.array([r.band is not None for r in ax.rows])
    band = np.where(banded[lower], lower, np.maximum(a, b))
    theta, step, shared = ax.ends[0, band], offset * ax.eps, ax.pick(a, floor)
    return tuple(
        np.where(a == b, shared, ax.inside(k, theta + (k - band) * step)) for k in (a, b)
    )


def _moving(
    h: np.ndarray, d: np.ndarray, approach: np.ndarray, speed: np.ndarray | float = 1.0
) -> np.ndarray:
    """The `oracle.canonical_state` with miss distance h now at center
    distance d, approaching (closest approach ahead) or receding, as a batch
    column of relative motion, rows dpx, dpy, dvx, dvy
    (`UniformMotionState.dp` and `.dv`); elementwise for arrays, as a batch."""
    # inf or nan where d overflows or lies below -h, which the classifier rejects
    with np.errstate(over="ignore", invalid="ignore"):
        tta = np.sqrt(np.maximum(0.0, d - h)) * np.sqrt(d + h) / speed
        dpx = speed * np.where(approach, -tta, tta)
    return np.stack(np.broadcast_arrays(dpx, h, speed, 0.0))


def _comoving(d: np.ndarray) -> np.ndarray:
    """The `oracle.rigid_state` at center distance d as a batch column;
    elementwise for an array d, as a batch."""
    return np.stack(np.broadcast_arrays(d, 0.0, 0.0, 0.0))


@np.errstate(over="ignore", invalid="ignore")  # a state too far to place gets -1
def _continuous_transitions(
    cu: np.ndarray, cv: np.ndarray, u: np.ndarray | int, v: np.ndarray | int, ax: Axis
) -> np.ndarray:
    """For each path p, from batch column cu[:, p] to cv[:, p], True if
    interpolating componentwise, cu + s (cv - cu) for s from 0 to 1, moves
    from relation u[p] to v[p] (indices into `RELATIONS[ax.config]`) without
    any third classification appearing on the axis `ax`.

    Each path is first sampled on a grid of `_PATH_SAMPLES` steps; wrong ends
    or a third label there fail it.  Then every label change is bisected on
    both sides of each new midpoint until its bracket is at most
    `_BISECT_FLOOR` wide (every s lies in [0, 1]), so intermediate regimes
    narrower than the grid step are still discovered; a third label fails
    the path.  Every open bracket of every path is bisected together, one
    batch per level.  A state the classifier rejects (code -1) is neither
    u[p] nor v[p], so it fails its path.
    """
    n = cu.shape[1]
    u, v = np.broadcast_to(u, n), np.broadcast_to(v, n)
    steps = np.arange(_PATH_SAMPLES + 1) / _PATH_SAMPLES
    du = cv - cu
    grid = augmented_relation_indices(*(cu[:, :, None] + steps * du[:, :, None]).reshape(4, -1), ax)
    grid = grid.reshape(n, len(steps))
    ok = (grid[:, 0] == u) & (grid[:, -1] == v)
    ok &= ((grid == u[:, None]) | (grid == v[:, None])).all(axis=1)
    # The brackets (path, s0, r0, s1, r1) of every label change on a grid that passed.
    p, k = np.nonzero(ok[:, None] & (grid[:, 1:] != grid[:, :-1]))
    brackets = p, steps[k], grid[p, k], steps[k + 1], grid[p, k + 1]
    while True:
        p, s0, r0, s1, r1 = brackets
        live = ok[p] & (s1 - s0 > _BISECT_FLOOR)
        if not live.any():
            return ok
        p, s0, r0, s1, r1 = (x[live] for x in brackets)
        sm = (s0 + s1) / 2.0
        rm = augmented_relation_indices(*(cu[:, p] + sm * du[:, p]), ax)
        ok[p[(rm != u[p]) & (rm != v[p])]] = False
        left, right = rm != r0, rm != r1
        brackets = tuple(
            np.concatenate((a[left], b[right]))
            for a, b in ((p, p), (s0, sm), (r0, rm), (sm, s1), (rm, r1))
        )


def _witnesses(pairs: list[tuple[Cell, Cell]], ax: Axis) -> tuple[np.ndarray, np.ndarray]:
    """A state in each of two touching cells x and y, for each pair (x, y), in
    one array pass: two batches, a column per pair, x's and y's.

    Each state's miss distance h comes from its row i and its current
    distance d from its row j, both placed on `ax` by `_place` (3 eps for h,
    2.5 eps for d, d not below h where a row is shared); two cells at
    closest approach keep h = d.  A rest cell takes its kicked partner's h,
    d and closing side, at the kick's eps-scale speed, with dv = 0."""
    x, y = cells = np.array(pairs).transpose(1, 2, 0)  # side, (i, j, rigid, closing), pair
    h = np.array(_place(ax, x[0], y[0], 3.0))
    at_min = (cells[:, 0] == cells[:, 1]).all(axis=0)
    d = np.where(at_min, h, _place(ax, x[1], y[1], 2.5, h.max(axis=0)))
    resting = cells[:, 2] == 1
    rest = resting.any(axis=0)
    i, j, _, closing = np.where(resting[0], y, x)  # a rest pair's kicked cell
    h = np.where(rest, ax.pick(i), h)
    d = np.where(rest, np.where(i == j, h[0], ax.pick(j, h[0])), d)
    speed = np.where(rest, 3.0 * ax.eps, 1.0)
    batch = _moving(h, d, np.where(rest, closing, cells[:, 3]), speed)
    batch[2:, resting] = 0.0
    return batch[:, 0], batch[:, 1]


@np.errstate(over="ignore", invalid="ignore")  # a formula of another kind may overflow
def _trial_starts(us: np.ndarray, ax: Axis, u: np.ndarray) -> np.ndarray:
    """The start state of each trial column k, meant to classify relation
    us[k] (a code) and biased toward regime boundaries, read from the
    column's uniforms u[:, k] (`_UNIFORMS`) in one array pass: every
    column's numbers are worked out for each kind of trial, and its own
    kind's kept."""
    eps, kinds = ax.eps, _kinds(ax.config)[:, us]
    kind, now, low = kinds[:3]
    is_central, several, plus = kinds[3:].astype(bool)
    # A band row's miss distance lies within 0.9 eps of its threshold.
    lo, hi = ax.ends[:2, low]
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
    d_t, nudge = ax.pick(now, h), (-0.9 + 1.8 * u[6]) * eps
    d_t = np.where(pin, h, np.where(u[5] < 0.3, np.maximum(h, d_t + nudge), d_t))
    recede = plus | (is_central & (u[8] < 0.5))
    start = _moving(h, d_t, ~recede, 0.5 + 1.5 * u[7])
    # Rigid: the row's pick, jittered by up to 0.9 eps half the time.
    rigid = kind == _RIGID
    jitter = np.where(u[7, rigid] < 0.5, 0.0, (-0.9 + 1.8 * u[8, rigid]) * eps)
    start[:, rigid] = _comoving(np.maximum(0.0, ax.pick(now[rigid]) + jitter))
    return start


def _draw_trials(
    us: np.ndarray, ax: Axis, rngs: list[np.random.Generator], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n random trials of each relation us[p] (a code), drawn from its own
    generator rngs[p], a column per trial, relation by relation: start
    states (`_trial_starts`) and their ends after a kick of 9 eps-scale
    normals (on positions and velocities, then a time step).  Each relation
    draws its uniforms as one block, then its kicks."""
    uniforms, kicks = np.zeros((9, len(us), n)), np.empty((len(us), n, 9))
    for p, (kind, rng) in enumerate(zip(_kinds(ax.config)[0, us].tolist(), rngs)):
        uniforms[9 - _UNIFORMS[kind] :, p] = rng.random((_UNIFORMS[kind], n))
        kicks[p] = rng.normal(0.0, 3.0 * ax.eps, (n, 9))
    start = _trial_starts(np.repeat(us, n), ax, uniforms.reshape(9, -1))
    kick = kicks.reshape(-1, 9).T
    end = start + (kick[4:8] - kick[:4])  # disc l's kick minus disc k's
    end[:2] += end[2:] * kick[8]
    return start, end


def _pair_trials(
    pairs: np.ndarray, ax: Axis, rngs: list[np.random.Generator], n: int
) -> tuple[list[TrialCounts], list[int]]:
    """n random trials of each pair (u, v) of codes, drawn from the pair's own
    generator (`_draw_trials`), then classified and path-checked together:
    each pair's counts, and how many of its trials cross from u to v on a
    continuous path."""
    pairs = np.asarray(pairs).reshape(-1, 2)
    start, end = _draw_trials(pairs[:, 0], ax, rngs, n)
    pair = np.repeat(np.arange(len(pairs)), n)  # each trial's index into pairs
    u, v = pairs[pair].T
    at_u = np.flatnonzero(augmented_relation_indices(*start, ax) == u)
    to_v = at_u[augmented_relation_indices(*end[:, at_u], ax) == v[at_u]]
    crossed = to_v[_continuous_transitions(start[:, to_v], end[:, to_v], u[to_v], v[to_v], ax)]
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
    for name, n in (("n_pairs", n_pairs), ("n_trials", n_trials)):
        if not hasattr(type(n), "__index__") or operator.index(n) < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {n!r}")
    n_pairs, n_trials = operator.index(n_pairs), operator.index(n_trials)
    if g.nodes != augmented_set(r_k, r_l, tol):
        raise ValueError("graph nodes are not the augmented relations of the given radii")
    ax = axis(r_k, r_l, tol)
    rng = np.random.default_rng(seed)
    report = ValidationReport()
    relations, touching = RELATIONS[ax.config], motion_edges(ax.config)
    code = {a: k for k, a in enumerate(relations)}

    # The graph over codes: RELATIONS is sorted by str, so its upper triangle,
    # row by row, holds each node pair once, both ends and pairs in str order.
    adjacent = np.zeros((len(relations),) * 2, dtype=bool)
    ends = np.array([[code[x] for x in e] for e in g.edges], dtype=int).reshape(-1, 2)
    adjacent[ends[:, 0], ends[:, 1]] = adjacent[ends[:, 1], ends[:, 0]] = True
    upper = np.triu_indices(len(relations), 1)
    edge = adjacent[upper]
    edges, non_edges = np.transpose(upper)[edge], np.transpose(upper)[~edge]

    # An edge no touching cells decode to has no witness.
    drawn = [e for e in map(tuple, edges.tolist()) if e in touching]
    witnessed = set()
    if drawn:
        cu, cv = _witnesses([touching[e] for e in drawn], ax)
        found = _continuous_transitions(cu, cv, *np.transpose(drawn), ax)
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
        counts, crossed = _pair_trials(non_edges[batch], ax, rngs, n_trials)
        pairs = [(relations[u], relations[v]) for u, v in non_edges[batch].tolist()]
        report.trial_counts.update(zip(pairs, counts))
        report.spurious_transitions += [pair for pair, k in zip(pairs, crossed) if k]
    return report
