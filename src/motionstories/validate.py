"""Perturbation check of the motion neighborhood graph.

Does the derived motion graph match the transitions actually reachable
through small phase-space perturbations?  Every miss distance and center
distance used to build a witness or a random state is read from the radii's
regime table: rows from `stories.REGIMES` and `stories.ROW_OF`, extents from
`stories.regime_spans`; each moving state comes from `_Axis.moving`.  A pair
of two rigid relations, or of two stories off every band, has no witness.
The graph's nodes must be exactly the radii's `stories.augmented_set`, and
interpolation paths are checked with `oracle.resolve_changes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kinematics import Disc, UniformMotionState, Vec2, advance
from .neighborhood import Cng
from .oracle import canonical_state, resolve_changes, rigid_state
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
    augmented_set,
    central,
    distance_inside,
    radius_config,
    regime_spans,
)

_PATH_SAMPLES = 25
_BISECT_FLOOR = 1e-7


@dataclass
class ValidationReport:
    unwitnessed_edges: list[tuple[AugmentedRelation, AugmentedRelation]] = field(
        default_factory=list
    )
    spurious_transitions: list[tuple[AugmentedRelation, AugmentedRelation]] = field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return not self.unwitnessed_edges and not self.spurious_transitions


def _lerp_state(
    u: UniformMotionState, v: UniformMotionState, s: float
) -> UniformMotionState:
    def mix(a: float, b: float) -> float:
        return a + s * (b - a)

    def mix_v(a: Vec2, b: Vec2) -> Vec2:
        return Vec2(mix(a.x, b.x), mix(a.y, b.y))

    return UniformMotionState(
        disc_k=Disc(mix_v(u.disc_k.center, v.disc_k.center), u.disc_k.radius),
        vel_k=mix_v(u.vel_k, v.vel_k),
        disc_l=Disc(mix_v(u.disc_l.center, v.disc_l.center), u.disc_l.radius),
        vel_l=mix_v(u.vel_l, v.vel_l),
        epoch=mix(u.epoch, v.epoch),
    )


def _continuous_transition(
    u_state: UniformMotionState,
    v_state: UniformMotionState,
    u: AugmentedRelation,
    v: AugmentedRelation,
    tol: Tolerance,
) -> bool:
    """True if interpolating between the states moves u -> v without any third
    classification appearing.

    The interpolation parameter is first sampled on a grid of `_PATH_SAMPLES`
    steps; `oracle.resolve_changes` then bisects every label change, so
    intermediate regimes narrower than the grid step are still discovered
    down to a width of `_BISECT_FLOOR`.
    """

    def cls(s: float) -> AugmentedRelation:
        return augmented_relation(_lerp_state(u_state, v_state, s), tol)

    grid = [(i / _PATH_SAMPLES, cls(i / _PATH_SAMPLES)) for i in range(_PATH_SAMPLES + 1)]
    # Wrong ends or a third label on the grid decide before any bisection.
    if grid[0][1] != u or grid[-1][1] != v or any(c not in (u, v) for _, c in grid):
        return False
    return all(c in (u, v) for _, c in resolve_changes(cls, grid, _BISECT_FLOOR))


class _Axis:
    """The regime table of one pair of radii, with each regime's distance span."""

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

    def target(self, rel: RccRelation, h: float) -> float:
        """A center distance at which `rel` holds, reachable on a trajectory
        with miss distance h (never below h)."""
        return distance_inside(self.spans[self.row_of[rel]], floor=h)

    def moving(self, h: float, d: float, approach: bool, speed: float = 1.0) -> UniformMotionState:
        """The canonical state with miss distance h now at center distance d,
        approaching (closest approach ahead) or receding."""
        tta = math.sqrt(max(0.0, d * d - h * h)) / speed
        return canonical_state(self.r_k, self.r_l, h, tta if approach else -tta, speed)


def _edge_witness(
    a: AugmentedRelation, b: AugmentedRelation, axis: _Axis
) -> tuple[UniformMotionState, UniformMotionState]:
    """Two nearby states classified as the edge's endpoints, in (a, b) order.

    Raises ValueError when the pair's shape admits no witness."""
    eps = axis.eps
    if a.story in axis.rigid and b.story in axis.rigid:
        raise ValueError(f"{a} and {b} are both rigid; no kick joins them")

    if a.story in axis.rigid or b.story in axis.rigid:
        # Attachment edge: from the rigid state, an eps-scale velocity on disc
        # k sets the miss-distance regime without changing the epoch relation.
        rigid, moving = (a, b) if a.story in axis.rigid else (b, a)
        base = rigid_state(axis.r_k, axis.r_l, axis.target(rigid.rel, 0.0))
        d0 = base.dp.norm()
        h = min(axis.miss(moving.story), d0)
        sin_a = 1.0 if d0 == 0.0 else min(1.0, h / d0)
        cos_a = math.sqrt(max(0.0, 1.0 - sin_a * sin_a))
        if moving.phase is Phase.PLUS:
            cos_a = -cos_a
        omega = 3.0 * eps
        perturbed = UniformMotionState(
            disc_k=base.disc_k,
            vel_k=base.vel_k + Vec2(omega * cos_a, omega * sin_a),
            disc_l=base.disc_l,
            vel_l=base.vel_l,
            epoch=base.epoch,
        )
        return (base, perturbed) if rigid == a else (perturbed, base)

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
        s_inst = axis.moving(h, theta, approach)
        s_other = axis.moving(h, d_other, approach)
        return (s_inst, s_other) if inst == a else (s_other, s_inst)

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
    s_band = axis.moving(theta_band, d_band, band.phase is not Phase.PLUS)
    s_int = axis.moving(h_int, d_int, interior.phase is not Phase.PLUS)
    return (s_band, s_int) if band == a else (s_int, s_band)


def _random_state_for(
    aug: AugmentedRelation, axis: _Axis, rng: np.random.Generator
) -> UniformMotionState | None:
    """A randomized state classified `aug`, biased toward regime boundaries."""
    eps, tol = axis.eps, axis.tol

    if aug.story in axis.rigid:
        base_d = axis.target(aug.rel, 0.0)
        jitter = 0.0 if rng.uniform() < 0.5 else float(rng.uniform(-0.9, 0.9)) * eps
        vel = Vec2(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        state = rigid_state(axis.r_k, axis.r_l, max(0.0, base_d + jitter), vel=vel)
        return state if augmented_relation(state, tol) == aug else None

    i = axis.row_of[aug.story]
    lo, hi = axis.spans[i]
    if axis.is_band(aug.story):
        h = max(0.0, lo + float(rng.uniform(-0.9, 0.9)) * eps)
    else:
        # Keep 2 eps clear of the bands below and above; the unbounded top
        # interval is sampled 2 m deep.
        hi = hi - 2.0 * eps if hi < math.inf else lo + 2.0
        lo = lo + 2.0 * eps if i > 0 else lo
        if rng.uniform() < 0.5:
            h = lo + float(rng.uniform(0.0, 1.0)) * (hi - lo)
        else:  # hug a regime boundary
            edge = lo if rng.uniform() < 0.5 else hi
            h = min(hi, max(lo, edge + float(rng.uniform(-4.0, 4.0)) * eps))
    # Pin the epoch to closest approach for genuinely central relations; the
    # single-label story S11 holds DC everywhere, so only pin it half the time
    # to also cover epochs away from the minimum.
    pin_central = aug == central(aug.story) and (
        len(STORY_LABELS[aug.story]) > 1 or rng.uniform() < 0.5
    )
    if pin_central:
        d_t = h
    else:
        d_t = axis.target(aug.rel, h)
        if rng.uniform() < 0.3:
            d_t = max(h, d_t + float(rng.uniform(-3.0, 3.0)) * eps)
    speed = float(rng.uniform(0.5, 2.0))
    recede = aug.phase is Phase.PLUS or (aug.phase is Phase.NONE and rng.uniform() < 0.5)
    state = axis.moving(h, d_t, not recede, speed)
    return state if augmented_relation(state, tol) == aug else None


def _perturb(
    state: UniformMotionState, scale: float, rng: np.random.Generator
) -> UniformMotionState:
    d = rng.normal(0.0, scale, size=9)
    out = UniformMotionState(
        disc_k=Disc(state.disc_k.center + Vec2(d[0], d[1]), state.disc_k.radius),
        vel_k=state.vel_k + Vec2(d[2], d[3]),
        disc_l=Disc(state.disc_l.center + Vec2(d[4], d[5]), state.disc_l.radius),
        vel_l=state.vel_l + Vec2(d[6], d[7]),
        epoch=state.epoch,
    )
    return advance(out, float(d[8]))


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
    transition across `n_trials` random perturbations each.
    """
    if g.nodes != augmented_set(r_k, r_l, tol):
        raise ValueError("graph nodes are not the augmented relations of the given radii")
    axis = _Axis(r_k, r_l, tol)
    rng = np.random.default_rng(seed)
    report = ValidationReport()

    for edge in sorted(g.edges, key=lambda e: tuple(sorted(map(str, e)))):
        a, b = sorted(edge, key=str)
        try:
            su, sv = _edge_witness(a, b, axis)
            witnessed = _continuous_transition(su, sv, a, b, tol)
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
        for _ in range(n_trials):
            state = _random_state_for(u, axis, rng)
            if state is None:
                continue
            perturbed = _perturb(state, 3.0 * tol.eps, rng)
            if augmented_relation(perturbed, tol) == v and _continuous_transition(
                state, perturbed, u, v, tol
            ):
                report.spurious_transitions.append((u, v))
                break
    return report
