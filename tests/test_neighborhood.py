import ast
import hashlib
import json
import math
import warnings
from collections.abc import Callable
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import motionstories
import motionstories.neighborhood
import motionstories.validate
from motionstories.neighborhood import (
    Cng,
    motion_cng,
    rcc_cng,
    shortest_path,
    to_dot,
    to_json_adjacency,
    touching_cells,
)
from motionstories.kinematics import Disc, UniformMotionState, Vec2, closest_approach_state
from motionstories.oracle import canonical_state, rigid_state
from motionstories.stories import (
    CELLS,
    DEFAULT_TOLERANCE,
    REGIMES,
    RIGID_STORIES,
    ROW_OF,
    STORY_LABELS,
    AugmentedRelation,
    Phase,
    RccRelation,
    StoryId,
    Tolerance,
    augmented_chain,
    augmented_relation,
    augmented_set,
    central,
    radius_config,
    relation_config,
    stories_set,
)
from motionstories.validate import (
    TrialCounts,
    _BATCH_COLUMNS,
    _BISECT_FLOOR,
    _PATH_SAMPLES,
    _Axis,
    _continuous_transitions,
    _draw_trials,
    _pair_trials,
    _witnesses,
    validate_motion_cng,
)

R = RccRelation


def aug(text: str) -> AugmentedRelation:
    return AugmentedRelation.parse(text)


class TestRccCng:
    def test_neighbor_structure(self):
        g = rcc_cng()
        assert g.neighbors(R.DC) == {R.EC}
        assert g.neighbors(R.PO) == {R.EC, R.TPP, R.TPPI, R.EQ}
        assert g.neighbors(R.EQ) == {R.PO, R.TPP, R.TPPI}

    def test_shortest_path_dc_to_ntpp(self):
        path = shortest_path(rcc_cng(), R.DC, R.NTPP)
        assert path == [R.DC, R.EC, R.PO, R.TPP, R.NTPP]

    def test_trivial_path(self):
        assert shortest_path(rcc_cng(), R.PO, R.PO) == [R.PO]

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            shortest_path(rcc_cng(), "bogus", R.DC)

    def test_edge_override(self):
        g = Cng(nodes=frozenset(RccRelation), edges=frozenset({frozenset((R.DC, R.EC))}))
        assert g.has_edge(R.DC, R.EC)
        assert not g.has_edge(R.EC, R.PO)
        # PO is now unreachable from DC.
        assert shortest_path(g, R.DC, R.PO) is None


def _imported_names(module) -> set[str]:
    """The last dotted part of every name a module imports."""
    tree = ast.parse(open(module.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return {name.rpartition(".")[2] for name in imported}


def test_graph_module_does_not_import_the_oracle_or_validator():
    assert not _imported_names(motionstories.neighborhood) & {"oracle", "validate"}


def test_validator_does_not_import_the_oracle():
    # The graph check bisects its own paths; the brute-force sampler is no
    # part of it.
    assert "oracle" not in _imported_names(motionstories.validate)


def test_validator_classifies_only_as_arrays():
    # One classifier: no scalar `augmented_relation` and no state objects.
    imported = _imported_names(motionstories.validate)
    assert not imported & {"kinematics", "augmented_relation"}


def test_no_module_imports_a_private_name_of_a_sibling():
    package = Path(motionstories.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert private == []


def _unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that it never reads, also counting
    names read in string annotations."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update(((a.asname or a.name).partition(".")[0], node.lineno) for a in node.names)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                read.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    # `__init__` re-exports what it imports.
    package = Path(motionstories.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_unused_import_check_sees_a_leftover():
    source = "from .stories import augmented_chain, central\n\n\ndef f(s) -> 'central':\n    pass\n"
    assert _unused_imports(source) == ["line 1: augmented_chain"]


class TestCngType:
    def test_rejects_self_loops_and_unknown_nodes(self):
        with pytest.raises(ValueError):
            Cng(nodes=frozenset({"a"}), edges=frozenset({frozenset({"a"})}))
        with pytest.raises(ValueError):
            Cng(nodes=frozenset({"a"}), edges=frozenset({frozenset({"a", "b"})}))


class TestSerialization:
    def test_dot_output(self):
        g = rcc_cng()
        dot = to_dot(g)
        assert dot.startswith("graph cng {\n")
        assert dot.endswith("}\n")
        assert "  DC -- EC;\n" in dot
        assert dot == to_dot(rcc_cng())  # deterministic

    def test_dot_empty_graph(self):
        assert to_dot(Cng(frozenset(), frozenset())) == "graph cng {\n}\n"

    def test_dot_isolated_node(self):
        g = Cng(frozenset({"solo"}), frozenset())
        assert to_dot(g) == "graph cng {\n  solo;\n}\n"

    def test_json_adjacency_round_trips(self):
        g = rcc_cng()
        d = to_json_adjacency(g)
        assert json.loads(json.dumps(d)) == d
        assert sorted(d["nodes"]) == d["nodes"]
        assert len(d["edges"]) == len(g.edges)
        assert ["DC", "EC"] in d["edges"]


@pytest.fixture(scope="module")
def graph():
    return motion_cng(augmented_set(1.0, 2.0))


def _rule_graph(aug) -> Cng:
    """The motion graph as four rules over story chains and phases, the
    reference for `motion_cng`'s cell rule: chronological neighbours in a
    story; relations of regime-adjacent stories sharing a label with
    compatible phases (NONE is compatible with either); the closest-approach
    relations of regime-adjacent stories; and each rigid singleton but rest
    at DC attached to the non-rigid stories at or below its regime that hold
    its relation."""
    nodes = frozenset(aug)
    config = relation_config(nodes)
    order = [r.story for r in REGIMES[config]]
    edges = set()
    for rank, sid in enumerate(order):
        chain = augmented_chain(sid)
        edges.update(frozenset(pair) for pair in zip(chain, chain[1:]))
        if rank + 1 < len(order):
            other = order[rank + 1]
            for a in chain:
                for b in augmented_chain(other):
                    if a.rel is b.rel and (a.phase is b.phase or Phase.NONE in (a.phase, b.phase)):
                        edges.add(frozenset((a, b)))
            edges.add(frozenset((central(sid), central(other))))
    for rank, regime in enumerate(REGIMES[config]):
        if regime.rigid is regime.story:
            continue
        rigid = augmented_chain(regime.rigid)[0]
        for sid in order[: rank + 1]:
            edges.update(frozenset((rigid, b)) for b in augmented_chain(sid) if b.rel is rigid.rel)
    return Cng(nodes=nodes, edges=frozenset(edges))


class TestMotionCng:
    def test_node_and_edge_counts(self, graph):
        assert len(graph.nodes) == 29
        assert len(graph.edges) == 60

    def test_within_story_chain_edges(self, graph):
        for story in stories_set(1.0, 2.0):
            chain = augmented_chain(story.id)
            for a, b in zip(chain, chain[1:]):
                assert graph.has_edge(a, b)

    def test_cross_story_edges(self, graph):
        assert graph.has_edge(aug("S12(DC-)"), aug("S11(DC)"))
        assert graph.has_edge(aug("S15(EC-)"), aug("S14(EC-)"))
        assert graph.has_edge(aug("S13(PO)"), aug("S14(PO-)"))

    def test_central_edges(self, graph):
        assert graph.has_edge(aug("S12(EC)"), aug("S11(DC)"))
        assert graph.has_edge(aug("S12(EC)"), aug("S13(PO)"))
        assert graph.has_edge(aug("S14(TPP)"), aug("S15(NTPP)"))

    def test_rigid_attachment_edges(self, graph):
        assert graph.has_edge(aug("S02(EC)"), aug("S12(EC)"))
        assert graph.has_edge(aug("S02(EC)"), aug("S15(EC-)"))
        assert graph.has_edge(aug("S05(NTPP)"), aug("S15(NTPP)"))
        # A rigid state at NTPP distance cannot reach stories whose regime
        # sits above it without passing through intermediate relations.
        assert not graph.has_edge(aug("S05(NTPP)"), aug("S13(PO)"))

    def test_non_edges(self, graph):
        assert not graph.has_edge(aug("S15(DC-)"), aug("S11(DC)"))
        assert not graph.has_edge(aug("S15(DC-)"), aug("S13(DC-)"))
        assert not graph.has_edge(aug("S02(EC)"), aug("S03(PO)"))

    def test_phase_is_respected_on_cross_edges(self, graph):
        assert not graph.has_edge(aug("S15(DC-)"), aug("S14(DC+)"))

    def test_rejects_incomplete_sets(self):
        full = set(augmented_set(1.0, 2.0))
        full.discard(aug("S15(NTPP)"))
        with pytest.raises(ValueError):
            motion_cng(full)

    def test_shortest_path_full_approach(self, graph):
        path = shortest_path(graph, aug("S15(NTPP)"), aug("S11(DC)"))
        assert path == [
            aug("S15(NTPP)"), aug("S14(TPP)"), aug("S13(PO)"),
            aug("S12(EC)"), aug("S11(DC)"),
        ]

    def test_shortest_path_avoidance_chain(self, graph):
        path = shortest_path(graph, aug("S15(DC-)"), aug("S11(DC)"))
        assert path == [
            aug("S15(DC-)"), aug("S14(DC-)"), aug("S13(DC-)"),
            aug("S12(DC-)"), aug("S11(DC)"),
        ]

    @pytest.mark.parametrize("rk, rl", [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5)])
    def test_equals_the_rules_over_story_chains(self, rk, rl):
        aug_set = augmented_set(rk, rl)
        assert motion_cng(aug_set) == _rule_graph(aug_set)

    def test_kicks_from_rest_at_dc_are_outside_the_graph(self, graph):
        # Rest at DC is S11(DC), the relation of the moving story S11 too; a
        # kick from rest crosses straight to S14(DC-), which is no neighbour.
        axis = _Axis(1.0, 2.0, DEFAULT_TOLERANCE)
        u, v = aug("S11(DC)"), aug("S14(DC-)")
        rest = np.array([[10.0], [1.0], [0.0], [0.0]])
        kicked = np.array([[10.0], [1.0], [-1.0], [0.0]])
        assert axis.labels(rest).tolist() == [axis.index[u]]
        assert axis.labels(kicked).tolist() == [axis.index[v]]
        assert _continuous_transitions(rest, kicked, axis.index[u], axis.index[v], axis).tolist() == [True]
        assert not graph.has_edge(u, v)

    def test_mirror_and_equal_configurations(self):
        g_gt = motion_cng(augmented_set(2.0, 1.0))
        assert len(g_gt.nodes) == 29 and len(g_gt.edges) == 60
        g_eq = motion_cng(augmented_set(1.0, 1.0))
        assert len(g_eq.nodes) == 19
        assert g_eq.has_edge(
            AugmentedRelation(StoryId.S15E, R.EQ, Phase.NONE),
            AugmentedRelation(StoryId.S0E, R.EQ, Phase.NONE),
        )


class TestValidation:
    @pytest.mark.parametrize("rk, rl", [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)])
    def test_graph_matches_perturbation_oracle(self, rk, rl):
        g = motion_cng(augmented_set(rk, rl))
        report = validate_motion_cng(g, rk, rl, n_pairs=25, n_trials=40)
        assert report.ok, (
            report.unwitnessed_edges,
            report.spurious_transitions,
        )

    @pytest.mark.parametrize("rk, rl", [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)])
    def test_every_trial_starts_in_its_relation(self, rk, rl):
        # Every non-edge is sampled; a trial drawn for u that classifies as a
        # neighbour of u tests nothing.
        g = motion_cng(augmented_set(rk, rl))
        n = len(g.nodes)
        non_edges = n * (n - 1) // 2 - len(g.edges)
        report = validate_motion_cng(g, rk, rl, n_pairs=non_edges, n_trials=20)
        assert len(report.trial_counts) == non_edges
        short = {pair: c for pair, c in report.trial_counts.items() if c.at_u != c.attempted}
        assert not short

    def test_missing_edge_is_reported_spurious(self):
        full = motion_cng(augmented_set(1.0, 2.0))
        removed = frozenset({aug("S12(DC-)"), aug("S11(DC)")})
        g = Cng(full.nodes, full.edges - {removed})
        report = validate_motion_cng(g, 1.0, 2.0, n_pairs=400, n_trials=400, seed=1)
        assert (aug("S11(DC)"), aug("S12(DC-)")) in report.spurious_transitions

    def test_extra_edge_is_reported_unwitnessed(self):
        full = motion_cng(augmented_set(1.0, 2.0))
        # A far jump between moving stories, two rigid relations that no
        # single kick joins, a corner pair whose rows both step and a pair
        # that crosses phase.
        for first, second in [
            ("S11(DC)", "S15(DC-)"),
            ("S04(TPP)", "S05(NTPP)"),
            ("S14(EC+)", "S15(PO+)"),
            ("S15(EC+)", "S15(PO-)"),
        ]:
            extra = frozenset({aug(first), aug(second)})
            g = Cng(full.nodes, full.edges | {extra})
            report = validate_motion_cng(g, 1.0, 2.0, n_pairs=0, n_trials=0)
            assert report.unwitnessed_edges == [(aug(first), aug(second))]

    @pytest.mark.parametrize(
        "rk, rl", [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (1.0, 1.0 + 5e-10), (1.0, 1.0 + 1e-6)]
    )
    def test_every_node_pair_gets_a_witness_or_a_reason(self, rk, rl):
        axis = _Axis(rk, rl, DEFAULT_TOLERANCE)
        nodes = sorted(augmented_set(rk, rl), key=str)
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                try:
                    columns = _edge_witness(a, b, axis)
                except ValueError:
                    continue
                assert len(columns) == 2, (a, b)
                for c in columns:
                    assert isinstance(c, np.ndarray) and c.shape == (4,), (a, b)
                    assert isinstance(_state(axis, c), UniformMotionState), (a, b)

    @pytest.mark.parametrize(
        "rk, rl",
        [
            (1.0, 1.0 + 1.2e-9), (1.0 + 1.2e-9, 1.0), (1.0, 1.0 + 2e-9),
            (1.0 + 2e-9, 1.0), (1.0, 1.0 + 2.5e-9), (1.0 + 2.5e-9, 1.0),
        ],
    )
    def test_rows_narrower_than_a_few_eps_are_witnessed(self, rk, rl):
        # The NTPP (or NTPPI) row is at most 1.5 eps wide: a pick at its span's
        # midpoint can fall in the TPP band, and one 3 eps below the TPP
        # threshold falls below 0.
        g = motion_cng(augmented_set(rk, rl))
        report = validate_motion_cng(g, rk, rl, n_pairs=25, n_trials=40)
        assert report.ok, (report.unwitnessed_edges, report.spurious_transitions)

    def test_radius_mismatch_raises(self):
        g = motion_cng(augmented_set(1.0, 2.0))
        with pytest.raises(ValueError):
            validate_motion_cng(g, 2.0, 1.0)

    def test_radii_too_large_to_place_give_a_report_without_warnings(self):
        # At these radii d * d overflows; the states too far to place are
        # rejected (code -1), not classified or warned about.
        rk, rl = 1e200, 3e200
        g = motion_cng(augmented_set(rk, rl))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_motion_cng(g, rk, rl, n_pairs=20, n_trials=50)
        assert not report.ok

    def test_incomplete_node_set_raises(self):
        # Every story of the radii still has nodes, but one relation is gone.
        full = motion_cng(augmented_set(1.0, 2.0))
        gone = aug("S15(NTPP)")
        g = Cng(full.nodes - {gone}, frozenset(e for e in full.edges if gone not in e))
        with pytest.raises(ValueError):
            validate_motion_cng(g, 1.0, 2.0, n_pairs=0, n_trials=0)


_RADII = [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (1.0, 1.0 + 5e-10), (1.0, 1.0 + 1e-6)]
_STEPS = np.arange(_PATH_SAMPLES + 1) / _PATH_SAMPLES


def _state(axis: _Axis, column: np.ndarray) -> UniformMotionState:
    """The scalar reference state of a batch column: disc k at rest at the origin."""
    dpx, dpy, dvx, dvy = column.tolist()
    k, l = Disc(Vec2(0.0, 0.0), axis.r_k), Disc(Vec2(dpx, dpy), axis.r_l)
    return UniformMotionState(k, Vec2(0.0, 0.0), l, Vec2(dvx, dvy))


def _path(cu: np.ndarray, cv: np.ndarray, s: float | np.ndarray) -> np.ndarray:
    """The batch of states at parameters s on the straight path between two
    batch columns, componentwise u + s (v - u), one path at a time."""
    return cu[:, None] + s * (cv - cu)[:, None]


def _lerp_state(u: UniformMotionState, v: UniformMotionState, s: float) -> UniformMotionState:
    """The reference path: each field mixed as a + s (b - a) in Python floats."""

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


def _edge_witness(
    a: AugmentedRelation, b: AugmentedRelation, axis: _Axis
) -> tuple[np.ndarray, np.ndarray]:
    """The validator's two witness columns of one edge, in (a, b) order: its
    batched `_witnesses` of the first touching cell pair that decodes to a
    and b.  Raises ValueError when no touching cells decode to them."""
    key = axis.index[a], axis.index[b]
    if key not in axis.touching:
        raise ValueError(f"no touching cells decode to {a} and {b}")
    cu, cv = _witnesses([axis.touching[key]], axis)
    return cu[:, 0], cv[:, 0]


def _trials_of(u: AugmentedRelation, axis: _Axis, rng: np.random.Generator, n: int):
    """The validator's batched `_draw_trials` of one relation: n start states
    and their kicked ends."""
    return _draw_trials(np.array([axis.index[u]]), axis, [rng], n)


class TestBatchedTrials:
    @settings(max_examples=300, deadline=None)
    @given(
        radii=st.sampled_from(_RADII[:4]),
        pick=st.integers(0, 28),
        seed=st.integers(0, 2**32 - 1),
        s=st.floats(0.0, 1.0),
    )
    def test_batch_classifier_equals_the_scalar_path(self, radii, pick, seed, s):
        # Rigid and band trials, their kicked ends, and grid and off-grid
        # points of the path between the two, through both classifiers.
        axis = _Axis(*radii, DEFAULT_TOLERANCE)
        nodes = sorted(augmented_set(*radii), key=str)
        u = nodes[pick % len(nodes)]
        start, end = _trials_of(u, axis, np.random.default_rng(seed), 6)
        lerped = _path(start[:, 0], end[:, 0], np.append(_STEPS, s))
        for batch in (start, end, lerped):
            want = [augmented_relation(_state(axis, c), axis.tol) for c in batch.T]
            assert [axis.relations[k] for k in axis.labels(batch)] == want

    @pytest.mark.parametrize("rk, rl", _RADII)
    def test_witness_grids_equal_the_scalar_path(self, rk, rl):
        axis = _Axis(rk, rl, DEFAULT_TOLERANCE)
        steps = _STEPS.tolist()
        nodes = sorted(augmented_set(rk, rl), key=str)
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                try:
                    cu, cv = _edge_witness(a, b, axis)
                except ValueError:
                    continue
                grid = [axis.relations[k] for k in axis.labels(_path(cu, cv, _STEPS))]
                su, sv = _state(axis, cu), _state(axis, cv)
                want = [augmented_relation(_lerp_state(su, sv, s), axis.tol) for s in steps]
                assert grid == want, (a, b)

    @pytest.mark.parametrize("rk, rl", _RADII)
    def test_every_edge_is_witnessed_in_both_directions(self, rk, rl):
        axis = _Axis(rk, rl, DEFAULT_TOLERANCE)
        edges = motion_cng(augmented_set(rk, rl)).edges
        pairs = [(x, y) for a, b in edges for x, y in ((a, b), (b, a))]
        cu, cv = (np.stack(c, axis=1) for c in zip(*(_edge_witness(x, y, axis) for x, y in pairs)))
        u, v = ([axis.index[x] for x in end] for end in zip(*pairs))
        witnessed = _continuous_transitions(cu, cv, u, v, axis)
        assert [(str(x), str(y)) for (x, y), ok in zip(pairs, witnessed) if not ok] == []

    @pytest.mark.parametrize("rk, rl", _RADII + [(1.0, 1.0 + 2e-9)])
    def test_every_touching_cell_pair_is_witnessed(self, rk, rl):
        # Every pair `touching_cells` yields, not only the first of each
        # edge, in both directions; and `_edge_witness` raises for exactly
        # the node pairs that are no edge.
        axis = _Axis(rk, rl, DEFAULT_TOLERANCE)
        config = radius_config(rk, rl)
        pairs = [p for x, y in touching_cells(config) for p in ((x, y), (y, x))]
        assert len(pairs) == 2 * {"lt": 88, "gt": 88, "eq": 54}[config]
        cu, cv = _witnesses(pairs, axis)
        u, v = ([axis.index[CELLS[config][c]] for c in end] for end in zip(*pairs))
        witnessed = _continuous_transitions(cu, cv, u, v, axis)
        assert [(x, y) for (x, y), ok in zip(pairs, witnessed) if not ok] == []

        g = motion_cng(augmented_set(rk, rl))
        raising = set()
        for a in g.nodes:
            for b in g.nodes - {a}:
                try:
                    _edge_witness(a, b, axis)
                except ValueError:
                    raising.add(frozenset((a, b)))
        n = len(g.nodes)
        assert len(raising) == n * (n - 1) // 2 - len(g.edges)
        assert not raising & g.edges

    @pytest.mark.parametrize("rule", ["crossed closing", "widened diagonal"])
    @pytest.mark.parametrize("rk, rl, extra", [(1.0, 2.0, 12), (2.0, 1.0, 12), (1.5, 1.5, 6)])
    def test_a_wrong_touching_rule_leaves_its_extra_edges_unwitnessed(
        self, monkeypatch, rule, rk, rl, extra
    ):
        # The graph and its check read one rule; the check still places its
        # own states, so edges a wrong rule adds find no witness.
        def crossed_closing(config):
            # A j-step off closest approach that also flips the phase.
            for x, (i, j, rigid, closing) in touching_cells(config):
                crossed = not rigid and x[0] == i != x[1] and x[1] + 1 == j
                yield x, (i, j, rigid, closing != crossed)

        def widened_diagonal(config):
            # Both rows step from every moving cell, not only at i == j.
            yield from touching_cells(config)
            for i, j, rigid, closing in CELLS[config]:
                if not rigid and i < j and (i + 1, j + 1, False, closing) in CELLS[config]:
                    yield (i, j, False, closing), (i + 1, j + 1, False, closing)

        full = motion_cng(augmented_set(rk, rl))
        wrong = {"crossed closing": crossed_closing, "widened diagonal": widened_diagonal}[rule]
        monkeypatch.setattr(motionstories.neighborhood, "touching_cells", wrong)
        monkeypatch.setattr(motionstories.validate, "touching_cells", wrong)
        monkeypatch.setattr(
            motionstories.validate, "_touching", motionstories.validate._touching.__wrapped__
        )
        g = motion_cng(augmented_set(rk, rl))
        added = g.edges - full.edges
        assert len(added) == extra
        report = validate_motion_cng(g, rk, rl, n_pairs=0, n_trials=0)
        assert {frozenset(e) for e in report.unwitnessed_edges} == added

    def test_trials_replay_from_the_seed_and_pair_index(self):
        g = motion_cng(augmented_set(1.0, 2.0))
        report = validate_motion_cng(g, 1.0, 2.0, n_pairs=5, n_trials=60, seed=7)
        nodes = sorted(g.nodes, key=str)
        non_edges = [
            (u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :] if not g.has_edge(u, v)
        ]
        axis = _Axis(1.0, 2.0, DEFAULT_TOLERANCE)
        assert len(report.trial_counts) == 5
        for (u, v), counts in report.trial_counts.items():
            rng = np.random.default_rng([7, non_edges.index((u, v))])
            pair = [(axis.index[u], axis.index[v])]
            assert _pair_trials(pair, axis, [rng], 60)[0] == [counts]
            assert counts.attempted == 60 and counts.attempted >= counts.at_u >= counts.to_v

    def test_trials_reach_the_removed_edge(self):
        # The power behind test_missing_edge_is_reported_spurious: about 0.57%
        # of the pair's trials cross from S11(DC) to S12(DC-) on a continuous
        # path, so 400 trials miss it about one time in ten, while 20 000
        # trials reach it about 115 times.
        axis = _Axis(1.0, 2.0, DEFAULT_TOLERANCE)
        u, v = aug("S11(DC)"), aug("S12(DC-)")
        pair = [(axis.index[u], axis.index[v])]
        [crossed] = _pair_trials(pair, axis, [np.random.default_rng(11)], 20_000)[1]
        assert crossed >= 40


# The five radius pairs above and two whose reports are not ok: (1e-9, 1),
# whose bands overlap, and (3e7, 1.1e8), where eps is below an ulp of the
# thresholds.
_SEVEN = _RADII + [(1e-9, 1.0), (3e7, 1.1e8)]


def _trial_states(
    aug: AugmentedRelation, axis: _Axis, rng: np.random.Generator, n: int
) -> np.ndarray:
    """A batch of n random states meant to classify `aug`, biased toward
    regime boundaries.  Each trial draws every coin and the numbers of both
    branches a coin picks between, so all trials draw alike.

    The validator's trial states as it drew them one relation and one coin at
    a time, before its draws became blocks and its trials one array pass:
    verbatim but for the configuration's rows and rigid stories, which are
    read from the tables here, and the row's span, from `_Axis.span`."""
    eps = axis.eps
    config = radius_config(axis.r_k, axis.r_l, axis.tol)
    row_of, rigid = ROW_OF[config], RIGID_STORIES[config]

    def coin(p: float = 0.5) -> np.ndarray:
        return rng.uniform(size=n) < p

    def draw(lo: float, hi: float) -> np.ndarray:
        return rng.uniform(lo, hi, n)

    j = row_of[aug.rel]
    if aug.story in rigid:
        jitter = np.where(coin(), 0.0, draw(-0.9, 0.9) * eps)
        return axis.comoving(np.maximum(0.0, axis.ax.pick(j) + jitter))

    i = row_of[aug.story]
    lo, hi = axis.span[:, i]
    if axis.ax.rows[i].band is not None:
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
    d_t = axis.ax.pick(j, h)
    d_t = np.where(pin, h, np.where(coin(0.3), np.maximum(h, d_t + draw(-0.9, 0.9) * eps), d_t))
    speed = draw(0.5, 2.0)
    recede = (aug.phase is Phase.PLUS) | ((aug.phase is Phase.NONE) & coin())
    return axis.moving(h, d_t, ~recede, speed)


def _one_pair_trials(u, v, axis, rng, n):
    """The trials of one sampled pair as the validator drew and classified
    them before pairs were batched, verbatim: start states (`_trial_states`),
    their kicked ends, the counts, and the trials from u to v in order."""
    start = _trial_states(u, axis, rng, n)
    kick = rng.normal(0.0, 3.0 * axis.eps, (n, 9)).T
    end = start + (kick[4:8] - kick[:4])  # disc l's kick minus disc k's
    end[:2] += end[2:] * kick[8]
    at_u = np.flatnonzero(axis.labels(start) == axis.index[u])
    to_v = at_u[axis.labels(end[:, at_u]) == axis.index[v]]
    return start, end, TrialCounts(n, len(at_u), len(to_v)), to_v


def _pair_by_pair_report(g: Cng, rk: float, rl: float, n_pairs: int, n_trials: int, seed: int):
    """The validator's report with its sampled pairs checked one at a time:
    the edges from the validator itself (no pairs), then the per-pair loop
    as it was before pairs were batched, verbatim."""
    report = validate_motion_cng(g, rk, rl, n_pairs=0, n_trials=n_trials, seed=seed)
    axis = _Axis(rk, rl, DEFAULT_TOLERANCE)
    rng = np.random.default_rng(seed)
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
        start, end, counts, to_v = _one_pair_trials(u, v, axis, rng_i, n_trials)
        report.trial_counts[u, v] = counts
        paths = start[:, to_v], end[:, to_v], axis.index[u], axis.index[v], axis
        if _continuous_transitions(*paths).any():
            report.spurious_transitions.append((u, v))
    return report


def _assert_same_report(g: Cng, rk: float, rl: float, **kwargs) -> None:
    report = validate_motion_cng(g, rk, rl, **kwargs)
    assert repr(report) == repr(_pair_by_pair_report(g, rk, rl, **kwargs))


class TestPairBatches:
    # Batching the sampled pairs' trials changes no report, byte for byte.

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("rk, rl", _SEVEN)
    def test_reports_equal_the_pair_by_pair_loop(self, rk, rl, seed):
        g = motion_cng(augmented_set(rk, rl))
        _assert_same_report(g, rk, rl, n_pairs=60, n_trials=80, seed=seed)

    @pytest.mark.parametrize("rk, rl", _SEVEN)
    def test_block_draws_equal_the_reference_bit_for_bit(self, rk, rl):
        # Every relation's trials in one batch, each from its own generator,
        # against the one-coin-at-a-time reference: starts and kicked ends.
        axis = _Axis(rk, rl, DEFAULT_TOLERANCE)
        nodes, n = sorted(augmented_set(rk, rl), key=str), 50
        us = np.array([axis.index[a] for a in nodes])
        rngs = [np.random.default_rng([9, k]) for k in range(len(nodes))]
        start, end = _draw_trials(us, axis, rngs, n)
        for k, a in enumerate(nodes):
            want = _one_pair_trials(a, a, axis, np.random.default_rng([9, k]), n)[:2]
            got = start[:, k * n : (k + 1) * n], end[:, k * n : (k + 1) * n]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], a

    @pytest.mark.parametrize(
        "n_trials", [1, 80, _BATCH_COLUMNS - 1, _BATCH_COLUMNS, _BATCH_COLUMNS + 1]
    )
    def test_batches_at_and_around_the_column_budget(self, n_trials):
        # One batch of all pairs, several batches with a partial last one,
        # and a single pair per batch at and above the budget.
        g = motion_cng(augmented_set(1.0, 2.0))
        _assert_same_report(g, 1.0, 2.0, n_pairs=30, n_trials=n_trials, seed=4)

    @pytest.mark.parametrize("n_pairs, n_trials", [(0, 80), (30, 0)])
    def test_empty_batches(self, n_pairs, n_trials):
        g = motion_cng(augmented_set(1.0, 2.0))
        report = validate_motion_cng(g, 1.0, 2.0, n_pairs=n_pairs, n_trials=n_trials, seed=3)
        assert len(report.trial_counts) == n_pairs
        _assert_same_report(g, 1.0, 2.0, n_pairs=n_pairs, n_trials=n_trials, seed=3)

    def test_spurious_transitions_equal_the_pair_by_pair_loop(self):
        full = motion_cng(augmented_set(1.0, 2.0))
        g = Cng(full.nodes, full.edges - {frozenset({aug("S12(DC-)"), aug("S11(DC)")})})
        kwargs = dict(n_pairs=400, n_trials=400, seed=1)
        assert validate_motion_cng(g, 1.0, 2.0, **kwargs).spurious_transitions
        _assert_same_report(g, 1.0, 2.0, **kwargs)


# The sha256 of repr(validate_motion_cng(motion_cng(augmented_set(rk, rl, tol)),
# rk, rl, tol, n_pairs=60, n_trials=80, seed=seed)), by (rk, rl, eps, seed),
# computed at commit 7f82f46, whose validator drew each trial's numbers one
# call at a time and built each witness and each pair's trials on its own.
_REPORT_DIGESTS = {
    (1.0, 2.0, 1e-9, 1): "5f2daa61775832b281636a2ee29b43ab80b1058a70b26b90d098199c61ad2011",
    (1.0, 2.0, 1e-9, 2): "a967903c43a28754b096a866345ee93cb9e730eaf45b8dd0c2f11c09ea5b885a",
    (1.0, 2.0, 1e-9, 3): "7159a502875ecb29a57118b8c0542fa452f9432b30a739eddf026af04dcd8f43",
    (2.0, 1.0, 1e-9, 1): "de6aa5e1ce32554509e5b432369eb3a840ce9f84198688e7b21f0c5c86b49ac3",
    (2.0, 1.0, 1e-9, 2): "caebc8537055fb030e92be3eb040f6dddcb58af1d1a90b24a437fc1e28941030",
    (2.0, 1.0, 1e-9, 3): "f055380a2f1e4b24b12b22e60ccfd1271bae860e3bd46aa6a4fa59b0352ef07f",
    (1.5, 1.5, 1e-9, 1): "bee6a0450c0437ddd01b5288902d0b236366c9c0fd5f4e5843347e9ea86f0420",
    (1.5, 1.5, 1e-9, 2): "2a477337d89cb28b5ff3337ec466dde0dd828e620943320e6dd25e29f1acdfaf",
    (1.5, 1.5, 1e-9, 3): "35c3e064b4a231d63b22ff262cf465d887b8f73f7c4c6308395b0e583807b688",
    (1.0, 1.0 + 2e-9, 1e-9, 1): "e0e9e93a49039cc69fb18a77be0178552fb0483f98aae4936a41ab7d63d797ba",
    (1e200, 3e200, 1e-9, 1): "d9b7b14d8c551becff251d03b7bfd92fefa081ad6d611856a72382e2e894e7bf",
    (1e-300, 3e-300, 1e-309, 1): "814d051fad5512bba1e5db2fcb9973b763a277ae8e6c8eb95e87d3cffefadfc5",
    # Bands that nearly touch, NTPP and NTPPI rows narrower than a few eps,
    # and tiny radii with eps scaled alike.
    (1.0, 1.0 + 5e-10, 1e-9, 1): "a3a8042b5ae94a291632689ec4917e04b5b6a532ebd71df971655078220faf37",
    (1.0, 1.0 + 1e-6, 1e-9, 1): "e80fdec5fc202c8a2492f849ed20c67324d755180cb1d2dc7ba8ab464439cf02",
    (1.0 + 2.5e-9, 1.0, 1e-9, 1): "454ef305854bbbfd8aea8e4325bfee19d037e3747399321507c73eb3dfa4e5c6",
    (1e-100, 3e-100, 1e-109, 1): "8e29ccec359c5588be261d663593a160f0000128655a355a9f4b790d247ae8fa",
}


@pytest.mark.parametrize("rk, rl, eps, seed", list(_REPORT_DIGESTS))
def test_reports_are_byte_identical_to_the_pinned_ones(rk, rl, eps, seed):
    # Also at radii whose reports are not ok: 1e200 overflows d * d and
    # 1e-300 makes the kick speeds' squares subnormal.
    tol = Tolerance(eps)
    report = validate_motion_cng(
        motion_cng(augmented_set(rk, rl, tol)), rk, rl, tol, n_pairs=60, n_trials=80, seed=seed
    )
    assert hashlib.sha256(repr(report).encode()).hexdigest() == _REPORT_DIGESTS[rk, rl, eps, seed]


def _floor_changes(classify, samples, rel_floor):
    """The validator's stop as a scalar reference: each label change bisected
    until its bracket is at most `rel_floor * max(1, |t0|, |t1|)` wide, both
    sides of a third label too, one (t, label) per change after the first
    sample."""
    out = [samples[0]]

    def bisect(t0, r0, t1, r1):
        if t1 - t0 <= rel_floor * max(1.0, abs(t0), abs(t1)):
            out.append((t1, r1))
            return
        tm = (t0 + t1) / 2.0
        rm = classify(tm)
        if rm != r0:
            bisect(t0, r0, tm, rm)
        if rm != r1:
            bisect(tm, rm, t1, r1)

    for (t0, r0), (t1, r1) in zip(samples, samples[1:]):
        if r1 != r0:
            bisect(t0, r0, t1, r1)
    return out


def _bisect_changes(classify, samples):
    """A label-only scalar reference: each label change bisected, earliest
    first, until its ends are adjacent floats (the midpoint rounds to one of
    them), yielding the later end; a third label met in between is bisected
    on both sides.  One (t, label) per change after the first sample."""
    out = [samples[0]]
    stack = [(t0, r0, t1, r1) for (t0, r0), (t1, r1) in zip(samples, samples[1:]) if r1 != r0]
    stack.reverse()
    while stack:
        t0, r0, t1, r1 = stack.pop()
        tm = (t0 + t1) / 2.0
        if tm == t0 or tm == t1:
            out.append((t1, r1))
            continue
        rm = classify(tm)
        if rm != r1:
            stack.append((tm, rm, t1, r1))
        if rm != r0:
            stack.append((t0, r0, tm, rm))
    return out


def _scalar_path(
    cu: np.ndarray, cv: np.ndarray, axis: _Axis
) -> tuple[list[tuple[float, AugmentedRelation]], Callable[[float], AugmentedRelation]]:
    """The grid of a path with the batch's labels, and the scalar
    `augmented_relation` of the state at any s on it."""
    labels = [axis.relations[k] for k in axis.labels(_path(cu, cv, _STEPS))]

    def cls(s: float) -> AugmentedRelation:
        return augmented_relation(_state(axis, _path(cu, cv, s)[:, 0]), axis.tol)

    return list(zip(_STEPS.tolist(), labels)), cls


def _one_transition(
    cu: np.ndarray, cv: np.ndarray, u: AugmentedRelation, v: AugmentedRelation, axis: _Axis
) -> bool:
    """The path check one path at a time: the grid classified as a batch,
    then every label change bisected to the validator's floor with the
    scalar `augmented_relation`."""
    grid, cls = _scalar_path(cu, cv, axis)
    labels = [c for _, c in grid]
    if labels[0] != u or labels[-1] != v or any(c not in (u, v) for c in labels):
        return False
    return all(c in (u, v) for _, c in _floor_changes(cls, grid, _BISECT_FLOOR))


class TestPathBisection:
    @pytest.mark.parametrize("rk, rl", _SEVEN)
    def test_edge_witnesses_equal_the_path_by_path_check(self, rk, rl):
        axis = _Axis(rk, rl, DEFAULT_TOLERANCE)
        paths = []
        for a, b in motion_cng(augmented_set(rk, rl)).edges:
            for x, y in ((a, b), (b, a)):
                try:
                    paths.append((x, y, *_edge_witness(x, y, axis)))
                except ValueError:
                    continue
        u, v, cu, cv = zip(*paths)
        got = _continuous_transitions(
            np.stack(cu, axis=1), np.stack(cv, axis=1),
            [axis.index[x] for x in u], [axis.index[y] for y in v], axis,
        )
        assert got.tolist() == [_one_transition(*p[2:], *p[:2], axis) for p in paths]
        # The two radius pairs whose reports are not ok reach the failing branches.
        assert got.all() == ((rk, rl) in _RADII)

    @pytest.mark.parametrize("rk, rl", _RADII)
    def test_edge_witnesses_meet_two_labels_at_float_resolution(self, rk, rl):
        # Each edge-witness path, bisected to adjacent floats of s with the
        # scalar classifier, meets only its two labels.  Paths from rest
        # pass through subnormal |dv|^2 near s = 5e-154, which is rigid.
        axis = _Axis(rk, rl, DEFAULT_TOLERANCE)
        checked = 0
        for a, b in motion_cng(augmented_set(rk, rl)).edges:
            for u, v in ((a, b), (b, a)):
                try:
                    cu, cv = _edge_witness(u, v, axis)
                except ValueError:
                    continue
                grid, cls = _scalar_path(cu, cv, axis)
                changes = _bisect_changes(cls, grid)
                assert [c for _, c in changes] == [u, v], (u, v, changes)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("rk, rl", _SEVEN)
    def test_trial_paths_equal_the_path_by_path_check(self, rk, rl):
        # 2 000 trial paths of random pairs, each checked from the relation
        # of its start to that of its end, and once more to a random one.
        axis = _Axis(rk, rl, DEFAULT_TOLERANCE)
        nodes = sorted(augmented_set(rk, rl), key=str)
        rng = np.random.default_rng(5)
        picks = rng.integers(0, len(nodes), (20, 2))[:, 0]
        us = np.array([axis.index[nodes[i]] for i in picks])
        rngs = [np.random.default_rng([5, k]) for k in range(len(picks))]
        start, end = _draw_trials(us, axis, rngs, 100)
        u = axis.labels(start)
        for v in (axis.labels(end), rng.integers(0, len(nodes), start.shape[1])):
            got = _continuous_transitions(start, end, u, v, axis)
            want = [
                _one_transition(start[:, k], end[:, k], axis.relations[u[k]], axis.relations[v[k]], axis)
                for k in range(start.shape[1])
            ]
            assert got.tolist() == want
            assert 0 < sum(want) < len(want)

    def test_a_rejected_state_holds_no_relation(self, monkeypatch):
        # A column whose |dv|^2 overflows: the scalar classifier rejects it
        # and the array one gives it -1, so it is no trial of its relation
        # and fails every path through it.
        axis = _Axis(1.0, 2.0, DEFAULT_TOLERANCE)
        a, b = aug("S11(DC)"), aug("S12(DC-)")
        fine = np.stack(_edge_witness(a, b, axis), axis=1)
        overflowing = fine.copy()
        overflowing[2] = 2e300
        with pytest.raises(ValueError):
            augmented_relation(_state(axis, overflowing[:, 0]), axis.tol)
        assert axis.labels(fine).tolist() == [axis.index[a], axis.index[b]]
        assert axis.labels(overflowing).tolist() == [-1, -1]

        starts = np.stack([fine[:, 0], overflowing[:, 0]], axis=1)
        monkeypatch.setattr(motionstories.validate, "_trial_starts", lambda *args: starts)
        pair = [(axis.index[a], axis.index[b])]
        [counts], _ = _pair_trials(pair, axis, [np.random.default_rng(0)], 2)
        assert counts.attempted == 2 and counts.at_u == 1

        ends = np.stack([fine[:, 1], overflowing[:, 1]], axis=1)
        paths = np.stack([fine[:, 0]] * 2, axis=1), ends
        u, v = axis.index[a], axis.index[b]
        assert _continuous_transitions(*paths, u, v, axis).tolist() == [True, False]
        # The path from the rejected state fails too.
        assert _continuous_transitions(overflowing, ends, u, v, axis).tolist() == [False, False]


_CONFIG_RADII = {"lt": (1.0, 2.0), "gt": (2.0, 1.0), "eq": (1.5, 1.5)}


def _exact_miss(dp: tuple[Fraction, Fraction], dv: tuple[Fraction, Fraction]) -> float:
    """The miss distance |dp x dv| / |dv| of exact relative motion, or |dp|
    when dv is 0, rounded once."""
    a = dv[0] ** 2 + dv[1] ** 2
    if a == 0:
        return math.sqrt(dp[0] ** 2 + dp[1] ** 2)
    return math.sqrt((dp[0] * dv[1] - dp[1] * dv[0]) ** 2 / a)


class TestBatchColumns:
    @settings(max_examples=300, deadline=None)
    @given(
        config=st.sampled_from(sorted(REGIMES)),
        h=st.floats(0.0, 10.0),
        excess=st.floats(0.0, 10.0),
        approach=st.booleans(),
        speed=st.floats(0.5, 2.0),
    )
    def test_moving_is_the_canonical_state(self, config, h, excess, approach, speed):
        radii = _CONFIG_RADII[config]
        assert radius_config(*radii) == config
        d = h + excess
        tta = math.sqrt(d - h) * math.sqrt(d + h) / speed
        want = canonical_state(*radii, h, tta if approach else -tta, speed)
        column = _Axis(*radii, DEFAULT_TOLERANCE).moving(h, d, approach, speed)
        assert column.tolist() == [want.dp.x, want.dp.y, want.dv.x, want.dv.y]

    @settings(max_examples=100, deadline=None)
    @given(config=st.sampled_from(sorted(REGIMES)), d=st.floats(0.0, 10.0))
    def test_comoving_is_the_rigid_state(self, config, d):
        radii = _CONFIG_RADII[config]
        want = rigid_state(*radii, d)
        column = _Axis(*radii, DEFAULT_TOLERANCE).comoving(d)
        assert column.tolist() == [want.dp.x, want.dp.y, want.dv.x, want.dv.y]

    def test_rigid_trial_paths_are_straight_in_relative_motion(self):
        # From a rigid start dv is eps-small along the whole path, so any
        # rounding in it tilts the line of motion; the miss distance must be
        # that of the exact straight path between the two ends' dp and dv.
        axis = _Axis(1.0, 2.0, DEFAULT_TOLERANCE)
        u = aug("S02(EC)")
        worst = 0.0
        for i in range(len(augmented_set(1.0, 2.0)) - 1):
            start, end = _trials_of(u, axis, np.random.default_rng([0, i]), 8)
            for k in range(start.shape[1]):
                su, sv = _state(axis, start[:, k]), _state(axis, end[:, k])
                ends = [tuple(map(Fraction, (e.dp.x, e.dp.y, e.dv.x, e.dv.y))) for e in (su, sv)]
                for s, column in zip(_STEPS.tolist(), _path(start[:, k], end[:, k], _STEPS).T):
                    f = Fraction(s)
                    x = [a + f * (b - a) for a, b in zip(*ends)]
                    miss = closest_approach_state(_state(axis, column))[1]
                    worst = max(worst, abs(miss - _exact_miss(x[:2], x[2:])))
        assert worst <= 2 * axis.eps, worst / axis.eps
