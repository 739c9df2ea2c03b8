"""Conceptual neighborhood graphs over relation alphabets.

Includes the disc-relation graph, the motion-relation graph drawn from the
touching cells of the classifier's state code (`stories.CELLS`), BFS
shortest paths for trajectory control and DOT/JSON export.  The touching
cells are decoded once per configuration (`motion_edges`), for the motion
graph and for `motionstories.validate`, which witnesses each edge from them.
"""

from __future__ import annotations

import functools
import re
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from .stories import (
    CELLS, RELATIONS, RIGID_STORIES, AugmentedRelation, RccRelation, relation_config
)

_R = RccRelation

DEFAULT_RCC_EDGES: frozenset[frozenset[RccRelation]] = frozenset(
    frozenset(pair)
    for pair in [
        (_R.DC, _R.EC),
        (_R.EC, _R.PO),
        (_R.PO, _R.TPP),
        (_R.PO, _R.TPPI),
        (_R.PO, _R.EQ),
        (_R.TPP, _R.NTPP),
        (_R.TPPI, _R.NTPPI),
        (_R.TPP, _R.EQ),
        (_R.TPPI, _R.EQ),
    ]
)


@dataclass(frozen=True)
class Cng:
    """Undirected graph whose edges link relations reachable by continuous motion."""

    nodes: frozenset
    edges: frozenset[frozenset]

    def __post_init__(self) -> None:
        for edge in self.edges:
            if len(edge) != 2:
                raise ValueError("edges must join two distinct nodes (no self-loops)")
            if not edge <= self.nodes:
                raise ValueError(f"edge {set(edge)} references unknown nodes")

    def neighbors(self, label: Hashable) -> set:
        if label not in self.nodes:
            raise KeyError(f"unknown label {str(label)!r}")
        return {next(iter(e - {label})) for e in self.edges if label in e}

    def has_edge(self, a: Hashable, b: Hashable) -> bool:
        return frozenset((a, b)) in self.edges


def rcc_cng() -> Cng:
    """The disc-relation neighborhood graph."""
    return Cng(nodes=frozenset(RccRelation), edges=DEFAULT_RCC_EDGES)


Cell = tuple[int, int, bool, bool]  # a key of `stories.CELLS[config]`


def touching_cells(config: str) -> Iterator[tuple[Cell, Cell]]:
    """Each pair of touching cells (i, j, rigid, closing) of `CELLS[config]`,
    the one rule the motion graph and its check read.  Two moving cells touch
    when they close in alike and one of their rows, i at closest approach and
    j now, steps to the next row; or when both step and both cells sit at
    closest approach (i == j).  A rigid cell touches every moving cell with
    its j, unless its relation is a moving one too: rest at DC is S11(DC),
    and kicks from rest at DC are outside the graph."""
    cells, rest = CELLS[config], RIGID_STORIES[config]
    for cell, a in cells.items():
        i, j, rigid, closing = cell
        if rigid:
            near = [c for c in cells if c[1] == j and not c[2]] if a.story in rest else []
        else:
            near = [(i + 1, j, False, closing), (i, j + 1, False, closing)]
            near += [(i + 1, j + 1, False, closing)] * (i == j)
        yield from ((cell, c) for c in near if c in cells)


@functools.cache
def motion_edges(config: str) -> dict[tuple[int, int], tuple[Cell, Cell]]:
    """The edges of the configuration's motion graph, each keyed by the codes
    of its ends (indices into `RELATIONS[config]`) both ways round, mapped to
    the first touching cell pair (`touching_cells`) that decodes to them, in
    the key's order.  Cached: callers share one table and must not change it."""
    code = {a: k for k, a in enumerate(RELATIONS[config])}
    cells, pairs = {cell: code[a] for cell, a in CELLS[config].items()}, {}
    for x, y in touching_cells(config):
        pairs.setdefault((cells[x], cells[y]), (x, y))
        pairs.setdefault((cells[y], cells[x]), (y, x))
    return pairs


def motion_cng(aug: Iterable[AugmentedRelation]) -> Cng:
    """Neighborhood graph of the motion relations: two relations are
    neighbours when touching cells of the state code decode to them
    (`motion_edges`)."""
    nodes = frozenset(aug)
    config = relation_config(nodes)
    relations = RELATIONS[config]
    edges = frozenset(frozenset((relations[a], relations[b])) for a, b in motion_edges(config))
    return Cng(nodes=nodes, edges=edges)


def shortest_path(g: Cng, start: Hashable, goal: Hashable) -> list | None:
    """Minimum-hop path, ties broken lexicographically on serialized labels."""
    if start not in g.nodes:
        raise KeyError(f"unknown label {str(start)!r}")
    if goal not in g.nodes:
        raise KeyError(f"unknown label {str(goal)!r}")
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        node = queue.popleft()
        for nb in g.neighbors(node):
            if nb not in dist:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    if start not in dist:
        return None
    path = [start]
    node = start
    while node != goal:
        node = min(
            (nb for nb in g.neighbors(node) if dist.get(nb) == dist[node] - 1),
            key=str,
        )
        path.append(node)
    return path


def _dot_id(label: Hashable) -> str:
    text = str(label)
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text):
        return text
    return '"' + text.replace('"', '\\"') + '"'


def _sorted_edges(g: Cng) -> list[tuple[str, str]]:
    return sorted(tuple(sorted(map(str, e))) for e in g.edges)


def to_dot(g: Cng) -> str:
    """Graphviz rendering; byte-identical across calls for the same graph."""
    lines = ["graph cng {"]
    linked = {str(n) for e in g.edges for n in e}
    by_name = {str(n): n for n in g.nodes}
    for name in sorted(by_name):
        if name not in linked:
            lines.append(f"  {_dot_id(by_name[name])};")
    for a, b in _sorted_edges(g):
        lines.append(f"  {_dot_id(by_name[a])} -- {_dot_id(by_name[b])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_adjacency(g: Cng) -> dict:
    return {
        "nodes": sorted(str(n) for n in g.nodes),
        "edges": [list(e) for e in _sorted_edges(g)],
    }
