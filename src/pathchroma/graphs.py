"""Neighbourhood graphs, successor graphs, and the 16-class partition.

The neighbourhood graph on colour windows encodes one-round algorithms as
proper colourings, so its chromatic number yields round lower bounds.  The
worst-case successor graph takes the structural containments of the
speed-up's first two iterations with equality; any concrete algorithm's
second-level successor graph embeds into it, and its explicit 16-class
partition turns a 3-colouring algorithm into a 16-colouring one two rounds
faster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable

from .model import ReductionAlgorithm, canonical_label, window_graph
from .speedup import SpeedUpTower, iterate_speed_up

F = frozenset


@dataclass(frozen=True)
class UGraph:
    """Undirected simple graph with hashable vertex labels.

    Edges are stored as index pairs (i < j) into ``labels``; loops and
    duplicate labels are rejected at construction.
    """

    labels: tuple[Hashable, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate vertex labels")
        n = len(self.labels)
        for i, j in self.edges:
            if not (0 <= i < j < n):
                raise ValueError(f"bad edge ({i}, {j})")

    @classmethod
    def from_label_edges(
        cls, labels: Iterable[Hashable], label_edges: Iterable[tuple[Hashable, Hashable]]
    ) -> "UGraph":
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        edges = set()
        for a, b in label_edges:
            i, j = index[a], index[b]
            if i == j:
                raise ValueError(f"loop at {canonical_label(a)}")
            edges.add((min(i, j), max(i, j)))
        return cls(labels, frozenset(edges))

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.labels]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * len(self.labels)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def label_edges(self) -> frozenset[frozenset]:
        return frozenset(F({self.labels[i], self.labels[j]}) for i, j in self.edges)

    def is_subgraph_of(self, other: "UGraph") -> bool:
        """Label-respecting subgraph test: vertices and edges both contained."""
        theirs = set(other.labels)
        if not set(self.labels) <= theirs:
            return False
        return self.label_edges() <= other.label_edges()


def neighbourhood_graph(n: int, t: int = 1, *, all_distinct: bool = True) -> UGraph:
    """Graph on colour windows of length 2t+1 whose edges are one-step shifts.

    With ``all_distinct`` (the lower-bound construction) the windows carry
    pairwise-distinct colours; otherwise only adjacent entries must differ,
    which still supports subgraph-based lower bounds.
    """
    if all_distinct and n <= 2 * t:
        raise ValueError(f"need n > 2t = {2 * t} for pairwise-distinct windows")
    if n < 2:
        raise ValueError("need at least 2 colours")
    return UGraph(*window_graph(n, 2 * t + 1, all_distinct=all_distinct))


_BASE = (F({1}), F({2}), F({3}), F({1, 2}), F({1, 3}), F({2, 3}))
_PAIRS = (F({1, 2}), F({1, 3}), F({2, 3}))


def saturated_successors(x: frozenset[int]) -> frozenset[frozenset[int]]:
    """The level-1 successor sets taken with equality: everything the
    structural containments allow after a single singleton or pair colour."""
    if len(x) == 1:
        (i,) = x
        return F(y for y in _BASE if i not in y)
    return F(y for y in _BASE if not x <= y)


def worst_case_successor_graph() -> UGraph:
    """The 55-vertex graph bounding every second-level successor graph.

    Vertices are the non-empty families of level-1 colours that avoid
    holding all three two-element sets; X points at Y when some member y of
    X allows Y within its saturated successor set, and edges join the pairs
    related in either orientation.  Loop-freeness is asserted at build time.
    """
    vertices = []
    for r in range(1, len(_BASE) + 1):
        for combo in itertools.combinations(_BASE, r):
            family = F(combo)
            if not all(p in family for p in _PAIRS):
                vertices.append(family)
    succ = {x: saturated_successors(x) for x in _BASE}
    for family in vertices:
        assert not any(y in family and family <= succ[y] for y in family), "loop"

    def points_at(a: frozenset, b: frozenset) -> bool:
        return any(b <= succ[y] for y in a)

    edges = []
    for a, b in itertools.combinations(vertices, 2):
        if points_at(a, b) or points_at(b, a):
            edges.append((a, b))
    return UGraph.from_label_edges(vertices, edges)


def successor_graph_of(
    alg: ReductionAlgorithm, k: int, *, budget: int | None = None
) -> UGraph:
    """Successor graph of the k-th speed-up iterate: realized colours as
    vertices, symmetrised empirical successor pairs as edges."""
    return _successor_graph(iterate_speed_up(alg, k, budget=budget), k)


def _successor_graph(tower: SpeedUpTower, k: int) -> UGraph:
    """The successor graph of level k of a tower already built."""
    relation = tower.successor_relation(k)
    vertices = sorted(tower.colours(k), key=canonical_label)
    edges = {(a, b) for a, b in relation.pairs if a != b}
    assert relation.is_irreflexive()
    return UGraph.from_label_edges(vertices, edges)


@dataclass(frozen=True)
class ColourClassPartition:
    """Named vertex classes intended to partition a graph into independent sets."""

    classes: tuple[tuple[str, frozenset], ...]

    def as_colouring(self) -> dict:
        return {v: i for i, (_, members) in enumerate(self.classes, start=1) for v in members}

    def sizes(self) -> list[int]:
        return [len(members) for _, members in self.classes]


def explicit_sixteen_classes() -> ColourClassPartition:
    """The explicit 16 colour classes of the worst-case successor graph.

    Seven singleton classes hold the families of pure singletons; for each
    of the three rotations (i,j,k) of (1,2,3) there are interval classes
    anchored at the pairs {i,j},{i,k} (eight members), at {i,j} with {k}
    (four members), and at {i,j} alone (four members): 7 + 3*(8+4+4) = 55.
    """
    star = worst_case_successor_graph()
    vertices = set(star.labels)
    classes: list[tuple[str, frozenset]] = []
    for r in range(1, 4):
        for combo in itertools.combinations((1, 2, 3), r):
            family = F(F({x}) for x in combo)
            name = "X0(" + canonical_label(F(combo)) + ")"
            classes.append((name, F({family})))
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        ij, ik = F({i, j}), F({i, k})
        si, sj, sk = F({i}), F({j}), F({k})
        intervals = (
            ("X1", F({ij, ik}), F({ij, ik, si, sj, sk})),
            ("X2", F({ij, sk}), F({ij, si, sj, sk})),
            ("X3", F({ij}), F({ij, si, sj})),
        )
        for prefix, low, high in intervals:
            members = F(v for v in vertices if low <= v <= high)
            classes.append((f"{prefix}({i},{j},{k})", members))
    return ColourClassPartition(tuple(classes))


def verify_partition(graph: UGraph, partition: ColourClassPartition) -> bool:
    """True iff the classes cover every vertex exactly once and each class
    is an independent set of the graph."""
    seen: list = []
    for _, members in partition.classes:
        seen.extend(members)
    if len(seen) != len(set(seen)):
        return False
    if set(seen) != set(graph.labels):
        return False
    index = {lab: i for i, lab in enumerate(graph.labels)}
    for _, members in partition.classes:
        ids = sorted(index[v] for v in members)
        for a, b in itertools.combinations(ids, 2):
            if (a, b) in graph.edges:
                return False
    return True


def to_dimacs(graph: UGraph) -> str:
    """DIMACS .col text with vertex labels preserved in comment lines."""
    lines = [f"p edge {graph.vertex_count} {graph.edge_count}"]
    for i, label in enumerate(graph.labels, start=1):
        lines.append(f"c label {i} {canonical_label(label)}")
    for i, j in sorted(graph.edges):
        lines.append(f"e {i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> UGraph:
    """Parse DIMACS .col; labels come from ``c label`` comments when present."""
    n = None
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"bad problem line: {line!r}")
            n = int(parts[2])
        elif parts[0] == "e":
            if len(parts) < 3:
                raise ValueError(f"bad edge line: {line!r}")
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            if u == v:
                raise ValueError("loops are not allowed")
            edges.append((min(u, v), max(u, v)))
        elif parts[0] == "c" and len(parts) >= 3 and parts[1] == "label":
            labels[int(parts[2]) - 1] = " ".join(parts[3:])
    if n is None:
        raise ValueError("missing 'p edge' header")
    if any(not (0 <= u < n and 0 <= v < n) for u, v in edges):
        raise ValueError("edge endpoint outside vertex range")
    names = tuple(labels.get(i, str(i + 1)) for i in range(n))
    return UGraph(names, frozenset(edges))
