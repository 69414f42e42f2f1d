"""Neighbourhood graphs, successor graphs, and the 16-class partition.

The neighbourhood graph on colour windows encodes one-round algorithms as
proper colourings, so its chromatic number yields round lower bounds.  The
worst-case successor graph S2* = δ_R(δ_R(K3)) takes the speed-up's
containments with equality twice (δ_R, the saturated speed-up, is the
arc-graph right adjoint); any concrete algorithm's second-level successor
graph embeds into it, and its explicit 16-class partition turns a
3-colouring algorithm into a 16-colouring one two rounds faster.

The graphs are :class:`UGraph` values, labels plus one neighbour mask per
vertex, the type defined in ``chroma`` with the search that colours them
and imported here.  Window graphs take their masks from
``model.window_masks``, the package's one window-graph builder; S2* and
DIMACS input OR theirs from edge lists.  ``speedup`` builds successor
graphs of that type too, and it sits below this module, so the type
cannot live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping

from .chroma import UGraph, is_proper_colouring
from .errors import BudgetExceeded
from .model import (
    DEFAULT_BUDGET,
    ReductionAlgorithm,
    canonical_label,
    count_proper_sequences,
    proper_sequences,
    window_masks,
)
from .speedup import iterate_speed_up

F = frozenset


def neighbourhood_graph(
    n: int, t: int = 1, *, all_distinct: bool = True, budget: int | None = None
) -> UGraph:
    """Graph on colour windows of length 2t+1 whose edges are one-step shifts.

    With ``all_distinct`` (the lower-bound construction) the windows carry
    pairwise-distinct colours; otherwise only adjacent entries must differ,
    which still supports subgraph-based lower bounds.  Raises
    :class:`BudgetExceeded` before any window is enumerated when the
    adjacent-distinct windows of length 2t+1 number more than ``budget``
    (default ``DEFAULT_BUDGET``).

    The vertex order is chosen here, the nested order: by largest colour,
    then lexicographically.  ``window_masks`` builds the neighbour masks
    straight in it, from the rank blocks of the chosen ranks.  The first
    ``neighbourhood_graph(n - 1, t)`` vertices of this graph are then
    exactly that graph, with the same edges.  The search breaks its
    saturation and degree ties by least index, so its ties fall inside the
    smallest palette, and it meets a small non-colourable core (A(5) =
    W(5,3), the paper's N(7,1)) before it spreads over the larger palette:
    refuting N(9,1) with 3 colours takes 4,905 nodes where the
    lexicographic order took 17,554, and A(10) 1,364 where it took 14,525.
    The order costs where no smaller palette is non-colourable: on W(7,2)
    with 4 colours it took 24,000 nodes against 5,999.  That graph has
    windows of length 2, which this function never builds.
    """
    if all_distinct and n <= 2 * t:
        raise ValueError(f"need n > 2t = {2 * t} for pairwise-distinct windows")
    if n < 2:
        raise ValueError("need at least 2 colours")
    budget = DEFAULT_BUDGET if budget is None else budget
    length = 2 * t + 1
    count = count_proper_sequences(n, length)
    if count > budget:
        raise BudgetExceeded(f"{count} windows exceed budget {budget}")
    windows = tuple(proper_sequences(n, length))
    ranks = range(count)
    if all_distinct:
        ranks = itertools.compress(ranks, (len(set(w)) == length for w in windows))
    # sorted is stable, so windows with one largest colour stay lexicographic
    ranks = sorted(ranks, key=list(map(max, windows)).__getitem__)
    return UGraph(tuple(map(windows.__getitem__, ranks)), window_masks(n, length, ranks))


def _delta_r(out: Mapping[Hashable, frozenset]) -> dict[frozenset, frozenset[frozenset]]:
    """δ_R of a digraph given as vertex -> out-neighbours, returned in the same form.

    Vertices are the non-empty subsets of out-neighbourhoods (exactly the
    vertex sets with an in-arc), by size, then by their members' positions
    in ``out``.  X points at Y iff Y lies within N+(a) for some a in X.
    """
    order = tuple(out)
    position = {v: i for i, v in enumerate(order)}
    keys = set()
    for succ in out.values():
        members = sorted(position[v] for v in succ)
        for r in range(1, len(members) + 1):
            keys.update(itertools.combinations(members, r))
    vertices = [F(order[i] for i in key) for key in sorted(keys, key=lambda key: (len(key), key))]
    below = {a: F(y for y in vertices if y <= succ) for a, succ in out.items()}
    return {x: F().union(*(below[a] for a in x)) for x in vertices}


def worst_case_successor_graph() -> UGraph:
    """The 55-vertex graph S2* bounding every second-level successor graph.

    S2* is δ_R(δ_R(K3)) with arcs as edges.  δ_R(K3) is S1* on the six
    non-empty proper subsets of {1,2,3}; S2*'s vertices are the families of
    those that do not hold all three two-element sets.
    """
    k3 = {i: F({1, 2, 3} - {i}) for i in (1, 2, 3)}
    s2 = _delta_r(_delta_r(k3))
    return UGraph.from_label_edges(s2, ((x, y) for x, ys in s2.items() for y in ys))


def successor_graph_of(
    alg: ReductionAlgorithm, k: int, *, budget: int | None = None
) -> UGraph:
    """Successor graph of the k-th speed-up iterate: realized colours as
    vertices, symmetrised empirical successor pairs as edges."""
    return iterate_speed_up(alg, k, budget=budget).successor_graph(k)


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
    seen = [v for _, members in partition.classes for v in members]
    if len(seen) != len(set(seen)):
        return False
    if set(seen) != set(graph.labels):
        return False
    return is_proper_colouring(graph, partition.as_colouring())


def to_dimacs(graph: UGraph) -> str:
    """DIMACS .col text with vertex labels preserved in comment lines."""
    lines = [f"p edge {graph.vertex_count} {graph.edge_count}"]
    for i, label in enumerate(graph.labels, start=1):
        lines.append(f"c label {i} {canonical_label(label)}")
    for i, j in sorted(graph.edges):
        lines.append(f"e {i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str, *, budget: int | None = None) -> UGraph:
    """Parse DIMACS .col; labels come from ``c label`` comments when present.

    A second label for one vertex and a label for a vertex outside 1..n are
    errors.  The edge count on the ``p`` line is not checked: files in the
    wild often count each edge twice.  Raises :class:`BudgetExceeded` as
    soon as the ``p`` line claims more than ``budget`` vertices (default
    ``DEFAULT_BUDGET``), before any vertex is built.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
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
            if n is not None:
                raise ValueError(f"second problem line: {line!r}")
            n = int(parts[2])
            if n < 0:
                raise ValueError(f"negative vertex count: {line!r}")
            if n > budget:
                raise BudgetExceeded(f"{n} vertices exceed budget {budget}")
        elif parts[0] == "e":
            if len(parts) < 3:
                raise ValueError(f"bad edge line: {line!r}")
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            if u == v:
                raise ValueError("loops are not allowed")
            edges.append((u, v))
        elif parts[0] == "c" and len(parts) >= 3 and parts[1] == "label":
            vertex = int(parts[2]) - 1
            if vertex in labels:
                raise ValueError(f"second label for vertex {vertex + 1}: {line!r}")
            labels[vertex] = " ".join(parts[3:])
    if n is None:
        raise ValueError("missing 'p edge' header")
    if any(not (0 <= u < n and 0 <= v < n) for u, v in edges):
        raise ValueError("edge endpoint outside vertex range")
    if any(not 0 <= vertex < n for vertex in labels):
        raise ValueError("label for a vertex outside the vertex range")
    names = tuple(labels.get(i, str(i + 1)) for i in range(n))
    return UGraph.from_edges(names, edges)
