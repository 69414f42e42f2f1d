"""Exact k-colourability and chromatic numbers, with DIMACS CNF export.

Every colouring search in the package runs one saturation-first (DSATUR,
Brélaz 1979) backtracking kernel, ``_dsatur``.  It extends the uncoloured
vertex seeing the most distinct neighbour colours, then the highest degree,
and undoes its last choice when a vertex has no colour left.  The kernel
keeps the uncoloured vertices in one bucket per saturation and moves a
vertex between buckets where its forbidden colours change, so a pick scans
only the top bucket for the highest degree rather than every uncoloured
vertex (San Segundo 2012).

Without an RNG it is the complete search of :func:`k_colourable`: ties go
to the least index and colours are tried in ascending order, up to one
above the largest in use.  UNSAT answers certify graph-colouring lemmas, so
colour symmetry is broken only soundly, by that fresh-colour cap and a
precoloured greedy clique.  With k equal to the vertex count its first
descent never backtracks, and it is :func:`greedy_colouring`.

With an RNG it is the restart body of ``speedup.random_proper_table``: the
tied vertices, in ascending index order, and a shuffled order of all free
colours are drawn from the RNG, under a backtrack cap.  The ascending order
makes a seed fix the search on any interpreter, whatever order its sets
iterate in.  The fresh-colour cap is left out: a sampler needs no
symmetry breaking, and the cap would change the random stream that sampled
tables come from.

The graph type, :class:`UGraph`, lives here with the search.  Every layer
above builds graphs to colour: ``speedup`` its window graphs and successor
graphs, ``graphs`` N(n,1), S2* and DIMACS text.  Defining the type below
them all lets each of those import it without a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

from .errors import BudgetExceeded
from .model import canonical_label

if TYPE_CHECKING:
    import random

DEFAULT_NODE_LIMIT = 20_000_000


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

    def label_edges(self) -> frozenset[frozenset]:
        return frozenset(frozenset({self.labels[i], self.labels[j]}) for i, j in self.edges)

    def is_subgraph_of(self, other: "UGraph") -> bool:
        """Label-respecting subgraph test: vertices and edges both contained."""
        theirs = set(other.labels)
        if not set(self.labels) <= theirs:
            return False
        return self.label_edges() <= other.label_edges()


@dataclass(frozen=True)
class ColouringCertificate:
    """Outcome of a complete k-colourability search.

    ``assignment`` maps vertex labels to colours in [k] when satisfiable;
    ``nodes`` counts search nodes expanded, so UNSAT runs are auditable.
    """

    k: int
    satisfiable: bool
    assignment: dict | None
    nodes: int

    def to_text(self) -> str:
        if not self.satisfiable:
            return f"UNSAT nodes={self.nodes}\n"
        lines = [f"v {vertex} {colour}" for vertex, colour in self.assignment.items()]
        return "\n".join(lines) + "\n"


def _greedy_clique(adj: list[Sequence[int]]) -> list[int]:
    neighbours = [set(a) for a in adj]
    order = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    for v in order:
        if all(u in neighbours[v] for u in clique):
            clique.append(v)
    return clique


def _dsatur(
    adj: list[Sequence[int]],
    k: int,
    precolouring: dict[int, int] | None = None,
    *,
    rng: random.Random | None = None,
    node_limit: float = math.inf,
    max_backtracks: float = math.inf,
) -> tuple[list[int] | None, int]:
    """Search for a proper colouring in [k] (see the module docstring).

    ``precolouring`` fixes the colours of some vertices before the search.
    Returns (colour per vertex, search nodes), with None for the colouring
    once the search is exhausted or has backtracked more than
    ``max_backtracks`` times.  Raises :class:`BudgetExceeded` past
    ``node_limit`` nodes.
    """
    n = len(adj)
    degrees = [len(a) for a in adj]
    colour = [0] * n
    forbidden = [0] * n
    max_used = 0
    for v, c in (precolouring or {}).items():
        colour[v] = c
        bit = 1 << (c - 1)
        for u in adj[v]:
            forbidden[u] |= bit
        max_used = max(max_used, c)
    # Uncoloured vertices by saturation.  The vertex whose colours are being
    # tried is in no bucket until it runs out of them.  A saturation never
    # exceeds the degree, and top is at least every bucketed saturation.
    sat = [f.bit_count() for f in forbidden]
    buckets = [set() for _ in range(max(degrees, default=0) + 1)]
    for v in range(n):
        if not colour[v]:
            buckets[sat[v]].add(v)
    left = sum(map(len, buckets))
    top = len(buckets) - 1
    rank = [d * n + n - 1 - v for v, d in enumerate(degrees)]  # degree, then least index

    palette = range(1, k + 1)
    nodes = 0
    backtracks = 0
    frames: list[tuple] = []
    while left:
        while not buckets[top]:
            top -= 1
        bucket = buckets[top]
        v = max(bucket, key=rank.__getitem__)
        if rng is None:
            # a fresh colour beyond max_used + 1 is symmetric to max_used + 1
            options = ~forbidden[v] & ((1 << min(k, max_used + 1)) - 1)
        else:
            d = degrees[v]
            v = rng.choice(sorted(u for u in bucket if degrees[u] == d))
            options = [c for c in palette if not forbidden[v] >> (c - 1) & 1]
            rng.shuffle(options)
        bucket.remove(v)
        left -= 1

        while True:
            if options:
                nodes += 1
                if nodes > node_limit:
                    raise BudgetExceeded(f"node limit {node_limit} hit after {nodes - 1} nodes")
                if rng is None:
                    bit = options & -options
                    options ^= bit
                    c = bit.bit_length()
                else:
                    c = options.pop()
                    bit = 1 << (c - 1)
                colour[v] = c
                changed = []
                for u in adj[v]:
                    if colour[u] == 0 and not forbidden[u] & bit:
                        forbidden[u] |= bit
                        s = sat[u]
                        sat[u] = s + 1
                        buckets[s].remove(u)
                        buckets[s + 1].add(u)
                        changed.append(u)
                        if s == top:
                            top += 1
                frames.append((v, options, c, changed, max_used))
                max_used = max(max_used, c)
                break
            buckets[sat[v]].add(v)
            left += 1
            top = max(top, sat[v])
            backtracks += 1
            if backtracks > max_backtracks or not frames:
                return None, nodes
            v, options, c, changed, max_used = frames.pop()
            bit = 1 << (c - 1)
            for u in changed:
                forbidden[u] ^= bit
                s = sat[u]
                sat[u] = s - 1
                buckets[s].remove(u)
                buckets[s - 1].add(u)
            colour[v] = 0
    return colour, nodes


def greedy_colouring(graph: UGraph) -> tuple[dict, int]:
    """Saturation-first greedy colouring; returns (assignment, colours used)."""
    colour, _ = _dsatur(graph.adjacency(), graph.vertex_count)
    return dict(zip(graph.labels, colour)), max(colour, default=0)


def is_proper_colouring(graph: UGraph, assignment: dict) -> bool:
    labels = graph.labels
    return all(assignment[labels[i]] != assignment[labels[j]] for i, j in graph.edges)


def k_colourable(
    graph: UGraph, k: int, *, node_limit: int | None = None
) -> ColouringCertificate:
    """Complete search for a proper k-colouring.

    SAT certificates are verified before being returned; UNSAT is reported
    only once the (symmetry-reduced) search space is exhausted.  Raises
    :class:`BudgetExceeded` when the node limit is hit, which is an
    indeterminate outcome rather than UNSAT.
    """
    if k < 1:
        raise ValueError("k must be positive")
    node_limit = DEFAULT_NODE_LIMIT if node_limit is None else node_limit
    adj = graph.adjacency()
    # Precolouring a clique is sound up to permuting colours; if the clique
    # is larger than k the leftover members simply have empty domains.
    clique = _greedy_clique(adj)
    precolouring = {v: i for i, v in enumerate(clique[:k], start=1)}
    colour, nodes = _dsatur(adj, k, precolouring, node_limit=node_limit)
    if colour is None:
        return ColouringCertificate(k, False, None, nodes)
    assignment = dict(zip(graph.labels, colour))
    assert is_proper_colouring(graph, assignment)
    return ColouringCertificate(k, True, assignment, nodes)


def chromatic_number(graph: UGraph, *, node_limit: int | None = None) -> int:
    """Least k admitting a proper colouring, bracketed by clique and greedy bounds."""
    if graph.vertex_count == 0:
        return 0
    lower = max(1, len(_greedy_clique(graph.adjacency())))
    _, upper = greedy_colouring(graph)
    for k in range(lower, upper):
        if k_colourable(graph, k, node_limit=node_limit).satisfiable:
            return k
    return upper


def export_cnf(graph: UGraph, k: int) -> str:
    """Direct CNF encoding of k-colourability in DIMACS format.

    One variable per vertex/colour, an at-least-one clause per vertex, and
    a binary conflict clause per edge and colour.  No at-most-one clauses:
    any model projects to a colouring by taking each vertex's least true
    colour.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = graph.vertex_count
    clauses: list[str] = []
    for v in range(n):
        clauses.append(" ".join(str(v * k + c + 1) for c in range(k)) + " 0")
    for i, j in sorted(graph.edges):
        for c in range(k):
            clauses.append(f"-{i * k + c + 1} -{j * k + c + 1} 0")
    header = f"p cnf {n * k} {len(clauses)}"
    comments = [f"c vertex v colour c -> variable (v-1)*{k} + c, 1-based"]
    return "\n".join(comments + [header] + clauses) + "\n"
