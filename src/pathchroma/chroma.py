"""Exact k-colourability and chromatic numbers, with DIMACS CNF export.

Every colouring search in the package runs one saturation-first (DSATUR,
Brélaz 1979) backtracking kernel, ``_dsatur``.  It extends the uncoloured
vertex seeing the most distinct neighbour colours, then the highest degree,
and undoes its last choice when a vertex has no colour left.  The kernel
works on int bitsets, after San Segundo's bitboard search (BBMC, 2011).
Each vertex has one bit position, in pick order: by degree, then by least
index.  Those positions and each vertex's neighbours as one int are the
graph's bit layout, built once per graph: the sampler's restarts and its
complete search share one, and the precoloured clique of
:func:`k_colourable` is read off it.  ``_bit_layout`` builds it from any
graph's adjacency lists.  The sampler's graph, the window graph W(n, L) in
lexicographic rank order, is laid out by ``_window_layout`` straight from
the window ranks, with no edge set or adjacency lists: a window's
neighbours are one block of ranks that share its suffix and one set that
its siblings share, and its degree follows from whether it alternates.

A few ints hold the search state: the uncoloured set, one set per colour of
the vertices that colour is forbidden to, and the saturation as a
bit-sliced counter.  A pick masks the uncoloured set by the counter's
planes from the top down and takes the highest set bit.  Colouring v with c
adds ``nbr[v] & free & ~forb[c]`` to ``forb[c]`` and ripples it through the
planes as a carry; a frame keeps that one int and v's position, and undo is
an XOR and a borrow ripple.  So the int operations per search node depend
on k, not on how many neighbours the vertex has.

Without an RNG it is the complete search of :func:`k_colourable`: ties go
to the least index and colours are tried in ascending order, up to one
above the largest in use, each found by a scan upward from the last one
tried when the search comes back to the vertex.  UNSAT answers certify
graph-colouring lemmas, so colour symmetry is broken only soundly, by that
fresh-colour cap and a precoloured greedy clique.  With k equal to the
vertex count its first descent never backtracks: it is the greedy
colouring behind the upper bound of :func:`chromatic_number`.

With an RNG it is the restart body of ``speedup.random_proper_table``: the
tied vertices, in ascending index order, and a shuffled order of all free
colours are drawn from the RNG, under a backtrack cap.  The ties are the top
candidates of the best pick's degree class, a run of adjacent bit
positions; the RNG draws an index into them, so a seed fixes the search on
any interpreter.  The draws are ``rng.choice`` and ``rng.shuffle``'s own,
made inline from ``getrandbits``.  The fresh-colour cap is left out: a
sampler needs no symmetry breaking, and the cap would change the random
stream that sampled tables come from.

The graph type, :class:`UGraph`, lives here with the search.  Every layer
above builds graphs to colour: ``speedup`` its successor graphs,
``graphs`` N(n,1), S2* and DIMACS text.  Defining the type below
them all lets each of those import it without a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import lshift, or_
from typing import TYPE_CHECKING, Hashable, Iterable, NamedTuple, Sequence

from .errors import BudgetExceeded
from .model import _suffix_ranks, canonical_label, count_proper_sequences

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


class _BitLayout(NamedTuple):
    """The per-graph part of the search: each vertex as one bit position.

    Positions are in pick order: by degree, then by descending index, so a
    set's highest bit is its best pick.
    """

    order: list[int]  # order[p]: the vertex at position p
    position: list[int]  # position[v]: the position of vertex v
    nbr: list[int]  # nbr[p]: the positions of p's neighbours, as one int
    class_low: list[int]  # class_low[p]: the lowest position of p's degree class
    max_degree: int


def _bit_layout(adj: list[Sequence[int]]) -> _BitLayout:
    """Lay out a graph, given as adjacency lists, for :func:`_dsatur`."""
    n = len(adj)
    degrees = [len(a) for a in adj]
    order = sorted(range(n - 1, -1, -1), key=degrees.__getitem__)  # stable: ties by -index
    position = [0] * n
    for p, v in enumerate(order):
        position[v] = p
    nbr = []
    for v in order:
        mask = 0
        for u in adj[v]:
            mask |= 1 << position[u]
        nbr.append(mask)
    class_low = list(range(n))
    for p in range(1, n):
        if degrees[order[p]] == degrees[order[p - 1]]:
            class_low[p] = class_low[p - 1]
    return _BitLayout(order, position, nbr, class_low, max(degrees, default=0))


def _window_layout(n: int, length: int) -> _BitLayout:
    """The layout of W(n, length), the window graph in lexicographic rank order.

    It equals ``_bit_layout`` of the adjacency of the edges
    ``model.window_edges(n, length, range(count))``, but is worked out from
    the rank blocks, without an edge set or adjacency lists.  With
    m = n - 1, the out-neighbours of rank r are the m ranks from
    suffix[r] * m, one block shared by every window with that suffix; its
    in-neighbours are the m windows whose suffix rank is r // m, one set
    shared by r's m siblings.  So all the block masks cost one OR per window,
    and each window's mask is one OR of its two blocks.  Every window has
    degree 2m but the n * m alternating ones (a, b, a, ...), whose 2-cycle
    makes one in-neighbour an out-neighbour too: they form the lower degree
    class, so the pick order needs no degree count.
    """
    count = count_proper_sequences(n, length)
    if length < 2 or n < 2:  # K_count: every two windows of one colour are a shift apart
        order = list(range(count - 1, -1, -1))
        everyone = (1 << count) - 1
        nbr = [everyone ^ 1 << p for p in range(count)]
        return _BitLayout(order, order.copy(), nbr, [0] * count, max(count - 1, 0))
    m = n - 1
    alternating = []  # their ranks, ascending: the digits of (a, b), then repeated
    for a in range(n):
        for d in range(m):
            digits = (a - (a > d), d)  # the digit of a after b, and of b after a
            rank = a
            for i in range(length - 1):
                rank = rank * m + digits[i % 2 == 0]
            alternating.append(rank)
    # Pick order, as _bit_layout sorts it: the alternating windows, then the
    # others, each by descending rank.  So the j-th alternating rank from the
    # bottom sits at lows - 1 - j, and any other rank r with j alternating
    # ranks below it at count - 1 - r + j.
    lows = len(alternating)
    position = []
    for j, (low, high) in enumerate(zip([-1, *alternating], [*alternating, count])):
        position += range(count - 2 - low + j, count - 1 - high + j, -1)
        position.append(lows - 1 - j)
    del position[-1]  # the one for the end, count, which is no rank
    order = sorted(range(count), key=position.__getitem__)

    bits = list(map(lshift, repeat(1), position))  # by rank
    out = bits[::m]  # out[s]: the ranks s * m .. s * m + m - 1, the windows with prefix s
    for d in range(1, m):
        out = list(map(or_, out, bits[d::m]))
    # into[q]: the windows whose suffix has rank q.  Those of first colour z
    # list, in rank order, the suffixes of every other first colour, so they
    # fill into[:cut] and into[cut + per:] in one pass each.
    block = count // n  # windows per first colour
    per = block // m  # suffixes per first colour
    into = [0] * (count // m)
    for z in range(n):
        cut, first = z * per, z * block
        into[:cut] = map(or_, into[:cut], bits[first : first + cut])
        into[cut + per :] = map(or_, into[cut + per :], bits[first + cut : first + block])
    suffix = _suffix_ranks(n, length)
    siblings = chain.from_iterable(map(repeat, into, repeat(m)))  # into[r // m], by rank
    nbr = list(map(or_, map(out.__getitem__, suffix), siblings))
    class_low = [0] * lows + [lows] * (count - lows)
    max_degree = 2 * m - (lows == count)
    return _BitLayout(order, position, list(map(nbr.__getitem__, order)), class_low, max_degree)


def _clique(layout: _BitLayout) -> list[int]:
    """A greedy clique: vertices by degree, then index, each joined to all before it.

    The candidates are the vertices joined to every member so far, and the
    next member is their best pick, the highest set bit.
    """
    order, nbr = layout.order, layout.nbr
    clique = []
    candidates = (1 << len(order)) - 1
    while candidates:
        p = candidates.bit_length() - 1
        clique.append(order[p])
        candidates &= nbr[p]
    return clique


def _nth_highest_bit(bits: int, i: int, count: int) -> int:
    """Position of the set bit of ``bits`` that has ``i`` set bits above it.

    ``count`` is ``bits.bit_count()``, which the caller has.  Within 12 set
    bits of either end it strips the set bits from that end, one int
    operation each; the sampler's calls mostly land there.  Else it halves
    the int, keeps the half that holds the wanted bit and tries again, so
    each step works on half the int the step before it did.
    """
    shift = 0
    while True:
        below = count - 1 - i
        if i <= min(below, 12):
            for _ in range(i):
                bits ^= 1 << bits.bit_length() - 1
            return shift + bits.bit_length() - 1
        if below <= 12:
            for _ in range(below):
                bits &= bits - 1
            return shift + (bits & -bits).bit_length() - 1
        half = bits.bit_length() >> 1
        upper = bits >> half
        above = upper.bit_count()
        if above > i:
            bits, count, shift = upper, above, shift + half
        else:
            bits ^= upper << half
            count -= above
            i -= above


def _dsatur(
    layout: _BitLayout,
    k: int,
    precolouring: dict[int, int] | None = None,
    *,
    rng: random.Random | None = None,
    node_limit: float = math.inf,
    max_backtracks: float = math.inf,
) -> tuple[list[int] | None, int]:
    """Search a laid-out graph for a proper colouring in [k] (see the module docstring).

    ``layout`` comes from :func:`_bit_layout`; a caller that searches one
    graph several times lays it out once.  ``precolouring`` fixes the
    colours of some vertices before the search.  Returns (colour per
    vertex, search nodes), with None for the colouring once the search is
    exhausted or has backtracked more than ``max_backtracks`` times.
    Raises :class:`BudgetExceeded` past ``node_limit`` nodes.

    Without an RNG a vertex's colours are scanned upward, one per try, up
    to a cap of one above the largest in use; a frame keeps the last colour
    tried and the cap.  With an RNG the free colours are listed and
    shuffled.  Its draws come from ``rng.getrandbits`` as ``rng.choice``
    and ``rng.shuffle`` make them, call for call (``Random._randbelow``'s
    rejection loop), as ``model._random_walk`` draws ``randint``.
    """
    precolouring = precolouring or {}
    order, position, nbr, class_low, max_degree = layout
    n = len(order)
    free = (1 << n) - 1  # uncoloured, less the vertex whose colours are being tried
    forb = [0] * (k + 1)  # forb[c]: vertices with a neighbour coloured c (kept on free ones)
    max_used = 0
    for v, c in precolouring.items():
        free ^= 1 << position[v]
        forb[c] |= nbr[position[v]]
        max_used = max(max_used, c)
    # Saturation, bit-sliced and most significant plane first: bit p of
    # planes[-1 - j] is bit j of p's count of forbidden colours.  Counts
    # change by rippling a carry (or borrow) set up from planes[-1], and
    # never exceed k or the degree.
    planes = [0] * min(k, max_degree).bit_length()
    for carry in forb:
        j = -1
        while carry:
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j -= 1

    if rng is not None:
        getrandbits = rng.getrandbits
        palette = range(1, k + 1)
    nodes = 0
    backtracks = 0
    frames: list[tuple] = []
    while free:
        top = free  # narrowed plane by plane to the largest saturation
        for plane in planes:
            higher = top & plane
            if higher:
                top = higher
        p = top.bit_length() - 1
        if rng is None:
            bit = 1 << p
            # rest: the cap; a fresh colour beyond max_used + 1 is symmetric to max_used + 1
            c, rest = 0, max_used + 1 if max_used < k else k
        else:
            low = class_low[p]
            ties = top >> low  # the top candidates of p's degree class, by descending index
            m = ties.bit_count()
            width = m.bit_length()  # r = rng.choice(range(m)):
            r = getrandbits(width)
            while r >= m:
                r = getrandbits(width)
            if r:  # else the pick is p, the highest
                p = low + _nth_highest_bit(ties, r, m)
            bit = 1 << p
            rest = [c for c in palette if not forb[c] & bit]
            for i in range(len(rest) - 1, 0, -1):  # rng.shuffle(rest):
                width = (i + 1).bit_length()
                r = getrandbits(width)
                while r > i:
                    r = getrandbits(width)
                rest[i], rest[r] = rest[r], rest[i]
        free ^= bit

        while True:
            if rng is None:  # the least free colour above c, up to the cap
                c += 1
                while c <= rest and forb[c] & bit:
                    c += 1
                if c > rest:
                    c = 0
            else:
                c = rest.pop() if rest else 0
            if c:
                nodes += 1
                if nodes > node_limit:
                    raise BudgetExceeded(f"node limit {node_limit} hit after {nodes - 1} nodes")
                add = nbr[p] & free
                add ^= add & forb[c]
                forb[c] |= add
                carry = add
                j = -1
                while carry:
                    plane = planes[j]
                    planes[j] = plane ^ carry
                    carry &= plane
                    j -= 1
                frames.append((p, rest, c, add, max_used))
                if c > max_used:
                    max_used = c
                break
            free |= bit
            backtracks += 1
            if backtracks > max_backtracks or not frames:
                return None, nodes
            p, rest, c, add, max_used = frames.pop()
            bit = 1 << p
            forb[c] ^= add
            borrow = add
            j = -1
            while borrow:
                plane = planes[j]
                planes[j] = plane ^ borrow
                borrow &= ~plane
                j -= 1
    colour = [0] * n
    for v, c in precolouring.items():
        colour[v] = c
    for p, _, c, _, _ in frames:
        colour[order[p]] = c
    return colour, nodes


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
    return _k_colourable(graph, _bit_layout(graph.adjacency()), k, node_limit)


def _k_colourable(
    graph: UGraph, layout: _BitLayout, k: int, node_limit: int | None
) -> ColouringCertificate:
    """:func:`k_colourable` on the graph's layout, which the caller may share."""
    node_limit = DEFAULT_NODE_LIMIT if node_limit is None else node_limit
    # Precolouring a clique is sound up to permuting colours; if the clique
    # is larger than k the leftover members simply have empty domains.
    precolouring = {v: i for i, v in enumerate(_clique(layout)[:k], start=1)}
    colour, nodes = _dsatur(layout, k, precolouring, node_limit=node_limit)
    if colour is None:
        return ColouringCertificate(k, False, None, nodes)
    assignment = dict(zip(graph.labels, colour))
    assert is_proper_colouring(graph, assignment)
    return ColouringCertificate(k, True, assignment, nodes)


def chromatic_number(graph: UGraph, *, node_limit: int | None = None) -> int:
    """Least k admitting a proper colouring, bracketed by clique and greedy bounds.

    The graph is laid out once, for both bounds and every k tried.
    """
    if graph.vertex_count == 0:
        return 0
    layout = _bit_layout(graph.adjacency())
    lower = max(1, len(_clique(layout)))
    colour, _ = _dsatur(layout, graph.vertex_count)  # greedy: never backtracks
    upper = max(colour)
    for k in range(lower, upper):
        if _k_colourable(graph, layout, k, node_limit).satisfiable:
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
