"""Exact k-colourability and chromatic numbers, with DIMACS CNF export.

A graph, :class:`UGraph`, is its vertex labels and one neighbour mask per
vertex: bit j of ``nbr[i]`` is set iff vertices i and j are adjacent.
``model.window_masks`` builds the masks of window graphs from their rank
blocks, ``UGraph.from_label_edges`` and ``UGraph.from_edges`` OR them from
edge lists, and the edge pairs exist only on demand, for DIMACS and CNF.

Every colouring search in the package runs one saturation-first (DSATUR,
Brélaz 1979) backtracking kernel, ``_dsatur``.  It extends the uncoloured
vertex seeing the most distinct neighbour colours, then the highest degree,
then the least index, and undoes its last choice when a vertex has no
colour left.  The kernel works on int bitsets, after San Segundo's bitboard
search (BBMC, 2011), reading the masks as they are, with no renumbering.
The graph's bit layout is its masks, its vertices grouped by degree as one
mask per degree class, by descending degree, and its maximum degree; it is
built in O(n) by ``_bit_layout``, once per graph: the sampler's restarts and
its complete search share one, and the precoloured clique of
:func:`k_colourable` is read off it.

A few ints hold the search state: the uncoloured set, one set per colour of
the vertices that colour is forbidden to, and the saturation as a
bit-sliced counter.  A pick masks the uncoloured set by the counter's
planes from the top down, then by the first degree class that meets it,
and takes the lowest set bit.  Colouring v with c adds
``nbr[v] & free & ~forb[c]`` to ``forb[c]`` and ripples it through the
planes as a carry; a frame keeps that one int and v, and undo is an XOR and
a borrow ripple.  So the int operations per search node depend on k and the
number of degree classes, not on how many neighbours the vertex has.

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
colours are drawn from the RNG, under a backtrack cap.  The ties are the
top candidates of the best pick's degree class; the RNG draws an index into
them, so a seed fixes the search on any interpreter.  The draws are
``rng.choice`` and ``rng.shuffle``'s own, made inline from ``getrandbits``.
The fresh-colour cap is left out: a sampler needs no symmetry breaking,
and the cap would change the random stream that sampled tables come from.

The graph type lives here with the search.  Every layer above builds
graphs to colour: ``speedup`` its successor graphs, ``graphs`` N(n,1), S2*
and DIMACS text.  Defining the type below them all lets each of those
import it without a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded
from .model import canonical_label

if TYPE_CHECKING:
    import random

DEFAULT_NODE_LIMIT = 20_000_000


def _members(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class UGraph:
    """Undirected simple graph with hashable vertex labels.

    ``nbr[i]`` has bit j set iff vertices i and j (indices into ``labels``)
    are adjacent.  Every constructor builds the masks symmetric; the checks
    here are O(n) int operations: duplicate labels, a mask count other than
    the label count, a bit outside the vertices and a loop are rejected.
    """

    labels: tuple[Hashable, ...]
    nbr: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate vertex labels")
        object.__setattr__(self, "nbr", tuple(self.nbr))
        n = len(self.labels)
        if len(self.nbr) != n:
            raise ValueError(f"{len(self.nbr)} neighbour masks for {n} vertices")
        if min(self.nbr, default=0) < 0 or max(self.nbr, default=0) >> n:
            raise ValueError("neighbour mask outside the vertices")
        for i, mask in enumerate(self.nbr):
            if mask >> i & 1:
                raise ValueError(f"loop at {canonical_label(self.labels[i])}")

    @classmethod
    def from_edges(cls, labels: Iterable[Hashable], edges: Iterable[tuple[int, int]]) -> "UGraph":
        """The graph whose edges are the given index pairs, in either order."""
        labels = tuple(labels)
        n = len(labels)
        nbr = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
        return cls(labels, nbr)

    @classmethod
    def from_label_edges(
        cls, labels: Iterable[Hashable], label_edges: Iterable[tuple[Hashable, Hashable]]
    ) -> "UGraph":
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        nbr = [0] * len(labels)
        for a, b in label_edges:
            i, j = index[a], index[b]
            if i == j:
                raise ValueError(f"loop at {canonical_label(a)}")
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
        return cls(labels, nbr)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.nbr)) >> 1

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as index pairs (i < j), built on each call."""
        return frozenset(
            (i, j) for i, mask in enumerate(self.nbr) for j in _members(mask >> i + 1 << i + 1)
        )

    def label_edges(self) -> frozenset[frozenset]:
        return frozenset(frozenset({self.labels[i], self.labels[j]}) for i, j in self.edges)

    def is_subgraph_of(self, other: "UGraph") -> bool:
        """Label-respecting subgraph test: vertices and edges both contained."""
        index = {lab: i for i, lab in enumerate(other.labels)}
        if not all(map(index.__contains__, self.labels)):
            return False
        where = list(map(index.__getitem__, self.labels))
        for i, mask in enumerate(self.nbr):
            theirs = other.nbr[where[i]]
            for j in _members(mask):
                if not theirs >> where[j] & 1:
                    return False
        return True


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
    """The per-graph part of the search, read straight off the graph's masks."""

    nbr: Sequence[int]  # nbr[v]: v's neighbours, bit u for vertex u
    classes: list[int]  # the vertices of each degree, one mask per degree, by descending degree
    max_degree: int


def _bit_layout(nbr: Sequence[int]) -> _BitLayout:
    """Lay out a graph, given as neighbour masks, for :func:`_dsatur`."""
    degrees = list(map(int.bit_count, nbr))
    max_degree = max(degrees, default=0)
    classes = [0] * (max_degree + 1)
    for v, d in enumerate(degrees):
        classes[d] |= 1 << v
    return _BitLayout(nbr, [c for c in reversed(classes) if c], max_degree)


def _clique(layout: _BitLayout) -> list[int]:
    """A greedy clique: vertices by degree, then index, each joined to all before it.

    The candidates are the vertices joined to every member so far, and the
    next member is their best pick: the least index in the highest degree
    class that meets them.
    """
    nbr, classes = layout.nbr, layout.classes
    clique = []
    candidates = (1 << len(nbr)) - 1
    while candidates:
        for members in classes:
            tied = candidates & members
            if tied:
                break
        v = (tied & -tied).bit_length() - 1
        clique.append(v)
        candidates &= nbr[v]
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

    A pick narrows the uncoloured set to the largest saturation, then to
    the first degree class, by descending degree, that meets it: those are
    the tied vertices.  Without an RNG the pick is the lowest of them, and
    a vertex's colours are scanned upward, one per try, up to a cap of one
    above the largest in use; a frame keeps the last colour tried and the
    cap.  With an RNG the pick is the r-th lowest tie for a drawn r, and
    the free colours are listed and shuffled.  Its draws come from
    ``rng.getrandbits`` as ``rng.choice`` and ``rng.shuffle`` make them,
    call for call (``Random._randbelow``'s rejection loop), as
    ``model._random_walk`` draws ``randint``.
    """
    precolouring = precolouring or {}
    nbr, classes, max_degree = layout
    n = len(nbr)
    free = (1 << n) - 1  # uncoloured, less the vertex whose colours are being tried
    forb = [0] * (k + 1)  # forb[c]: vertices with a neighbour coloured c (kept on free ones)
    max_used = 0
    for v, c in precolouring.items():
        free ^= 1 << v
        forb[c] |= nbr[v]
        max_used = max(max_used, c)
    # Saturation, bit-sliced and most significant plane first: bit v of
    # planes[-1 - j] is bit j of v's count of forbidden colours.  Counts
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
        for members in classes:
            tied = top & members
            if tied:
                break
        bit = tied & -tied
        if rng is None:
            # rest: the cap; a fresh colour beyond max_used + 1 is symmetric to max_used + 1
            c, rest = 0, max_used + 1 if max_used < k else k
        else:
            m = tied.bit_count()
            width = m.bit_length()  # r = rng.choice(range(m)):
            r = getrandbits(width)
            while r >= m:
                r = getrandbits(width)
            if r:  # else the pick is the lowest
                bit = 1 << _nth_highest_bit(tied, m - 1 - r, m)
            rest = [c for c in palette if not forb[c] & bit]
            for i in range(len(rest) - 1, 0, -1):  # rng.shuffle(rest):
                width = (i + 1).bit_length()
                r = getrandbits(width)
                while r > i:
                    r = getrandbits(width)
                rest[i], rest[r] = rest[r], rest[i]
        v = bit.bit_length() - 1
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
                add = nbr[v] & free
                add ^= add & forb[c]
                forb[c] |= add
                carry = add
                j = -1
                while carry:
                    plane = planes[j]
                    planes[j] = plane ^ carry
                    carry &= plane
                    j -= 1
                frames.append((v, rest, c, add, max_used))
                if c > max_used:
                    max_used = c
                break
            free |= bit
            backtracks += 1
            if backtracks > max_backtracks or not frames:
                return None, nodes
            v, rest, c, add, max_used = frames.pop()
            bit = 1 << v
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
    for v, _, c, _, _ in frames:
        colour[v] = c
    return colour, nodes


def is_proper_colouring(graph: UGraph, assignment: dict) -> bool:
    """True iff no vertex has a neighbour in its own colour class."""
    colours = [assignment[label] for label in graph.labels]
    classes: dict = {}
    for v, c in enumerate(colours):
        classes[c] = classes.get(c, 0) | 1 << v
    return not any(map(int.__and__, graph.nbr, map(classes.__getitem__, colours)))


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
    return _k_colourable(graph, _bit_layout(graph.nbr), k, node_limit)


def _k_colourable(
    graph: UGraph, layout: _BitLayout, k: int, node_limit: int | None
) -> ColouringCertificate:
    """:func:`k_colourable` on the graph's layout, which the caller may share.

    The search runs with at most as many colours as vertices: it never
    tries one above the largest in use plus one, so the nodes and the
    colouring are those of any larger k, which the certificate keeps.
    """
    node_limit = DEFAULT_NODE_LIMIT if node_limit is None else node_limit
    palette = min(k, graph.vertex_count)
    # Precolouring a clique is sound up to permuting colours; if the clique
    # is larger than k the leftover members simply have empty domains.
    precolouring = {v: i for i, v in enumerate(_clique(layout)[:palette], start=1)}
    colour, nodes = _dsatur(layout, palette, precolouring, node_limit=node_limit)
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
    layout = _bit_layout(graph.nbr)
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
