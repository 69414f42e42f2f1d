"""Round speed-up for one-sided algorithms and its colour relations.

Given a t-round c-colouring rule, the speed-up builds a (t-1)-round rule
whose output at a node is the set of colours the original rule could still
assign to the node's successor; that set is always a non-empty proper
subset of the old palette, so it encodes into at most 2^c - 2 new colours.
Iterating yields a tower of ever-faster algorithms over nested colour
families, whose empirical successor/output relations drive the
successor-graph lower-bound machinery.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from .chroma import UGraph, _dsatur
from .errors import BudgetExceeded
from .model import (
    DEFAULT_BUDGET,
    ONE_SIDED,
    Palette,
    ReductionAlgorithm,
    ColourWindow,
    _WindowTable,
    canonical_label,
    count_proper_sequences,
    proper_sequences,
    window_graph,
)

Colour = Hashable  # int at level 0, frozenset of previous-level colours above


def decode_family(rank: int, c: int) -> frozenset[int]:
    """The non-empty proper subset of [c] with colexicographic rank ``rank``.

    Subsets ordered by largest element first coincide with bitmask order,
    so the rank of a family is simply its bitmask value.
    """
    if not 1 <= rank <= (1 << c) - 2:
        raise ValueError(f"rank {rank} outside [1, 2^{c}-2]")
    return frozenset(i + 1 for i in range(c) if rank >> i & 1)


@dataclass(frozen=True)
class SpeedUpResult:
    algorithm: ReductionAlgorithm
    decode: Callable[[int], frozenset[int]]


def _speedable_palette(alg: ReductionAlgorithm) -> int:
    """The output palette size of ``alg``, once the speed-up is known to apply."""
    if alg.sidedness != ONE_SIDED:
        raise ValueError("the speed-up applies to one-sided algorithms only")
    if alg.rounds < 1:
        raise ValueError("cannot speed up a 0-round algorithm")
    if not isinstance(alg.in_palette.size, int):
        raise ValueError("the speed-up needs a concrete input palette")
    return alg.out_palette.size


def _family_bits(window: ColourWindow, bits: int, c: int) -> int:
    """Return ``bits``, the successor colours seen from ``window``, if they form a family.

    A proper source leaves the successor at least one of its c colours, and
    never all of them.
    """
    if bits == 0 or bits == (1 << c) - 1:
        raise ValueError(
            "source algorithm violates its properness contract "
            f"(window {window} realises {'no' if bits == 0 else 'every'} colour)"
        )
    return bits


def _faster(alg: ReductionAlgorithm, rule: Callable[[ColourWindow], int]) -> ReductionAlgorithm:
    return ReductionAlgorithm(
        ONE_SIDED,
        alg.rounds - 1,
        alg.in_palette,
        Palette((1 << alg.out_palette.size) - 2),
        rule,
        name=f"speedup({alg.name})",
    )


def speed_up(alg: ReductionAlgorithm) -> SpeedUpResult:
    """One round faster, with outputs over non-empty proper subsets of [c].

    The new rule enumerates every colour the source rule could give the
    node's successor and returns the colex rank of that set.  Also returns
    the decoder from ranks back to member sets.  The rule evaluates the
    source on demand and keeps its answer in a window table.
    """
    c = _speedable_palette(alg)
    n = alg.in_palette.size
    rule = alg.rule

    def family(window: ColourWindow) -> int:
        last = window[-1]
        bits = 0
        for y in range(1, n + 1):
            if y != last:
                bits |= 1 << (rule(window + (y,)) - 1)
        return _family_bits(window, bits, c)

    fast_rule = _WindowTable(family).__getitem__
    return SpeedUpResult(_faster(alg, fast_rule), lambda rank: decode_family(rank, c))


def _speed_up_table(
    table: Mapping[ColourWindow, int], n: int, wl: int, c: int
) -> dict[ColourWindow, int]:
    """The table of the speed-up, from the table of its c-colour source.

    The source's windows have length wl + 1.  Each one adds its colour to
    the family of its prefix, so one pass over the source table gives
    every family that the speed-up's rule would collect.
    """
    faster = dict.fromkeys(proper_sequences(n, wl), 0)
    for window, colour in table.items():
        faster[window[:-1]] |= 1 << (colour - 1)
    for window, bits in faster.items():
        _family_bits(window, bits, c)
    return faster


@dataclass(frozen=True)
class SpeedUpLevel:
    """One algorithm of the tower plus its realized colours.

    ``table`` maps every valid window to the algorithm's encoded output;
    above level 0 the algorithm's rule is a lookup in that table.
    ``semantic`` decodes each realized encoded colour into the nested family
    of base colours it stands for (plain ints at level 0).
    """

    algorithm: ReductionAlgorithm
    realized: frozenset[int]
    semantic: Mapping[int, Colour]
    table: Mapping[ColourWindow, int]

    def colours(self) -> frozenset[Colour]:
        return frozenset(self.semantic[r] for r in self.realized)


@dataclass(frozen=True)
class ColourRelation:
    """A set of ordered pairs between colour levels (successor or output kind)."""

    kind: str
    pairs: frozenset[tuple[Colour, Colour]]

    def image(self, x: Colour) -> frozenset[Colour]:
        return frozenset(b for a, b in self.pairs if a == x)

    def to_text(self) -> str:
        lines = sorted(
            f"{canonical_label(a)} -> {canonical_label(b)}" for a, b in self.pairs
        )
        return "\n".join(lines) + "\n"


def lemma7_pairs(output_rel: ColourRelation) -> frozenset[tuple[Colour, Colour]]:
    """Successor pairs licensed by an output relation.

    (X, Y) is included when some (y, Y) lies in the relation with y a member
    of X and X itself appears as an output.  Every empirical successor pair
    of the faster algorithm is of this form.  Call an output relation
    saturated when it holds (y, Y) for every non-empty Y within S(y), S being
    the successor relation of the current level.  For saturated relations
    the reverse inclusion holds too, and acceptance criterion 7 checks that
    equality at levels 0 and 1 (giving S1* and the 55-vertex S2*).  It can
    fail for realized relations, because the two witnesses need not come
    from one instance.
    """
    outputs = {X for _, X in output_rel.pairs}
    licensed = set()
    for y, Y in output_rel.pairs:
        for X in outputs:
            if y in X:
                licensed.add((X, Y))
    return frozenset(licensed)


@dataclass(frozen=True)
class SpeedUpTower:
    """Algorithms A_0 .. A_k from iterating the speed-up, with their colours."""

    levels: tuple[SpeedUpLevel, ...]
    budget: int

    def _level(self, k: int) -> SpeedUpLevel:
        if not 0 <= k < len(self.levels):
            raise ValueError(f"tower has no level {k}")
        return self.levels[k]

    def algorithm(self, k: int) -> ReductionAlgorithm:
        return self._level(k).algorithm

    def colours(self, k: int) -> frozenset[Colour]:
        return self._level(k).colours()

    def successor_relation(self, k: int) -> ColourRelation:
        """All (own colour, successor colour) pairs at level k over adjacent-distinct inputs.

        A sequence one entry longer than a window is x+v+y around a stem v of
        length wl-1: its first window is x+v and its last v+y.  For a non-empty
        stem every x != v[0] goes with every y != v[-1], so the relation is the
        union over stems of {T[x+v]} x {T[v+y]}.  An empty stem (wl = 1) couples
        the two sides through x != y instead.  Each window is read once and
        its level paid for it; a 0-round level 0 paid for n windows, not for
        the n(n-1) sequences the empty stem pairs, so those are charged here.
        """
        level = self._level(k)
        wl = level.algorithm.window_length
        table = level.table
        if wl == 1:
            cost = count_proper_sequences(level.algorithm.in_palette.size, 2)
            if cost > self.budget:
                raise BudgetExceeded(f"{cost} sequences exceed budget {self.budget}")
            raw = {(a, b) for (x,), a in table.items() for (y,), b in table.items() if x != y}
        else:
            own: dict[ColourWindow, set[int]] = {}  # stem v -> {T[x+v]}
            successor: dict[ColourWindow, set[int]] = {}  # stem v -> {T[v+y]}
            for window, colour in table.items():
                own.setdefault(window[1:], set()).add(colour)
                successor.setdefault(window[:-1], set()).add(colour)
            sides = {(frozenset(xs), frozenset(successor[stem])) for stem, xs in own.items()}
            raw = {(a, b) for xs, ys in sides for a in xs for b in ys}
        sem = level.semantic
        return ColourRelation("successor", frozenset((sem[a], sem[b]) for a, b in raw))

    def successor_graph(self, k: int) -> UGraph:
        """Level k's realized colours as vertices, its successor pairs as edges."""
        vertices = sorted(self.colours(k), key=canonical_label)
        return UGraph.from_label_edges(vertices, self.successor_relation(k).pairs)

    def output_relation(self, k: int) -> ColourRelation:
        """All (colour at level k, colour at level k+1) pairs of one node.

        Level k+1's window at a node is the suffix of its level-k window, so
        one pass over level k's table gives both colours.
        """
        level, faster = self._level(k), self._level(k + 1)
        fast = faster.table
        raw = {(colour, fast[window[1:]]) for window, colour in level.table.items()}
        sem, fast_sem = level.semantic, faster.semantic
        return ColourRelation("output", frozenset((sem[a], fast_sem[b]) for a, b in raw))

    def compose_colouring(self, colouring: Mapping, k: int) -> ReductionAlgorithm:
        level = self._level(k)
        return compose_colouring(colouring, level.algorithm, semantic=level.semantic)


def iterate_speed_up(
    alg: ReductionAlgorithm, k: int, *, budget: int | None = None
) -> SpeedUpTower:
    """Apply the speed-up k times, recording realized colours at every level.

    Level 0 evaluates ``alg`` once per window into a table, and each higher
    level is built from the table below it, so the source rule is never
    evaluated again.  The budget counts one evaluation per window of every
    level.
    """
    if k < 0 or k > alg.rounds:
        raise ValueError("can iterate between 0 and rounds(alg) times")
    budget = DEFAULT_BUDGET if budget is None else budget
    n = alg.in_palette.size
    if not isinstance(n, int):
        raise ValueError("iteration needs a concrete input palette")

    levels: list[SpeedUpLevel] = []
    spent = 0
    wl = alg.window_length
    for _ in range(k + 1):
        below = levels[-1] if levels else None
        if below is not None:
            c = _speedable_palette(below.algorithm)
            wl -= 1
        spent += count_proper_sequences(n, wl)
        if spent > budget:
            raise BudgetExceeded(f"{spent} window evaluations exceed budget {budget}")
        if below is None:
            rule = alg.rule
            table = {w: rule(w) for w in proper_sequences(n, wl)}
            realized = frozenset(table.values())
            levels.append(SpeedUpLevel(alg, realized, {r: r for r in realized}, table))
        else:
            table = _speed_up_table(below.table, n, wl, c)
            realized = frozenset(table.values())
            prev = below.semantic
            semantic = {r: frozenset(prev[x] for x in decode_family(r, c)) for r in realized}
            faster = _faster(below.algorithm, table.__getitem__)
            levels.append(SpeedUpLevel(faster, realized, semantic, table))
    return SpeedUpTower(tuple(levels), budget)


def compose_colouring(
    colouring: Mapping[Colour, int],
    alg: ReductionAlgorithm,
    *,
    semantic: Mapping[int, Colour] | None = None,
) -> ReductionAlgorithm:
    """Relabel an algorithm's outputs through a graph colouring of its colour space.

    ``semantic`` decodes the rule's outputs into the colouring's keys.  When
    the colouring is proper on the algorithm's successor graph, the composite
    is again a proper reduction, now onto the colouring's palette.  Raises if
    a realized colour has no entry.
    """
    sem = (lambda x: x) if semantic is None else semantic.__getitem__
    rule = alg.rule

    def composed(window: ColourWindow) -> int:
        value = sem(rule(window))
        try:
            return colouring[value]
        except KeyError:
            raise ValueError(
                f"colouring has no class for realized colour {canonical_label(value)}"
            ) from None

    return ReductionAlgorithm(
        ONE_SIDED,
        alg.rounds,
        alg.in_palette,
        Palette(max(colouring.values())),
        composed,
        name=f"recolour({alg.name})",
    )


def search_one_round_map(n: int, c: int, *, budget: int | None = None) -> tuple[bool, int]:
    """Scan every map from ordered distinct pairs over [n] to [c].

    Returns (a proper one-round rule exists, candidates examined).  The scan
    stops at the first proper candidate; refutations examine all c^(n(n-1)).
    This is lemma 4's brute force taken literally, so it keeps its own
    conflict list rather than the shared window graph: it is the
    independent engine that colouring searches on that graph are
    cross-checked against.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    index = {p: i for i, p in enumerate(pairs)}
    conflicts = tuple(
        (index[(u, v)], index[(v, w)])
        for (u, v) in pairs
        for w in range(1, n + 1)
        if w != v
    )
    total = c ** len(pairs)
    if total > budget:
        raise BudgetExceeded(f"{total} candidate maps exceed budget {budget}")
    examined = 0
    for candidate in itertools.product(range(c), repeat=len(pairs)):
        examined += 1
        for i, j in conflicts:
            if candidate[i] == candidate[j]:
                break
        else:
            return True, examined
    return False, examined


def random_proper_table(
    n: int,
    t: int,
    c: int,
    seed: int,
    *,
    max_backtracks: int = 1000,
    restarts: int = 2000,
) -> ReductionAlgorithm:
    """Seeded random proper table algorithm: n colours in, c out, t rounds.

    Samples by randomised backtracking over the window-overlap constraint
    graph (uniform rejection sampling is hopeless here: random tables are
    essentially never proper).  Short backtrack allowances with many
    restarts sidestep the heavy-tailed search times.  A seed fixes the table
    on any interpreter.  Three outcomes:

    - a restart finds a proper colouring: the table is returned;
    - the first restart fails and a complete search of at most
      ``max_backtracks`` nodes refutes the window graph: RuntimeError
      "no proper table exists ... proved";
    - every restart fails without that proof: RuntimeError "... not found",
      saying whether the complete search decided feasibility.
    """
    graph = UGraph(*window_graph(n, t + 1))
    adjacency = graph.adjacency()

    rng = random.Random(seed)
    feasibility = "feasibility not decided"
    for restart in range(restarts):
        assignment = _random_dsatur(adjacency, c, rng, max_backtracks=max_backtracks)
        if assignment is not None:
            table = dict(zip(graph.labels, assignment))
            return ReductionAlgorithm(
                ONE_SIDED,
                t,
                Palette(n),
                Palette(c),
                table.__getitem__,
                name=f"table(n={n},t={t},c={c},seed={seed})",
            )
        if restart == 0:
            # No RNG, so the random stream is untouched; and not through
            # _random_dsatur, whose calls are the restarts.
            try:
                colouring, nodes = _dsatur(adjacency, c, node_limit=max_backtracks)
            except BudgetExceeded:
                continue
            if colouring is None:
                raise RuntimeError(
                    f"no proper table exists for n={n}, t={t}, c={c} (proved: window graph "
                    f"not {c}-colourable, UNSAT in {nodes} nodes)"
                )
            feasibility = f"a table exists (complete search found one in {nodes} nodes)"
    raise RuntimeError(
        f"no proper table for n={n}, t={t}, c={c} in {restarts} restarts of "
        f"{max_backtracks} backtracks: not found; {feasibility}"
    )


# Wrapped by perfbench/run.py::count_sampler_attempts; one call per restart, colouring or None.
def _random_dsatur(adjacency, c, rng, *, max_backtracks):
    return _dsatur(adjacency, c, rng=rng, max_backtracks=max_backtracks)[0]
