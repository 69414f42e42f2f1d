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
from collections.abc import Mapping
from dataclasses import dataclass
from operator import or_
from typing import Callable, Hashable, Iterator, Sequence

from .chroma import UGraph, _bit_layout, _dsatur
from .errors import BudgetExceeded
from .model import (
    DEFAULT_BUDGET,
    ONE_SIDED,
    Palette,
    ReductionAlgorithm,
    ColourWindow,
    _WindowTable,
    _check_stage_input,
    _run_stage,
    _suffix_ranks,
    canonical_label,
    count_proper_sequences,
    proper_sequences,
    window_masks,
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


# The speed-up of a c-colour rule holds each output, a family of its c
# colours, as a c-bit int (one per window of a tower level) and decodes it
# bit by bit, so c is capped at 2^16 bits, 8 KiB a family.  3-colour sources
# reach c = 2^62 - 2 at tower level 3, where one family would take 2^59 bytes.
_MAX_FAMILY_BITS = 1 << 16


def _speedable_palette(alg: ReductionAlgorithm) -> int:
    """The output palette size of ``alg``, once the speed-up is known to apply."""
    if alg.sidedness != ONE_SIDED:
        raise ValueError("the speed-up applies to one-sided algorithms only")
    if alg.rounds < 1:
        raise ValueError("cannot speed up a 0-round algorithm")
    if not isinstance(alg.in_palette.size, int):
        raise ValueError("the speed-up needs a concrete input palette")
    c = alg.out_palette.size
    if c > _MAX_FAMILY_BITS:
        raise ValueError(f"cannot speed up {c} colours: families exceed {_MAX_FAMILY_BITS} bits")
    return c


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


class _RankTable(Mapping):
    """Read-only table over the windows of one length, stored by window rank.

    A window's rank is its index in ``proper_sequences`` (see the window-rank
    comment in ``model``).  ``values[r]`` is the output on the window of rank
    r, and ``suffix[r]`` (for windows of length 2 or more) the rank of its
    suffix among the windows one shorter.  Iteration follows
    ``proper_sequences``; a key that is not a window over [n] of this length
    raises KeyError.
    """

    __slots__ = ("n", "length", "values", "suffix")

    def __init__(self, n: int, length: int, values: Sequence, suffix: Sequence | None) -> None:
        self.n = n
        self.length = length
        self.values = values
        self.suffix = suffix

    def rank(self, window: ColourWindow) -> int:
        n = self.n
        if not isinstance(window, tuple) or len(window) != self.length:
            raise KeyError(window)
        r = prev = 0
        for x in window:
            if type(x) is not int or not 0 < x <= n or x == prev:
                raise KeyError(window)
            r = r * (n - 1) + x - 1 - (0 < prev < x)
            prev = x
        return r

    def __getitem__(self, window: ColourWindow) -> int:
        return self.values[self.rank(window)]

    def __iter__(self) -> Iterator[ColourWindow]:
        return proper_sequences(self.n, self.length)

    def __len__(self) -> int:
        return len(self.values)


def _sub_window_columns(values: bytes | list, n: int, length: int, t: int) -> list:
    """Column i holds ``values`` on w[i : i + length] for every window w t longer, by rank.

    ``values`` holds one value per window of ``length`` over [n], by rank,
    as bytes or, for values that do not fit a byte, as a list.  With
    m = n - 1, dropping the last colour maps rank r to r // m, so it
    repeats each value m times: m strided slice assignments.  The windows
    of first colour a are block a of the ranks, and their suffixes are the
    shorter windows outside block a, so dropping the first colour joins, for
    each a, the blocks but a's.
    """
    m = n - 1
    packed = isinstance(values, bytes)
    columns = []
    for i in range(t + 1):
        column = values
        for _ in range(t - i):  # drop a colour behind
            longer = bytearray(len(column) * m) if packed else [0] * (len(column) * m)
            for j in range(m):
                longer[j::m] = column
            column = longer
        for shorter in range(length + t - i, length + t):  # drop a colour in front
            block = m ** (shorter - 1)  # windows of that length per first colour
            view = memoryview(column) if packed else column
            blocks = itertools.chain.from_iterable(
                (view[: a * block], view[(a + 1) * block :]) for a in range(n)
            )
            column = b"".join(blocks) if packed else list(itertools.chain.from_iterable(blocks))
        columns.append(column)
    return columns


def _level_zero(alg: ReductionAlgorithm, n: int) -> bytes | list:
    """``alg``'s output on every window of its length over [n], in rank order.

    A staged (composed) source is evaluated stage by stage: the first stage
    on its own windows, and each later stage, of t rounds, on the windows t
    longer, reading the previous stage's outputs at the t + 1 sub-windows.
    The sub-window at offset i of a window drops i colours in front and
    t - i behind.  Overlapping windows thus share every stage output instead
    of recomputing it, as one call of the composed rule per window would.

    A later stage's sub-window columns come from rank blocks
    (``_sub_window_columns``), as bytes whenever the previous stage's
    outputs fit a byte.  Its rule sees only input that passed the
    simulator's stage input check, ``model._check_stage_input``, on those
    outputs and columns, and a ValueError names the stage, as
    ``run_algorithm`` does.  The simulator's stage runner,
    ``model._run_stage``, then evaluates the stage with the window count in
    place of the node count.
    """
    first, *rest = alg.stages or (alg,)
    length = first.window_length
    values = list(map(first.rule, proper_sequences(n, length)))
    for stage in rest:
        try:
            values = bytes(values)
        except (TypeError, ValueError):  # values that are no bytes stay a list
            pass
        columns = _sub_window_columns(values, n, length, stage.rounds)
        _check_stage_input(values, stage, columns)
        values = _run_stage(stage, columns, len(columns[0]))
        length += stage.rounds
    return values


def _speed_up_table(table: _RankTable, c: int, suffix: Sequence[int] | None) -> _RankTable:
    """The table of the speed-up, from the table of its c-colour source.

    Each source window adds its colour to the family of its prefix, and the
    m = n - 1 windows of one prefix have consecutive ranks, so m strided
    passes over the source's outputs give every family that the speed-up's
    rule would collect.  ``suffix`` holds the suffix ranks of the shorter
    windows.
    """
    n, values, length = table.n, table.values, table.length - 1
    bit = {colour: 1 << (colour - 1) for colour in set(values)}
    families = [0] * count_proper_sequences(n, length)
    for i in range(n - 1):
        families = list(map(or_, families, map(bit.__getitem__, values[i :: n - 1])))
    if 0 in families or (1 << c) - 1 in families:
        for window, bits in zip(proper_sequences(n, length), families):  # raises at the first
            _family_bits(window, bits, c)
    return _RankTable(n, length, families, suffix)


@dataclass(frozen=True)
class SpeedUpLevel:
    """One algorithm of the tower plus its realized colours.

    ``table`` maps every valid window to the algorithm's encoded output.  It
    is a read-only mapping that stores its outputs by window rank (the
    window's index in ``proper_sequences``) and iterates in that order;
    above level 0 the algorithm's rule is a lookup in it.
    ``semantic`` decodes each realized encoded colour, and only those, into
    the nested family of base colours it stands for (plain ints at level 0).
    """

    algorithm: ReductionAlgorithm
    semantic: Mapping[int, Colour]
    table: _RankTable

    @property
    def realized(self) -> frozenset[int]:
        return frozenset(self.semantic)

    def colours(self) -> frozenset[Colour]:
        return frozenset(self.semantic.values())


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
        union over stems of {T[x+v]} x {T[v+y]}: by rank, the windows x+v are
        those whose suffix rank is v's, and the windows v+y the m = n - 1
        consecutive ranks from v's rank times m.  An empty stem (wl = 1)
        couples the two sides through x != y instead.  Each window is read
        once and its level paid for it; a 0-round level 0 paid for n windows,
        not for the n(n-1) sequences the empty stem pairs, so those are
        charged here.
        """
        level = self._level(k)
        table = level.table
        values = table.values
        if table.length == 1:
            cost = count_proper_sequences(table.n, 2)
            if cost > self.budget:
                raise BudgetExceeded(f"{cost} sequences exceed budget {self.budget}")
            raw = {(a, b) for x, a in enumerate(values) for y, b in enumerate(values) if x != y}
        else:
            m = table.n - 1
            stems = count_proper_sequences(table.n, table.length - 1)
            own: list[set[int]] = [set() for _ in range(stems)]  # stem v -> {T[x+v]}
            for stem, colour in zip(table.suffix, values):
                own[stem].add(colour)
            sides = {
                (frozenset(xs), frozenset(values[stem * m : stem * m + m]))
                for stem, xs in enumerate(own)
            }
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
        one pass over level k's outputs and suffix ranks gives both colours.
        """
        level, faster = self._level(k), self._level(k + 1)
        fast = faster.table.values
        raw = set(zip(level.table.values, map(fast.__getitem__, level.table.suffix)))
        sem, fast_sem = level.semantic, faster.semantic
        return ColourRelation("output", frozenset((sem[a], fast_sem[b]) for a, b in raw))

    def compose_colouring(self, colouring: Mapping, k: int) -> ReductionAlgorithm:
        level = self._level(k)
        return compose_colouring(colouring, level.algorithm, semantic=level.semantic)


def iterate_speed_up(
    alg: ReductionAlgorithm, k: int, *, budget: int | None = None
) -> SpeedUpTower:
    """Apply the speed-up k times, recording realized colours at every level.

    Every level's table stores its outputs by window rank.  Level 0 holds
    ``alg``'s output on every window; a composed source fills it stage by
    stage, each later stage behind the simulator's stage input check and
    through its stage runner, and is never called per window (see
    ``_level_zero``).  Each higher level is built from the table below it,
    so the source rule is never evaluated again.  The budget counts one
    evaluation per window of every level, whatever the stage-wise build
    saves, and is checked for the whole tower before any window is
    evaluated.
    """
    if k < 0 or k > alg.rounds:
        raise ValueError("can iterate between 0 and rounds(alg) times")
    budget = DEFAULT_BUDGET if budget is None else budget
    n = alg.in_palette.size
    if not isinstance(n, int):
        raise ValueError("iteration needs a concrete input palette")
    wl = alg.window_length
    cost = sum(count_proper_sequences(n, wl - i) for i in range(k + 1))
    if cost > budget:
        raise BudgetExceeded(f"{cost} window evaluations exceed budget {budget}")
    suffixes = {length: _suffix_ranks(n, length) for length in range(2, wl + 1)}
    table = _RankTable(n, wl, _level_zero(alg, n), suffixes.get(wl))
    levels = [SpeedUpLevel(alg, {r: r for r in set(table.values)}, table)]
    for _ in range(k):
        below = levels[-1]
        c = _speedable_palette(below.algorithm)
        table = _speed_up_table(below.table, c, suffixes.get(below.table.length - 1))
        prev = below.semantic
        semantic = {r: frozenset(prev[x] for x in decode_family(r, c)) for r in set(table.values)}
        levels.append(SpeedUpLevel(_faster(below.algorithm, table.__getitem__), semantic, table))
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


# Candidates per block of search_one_round_map: one bit each in an int.
_BLOCK = 4096


def _digit_masks(c: int, b: int) -> list[list[int]]:
    """Bit sets over the tuples of ``product(range(c), repeat=b)``, one bit each in product order.

    ``masks[k][x]`` holds the tuples whose coordinate k is x.
    """
    size = c**b
    masks = []
    for k in range(b):
        run = c ** (b - 1 - k)  # consecutive tuples sharing coordinate k
        copies = ((1 << size) - 1) // ((1 << c * run) - 1) if c else 0  # one per c * run bits
        masks.append([(((1 << run) - 1) << x * run) * copies for x in range(c)])
    return masks


def search_one_round_map(n: int, c: int, *, budget: int | None = None) -> tuple[bool, int]:
    """Scan every map from ordered distinct pairs over [n] to [c].

    Returns (a proper one-round rule exists, candidates examined).  The scan
    stops at the first proper candidate in ``itertools.product`` order;
    refutations examine all c^(n(n-1)).  This is lemma 4's brute force taken
    literally, so it keeps its own conflict list rather than the shared
    window graph: it is the independent engine that colouring searches on
    that graph are cross-checked against.

    Every candidate is tested against every conflict, a block at a time.
    The last b coordinates, with c^b <= ``_BLOCK``, vary fastest, so a block
    holds the c^b candidates that share the other coordinates, its prefix,
    and a set of them is one int with a bit per suffix.  Conflicts inside
    the suffix give the set of suffixes that pass them, conflicts between a
    prefix coordinate and the suffix a set per value of that coordinate,
    and conflicts inside the prefix are tested on the prefix itself.  The
    proper candidates of a block are the AND of its sets, and the first of
    them is the lowest set bit.
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
    b = 0
    while b < len(pairs) and c ** (b + 1) <= _BLOCK:
        b += 1
    split = len(pairs) - b
    equal = _digit_masks(c, b)
    suffix_ok = (1 << c**b) - 1
    compatible = [[suffix_ok] * c for _ in range(split)]  # [prefix coordinate][value]
    prefix_conflicts = []
    for i, j in conflicts:
        if i >= split and j >= split:
            for x in range(c):
                suffix_ok &= ~(equal[i - split][x] & equal[j - split][x])
        elif i >= split or j >= split:
            p, q = (j, i - split) if i >= split else (i, j - split)
            for x in range(c):
                compatible[p][x] &= ~equal[q][x]
        else:
            prefix_conflicts.append((i, j))
    for block, prefix in enumerate(itertools.product(range(c), repeat=split)):
        for i, j in prefix_conflicts:
            if prefix[i] == prefix[j]:
                break
        else:
            proper = suffix_ok
            for masks, x in zip(compatible, prefix):
                proper &= masks[x]
            if proper:  # the lowest set bit, counted from 1
                return True, block * c**b + (proper & -proper).bit_length()
    return False, total


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
    # Only the labels and one bit layout live through the restarts, and the
    # masks are read off the rank blocks: no edge set (1.5 MB for n=8, t=3)
    # or UGraph is built.
    # Lexicographic ranks, not the nested order: no fewer nodes here, and a
    # seed fixes its table only in the vertex order it was drawn in.
    labels = tuple(proper_sequences(n, t + 1))
    layout = _bit_layout(window_masks(n, t + 1, range(len(labels))))

    rng = random.Random(seed)
    feasibility = "feasibility not decided"
    for restart in range(restarts):
        assignment = _random_dsatur(layout, c, rng, max_backtracks=max_backtracks)
        if assignment is not None:
            table = dict(zip(labels, assignment))
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
                colouring, nodes = _dsatur(layout, c, node_limit=max_backtracks)
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
def _random_dsatur(layout, c, rng, *, max_backtracks):
    return _dsatur(layout, c, rng=rng, max_backtracks=max_backtracks)[0]
