"""Core model for colour reduction on directed paths and cycles.

Palettes, path instances and reduction algorithms; the simulator with its
deterministic virtual-extension convention at path endpoints; properness
checks; conversions between one-sided and two-sided algorithms; and
log*/tetration arithmetic for round-complexity bounds.

Conventions: colours are integers 1..n.  A one-sided rule with t rounds
sees a window of t+1 colours with the node's own colour last; a two-sided
rule with t rounds sees 2t+1 colours with the node's own colour in the
centre.
"""

from __future__ import annotations

import functools
import itertools
import random
from array import array
from dataclasses import dataclass
from math import inf, log2
from operator import eq, floordiv, or_
from typing import Callable, Iterator, Sequence

from .errors import BudgetExceeded

ONE_SIDED = "one-sided"
TWO_SIDED = "two-sided"
PATH = "path"
CYCLE = "cycle"

DEFAULT_BUDGET = 10**8

# A window of colours as one node sees them: own colour last for
# one-sided rules, centred for two-sided ones; adjacent entries differ.
ColourWindow = tuple[int, ...]

# tower(h) for h = 0..5; tower(5) is a 65537-bit integer, tower(6) does not
# fit in memory, so any representable integer is strictly below tower(6).
_EXACT_TOWER_HEIGHT = 5
_TOWERS = [1, 2, 4, 16, 65536, 2**65536]


@functools.total_ordering
@dataclass(frozen=True, eq=False)
class TowerValue:
    """A number of the form tower(height) + offset.

    Lets bound arithmetic operate on palette sizes past the point where the
    exact integer can be materialised (height >= 6).  For height <= 4 the
    offset must not reach the next tower level; for height >= 5 any
    representable offset is automatically safe.
    """

    height: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.height < 0 or self.offset < 0:
            raise ValueError("tower height and offset must be non-negative")
        if self.height < _EXACT_TOWER_HEIGHT:
            if _TOWERS[self.height] + self.offset >= _TOWERS[self.height + 1]:
                raise ValueError("offset reaches the next tower level; use a larger height")

    def exact(self) -> int:
        if self.height > _EXACT_TOWER_HEIGHT:
            raise OverflowError(f"tower({self.height}) does not fit in memory")
        return _TOWERS[self.height] + self.offset

    def _cmp(self, other: int | TowerValue) -> int:
        if isinstance(other, int):
            if self.height <= _EXACT_TOWER_HEIGHT:
                mine = self.exact()
                return (mine > other) - (mine < other)
            return 1  # tower(>=6) exceeds any representable integer
        if isinstance(other, TowerValue):
            if self.height != other.height:
                return 1 if self.height > other.height else -1
            return (self.offset > other.offset) - (self.offset < other.offset)
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, TowerValue)):
            c = self._cmp(other)
            return c == 0 if c is not NotImplemented else NotImplemented
        return NotImplemented

    def __hash__(self) -> int:
        return hash((TowerValue, self.height, self.offset))

    def __lt__(self, other):
        c = self._cmp(other)
        return c < 0 if c is not NotImplemented else NotImplemented

    def __str__(self) -> str:
        return f"pt:{self.height}+{self.offset}" if self.offset else f"pt:{self.height}"


def tower(height: int) -> int | TowerValue:
    """Tetration with base 2: tower(0) = 1, tower(h+1) = 2**tower(h).

    Returns a plain integer up to height 5 and a symbolic
    :class:`TowerValue` above it (heights past 5 cannot be materialised).
    """
    if height < 0:
        raise ValueError("tower height must be non-negative")
    if height <= _EXACT_TOWER_HEIGHT:
        return _TOWERS[height]
    return TowerValue(height)


def _label_key(obj):
    if isinstance(obj, (frozenset, set)):
        return (1, tuple(sorted(_label_key(x) for x in obj)))
    if isinstance(obj, tuple):
        return (2, tuple(_label_key(x) for x in obj))
    return (0, obj)


def canonical_label(obj) -> str:
    """Stable text form for colours: ints, windows, and nested colour families."""
    if isinstance(obj, (frozenset, set)):
        parts = sorted(obj, key=_label_key)
        return "{" + ",".join(canonical_label(x) for x in parts) + "}"
    if isinstance(obj, tuple):
        return "(" + ",".join(canonical_label(x) for x in obj) + ")"
    return str(obj)


def format_count(x: int | TowerValue) -> str:
    """Decimal rendering, falling back to ~2^e for integers too large to print."""
    if isinstance(x, TowerValue):
        return str(x)
    if x.bit_length() <= 133:  # about 40 decimal digits
        return str(x)
    return f"~2^{x.bit_length() - 1}"


def log_star(x: int | float | TowerValue) -> int:
    """Least i such that the i-fold binary logarithm of x is <= 1."""
    if isinstance(x, TowerValue):
        return x.height + (1 if x.offset else 0)
    if isinstance(x, float):
        if not 1 <= x < inf:  # nan fails both comparisons
            raise ValueError("log_star requires a finite x >= 1")
        i = 0
        while x > 1:
            x = log2(x)
            i += 1
        return i
    if x < 1:
        raise ValueError("log_star requires x >= 1")
    for h, value in enumerate(_TOWERS):
        if x <= value:
            return h
    return _EXACT_TOWER_HEIGHT + 1  # tower(5) < x < tower(6) for any representable int


@dataclass(frozen=True)
class Palette:
    """The set of colours {1, ..., size}."""

    size: int | TowerValue

    def __post_init__(self) -> None:
        if isinstance(self.size, int) and self.size < 1:
            raise ValueError("palette size must be at least 1")

    def __contains__(self, colour: int) -> bool:
        return isinstance(colour, int) and 1 <= colour and colour <= self.size

    def __str__(self) -> str:
        return format_count(self.size)


@dataclass(frozen=True)
class PathInstance:
    """A directed path or cycle whose nodes carry colour labels."""

    topology: str
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.topology not in (PATH, CYCLE):
            raise ValueError(f"unknown topology {self.topology!r}")
        if len(self.labels) < 2:
            raise ValueError("an instance needs at least 2 nodes")
        labels = self.labels
        if not all(map(isinstance, labels, itertools.repeat(int))) or min(labels) < 1:
            raise ValueError("labels must be positive integers")

    def __len__(self) -> int:
        return len(self.labels)


def _checked_instance(
    topology: str, labels: tuple[int, ...], proper_over: int | None = None
) -> PathInstance:
    """A PathInstance built without its checks, for labels the library has checked.

    ``proper_over`` records that the labels are a proper colouring in
    1..proper_over, for ``run_algorithm`` to trust.  It is a private
    attribute, not a field: it takes no part in eq, repr or hash, and an
    instance built by ``PathInstance(...)`` or ``dataclasses.replace``
    does not carry it.
    """
    instance = object.__new__(PathInstance)
    object.__setattr__(instance, "topology", topology)
    object.__setattr__(instance, "labels", labels)
    if proper_over is not None:
        object.__setattr__(instance, "_proper_over", proper_over)
    return instance


def _columns_distinct(columns: Sequence[bytes]) -> bool:
    """True iff no two neighbouring columns hold an equal byte at any index.

    In C: a zero byte in the XOR of two columns marks an equal pair.
    """
    for a, b in zip(columns, columns[1:]):
        pairs = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
        if 0 in pairs.to_bytes(len(a), "big"):
            return False
    return True


def _adjacent_distinct(seq: bytes) -> bool:
    """True iff no two neighbours in ``seq`` are equal."""
    return _columns_distinct((seq[:-1], seq[1:]))


def is_proper(instance: PathInstance) -> bool:
    """True iff all adjacent labels differ, including the wrap-around pair on cycles."""
    labels = instance.labels
    try:
        proper = _adjacent_distinct(bytes(labels))
    except ValueError:  # a label above 255
        proper = not any(map(eq, labels, itertools.islice(labels, 1, None)))
    return proper and not (instance.topology == CYCLE and labels[-1] == labels[0])


@dataclass(frozen=True, eq=False)
class ReductionAlgorithm:
    """A colour-reduction rule together with its round count and palettes.

    ``rule`` maps a valid window (entries in the input palette, adjacent
    entries distinct, correct length) to an output colour.  It is defined
    on valid windows only and need not check them; ``run_algorithm``
    checks the input of every stage before the stage runs, and so does
    the speed-up tower's level 0, with the same check.  The properness
    contract -- overlapping windows get distinct outputs -- is checkable
    with :func:`exhaustive_properness_check`.
    ``stages`` is set for composed pipelines so the simulator can evaluate
    stage by stage instead of re-running the full composition per node.
    """

    sidedness: str
    rounds: int
    in_palette: Palette
    out_palette: Palette
    rule: Callable[[ColourWindow], int]
    name: str = "custom"
    stages: tuple["ReductionAlgorithm", ...] | None = None

    def __post_init__(self) -> None:
        if self.sidedness not in (ONE_SIDED, TWO_SIDED):
            raise ValueError(f"unknown sidedness {self.sidedness!r}")
        if self.rounds < 0:
            raise ValueError("round count must be non-negative")

    @property
    def window_length(self) -> int:
        return self.rounds + 1 if self.sidedness == ONE_SIDED else 2 * self.rounds + 1

    def describe(self) -> str:
        return f"{self.name} in={self.in_palette} out={self.out_palette}"


def identity_algorithm(n: int) -> ReductionAlgorithm:
    """The 0-round rule that outputs the node's own colour."""
    return ReductionAlgorithm(
        ONE_SIDED, 0, Palette(n), Palette(n), lambda w: w[0], name="identity"
    )


def _virtual_prev(x: int) -> int:
    # Deterministic extension colour: differs from x, computable by all nodes.
    return 1 if x != 1 else 2


def _virtual_run(end: int, count: int) -> list[int]:
    # prev(end), prev(prev(end)), ...: the tail's extension, and the head's reversed.
    out: list[int] = []
    x = end
    for _ in range(count):
        x = _virtual_prev(x)
        out.append(x)
    return out


class _WindowTable(dict):
    """Window -> output table of one rule, filled as windows first appear.

    The package's only lazily filled table.  ``run_algorithm``, ``speed_up``
    and the speed-up tower's stage-wise level 0, for stages too large for
    ``_byte_stage``, key it by window; the ns rule of more than 2^20 colours
    keys it by colour, to the colour's subset mask.  A raising rule adds no
    entry.
    """

    __slots__ = ("rule",)

    def __init__(self, rule: Callable[[ColourWindow], int]) -> None:
        super().__init__()
        self.rule = rule

    def __missing__(self, window: ColourWindow) -> int:
        value = self[window] = self.rule(window)
        return value


def _check_stage_input(seq, stage: ReductionAlgorithm, columns: Sequence[bytes] = ()) -> None:
    """Raise a ValueError naming ``stage`` unless ``seq`` is a proper colouring for it.

    ``run_algorithm`` checks each later stage's input sequence.  The
    speed-up tower's level 0 checks each distinct input window of a table
    stage, and for a byte stage the previous stage's outputs, ``seq``, for
    the palette and the stage's window ``columns`` for equal neighbours.
    Bytes are checked in C: one ``translate`` deletes the colours 1..n, and
    a zero byte in the XOR of two neighbouring columns (by default ``seq``
    and ``seq`` shifted by one) marks equal neighbours.
    """
    n = stage.in_palette.size
    if isinstance(seq, bytes):
        in_range = not seq.translate(None, bytes(range(1, min(n, 255) + 1)))
        proper = in_range and _columns_distinct(columns or (seq[:-1], seq[1:]))
    else:
        proper = (
            all(map(isinstance, seq, itertools.repeat(int)))
            and 1 <= min(seq)
            and max(seq) <= n
            and not any(map(eq, seq, itertools.islice(seq, 1, None)))
        )
    if not proper:
        raise ValueError(
            f"the input of stage {stage.name} is not a proper colouring"
            f" over {stage.in_palette} colours"
        )


def _byte_sized(stage: ReductionAlgorithm) -> bool:
    """True iff the stage's colours, outputs and window codes each fit a byte."""
    n = stage.in_palette.size
    return (
        isinstance(n, int)
        and n < 256
        and n**stage.window_length <= 256
        and stage.out_palette.size <= 255
    )


def _byte_stage(columns: Sequence[bytes], stage: ReductionAlgorithm) -> bytes:
    """One byte-sized stage (see ``_byte_sized``) over the columns of its windows, in C.

    Column i holds entry i of every window, and the windows are proper
    colourings in 1..n, so window w has the mixed-radix code
    sum((w[i] - 1) * n**(wl - 1 - i)), below 256, and one byte holds it.
    The codes of all windows come from big-integer arithmetic on the
    columns: the exact result has code j in byte j, whatever carries the
    steps make on the way.  A 256-byte table filled once over
    ``proper_sequences`` then turns the codes into outputs with one
    ``bytes.translate``.  The rule is called on every valid window, present
    in the columns or not, as ``exhaustive_properness_check`` calls it, and
    each of its values must fit a byte, or a ValueError names the stage and
    window.  ``run_algorithm`` takes the columns as shifted slices of its
    sequence, the speed-up tower's level 0 from rank blocks.
    """
    rule, n = stage.rule, stage.in_palette.size
    table = bytearray(256)
    for window in proper_sequences(n, stage.window_length):
        code = 0
        for x in window:
            code = code * n + x - 1
        value = rule(window)
        try:
            table[code] = value
        except (TypeError, ValueError):
            raise ValueError(
                f"stage {stage.name} gives {value!r} on window {window}, not a byte"
            ) from None
    m = len(columns[0])
    ones = int.from_bytes(b"\x01" * m, "big")
    codes = 0
    for column in columns:
        codes = codes * n + int.from_bytes(column, "big") - ones
    return codes.to_bytes(m, "big").translate(table)


def run_algorithm(alg: ReductionAlgorithm, instance: PathInstance) -> PathInstance:
    """Relabel an instance by applying the algorithm's rule at every node.

    Windows wrap on cycles.  On paths, entries beyond the endpoints are
    simulated by the virtual-extension rule (prev(x) = 1 unless x = 1, then
    2), applied backwards from the head and mirrored past the tail.

    Every stage is defined on a proper colouring over its input palette
    only.  The instance is checked for the first stage, unless
    ``random_proper_instance`` built it over a palette no larger than the
    algorithm's input palette: such an instance is proper by construction
    and records its palette, and any other instance, also one copied from
    it by ``dataclasses.replace``, is checked.  Each later stage's
    input, the output of the stage before it, is checked before it runs,
    and a ValueError names the stage whose input fails.  Each stage then
    takes one path, chosen before it runs.  A one-round stage whose rule
    has a sequence form, ``rule.over(seq)``, gets its outputs from that
    form as bytes (``ns_algorithm`` and ``cv_algorithm`` give their rules
    one where its lanes fit 8 bytes).  A stage with no more valid windows
    than the instance has nodes is evaluated through a table: once per
    valid window (``_byte_stage``) when its colours and outputs fit a byte
    and at most 256 window codes exist, else once per distinct window
    (``_WindowTable``).  Any other stage calls its rule at every node.
    """
    labels = instance.labels
    proper_over = getattr(instance, "_proper_over", None)
    if proper_over is None or proper_over > alg.in_palette.size:
        # PathInstance holds ints >= 1 only, so the largest label decides.
        if max(labels) > alg.in_palette.size:
            raise ValueError("instance labels do not lie in the algorithm's input palette")
        if not is_proper(instance):
            raise ValueError("input instance is not properly coloured")

    t = alg.rounds
    before = t
    after = t if alg.sidedness == TWO_SIDED else 0
    length = len(labels)
    if instance.topology == CYCLE:
        ring = labels * -(-max(before, after) // length)  # enough turns for either reach
        seq = ring[len(ring) - before :] + labels + ring[:after]
    else:
        seq = _virtual_run(labels[0], before)[::-1] + list(labels) + _virtual_run(labels[-1], after)

    for i, stage in enumerate(alg.stages or (alg,)):
        if i:
            _check_stage_input(seq, stage)
        n = stage.in_palette.size
        wl = stage.window_length
        rule = stage.rule
        if wl == 2 and hasattr(rule, "over"):
            seq = rule.over(seq)
            continue
        if isinstance(n, int) and count_proper_sequences(n, wl) <= length:
            if _byte_sized(stage):
                seq, m = bytes(seq), len(seq) - wl + 1
                seq = _byte_stage([seq[j : m + j] for j in range(wl)], stage)
                continue
            rule = _WindowTable(rule).__getitem__
        seq = list(map(rule, zip(*(seq[j:] for j in range(wl)))))
    assert len(seq) == length
    if isinstance(seq, bytes):  # bytes hold ints below 256, so only 0 is no label
        if 0 in seq:
            raise ValueError("labels must be positive integers")
        return _checked_instance(instance.topology, tuple(seq))
    return PathInstance(instance.topology, tuple(seq))


def proper_sequences(n: int, length: int) -> Iterator[ColourWindow]:
    """All sequences over [n] of the given length with adjacent entries distinct.

    In lexicographic order.  The first ``length - 2`` entries (at least one)
    come from a digit loop; each of the last two is appended to every
    shorter sequence as one of the precomputed one-tuples of the colours
    unlike its last entry, one tuple concatenation per sequence, so the
    nesting stays two deep at any length and the extra memory is O(n).
    """
    if length < 0:
        raise ValueError("sequence length must be non-negative")
    if length == 0:
        return iter(((),))
    ones = [(y,) for y in range(1, n + 1)]

    def extensions(prefix: ColourWindow) -> Iterator[ColourWindow]:
        others = ones.copy()
        del others[prefix[-1] - 1]
        return map(prefix.__add__, others)

    head = max(1, length - 2)
    sequences = _digit_sequences(n, head)
    for _ in range(length - head):
        sequences = itertools.chain.from_iterable(map(extensions, sequences))
    return sequences


def _digit_sequences(n: int, length: int) -> Iterator[ColourWindow]:
    # length >= 1; digit d of a later entry picks the d-th colour unlike the entry before
    for first in range(1, n + 1):
        for offsets in itertools.product(range(1, n), repeat=length - 1):
            seq = [first]
            prev = first
            for off in offsets:
                prev = off if off < prev else off + 1
                seq.append(prev)
            yield tuple(seq)


def count_proper_sequences(n: int, length: int) -> int:
    if length == 0:
        return 1
    return n * (n - 1) ** (length - 1)


# Window ranks.  With m = n - 1, the window (w1, ..., wL) has the rank whose
# base-m digits after the leading w1 - 1 are d_i = w_i - 1 - (w_i > w_{i-1}),
# the position of w_i among the colours unlike w_{i-1}.  That is its index
# in proper_sequences(n, L), so the prefix w[:-1] of window r has rank r // m
# and the m windows sharing a prefix are consecutive.


def _suffix_ranks(n: int, length: int) -> array:
    """The rank of w[1:] for every window w of the given length, at least 2.

    The array is indexed by the rank of w.  The windows of first colour a
    are block a of the ranks, and their suffixes are, in rank order, the
    shorter windows of every other first colour: all shorter ranks outside
    block a.  So each length is 2n ranges of one array, whatever its size.
    """
    block = (n - 1) ** (length - 2)  # shorter windows of one first colour
    shorter = array("i" if count_proper_sequences(n, length) < 1 << 31 else "q", range(n * block))
    suffix = shorter[:0]
    for a in range(n):
        suffix += shorter[: a * block]
        suffix += shorter[(a + 1) * block :]
    return suffix


def window_masks(n: int, length: int, ranks: Sequence[int]) -> list[int]:
    """The one-step shift graph on the windows of the given ranks, as neighbour masks.

    Vertex i is the window of rank ``ranks[i]`` in ``proper_sequences(n,
    length)``; the caller picks the windows and their order.  Bit j of
    mask i is set iff windows i and j are those of adjacent nodes (one is
    w, the other w[1:] + (y,)), so proper colourings of the graph are
    exactly the proper rules on these windows.  With m = n - 1, the
    out-neighbours of rank r are the m ranks from suffix[r] * m, one block
    shared by every window with that suffix; its in-neighbours are the m
    windows whose suffix rank is r // m, one set shared by r's m siblings.
    So all the block masks cost one OR per rank, a rank not chosen adding
    no bit, and each vertex's mask is one OR of its two blocks.
    """
    if length < 2 or n < 2:  # every two windows of one colour are a shift apart
        everyone = (1 << len(ranks)) - 1
        return [everyone ^ 1 << i for i in range(len(ranks))]
    m = n - 1
    count = count_proper_sequences(n, length)
    bits = [0] * count  # bits[r]: the bit of the window of rank r, 0 if not chosen
    for i, r in enumerate(ranks):
        bits[r] = 1 << i
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
    heads = map(_suffix_ranks(n, length).__getitem__, ranks)
    prefixes = map(floordiv, ranks, itertools.repeat(m))
    return list(map(or_, map(out.__getitem__, heads), map(into.__getitem__, prefixes)))


def exhaustive_properness_check(alg: ReductionAlgorithm, *, budget: int | None = None) -> bool:
    """Check the properness contract on every pair of overlapping valid windows.

    Also verifies that outputs stay inside the output palette.  Raises
    :class:`BudgetExceeded` (rather than returning a verdict) when the
    enumeration would run past the budget, which is charged two window
    evaluations per adjacent-distinct sequence one entry longer than the
    window.  It streams over the stems, the sequences v one entry shorter
    than the window, in ``proper_sequences`` order: the overlapping pairs
    with stem v are (x + v, v + y), so the rule is proper on them iff the
    outputs before, {rule(x + v)}, and after, {rule(v + y)}, are disjoint.
    Each window is one stem's before and another's after, so the rule is
    called twice per window.  A 0-round rule has no stem: its outputs must
    all differ.  As the reference check it keeps streaming in O(n) memory
    instead of building the window graph, which would reach about 1.1M
    vertices for ``compose(ns_schedule(17))``.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    n = alg.in_palette.size
    if not isinstance(n, int):
        raise BudgetExceeded("input palette is symbolic; exhaustive enumeration impossible")
    wl = alg.window_length
    cost = 2 * count_proper_sequences(n, wl + 1)
    if cost > budget:
        raise BudgetExceeded(f"{cost} window evaluations exceed budget {budget}")
    if n < 2:  # no two colours, so no pair of windows
        return True
    c = alg.out_palette.size
    rule = alg.rule
    ones = [(x,) for x in range(1, n + 1)]
    if wl == 1:
        outputs = set(map(rule, ones))
        return len(outputs) == n and 1 <= min(outputs) and max(outputs) <= c
    unlike = [ones[:i] + ones[i + 1 :] for i in range(n)]  # unlike[x - 1]: the colours but x
    for stem in proper_sequences(n, wl - 1):
        before = set(map(rule, map(tuple.__add__, unlike[stem[0] - 1], itertools.repeat(stem))))
        after = map(rule, map(stem.__add__, unlike[stem[-1] - 1]))
        # every window is one stem's before, so checking those covers the palette
        if not before.isdisjoint(after) or min(before) < 1 or max(before) > c:
            return False
    return True


# Byte-palette walks.  _WALK_DRAWS[k] maps the top byte of a 32-bit word
# to 1 + its top k bits, the k-bit draw of ``getrandbits(k)`` plus one; the
# byte 255 of k = 8 would give 256, but it is rejected for every m <= 255.
# A walk takes the byte path from _BYTE_WALK_STEPS steps on: shorter ones,
# such as ``sampled_properness_check``'s, are faster in the step loop.
_BYTES = bytes(range(256))
_WALK_DRAWS = [b""] + [bytes((b >> 8 - k) + 1 & 255 for b in _BYTES) for k in range(1, 9)]
_BYTE_WALK_STEPS = 64


def _random_walk(rng: random.Random, n: int, length: int) -> list[int]:
    """``length`` colours in [n], each uniform over those unlike the one before.

    Each step draws what ``rng.randint(1, n - 1)`` would, with the same
    calls to ``getrandbits`` (CPython's rejection loop), minus its argument
    handling.  For n - 1 < 256 a long walk draws its words in batches of
    the steps still needed, ``getrandbits(32 * need)``, which gives the
    words one ``getrandbits(k)`` call each would, so it never draws past
    the last step.  A k-bit draw is the top k bits of its word, so the top
    byte of each word (byte 3 of the little-endian bytes) and one
    ``bytes.translate`` give every draw plus one and drop the rejected
    ones; only the label step runs in Python.  Wider palettes keep the
    step loop: bulk draws were no faster there.
    """
    if n < 2 and length > 1:
        raise ValueError("a walk of two or more colours needs n >= 2")
    getrandbits = rng.getrandbits
    m = n - 1
    k = m.bit_length()
    prev = rng.randint(1, n)
    walk = [prev]
    need = length - 1
    if k <= 8 and need >= _BYTE_WALK_STEPS:
        table, reject = _WALK_DRAWS[k], _BYTES[m << 8 - k :]
        append = walk.append
        while need:
            draws = getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
            draws = draws.translate(table, reject)
            for r in draws:
                prev = r if r < prev else r + 1
                append(prev)
            need -= len(draws)
        return walk
    for _ in range(need):
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        r += 1
        prev = r if r < prev else r + 1
        walk.append(prev)
    return walk


def sampled_properness_check(
    alg: ReductionAlgorithm, *, samples: int = 10**6, seed: int = 0
) -> bool:
    """Properness spot-check on random window pairs, for palettes beyond the budget."""
    n = alg.in_palette.size
    if not isinstance(n, int):
        raise ValueError("cannot sample windows from a symbolic palette")
    rng = random.Random(seed)
    wl = alg.window_length
    c = alg.out_palette.size
    rule = alg.rule
    for _ in range(samples):
        seq = tuple(_random_walk(rng, n, wl + 1))
        a = rule(seq[:wl])
        b = rule(seq[1:])
        if a == b or not (1 <= a <= c) or not (1 <= b <= c):
            return False
    return True


def one_sided_from_two_sided(alg: ReductionAlgorithm) -> ReductionAlgorithm:
    """Simulate a t-round two-sided algorithm one-sidedly in 2t rounds.

    The 2t+1 window of predecessors-plus-self carries exactly the radius-t
    neighbourhood of the node t hops back, so the rule itself is unchanged;
    on cycles the output is the two-sided output rotated by t positions.
    """
    if alg.sidedness != TWO_SIDED:
        raise ValueError("expected a two-sided algorithm")
    return ReductionAlgorithm(
        ONE_SIDED,
        2 * alg.rounds,
        alg.in_palette,
        alg.out_palette,
        alg.rule,
        name=f"one-sided({alg.name})",
    )


def two_sided_from_one_sided(alg: ReductionAlgorithm) -> ReductionAlgorithm:
    """Run a t-round one-sided algorithm two-sidedly in ceil(t/2) rounds.

    The radius-ceil(t/2) window contains t+1 consecutive colours; the rule is
    evaluated on its leftmost t+1 entries.
    """
    if alg.sidedness != ONE_SIDED:
        raise ValueError("expected a one-sided algorithm")
    t = alg.rounds
    wl = t + 1
    rule = alg.rule

    def two_sided_rule(window: ColourWindow) -> int:
        return rule(window[:wl])

    return ReductionAlgorithm(
        TWO_SIDED,
        (t + 1) // 2,
        alg.in_palette,
        alg.out_palette,
        two_sided_rule,
        name=f"two-sided({alg.name})",
    )


def _ceil_half(x: int) -> int:
    return -(-x // 2)


@dataclass(frozen=True)
class BoundsReport:
    """Lower/upper bounds on the one- and two-sided round complexity of 3-colouring."""

    n: int | TowerValue
    log_star: int
    lower_t: int
    upper_t: int
    lower_c: int
    upper_c: int

    @property
    def exact(self) -> bool:
        return self.lower_c == self.upper_c

    def to_text(self) -> str:
        lines = [
            f"n={format_count(self.n)}",
            f"logStar={self.log_star}",
            f"lowerT={self.lower_t}",
            f"upperT={self.upper_t}",
            f"lowerC={self.lower_c}",
            f"upperC={self.upper_c}",
            f"exact={'true' if self.exact else 'false'}",
        ]
        return "\n".join(lines) + "\n"


def _largest_tower_le(n: int | TowerValue) -> int:
    if isinstance(n, TowerValue):
        return n.height
    for h in range(len(_TOWERS) - 1, -1, -1):
        if _TOWERS[h] <= n:
            return h
    raise ValueError("n below tower(0)")


def _smallest_tower_plus_one_ge(n: int | TowerValue) -> int:
    if isinstance(n, TowerValue):
        return n.height if n.offset <= 1 else n.height + 1
    for h, value in enumerate(_TOWERS):
        if n <= value + 1:
            return h
    return _EXACT_TOWER_HEIGHT + 1


def bounds_report(n: int | TowerValue) -> BoundsReport:
    """Round-complexity bounds for colour reduction from n to 3 colours.

    lowerT is the largest h with tower(h) <= n, and at least 3 from n = 5
    on: ``k_colourable(neighbourhood_graph(5, 1, all_distinct=False), 3)``
    refutes A(5) = W(5,3), the graph of 2-round one-sided rules, and every
    larger palette's window graph contains it.  upperT is the tower
    arithmetic's bound (smallest h with n <= tower(h)+1, plus one round),
    except at n = 4 where the two-round reducer is known optimal.  It is a
    valid upper bound but not the rounds of ``reduce.ns_schedule(n)``:
    those do not fall as n grows and are at most h + 1 at n = tower(h) + 1,
    so upperT is never below them, and it exceeds them by one at n = 6,
    18-20 and 65,538-184,756.  The two-sided bounds combine the log*-based
    window with the transfer C = ceil(T/2), whichever is tighter on each
    side.
    """
    if n < 4:
        raise ValueError("bounds are defined for n >= 4")
    s = log_star(n)
    lower_t = max(2 if n == 4 else 3, _largest_tower_le(n))
    if n == 4:
        upper_t = 2
    else:
        upper_t = max(2, _smallest_tower_plus_one_ge(n)) + 1
    lower_c = max(_ceil_half(s - 1), _ceil_half(lower_t))
    upper_c = min(_ceil_half(s + 1), _ceil_half(upper_t))
    report = BoundsReport(n, s, lower_t, upper_t, lower_c, upper_c)
    assert report.lower_t <= report.upper_t <= report.lower_t + 2
    assert report.lower_c <= report.upper_c <= report.lower_c + 1
    return report


def random_proper_instance(
    n: int, length: int, seed: int, topology: str = CYCLE
) -> PathInstance:
    """Seeded random properly-coloured instance with labels in [n].

    The instance records that it is proper over [n], so ``run_algorithm``
    does not check it again for an algorithm of at least n input colours.
    """
    if n < 2:
        raise ValueError("need at least 2 colours")
    if length < 2:
        raise ValueError("need at least 2 nodes")
    if topology not in (PATH, CYCLE):
        raise ValueError(f"unknown topology {topology!r}")
    if topology == CYCLE and n == 2 and length % 2 == 1:
        raise ValueError("odd cycles admit no proper 2-colouring")
    rng = random.Random(seed)
    labels = _random_walk(rng, n, length)
    if topology == CYCLE:
        while labels[-1] == labels[0] or labels[-1] == labels[-2]:
            labels[-1] = rng.randint(1, n)
    return _checked_instance(topology, tuple(labels), proper_over=n)


def format_instance(instance: PathInstance) -> str:
    return f"{instance.topology}\n{' '.join(map(str, instance.labels))}\n"


def parse_instance(text: str) -> PathInstance:
    """Parse the two-line text format: topology, then space-separated labels."""
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if len(lines) != 2:
        raise ValueError("expected two lines: topology and labels")
    try:
        labels = tuple(int(tok) for tok in lines[1].split())
    except ValueError:
        raise ValueError("labels must be integers") from None
    return PathInstance(lines[0], labels)
