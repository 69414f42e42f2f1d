"""Concrete colour-reduction algorithms and the greedy reduction scheduler.

The fast one-round reduction interprets colours as k-subsets of [2k] via a
colexicographic code and outputs ``min f(u) \\ f(v)``; the bit-pairing
reduction gets one round from 2^k to 2k colours; the shift reducer removes
one colour in two rounds.  ``ns_schedule`` chains these into an n-to-3
pipeline.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import partial
from math import comb
from operator import itemgetter
from typing import Sequence

from .model import (
    ONE_SIDED,
    Palette,
    ReductionAlgorithm,
    TowerValue,
    ColourWindow,
    _WindowTable,
    format_count,
    identity_algorithm,
    tower,
)

# Array typecodes by item size.  ``_colex_masks`` and the sequence forms
# pack one int per subset or node into a lane of one of these sizes, in
# native byte order, and run one big-int operation over all lanes at once.
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}
# Byte tables: a byte's lowest set bit alone, and 1 for every byte that is
# not 0.  For byte p of a lane (its bits 8p..8p+7), _LOW[p] gives the
# 1-based position i of the lane's lowest set bit, and _LOW_CV[p] gives
# 2i - 1, the cv output before v - 1's bit is added; both give 0 for 0.
_ISOLATE = bytes(b & -b for b in range(256))
_ONE = bytes(map(bool, range(256)))
_LOW = [bytes(b and 8 * p + b.bit_length() for b in _ISOLATE) for p in range(8)]
_LOW_CV = [bytes(b and 16 * p + 2 * b.bit_length() - 1 for b in _ISOLATE) for p in range(8)]
# Colours whose masks ``_subset_minima`` gathers at a time, so that the
# gather holds a few thousand transient ints, not one per node.
_GATHER = 4096


def _lane_width(size: int) -> int | None:
    """The least array item size of at least ``size`` bytes, if there is one."""
    return min((width for width in _TYPECODES if width >= size), default=None)


def colex_unrank(rank: int, k: int, m: int) -> frozenset[int]:
    """The k-subset of [m] with the given 1-based colexicographic rank."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    if not 1 <= rank <= comb(m, k):
        raise ValueError(f"rank {rank} outside [1, C({m},{k})]")
    mask = _colex_unrank_mask(rank, k, m)
    return frozenset(i for i in range(1, m + 1) if mask >> (i - 1) & 1)


def _colex_unrank_mask(rank: int, k: int, m: int) -> int:
    # The one unranker: bit i-1 of the mask stands for element i.  One
    # comb call; every later binomial is a ratio step from the one before,
    # which keeps a 65k-bit palette's unrank at O(m) big-number steps.
    r = rank - 1
    mask = 0
    a = m
    c = comb(m - 1, k)  # C(a-1, i) throughout
    for i in range(k, 0, -1):
        # largest a with C(a-1, i) <= r
        while c > r:
            c = c * (a - 1 - i) // (a - 1)  # C(a-2, i)
            a -= 1
        r -= c
        mask |= 1 << (a - 1)
        if i > 1:
            c = c * i // (a - 1)  # C(a-2, i-1), the next element's start
        a -= 1
    return mask


def _colex_masks(k: int, count: int) -> array | list[int]:
    """Subset masks of colex ranks 0..count: ``masks[c]`` is colour c's, masks[0] = 0.

    Colex order on k-subsets is increasing numeric order of their bitmasks.
    The j-subsets whose largest element is bit a-1 are the first C(a-1, j-1)
    (j-1)-subsets, each with bit a-1 added, so every level of j-subsets is
    a run of blocks cut from the level below.  A level is kept as bytes of
    fixed-width lanes, and one big-int OR adds the bit to a whole block.
    The masks come back packed, as an ``array`` of the least lane width
    that holds them (1 to 8 bytes per colour).  Masks wider than 64 bits
    step Gosper's hack into a list instead: for a small count the k levels
    would hold up to k lanes of k bits each, where the hack takes count
    steps.
    """
    top = k  # every one of the count subsets lies within bits 0..top-1
    while comb(top, k) < count:
        top += 1
    width = _lane_width(-(-top // 8))
    if width is None:
        masks = [0]
        x = (1 << k) - 1
        for _ in range(count):
            masks.append(x)
            low = x & -x
            high = x + low
            x = (((high ^ x) >> 2) // low) | high
        return masks
    order = sys.byteorder
    level = bytes(width)  # the one 0-subset
    for j in range(1, k + 1):
        blocks = [bytes(width)] if j == k else []  # the last level leads with masks[0]
        size = 1  # C(a-1, j-1)
        for a in range(j, top - k + j + 1):
            if j == k:  # the last level stops at count subsets
                size = min(size, count)
                count -= size
            bit = (1 << (a - 1)).to_bytes(width, order) * size
            block = int.from_bytes(level[: size * width], "little") | int.from_bytes(bit, "little")
            blocks.append(block.to_bytes(size * width, "little"))
            size = size * a // (a - j + 1)
        level = b"".join(blocks)
    return array(_TYPECODES[width], level)


def _plane(lanes: bytes | memoryview, width: int, p: int) -> bytes | memoryview:
    """Byte p (bits 8p..8p+7) of every native ``width``-byte lane."""
    return lanes[p if sys.byteorder == "little" else width - 1 - p :: width]


def _lowest_plane(values: list[bytes]) -> bytes:
    """Per lane, its byte in the first of ``values`` where that byte is not 0."""
    if len(values) == 1:
        return values[0]
    out = int.from_bytes(values[-1], "little")
    for value in values[-2::-1]:
        taken = int.from_bytes(value.translate(_ONE), "little") * 255
        out = int.from_bytes(value, "little") | out & ~taken
    return out.to_bytes(len(values[0]), "little")


def _subset_minima(seq, masks: array) -> bytes:
    """The ns rule on every pair of adjacent colours in ``seq``, as bytes.

    ``seq`` is a proper colouring in 1..n, and ``masks`` is
    ``_colex_masks(k, n)`` packed in an ``array`` of lanes of at most 8
    bytes: every table for k <= 32, and for a larger k a palette small
    enough that its masks stay within 64 bits.  The masks of all colours
    are gathered into lanes of that width, a few thousand colours at a
    time, ``u & ~v`` is one big-int operation over all pairs, and the
    lowest set bit of each lane comes from one 256-byte translate per byte
    plane the masks reach.  Each full-length operand is a view or is
    released as soon as it has been used.
    """
    width = masks.itemsize
    planes = -(-masks[-1].bit_length() // 8)  # the last mask is the largest
    if width == 1:  # n <= 70: one translate gathers the masks
        lanes = bytes(seq).translate(masks.tobytes().ljust(256, b"\0"))
    else:
        lanes = array(masks.typecode)
        for i in range(0, len(seq), _GATHER):
            chunk = seq[i : i + _GATHER]
            got = itemgetter(*chunk)(masks)
            lanes.extend(got if len(chunk) > 1 else (got,))  # one item comes back bare
    size = (len(lanes) - 1) * width
    view = memoryview(lanes)
    u = int.from_bytes(view[:-1], "little")
    v = int.from_bytes(view[1:], "little")
    del view, lanes
    u |= v
    u ^= v  # u & ~v
    del v
    d = u.to_bytes(size, "little")
    del u
    return _lowest_plane([_plane(d, width, p).translate(_LOW[p]) for p in range(planes)])


def _bit_pairs(seq, k: int) -> bytes:
    """The cv rule on every pair of adjacent colours in ``seq``, as bytes.

    ``seq`` is a proper colouring in 1..2^k, and k <= 63, so each colour
    fits an 8-byte lane.  The colours go into lanes wide enough for 2^k,
    one subtraction makes them u - 1, one XOR gives every pair's differing
    bits, and the planes of those and of v - 1 give the lowest differing
    bit and v - 1's bit there.  Each full-length operand is a view or is
    released as soon as it has been used.
    """
    width = _lane_width(k // 8 + 1)  # k + 1 bits
    typecode = _TYPECODES[width]
    # array() would read bytes as raw machine items, not as colours
    lanes = array(typecode, seq if isinstance(seq, (list, tuple)) else list(seq))
    order = sys.byteorder
    count = len(lanes)
    lowered = int.from_bytes(lanes, order)
    del lanes
    lowered -= int.from_bytes(array(typecode, [1]).tobytes() * count, order)
    lanes = lowered.to_bytes(count * width, order)  # colour - 1 in every lane
    del lowered
    view = memoryview(lanes)
    v = view[width:]
    diff = int.from_bytes(view[:-width], "little")
    diff ^= int.from_bytes(v, "little")
    diff = diff.to_bytes(len(v), "little")
    values = []
    for p in range(-(-k // 8)):
        d = _plane(diff, width, p)
        low = d.translate(_LOW_CV[p])
        bit = int.from_bytes(d.translate(_ISOLATE), "little") & int.from_bytes(
            _plane(v, width, p), "little"
        )
        bit = bit.to_bytes(len(d), "little").translate(_ONE)  # that bit of v - 1
        value = int.from_bytes(low, "little") + int.from_bytes(bit, "little")
        values.append(value.to_bytes(len(d), "little"))
    return _lowest_plane(values)


def _fits_subset_code(n: int | TowerValue, k: int) -> bool:
    """Decide n <= C(2k, k), exactly when n is an integer.

    For symbolic n the decision uses the central-binomial lower bound
    C(2k,k) >= 4^k / sqrt(4k), i.e. it may say "no" for a k that barely
    fits; every "yes" is certainly correct.
    """
    if isinstance(n, int):
        return n <= comb(2 * k, k)
    # 16^k >= 4k * n^2 implies C(2k,k) >= 4^k/sqrt(4k) >= n
    bits = _ceil_log2(n)
    return 4 * k >= 2 * bits + (4 * k).bit_length() + 1


def _exact_if_fits(n: int | TowerValue) -> int | TowerValue:
    """n as an integer when it fits in memory, so only heights >= 6 stay symbolic."""
    if isinstance(n, TowerValue) and n.height <= 5:
        return n.exact()
    return n


def _ceil_log2(n: TowerValue) -> int:
    if n.height - 1 > 5:
        raise ValueError(f"cannot schedule above tower(6): {n}")
    prev = tower(n.height - 1)
    return prev if n.offset == 0 else prev + 1


def least_ns_k(c: int | TowerValue) -> int:
    """Least k >= 2 whose subset code covers c colours (bound-based for symbolic c)."""
    c = _exact_if_fits(c)
    if isinstance(c, int):
        # C(2k,k) < 4^k, so every feasible k has 2k > log2(c); start just
        # below that and walk upward, updating the binomial incrementally
        # (one exact comb instead of a dozen at bignum sizes).
        k = 2 if c <= 70 else max(2, (c.bit_length() - 1) // 2)
        value = comb(2 * k, k)
        while value < c:
            k += 1
            value = value * 2 * (2 * k - 1) // k
        return k
    k = max(2, (2 * _ceil_log2(c)) // 4)
    while not _fits_subset_code(c, k):
        k += 1
    return k


# Palettes up to this many colours build the subset masks of all their
# colours with the rule, in the table of ``_colex_masks`` (packed, 1 to 8
# bytes per colour: 4 for 98,304 colours); larger palettes unrank each
# colour on first sight into a ``_WindowTable``.
_MASK_LIST_LIMIT = 1 << 20


def ns_algorithm(n: int | TowerValue, k: int) -> ReductionAlgorithm:
    """One-round reduction from n <= C(2k,k) colours to 2k colours.

    Colours are read as k-subsets of [2k] through the colex code; a node
    with colour v receiving u from its predecessor outputs min f(u) \\ f(v),
    read off the subset masks ``masks[u] & ~masks[v]``.  For palettes of at
    most 2^20 colours the masks of all n colours are built with the rule,
    by ``_colex_masks``; where that table is packed in an ``array`` (masks
    that fit 8-byte lanes) the rule has a sequence form, ``rule.over(seq)``,
    that the simulator runs over all nodes at once (``_subset_minima``).
    Larger palettes unrank each colour on first sight into a
    ``model._WindowTable``.  The rule of a symbolic palette (tower height 6
    and up) raises ValueError: its masks would not fit in memory.

    The rule and its form are defined on valid windows only, two distinct
    colours in 1..n, and do not check them: the tower's level 0 and
    ``exhaustive_properness_check`` call the rule once per valid window,
    and ``run_algorithm`` checks each stage's input before the stage runs.
    """
    n = _exact_if_fits(n)
    if k < 2:
        raise ValueError("subset-code reduction needs k >= 2")
    if not _fits_subset_code(n, k):
        raise ValueError(f"n={n} exceeds C({2 * k},{k}) colour codes")

    if isinstance(n, int) and n <= _MASK_LIST_LIMIT:
        masks = _colex_masks(k, n)  # masks[c] is colour c's subset
    elif isinstance(n, int):
        masks = _WindowTable(partial(_colex_unrank_mask, k=k, m=2 * k))
    else:

        def unmasked(colour: int) -> int:
            # A symbolic palette needs k of about 2^65535 or more, so no
            # colour's k-subset mask fits in memory.
            raise ValueError(
                f"cannot evaluate ns k={format_count(k)} on a symbolic palette of {n} colours"
            )

        masks = _WindowTable(unmasked)

    def rule(window: ColourWindow) -> int:
        u, v = window
        d = masks[u] & ~masks[v]
        return (d & -d).bit_length()

    if isinstance(masks, array):
        # An attribute, not a field: a replaced or wrapped rule has no form.
        rule.over = partial(_subset_minima, masks=masks)

    return ReductionAlgorithm(
        ONE_SIDED, 1, Palette(n), Palette(2 * k), rule, name=f"ns k={format_count(k)}"
    )


def cv_algorithm(k: int) -> ReductionAlgorithm:
    """One-round bit-pairing reduction from 2^k to 2k colours (k >= 3).

    A node with colour v receiving u outputs 2i + b + 1 where i is the
    lowest bit position at which u-1 and v-1 differ and b is that bit of
    v-1; overlapping windows disagree because the successor's bit flips.
    For k <= 63 the rule has a sequence form, ``rule.over(seq)``, that the
    simulator runs over all nodes at once (``_bit_pairs``).  Like the ns
    rule, both are defined on valid windows only, two distinct colours in
    1..2^k, and do not check them.
    """
    if k < 3:
        raise ValueError("bit-pairing reduction needs k >= 3")

    def rule(window: ColourWindow) -> int:
        u, v = window
        x = (u - 1) ^ (v - 1)
        i = (x & -x).bit_length() - 1
        b = (v - 1) >> i & 1
        return 2 * i + b + 1

    if k <= 63:  # colours up to 2^k fit 8-byte lanes
        rule.over = partial(_bit_pairs, k=k)

    return ReductionAlgorithm(
        ONE_SIDED, 1, Palette(2**k), Palette(2 * k), rule, name=f"cv k={k}"
    )


def four_to_three() -> ReductionAlgorithm:
    """Two-round reduction from 4 to 3 colours: drop colour 4, else keep the middle."""
    return shift_reduce(3)


def shift_reduce(k: int) -> ReductionAlgorithm:
    """Two-round reduction from k+1 to k colours (k >= 3); k = 3 is four_to_three."""
    if k < 3:
        raise ValueError("shift reducer needs k >= 3")
    universe = frozenset(range(1, k + 1))

    def rule(window: ColourWindow) -> int:
        u, v, w = window
        return min(universe - {u, w}) if v == k + 1 else v

    name = "4to3" if k == 3 else f"shift k={k}"
    return ReductionAlgorithm(ONE_SIDED, 2, Palette(k + 1), Palette(k), rule, name=name)


@dataclass(frozen=True)
class Pipeline:
    """An ordered chain of one-sided reduction stages with matching palettes."""

    stages: tuple[ReductionAlgorithm, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        for stage in self.stages:
            if stage.sidedness != ONE_SIDED:
                raise ValueError("pipelines are built from one-sided stages")
        for a, b in zip(self.stages, self.stages[1:]):
            if a.out_palette.size != b.in_palette.size:
                raise ValueError(
                    f"palette mismatch between stages: {a.describe()} -> {b.describe()}"
                )

    @property
    def rounds(self) -> int:
        return sum(stage.rounds for stage in self.stages)

    @property
    def in_palette(self) -> Palette:
        return self.stages[0].in_palette

    @property
    def out_palette(self) -> Palette:
        return self.stages[-1].out_palette

    def describe(self) -> str:
        lines = [stage.describe() for stage in self.stages]
        lines.append(f"rounds={self.rounds}")
        return "\n".join(lines) + "\n"


def compose(pipeline: Pipeline | Sequence[ReductionAlgorithm]) -> ReductionAlgorithm:
    """Collapse a pipeline into a single one-sided algorithm.

    The rule slides every stage across the window of original colours, so
    its value at a node equals the value of running the stages in sequence.
    The result keeps the stages, so the simulator and the speed-up tower's
    level 0 run them stage by stage instead of calling the rule.  The rule
    serves the callers that evaluate one window at a time,
    ``exhaustive_properness_check`` and the lazy ``speed_up``, and keeps
    its own sliding loop for them, apart from ``run_algorithm``'s: on one
    short window per call, ``run_algorithm``'s loop took 18-25% longer over
    the 19,208 windows of ``compose(ns_schedule(8))``.
    """
    if not isinstance(pipeline, Pipeline):
        pipeline = Pipeline(tuple(pipeline))
    stages = pipeline.stages
    if len(stages) == 1:
        return stages[0]

    def rule(window: ColourWindow) -> int:
        seq = window
        for stage in stages:
            wl = stage.window_length
            srule = stage.rule
            seq = tuple(srule(seq[i : i + wl]) for i in range(len(seq) - wl + 1))
        return seq[0]

    return ReductionAlgorithm(
        ONE_SIDED,
        pipeline.rounds,
        pipeline.in_palette,
        pipeline.out_palette,
        rule,
        name="+".join(stage.name for stage in stages),
        stages=stages,
    )


def ns_schedule(n: int | TowerValue) -> Pipeline:
    """Greedy n-to-3 reduction schedule.

    While more than 6 colours remain, apply the subset-code reduction with
    the least k that covers the current palette; step through 4 colours via
    k = 2 when 4 < c <= 6; finish with the two-round 4-to-3 reducer.  Uses
    exact binomials for palettes up to tower(5) + d and the central-binomial
    bound for taller ones.
    """
    if n < 3:
        raise ValueError("schedules are defined for n >= 3")
    if n == 3:
        return Pipeline((identity_algorithm(3),))
    stages: list[ReductionAlgorithm] = []
    c: int | TowerValue = n
    while c > 6:
        k = least_ns_k(c)
        stages.append(ns_algorithm(c, k))
        c = 2 * k
    if c > 4:
        stages.append(ns_algorithm(c, 2))
    stages.append(four_to_three())
    return Pipeline(tuple(stages))
