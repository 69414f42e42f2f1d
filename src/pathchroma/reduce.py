"""Concrete colour-reduction algorithms and the greedy reduction scheduler.

The fast one-round reduction interprets colours as k-subsets of [2k] via a
colexicographic code and outputs ``min f(u) \\ f(v)``; the bit-pairing
reduction gets one round from 2^k to 2k colours; the shift reducer removes
one colour in two rounds.  ``ns_schedule`` chains these into an n-to-3
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb
from typing import Sequence

from .model import (
    ONE_SIDED,
    Palette,
    ReductionAlgorithm,
    TowerValue,
    ColourWindow,
    format_count,
    identity_algorithm,
    tower,
)


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


def _colex_masks(k: int, count: int) -> list[int]:
    """Subset masks of colex ranks 1..count, in one pass of Gosper's hack.

    Colex order on k-subsets is increasing numeric order of their bitmasks,
    and Gosper's hack steps from one k-bit mask to the next larger one.
    """
    masks = []
    x = (1 << k) - 1
    for _ in range(count):
        masks.append(x)
        low = x & -x
        high = x + low
        x = (((high ^ x) >> 2) // low) | high
    return masks


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


# Palettes up to this many colours read their subset masks from a list
# built by one Gosper pass (about 36 bytes per colour); larger and symbolic
# palettes unrank each colour on first sight and cache it.
_MASK_LIST_LIMIT = 1 << 20


def ns_algorithm(n: int | TowerValue, k: int) -> ReductionAlgorithm:
    """One-round reduction from n <= C(2k,k) colours to 2k colours.

    Colours are read as k-subsets of [2k] through the colex code; a node
    with colour v receiving u from its predecessor outputs min f(u) \\ f(v).
    Evaluated in closed form.  For palettes of at most 2^20 colours the first
    call builds the masks of all n colours in one pass and publishes the
    finished list, so concurrent callers at worst build it twice; larger
    palettes cache masks per colour in a ``functools.lru_cache``.  The rule
    of a symbolic palette (tower height 6 and up) raises ValueError: its
    masks would not fit in memory.
    """
    n = _exact_if_fits(n)
    if k < 2:
        raise ValueError("subset-code reduction needs k >= 2")
    if not _fits_subset_code(n, k):
        raise ValueError(f"n={n} exceeds C({2 * k},{k}) colour codes")

    if isinstance(n, int) and n <= _MASK_LIST_LIMIT:
        masks: list[int] | None = None

        def rule(window: ColourWindow) -> int:
            nonlocal masks
            if masks is None:
                masks = [0, *_colex_masks(k, n)]  # masks[c] is colour c's subset
            u, v = window
            d = masks[u] & ~masks[v]
            return (d & -d).bit_length()

    elif isinstance(n, int):
        mask = lru_cache(maxsize=None)(partial(_colex_unrank_mask, k=k, m=2 * k))

        def rule(window: ColourWindow) -> int:
            u, v = window
            d = mask(u) & ~mask(v)
            return (d & -d).bit_length()

    else:

        def rule(window: ColourWindow) -> int:
            # A symbolic palette needs k of about 2^65535 or more, so no
            # colour's k-subset mask fits in memory.
            raise ValueError(
                f"cannot evaluate ns k={format_count(k)} on a symbolic palette of {n} colours"
            )

    return ReductionAlgorithm(
        ONE_SIDED, 1, Palette(n), Palette(2 * k), rule, name=f"ns k={format_count(k)}"
    )


def cv_algorithm(k: int) -> ReductionAlgorithm:
    """One-round bit-pairing reduction from 2^k to 2k colours (k >= 3).

    A node with colour v receiving u outputs 2i + b + 1 where i is the
    lowest bit position at which u-1 and v-1 differ and b is that bit of
    v-1; overlapping windows disagree because the successor's bit flips.
    """
    if k < 3:
        raise ValueError("bit-pairing reduction needs k >= 3")

    def rule(window: ColourWindow) -> int:
        u, v = window
        x = (u - 1) ^ (v - 1)
        i = (x & -x).bit_length() - 1
        b = (v - 1) >> i & 1
        return 2 * i + b + 1

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
