"""Window-graph references the tests search and compare against."""

import itertools

from pathchroma.chroma import UGraph
from pathchroma.model import proper_sequences, window_masks


def lexicographic_window_graph(n, length, all_distinct=False):
    """W(n, length) numbered as ``proper_sequences`` lists its windows.

    With ``all_distinct`` only the pairwise-distinct windows are kept.
    """
    windows = tuple(proper_sequences(n, length))
    ranks = [r for r, w in enumerate(windows) if not all_distinct or len(set(w)) == length]
    return UGraph(tuple(windows[r] for r in ranks), window_masks(n, length, ranks))


def product_sequences(n, length):
    """Every sequence over [n] in lexicographic order, less those with equal neighbours."""
    return [
        w for w in itertools.product(range(1, n + 1), repeat=length)
        if all(a != b for a, b in zip(w, w[1:]))
    ]


def dict_window_graph(n, length, all_distinct=False):
    """The oracle: windows hashed into a dict, and each shift looked up by its tuple.

    Returns the windows in lexicographic order and the edges as index pairs.
    """
    windows = tuple(
        w for w in product_sequences(n, length) if not all_distinct or len(set(w)) == length
    )
    index = {w: i for i, w in enumerate(windows)}
    edges = set()
    for i, w in enumerate(windows):
        for y in range(1, n + 1):
            j = index.get(w[1:] + (y,))
            if j is not None and j != i:
                edges.add((min(i, j), max(i, j)))
    return windows, frozenset(edges)


def mask_edges(masks):
    """The pairs (i < j) that neighbour masks join, after checking the masks.

    Each mask must lie within the vertices and leave out its own vertex,
    and bit j of mask i must match bit i of mask j.
    """
    n = len(masks)
    pairs = set()
    for i, mask in enumerate(masks):
        assert 0 <= mask < 1 << n, f"mask {i} outside the vertices"
        assert not mask >> i & 1, f"loop at {i}"
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            assert masks[j] >> i & 1, f"{i} sees {j} but not the other way"
            pairs.add((min(i, j), max(i, j)))
    return frozenset(pairs)
