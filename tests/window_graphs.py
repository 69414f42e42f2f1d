"""The window graph in lexicographic vertex order, the reference the tests search."""

from pathchroma.chroma import UGraph
from pathchroma.model import proper_sequences, window_edges


def lexicographic_window_graph(n, length, all_distinct=False):
    """W(n, length) numbered as ``proper_sequences`` lists its windows.

    With ``all_distinct`` only the pairwise-distinct windows are kept.
    """
    windows = tuple(proper_sequences(n, length))
    ranks = [r for r, w in enumerate(windows) if not all_distinct or len(set(w)) == length]
    return UGraph(tuple(windows[r] for r in ranks), window_edges(n, length, ranks))
