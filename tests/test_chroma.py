import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import pathchroma.chroma as chroma
from pathchroma.errors import BudgetExceeded
from pathchroma.chroma import (
    _bit_layout,
    _clique,
    _dsatur,
    _k_colourable,
    _nth_highest_bit,
    chromatic_number,
    export_cnf,
    is_proper_colouring,
    k_colourable,
)
from pathchroma.graphs import UGraph, neighbourhood_graph, worst_case_successor_graph
from pathchroma.model import count_proper_sequences, window_masks
from window_graphs import dict_window_graph, mask_edges


def triangle():
    return UGraph.from_label_edges("abc", [("a", "b"), ("b", "c"), ("a", "c")])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return UGraph.from_label_edges(range(10), outer + inner + spokes)


def _brute_force_k_colourable(graph, k):
    for assignment in itertools.product(range(1, k + 1), repeat=graph.vertex_count):
        if all(assignment[i] != assignment[j] for i, j in graph.edges):
            return True
    return False


def _brute_force_chromatic(graph):
    if graph.vertex_count == 0:
        return 0
    for k in range(1, graph.vertex_count + 1):
        if _brute_force_k_colourable(graph, k):
            return k
    raise AssertionError("unreachable")


def _corpus():
    path4 = UGraph.from_label_edges(range(4), [(0, 1), (1, 2), (2, 3)])
    k33 = UGraph.from_label_edges(range(6), [(i, 3 + j) for i in range(3) for j in range(3)])
    k4 = UGraph.from_label_edges(range(4), list(itertools.combinations(range(4), 2)))
    c5 = UGraph.from_label_edges(range(5), [(i, (i + 1) % 5) for i in range(5)])
    edgeless = UGraph.from_edges(range(5), ())
    return [triangle(), path4, k33, k4, c5, edgeless, petersen(), neighbourhood_graph(3, 1)]


def _greedy(graph):
    # The kernel's greedy mode: with k equal to the vertex count its first
    # descent never backtracks.  Returns (assignment, colours used).
    colour, _ = _dsatur(_bit_layout(graph.nbr), graph.vertex_count)
    return dict(zip(graph.labels, colour)), max(colour)


def test_triangle_colourability():
    assert not k_colourable(triangle(), 2).satisfiable
    cert = k_colourable(triangle(), 3)
    assert cert.satisfiable
    assert is_proper_colouring(triangle(), cert.assignment)


def test_chromatic_numbers_match_brute_force_on_corpus():
    for graph in _corpus():
        assert chromatic_number(graph) == _brute_force_chromatic(graph)


def test_search_agrees_with_brute_force_for_each_k():
    for graph in _corpus():
        for k in range(1, 5):
            assert k_colourable(graph, k).satisfiable == _brute_force_k_colourable(graph, k)


def test_colourability_is_monotone_in_k():
    for graph in _corpus():
        previous = False
        for k in range(1, 6):
            sat = k_colourable(graph, k).satisfiable
            assert sat or not previous
            previous = sat


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verdict_does_not_depend_on_vertex_order(data):
    # neighbourhood_graph reorders its windows to speed the search up; the
    # order may change the node count, never the verdict.
    n = data.draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=25)) if pairs else []
    graph = UGraph.from_edges(range(n), edges)
    perm = data.draw(st.permutations(range(n)))
    permuted = UGraph.from_edges(range(n), [(perm[i], perm[j]) for i, j in edges])
    k = data.draw(st.integers(1, 4))
    verdicts = []
    for g in (graph, permuted):
        certificate = k_colourable(g, k)
        if certificate.satisfiable:
            assert is_proper_colouring(g, certificate.assignment)
        verdicts.append(certificate.satisfiable)
    assert verdicts[0] == verdicts[1] == _brute_force_k_colourable(graph, k)


def test_edgeless_and_empty():
    assert chromatic_number(UGraph(tuple(range(5)), (0,) * 5)) == 1
    assert chromatic_number(UGraph((), ())) == 0


def test_neighbourhood_graph_three_is_three_chromatic():
    # two disjoint directed triangles; brute force gives 3
    g = neighbourhood_graph(3, 1)
    assert _brute_force_chromatic(g) == 3
    assert chromatic_number(g) == 3


def test_seventeen_node_refutation_runs_fast():
    g = neighbourhood_graph(7, 1)
    cert = k_colourable(g, 3)
    assert not cert.satisfiable
    assert cert.nodes > 0


def test_chromatic_number_lays_the_graph_out_once(monkeypatch):
    # N(7, 1) has clique bound 3 and greedy bound 4, and chi = 4, so the
    # search tries k = 3 once; one layout serves both bounds and that try.
    g = neighbourhood_graph(7, 1)
    layout = _bit_layout(g.nbr)
    assert len(_clique(layout)) == 3 and _greedy(g)[1] == 4
    assert _k_colourable(g, layout, 3, None) == k_colourable(g, 3)  # same verdict and nodes
    calls = []

    def counted(nbr):
        calls.append(nbr)
        return _bit_layout(nbr)

    monkeypatch.setattr(chroma, "_bit_layout", counted)
    assert chromatic_number(g) == 4
    assert calls == [g.nbr]


# Up to about 20k windows: length 1 is K_n, n = 1 has no longer windows, and
# every window is alternating at n = 2 or length 2.
_WINDOW_SHAPES = [
    (n, length)
    for n in range(1, 10)
    for length in range(1, 6)
    if count_proper_sequences(n, length) <= 20_000
]


@pytest.mark.parametrize("n,length", _WINDOW_SHAPES)
def test_window_layout_equals_the_adjacency_layout(n, length):
    # W(n, length) in lexicographic order: its masks join the oracle's
    # edges, and its layout is the one of masks ORed from those edges
    windows, edges = dict_window_graph(n, length)
    masks = window_masks(n, length, range(count_proper_sequences(n, length)))
    assert len(masks) == len(windows)
    assert mask_edges(masks) == edges
    assert _bit_layout(masks) == _bit_layout(_masks(_adjacency_lists(len(windows), edges)))


def test_worst_case_graph_sixteen_colourable():
    star = worst_case_successor_graph()
    cert = k_colourable(star, 16)
    assert cert.satisfiable
    assert is_proper_colouring(star, cert.assignment)
    assert len(set(cert.assignment.values())) <= 16
    assert cert.nodes == 39


def test_node_limit_is_distinct_from_unsat():
    g = petersen()
    with pytest.raises(BudgetExceeded):
        k_colourable(g, 3, node_limit=2)


def test_certificate_text():
    cert = k_colourable(triangle(), 3)
    text = cert.to_text()
    assert text.count("\n") == 3 and text.startswith("v ")
    unsat = k_colourable(triangle(), 2)
    assert unsat.to_text().startswith("UNSAT nodes=")


def test_greedy_colouring_proper():
    for graph in _corpus():
        assignment, used = _greedy(graph)
        if graph.vertex_count:
            assert is_proper_colouring(graph, assignment)
            assert used >= chromatic_number(graph)


def _parse_cnf(text):
    clauses = []
    nvars = 0
    for line in text.splitlines():
        if line.startswith("c") or not line.strip():
            continue
        if line.startswith("p"):
            nvars = int(line.split()[2])
            continue
        lits = [int(tok) for tok in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    return nvars, clauses


def _cnf_satisfiable(text):
    nvars, clauses = _parse_cnf(text)
    for bits in itertools.product((False, True), repeat=nvars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses):
            return True
    return False


def test_cnf_counts_for_triangle():
    text = export_cnf(triangle(), 2)
    nvars, clauses = _parse_cnf(text)
    assert nvars == 6
    assert len(clauses) == 3 + 6  # one per vertex, one per edge and colour
    assert not _cnf_satisfiable(text)
    assert _cnf_satisfiable(export_cnf(triangle(), 3)) is True


def test_cnf_counts_for_seven_colour_neighbourhood_graph():
    g = neighbourhood_graph(7, 1)
    text = export_cnf(g, 3)
    nvars, clauses = _parse_cnf(text)
    assert nvars == 630
    assert len(clauses) == 210 + 3150


def test_cnf_agrees_with_search_on_small_corpus():
    for graph in _corpus():
        if graph.vertex_count * 2 <= 12:
            text = export_cnf(graph, 2)
            assert _cnf_satisfiable(text) == k_colourable(graph, 2).satisfiable


def test_sat_certificates_satisfy_the_cnf():
    for graph in _corpus():
        cert = k_colourable(graph, 4)
        if not cert.satisfiable:
            continue
        nvars, clauses = _parse_cnf(export_cnf(graph, 4))
        index = {lab: i for i, lab in enumerate(graph.labels)}
        bits = [False] * nvars
        for label, colour in cert.assignment.items():
            bits[index[label] * 4 + colour - 1] = True
        assert all(any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses)


def test_rejects_bad_k():
    with pytest.raises(ValueError):
        k_colourable(triangle(), 0)
    with pytest.raises(ValueError):
        export_cnf(triangle(), 0)


def test_a_k_above_the_vertex_count_searches_with_one_colour_per_vertex(monkeypatch):
    # No colour above the vertex count is ever tried, so the search runs
    # with that many and the certificate keeps the k it was asked for.
    g = neighbourhood_graph(5, 1)
    assert g.vertex_count == 60
    palettes = []

    def dsatur(layout, k, *args, **kwargs):
        palettes.append(k)
        return _dsatur(layout, k, *args, **kwargs)

    monkeypatch.setattr(chroma, "_dsatur", dsatur)
    at_sixty = k_colourable(g, 60)
    assert at_sixty.satisfiable and is_proper_colouring(g, at_sixty.assignment)
    for k in (61, 10**6, 10**18):
        assert k_colourable(g, k) == dataclasses.replace(at_sixty, k=k)
    assert palettes == [60] * 4


# --- the bitset kernel against a literal scan ---------------------------------


def _adjacency_lists(n, edges):
    """Adjacency lists from index pairs, as the literal references read a graph."""
    adj = [[] for _ in range(n)]
    for i, j in sorted(edges):
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _masks(adj):
    return [sum(1 << u for u in a) for a in adj]


def _scan_dsatur(
    adj, k, precolouring=None, *, rng=None, node_limit=math.inf, max_backtracks=math.inf
):
    """DSATUR that rescans every uncoloured vertex per pick; ties in ascending order."""
    n = len(adj)
    degrees = [len(a) for a in adj]
    colour = [0] * n
    forbidden = [0] * n
    uncoloured = set(range(n))
    max_used = 0
    for v, c in (precolouring or {}).items():
        colour[v] = c
        uncoloured.discard(v)
        for u in adj[v]:
            forbidden[u] |= 1 << (c - 1)
        max_used = max(max_used, c)
    shift = max(degrees, default=0).bit_length()  # key orders by saturation, then degree
    nodes = backtracks = 0
    frames = []
    while uncoloured:
        best = -1
        for v in uncoloured:
            key = forbidden[v].bit_count() << shift | degrees[v]
            if key > best:
                best, candidates = key, [v]
            elif key == best:
                candidates.append(v)
        candidates.sort()
        if rng is None:
            v = candidates[0]
            options = [
                c for c in range(1, min(k, max_used + 1) + 1) if not forbidden[v] >> (c - 1) & 1
            ]
            options.reverse()  # pop() tries the least colour first
        else:
            v = rng.choice(candidates)
            options = [c for c in range(1, k + 1) if not forbidden[v] >> (c - 1) & 1]
            rng.shuffle(options)
        while True:
            if options:
                nodes += 1
                if nodes > node_limit:
                    raise BudgetExceeded(f"node limit {node_limit} hit after {nodes - 1} nodes")
                c = options.pop()
                colour[v] = c
                uncoloured.discard(v)
                changed = [
                    u for u in adj[v] if colour[u] == 0 and not forbidden[u] >> (c - 1) & 1
                ]
                for u in changed:
                    forbidden[u] |= 1 << (c - 1)
                frames.append((v, options, c, changed, max_used))
                max_used = max(max_used, c)
                break
            backtracks += 1
            if backtracks > max_backtracks or not frames:
                return None, nodes
            v, options, c, changed, max_used = frames.pop()
            for u in changed:
                forbidden[u] ^= 1 << (c - 1)
            colour[v] = 0
            uncoloured.add(v)
    return colour, nodes


def _both_kernels(adj, k, precolouring=None, seed=None, **limits):
    """Run the kernel and the scan on one input; return each outcome and RNG state.

    The scan draws through ``rng.choice`` and ``rng.shuffle``, so equal RNG
    states show that the kernel's inline draws are theirs, call for call.
    """
    outcomes = []
    for kernel, graph in ((_dsatur, _bit_layout(_masks(adj))), (_scan_dsatur, adj)):
        rng = None if seed is None else random.Random(seed)
        try:
            result = kernel(graph, k, precolouring, rng=rng, **limits)
        except BudgetExceeded as error:
            result = str(error)
        outcomes.append((result, rng and rng.getstate()))
    return outcomes


def _set_greedy_clique(adj):
    """Vertices by (-degree, index), each kept if adjacent to all kept before it."""
    neighbours = [set(a) for a in adj]
    order = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))
    clique = []
    for v in order:
        if all(u in neighbours[v] for u in clique):
            clique.append(v)
    return clique


def _search_input(graph, k):
    """Adjacency and the precoloured clique that k_colourable hands the kernel."""
    adj = _adjacency_lists(graph.vertex_count, graph.edges)
    clique = _clique(_bit_layout(graph.nbr))
    assert clique == _set_greedy_clique(adj)
    return adj, {v: i for i, v in enumerate(clique[:k], start=1)}


_PAPER_SEARCHES = [(neighbourhood_graph(n, 1), 3) for n in (7, 8, 9)]
_PAPER_SEARCHES += [(neighbourhood_graph(n, 1, all_distinct=False), 3) for n in range(5, 11)]
_PAPER_SEARCHES.append((worst_case_successor_graph(), 16))


@pytest.mark.parametrize(
    "graph,k", _PAPER_SEARCHES, ids=["N7", "N8", "N9", "A5", "A6", "A7", "A8", "A9", "A10", "S2*"]
)
def test_kernel_matches_scan_on_paper_graphs(graph, k):
    adj, precolouring = _search_input(graph, k)
    kernel, scan = _both_kernels(adj, k, precolouring)
    assert kernel == scan
    assert kernel[0][1] == k_colourable(graph, k).nodes
    for seed in range(3):
        kernel, scan = _both_kernels(adj, k, seed=seed, max_backtracks=200)
        assert kernel == scan


@st.composite
def _kernel_inputs(draw):
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    neighbours = [set() for _ in range(n)]
    for i, j in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    adj = [tuple(sorted(a)) for a in neighbours]
    k = draw(st.integers(1, 5))
    precolouring = _precolouring(draw, adj, k)
    seed = draw(st.none() | st.integers(0, 2**32))
    limits = draw(
        st.fixed_dictionaries(
            {}, optional={"max_backtracks": st.integers(0, 20), "node_limit": st.integers(0, 60)}
        )
    )
    return adj, k, precolouring, seed, limits


def _precolouring(draw, adj, k):
    """A proper partial colouring of some vertices, drawn."""
    n = len(adj)
    precolouring = {}
    for v, c in draw(st.dictionaries(st.integers(0, max(n - 1, 0)), st.integers(1, k))).items():
        if v < n and all(precolouring.get(u) != c for u in adj[v]):
            precolouring[v] = c
    return precolouring


@st.composite
def _sparse_kernel_inputs(draw):
    """Sparse graphs on 31-150 vertices, under a node limit.

    Bit masks span several int digits, and many vertices share a degree, so
    the RNG draws among several tied vertices.  Several components make an
    UNSAT search exponential, hence the limit.
    """
    n = draw(st.integers(31, 150))
    vertex = st.integers(0, n - 1)
    neighbours = [set() for _ in range(n)]
    for i, j in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
        if i != j:
            neighbours[i].add(j)
            neighbours[j].add(i)
    adj = [tuple(sorted(a)) for a in neighbours]
    k = draw(st.integers(2, 5))
    precolouring = _precolouring(draw, adj, k)
    seed = draw(st.none() | st.integers(0, 2**32))
    limits = draw(
        st.fixed_dictionaries(
            {"node_limit": st.integers(0, 3000)}, optional={"max_backtracks": st.integers(0, 50)}
        )
    )
    return adj, k, precolouring, seed, limits


@settings(max_examples=400, deadline=None)
@given(_kernel_inputs() | _sparse_kernel_inputs())
def test_kernel_matches_scan_on_random_graphs(case):
    adj, k, precolouring, seed, limits = case
    kernel, scan = _both_kernels(adj, k, precolouring, seed, **limits)
    assert kernel == scan
    assert _clique(_bit_layout(_masks(adj))) == _set_greedy_clique(adj)


def test_greedy_colouring_matches_scan():
    rng = random.Random(0)
    graph = UGraph.from_label_edges(
        range(100), rng.sample(list(itertools.combinations(range(100), 2)), 600)
    )
    assignment, used = _greedy(graph)
    colour, nodes = _scan_dsatur(
        _adjacency_lists(graph.vertex_count, graph.edges), graph.vertex_count
    )
    assert [assignment[v] for v in range(100)] == colour
    assert (used, nodes) == (max(colour), 100)


def _nth_highest_bit_by_search(bits, i):
    # binary search on the count of set bits above a position
    low, high = 0, bits.bit_length()
    while high - low > 1:
        mid = (low + high) >> 1
        if (bits >> mid).bit_count() > i:
            low = mid
        else:
            high = mid
    return low


def test_nth_highest_bit_matches_the_binary_search():
    rng = random.Random(7)
    for _ in range(3000):
        bits = rng.getrandbits(rng.choice([1, 3, 64, 300, 3000])) | 1 << rng.randrange(40)
        count = bits.bit_count()
        for i in {0, 11, 12, 13, count // 2, count - 14, count - 13, count - 12, count - 1}:
            if 0 <= i < count:
                assert _nth_highest_bit(bits, i, count) == _nth_highest_bit_by_search(bits, i)
