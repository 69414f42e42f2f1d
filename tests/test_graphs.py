import hashlib
import itertools
import random
import tracemalloc

import pytest

import pathchroma.graphs as graphs
from pathchroma.chroma import is_proper_colouring, k_colourable
from pathchroma.errors import BudgetExceeded
from pathchroma.model import canonical_label, count_proper_sequences, window_masks
from pathchroma.graphs import (
    ColourClassPartition,
    UGraph,
    _delta_r,
    explicit_sixteen_classes,
    from_dimacs,
    neighbourhood_graph,
    successor_graph_of,
    to_dimacs,
    verify_partition,
    worst_case_successor_graph,
)
from pathchroma.reduce import compose, four_to_three, ns_schedule
from pathchroma.speedup import iterate_speed_up, random_proper_table
from window_graphs import lexicographic_window_graph, mask_edges

F = frozenset


def triangle():
    return UGraph.from_label_edges("abc", [("a", "b"), ("b", "c"), ("a", "c")])


def test_ugraph_basics():
    g = triangle()
    assert g.vertex_count == 3 and g.edge_count == 3
    assert g.label_edges() == {F("ab"), F("bc"), F("ac")}
    path = UGraph.from_label_edges("abc", [("a", "b"), ("b", "c")])
    assert F("ab") in path.label_edges() and F("ac") not in path.label_edges()
    assert sorted(map(int.bit_count, g.nbr)) == [2, 2, 2]
    with pytest.raises(ValueError):
        UGraph.from_label_edges("ab", [("a", "a")])
    with pytest.raises(ValueError):
        UGraph(("a", "a"), (0, 0))


def test_neighbourhood_graph_counts():
    g = neighbourhood_graph(7, 1)
    assert g.vertex_count == 210  # 7 * 6 * 5
    assert g.edge_count == 1050
    # independent count: test every vertex pair for the shift condition
    shifts = sum(
        1
        for u, v in itertools.combinations(g.labels, 2)
        if u[1:] == v[:-1] or v[1:] == u[:-1]
    )
    assert shifts == 1050
    assert all(mask.bit_count() == 10 for mask in g.nbr)


def test_neighbourhood_graph_three_colours():
    g = neighbourhood_graph(3, 1)
    assert g.vertex_count == 6  # permutations of {1,2,3}
    assert g.edge_count == 6  # two directed triangles
    with pytest.raises(ValueError):
        neighbourhood_graph(2, 1)


def test_neighbourhood_graph_adjacent_only_mode():
    g = neighbourhood_graph(3, 1, all_distinct=False)
    assert g.vertex_count == 3 * 2 * 2
    strict = neighbourhood_graph(3, 1)
    assert strict.is_subgraph_of(g)


def test_saturated_successors():
    s1_star = _delta_r({i: F({1, 2, 3} - {i}) for i in (1, 2, 3)})
    assert list(s1_star) == [F({1}), F({2}), F({3}), F({1, 2}), F({1, 3}), F({2, 3})]
    assert s1_star[F({1})] == {F({2}), F({3}), F({2, 3})}
    assert s1_star[F({1, 2})] == {
        F({1}), F({2}), F({3}), F({1, 3}), F({2, 3}),
    }


def test_worst_case_graph_shape():
    star = worst_case_successor_graph()
    assert star.vertex_count == 55  # 2^6 - 1 - 8
    # from_label_edges rejects loops; edges are sane
    assert all(i != j for i, j in star.edges)
    # pins the label order and the edges, so every search on S2* too
    digest = hashlib.sha256(to_dimacs(star).encode()).hexdigest()
    assert digest[:16] == "b6b16e1440ee625f"


def test_sixteen_classes_partition():
    star = worst_case_successor_graph()
    part = explicit_sixteen_classes()
    assert len(part.classes) == 16
    assert sorted(part.sizes()) == [1] * 7 + [4] * 6 + [8] * 3
    assert sum(part.sizes()) == 55
    assert verify_partition(star, part)


def test_sixteen_classes_explicit_members():
    part = explicit_sixteen_classes()
    x3 = dict(part.classes)["X3(1,2,3)"]
    assert x3 == {
        F({F({1, 2})}),
        F({F({1, 2}), F({1})}),
        F({F({1, 2}), F({2})}),
        F({F({1, 2}), F({1}), F({2})}),
    }
    singletons = F({F({1}), F({2}), F({3})})
    assert dict(part.classes)["X0({1,2,3})"] == {singletons}
    assert 1 <= part.as_colouring()[singletons] <= 16


def test_verify_partition_edge_cases():
    g = triangle()
    bad = ColourClassPartition((("all", F({"a", "b", "c"})),))
    assert not verify_partition(g, bad)
    ok = ColourClassPartition((("a", F({"a"})), ("b", F({"b"})), ("c", F({"c"}))))
    assert verify_partition(g, ok)
    edgeless = UGraph(("x", "y"), (0, 0))
    assert verify_partition(edgeless, ColourClassPartition((("all", F({"x", "y"})),)))
    # double cover is rejected
    dup = ColourClassPartition((("a", F({"x", "y"})), ("b", F({"y"}))))
    assert not verify_partition(edgeless, dup)


def test_verify_partition_rejects_an_edge_inside_a_class():
    # an exact cover of S2* whose one moved vertex now shares a class with a neighbour
    star = worst_case_successor_graph()
    i, j = min(star.edges)
    moved, neighbour = star.labels[i], star.labels[j]
    classes = tuple(
        (name, members - {moved} | ({moved} if neighbour in members else set()))
        for name, members in explicit_sixteen_classes().classes
    )
    assert not verify_partition(star, ColourClassPartition(classes))


def test_successor_graph_of_four_to_three():
    g = successor_graph_of(four_to_three(), 0)
    assert set(g.labels) <= {1, 2, 3}


# sha256[:16] of to_dimacs(successor_graph_of(compose(ns_schedule(n)), k)):
# levels 0 and 1 are one graph for every n here, level 2 is not.
_SUCCESSOR_DIGESTS = {
    0: dict.fromkeys(range(4, 9), "4fec5c46ae44c8d5"),
    1: dict.fromkeys(range(4, 9), "e2d88376f2fbc7ae"),
    2: {
        4: "c826a686849bcaca",
        5: "708b3faa4dc34460",
        6: "93d0b76998e9f7fc",
        7: "bf5829fd70859426",
        8: "91c4e8e2aa317279",
    },
}


@pytest.mark.parametrize("n", range(4, 9))
def test_successor_graphs_are_pinned(n):
    alg = compose(ns_schedule(n))
    tower = iterate_speed_up(alg, 2)
    for k, digests in _SUCCESSOR_DIGESTS.items():
        text = to_dimacs(successor_graph_of(alg, k))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digests[n]
        assert to_dimacs(tower.successor_graph(k)) == text


def test_successor_graph_embeds_in_worst_case():
    star = worst_case_successor_graph()
    for n in (4, 6, 7, 8):
        schedule = compose(ns_schedule(n))
        assert successor_graph_of(schedule, 2).is_subgraph_of(star)
    for n, t, seed in ((4, 2, 5), (4, 3, 6), (5, 3, 13), (6, 3, 2)):
        alg = random_proper_table(n, t, 3, seed=seed)
        assert successor_graph_of(alg, 2).is_subgraph_of(star)


def test_seventeen_colour_schedule_embeds_in_worst_case():
    # 17 * 16^4 = 1,114,112 level-0 windows, filled stage by stage in about 1 s
    graph = successor_graph_of(compose(ns_schedule(17)), 2)
    assert (graph.vertex_count, graph.edge_count) == (14, 66)
    assert graph.is_subgraph_of(worst_case_successor_graph())


def test_dimacs_round_trip():
    g = neighbourhood_graph(3, 1)
    text = to_dimacs(g)
    assert text.startswith("p edge 6 6\n")
    assert "c label 1 (1,2,3)" in text
    back = from_dimacs(text)
    assert back.vertex_count == 6 and back.edge_count == 6
    # labels preserved as canonical strings
    assert set(back.labels) == {canonical_label(v) for v in g.labels}


def test_dimacs_rejects_malformed():
    with pytest.raises(ValueError):
        from_dimacs("e 1 2\n")
    with pytest.raises(ValueError):
        from_dimacs("p edge 2 1\ne 1 1\n")
    with pytest.raises(ValueError):
        from_dimacs("p edge 2 1\ne 1 5\n")
    with pytest.raises(ValueError, match="negative"):
        from_dimacs("p edge -3 0\n")
    with pytest.raises(ValueError, match="second problem line"):
        from_dimacs("p edge 2 1\np edge 3 0\ne 1 2\n")


def test_dimacs_round_trip_keeps_the_paper_graphs():
    for graph in (
        neighbourhood_graph(7, 1),
        neighbourhood_graph(9, 1),
        neighbourhood_graph(10, 1, all_distinct=False),
        neighbourhood_graph(5, 2),
        worst_case_successor_graph(),
        successor_graph_of(compose(ns_schedule(7)), 2),
    ):
        text = to_dimacs(graph)
        back = from_dimacs(text)
        # labels come back as their canonical strings, masks as they were
        assert back == UGraph(tuple(map(canonical_label, graph.labels)), graph.nbr)
        assert to_dimacs(back) == text
        assert from_dimacs(to_dimacs(back)) == back


def test_dimacs_counts_its_vertices_against_the_budget(monkeypatch):
    # A default budget of 1000, so that a parser building every vertex
    # first would build 10^6, not 10^11
    monkeypatch.setattr(graphs, "DEFAULT_BUDGET", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="^1000000 vertices exceed budget 1000$"):
            from_dimacs("p edge 1000000 0\ne 1 2\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # no vertex was built
    text = "c label 1 a\np edge 6 2\ne 1 2\ne 6 5\n"
    with pytest.raises(BudgetExceeded, match="^6 vertices exceed budget 5$"):
        from_dimacs(text, budget=5)
    expected = UGraph.from_edges(("a", "2", "3", "4", "5", "6"), [(0, 1), (5, 4)])
    assert from_dimacs(text, budget=6) == expected


def test_every_builder_gives_symmetric_loop_free_masks():
    # mask_edges fails on a mask that is not symmetric, has a loop or leaves the vertices
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 70)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        pairs = [(i, j) for i, j in pairs if i != j]  # in both orders, some twice
        edges = frozenset((min(i, j), max(i, j)) for i, j in pairs)
        lines = [f"p edge {n} {len(pairs)}", *(f"e {i + 1} {j + 1}" for i, j in pairs)]
        labelled = [(f"v{i}", f"v{j}") for i, j in pairs]
        for graph in (
            UGraph.from_edges(range(n), pairs),
            UGraph.from_label_edges([f"v{i}" for i in range(n)], labelled),
            from_dimacs("\n".join(lines)),
        ):
            assert mask_edges(graph.nbr) == edges == graph.edges
            assert graph.edge_count == len(edges)
    for n in range(1, 7):
        for length in range(1, 5):
            count = count_proper_sequences(n, length)
            for size in (0, count // 2, count):
                ranks = rng.sample(range(count), size)  # any windows, in any order
                masks = window_masks(n, length, ranks)
                assert len(masks) == size
                mask_edges(masks)


def test_ugraph_rejects_bad_masks():
    labels = ("a", "b", "c")
    assert UGraph(labels, (0b010, 0b101, 0b010)).edges == {(0, 1), (1, 2)}
    with pytest.raises(ValueError, match="^loop at b$"):
        UGraph(labels, (0b010, 0b111, 0b010))
    with pytest.raises(ValueError, match="^neighbour mask outside the vertices$"):
        UGraph(labels, (0b1000, 0, 0))
    with pytest.raises(ValueError, match="^neighbour mask outside the vertices$"):
        UGraph(labels, (-1, 0, 0))
    for masks in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(ValueError, match=f"^{len(masks)} neighbour masks for 3 vertices$"):
            UGraph(labels, masks)
    for pair in ((0, 3), (-1, 0), (1, 1)):
        with pytest.raises(ValueError, match="^bad edge"):
            UGraph.from_edges(labels, [pair])


def test_is_subgraph_of_needs_every_label_and_edge():
    path = UGraph.from_label_edges("abc", [("a", "b"), ("b", "c")])
    assert path.is_subgraph_of(triangle())
    assert not triangle().is_subgraph_of(path)  # the edge a-c is missing
    assert UGraph.from_label_edges("ca", [("a", "c")]).is_subgraph_of(triangle())
    assert not UGraph.from_label_edges("abd", []).is_subgraph_of(triangle())


def _reference_neighbourhood_graph(n, t, all_distinct):
    # Windows straight from itertools, shift edges found by lookup: an
    # enumeration independent of proper_sequences, sorted into the nested
    # order (largest colour, then lexicographic).
    length = 2 * t + 1
    if all_distinct:
        windows = list(itertools.permutations(range(1, n + 1), length))
    else:
        windows = [
            seq
            for seq in itertools.product(range(1, n + 1), repeat=length)
            if all(a != b for a, b in zip(seq, seq[1:]))
        ]
    windows.sort(key=lambda w: (max(w), w))
    index = {w: i for i, w in enumerate(windows)}
    edges = set()
    for i, w in enumerate(windows):
        for y in range(1, n + 1):
            j = index.get(w[1:] + (y,))
            if j is not None and j != i:
                edges.add((min(i, j), max(i, j)))
    return tuple(windows), frozenset(edges)


@pytest.mark.parametrize("n,t", [(n, 1) for n in range(3, 9)] + [(5, 2), (6, 2)])
@pytest.mark.parametrize("all_distinct", [True, False])
def test_neighbourhood_graph_matches_reference_enumeration(n, t, all_distinct):
    graph = neighbourhood_graph(n, t, all_distinct=all_distinct)
    labels, edges = _reference_neighbourhood_graph(n, t, all_distinct)
    assert graph.labels == labels  # same window order, so same search order
    assert graph.edges == edges


@pytest.mark.parametrize(
    "n,t,all_distinct",
    [
        (n, t, all_distinct)
        for all_distinct in (True, False)
        for t in (1, 2)
        for n in range(4, 10)
        if not all_distinct or n - 1 > 2 * t  # both graphs exist
    ],
)
def test_neighbourhood_graph_nests_the_smaller_palette(n, t, all_distinct):
    small = neighbourhood_graph(n - 1, t, all_distinct=all_distinct)
    large = neighbourhood_graph(n, t, all_distinct=all_distinct)
    m = small.vertex_count
    assert large.labels[:m] == small.labels
    assert frozenset((i, j) for i, j in large.edges if j < m) == small.edges


def test_neighbourhood_graph_checks_its_budget_before_enumerating():
    # W(300, 5) has 300 * 299^4, about 2.4 * 10^12, windows
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"^{300 * 299**4} windows exceed budget 1000$"):
            neighbourhood_graph(300, 2, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    with pytest.raises(BudgetExceeded, match="exceed budget 100000000$"):
        neighbourhood_graph(300, 2)  # DEFAULT_BUDGET
    # N(7,1) enumerates the 7 * 6^2 = 252 adjacent-distinct windows, in either mode
    for all_distinct, vertices in ((True, 210), (False, 252)):
        graph = neighbourhood_graph(7, 1, all_distinct=all_distinct, budget=252)
        assert graph.vertex_count == vertices
        with pytest.raises(BudgetExceeded, match="^252 windows exceed budget 251$"):
            neighbourhood_graph(7, 1, all_distinct=all_distinct, budget=251)


@pytest.mark.parametrize(
    "n,all_distinct,nodes",
    [
        (7, True, 5771), (8, True, 9894), (9, True, 17554),
        (5, False, 441), (6, False, 867), (7, False, 1668),
        (8, False, 3294), (9, False, 6785), (10, False, 14525),
    ],
)
def test_window_graph_refutation_node_counts(n, all_distinct, nodes):
    # the lexicographic vertex order, against the nested one below
    certificate = k_colourable(lexicographic_window_graph(n, 3, all_distinct), 3)
    assert not certificate.satisfiable
    assert certificate.nodes == nodes


@pytest.mark.parametrize(
    "n,all_distinct,nodes",
    [
        (7, True, 3951), (8, True, 4396), (9, True, 4905),
        (5, False, 344), (6, False, 500), (7, False, 680),
        (8, False, 884), (9, False, 1112), (10, False, 1364),
    ],
)
def test_neighbourhood_graph_refutation_node_counts(n, all_distinct, nodes):
    certificate = k_colourable(neighbourhood_graph(n, 1, all_distinct=all_distinct), 3)
    assert not certificate.satisfiable
    assert certificate.nodes == nodes


@pytest.mark.parametrize(
    "n,all_distinct,k",
    [(n, True, 3) for n in (7, 8, 9)]
    + [(n, False, 3) for n in range(5, 11)]
    + [(6, True, 3), (7, True, 4), (8, True, 4)],
)
def test_nested_order_keeps_the_lexicographic_verdict(n, all_distinct, k):
    nested = neighbourhood_graph(n, 1, all_distinct=all_distinct)
    lexicographic = lexicographic_window_graph(n, 3, all_distinct)
    verdicts = []
    for graph in (nested, lexicographic):
        certificate = k_colourable(graph, k)
        if certificate.satisfiable:
            assert is_proper_colouring(graph, certificate.assignment)
        verdicts.append(certificate.satisfiable)
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize(
    "graph_of,k,nodes",
    [
        (lambda: neighbourhood_graph(6, 1), 3, 141),
        (lambda: neighbourhood_graph(7, 1), 4, 207),
        (lambda: neighbourhood_graph(8, 1), 4, 333),
        (worst_case_successor_graph, 16, 39),
    ],
    ids=["N(6,1)-3", "N(7,1)-4", "N(8,1)-4", "S2*-16"],
)
def test_colouring_search_node_counts(graph_of, k, nodes):
    graph = graph_of()
    certificate = k_colourable(graph, k)
    assert certificate.satisfiable
    assert is_proper_colouring(graph, certificate.assignment)
    assert certificate.nodes == nodes
