import hashlib
import itertools

import pytest

from pathchroma.chroma import is_proper_colouring, k_colourable
from pathchroma.model import canonical_label
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

F = frozenset


def triangle():
    return UGraph.from_label_edges("abc", [("a", "b"), ("b", "c"), ("a", "c")])


def test_ugraph_basics():
    g = triangle()
    assert g.vertex_count == 3 and g.edge_count == 3
    assert g.label_edges() == {F("ab"), F("bc"), F("ac")}
    path = UGraph.from_label_edges("abc", [("a", "b"), ("b", "c")])
    assert F("ab") in path.label_edges() and F("ac") not in path.label_edges()
    assert sorted(len(a) for a in g.adjacency()) == [2, 2, 2]
    with pytest.raises(ValueError):
        UGraph.from_label_edges("ab", [("a", "a")])
    with pytest.raises(ValueError):
        UGraph(("a", "a"), frozenset())


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
    assert all(len(a) == 10 for a in g.adjacency())


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
    edgeless = UGraph(("x", "y"), frozenset())
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


def _reference_neighbourhood_graph(n, t, all_distinct):
    # Windows straight from itertools, shift edges found by lookup: an
    # enumeration independent of proper_sequences.
    length = 2 * t + 1
    if all_distinct:
        windows = list(itertools.permutations(range(1, n + 1), length))
    else:
        windows = [
            seq
            for seq in itertools.product(range(1, n + 1), repeat=length)
            if all(a != b for a, b in zip(seq, seq[1:]))
        ]
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
    "n,all_distinct,nodes",
    [
        (7, True, 5771), (8, True, 9894), (9, True, 17554),
        (5, False, 441), (6, False, 867), (7, False, 1668),
        (8, False, 3294), (9, False, 6785), (10, False, 14525),
    ],
)
def test_window_graph_refutation_node_counts(n, all_distinct, nodes):
    certificate = k_colourable(neighbourhood_graph(n, 1, all_distinct=all_distinct), 3)
    assert not certificate.satisfiable
    assert certificate.nodes == nodes


@pytest.mark.parametrize(
    "graph_of,k,nodes",
    [
        (lambda: neighbourhood_graph(6, 1), 3, 147),
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
