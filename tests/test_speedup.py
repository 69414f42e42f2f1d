import dataclasses
import functools
import hashlib
import itertools

import pytest

import pathchroma.chroma as chroma
import pathchroma.model as model
from pathchroma.chroma import _bit_layout, _dsatur, k_colourable
from pathchroma.errors import BudgetExceeded
from pathchroma.model import (
    ONE_SIDED,
    PATH,
    Palette,
    PathInstance,
    ReductionAlgorithm,
    count_proper_sequences,
    exhaustive_properness_check,
    identity_algorithm,
    _suffix_ranks,
    proper_sequences,
    run_algorithm,
    two_sided_from_one_sided,
    window_masks,
)
from pathchroma.reduce import compose, cv_algorithm, four_to_three, ns_algorithm, ns_schedule
import pathchroma.speedup as speedup
from pathchroma.speedup import (
    ColourRelation,
    _RankTable,
    compose_colouring,
    decode_family,
    iterate_speed_up,
    lemma7_pairs,
    random_proper_table,
    search_one_round_map,
    speed_up,
)
from window_graphs import lexicographic_window_graph

F = frozenset


def test_family_encoding_round_trip():
    assert decode_family(6, 3) == F({2, 3})
    for rank in range(1, 2**4 - 1):
        assert sum(1 << (x - 1) for x in decode_family(rank, 4)) == rank
    with pytest.raises(ValueError):
        decode_family(7, 3)  # the full set
    with pytest.raises(ValueError):
        decode_family(0, 3)  # the empty set


def test_speed_up_of_four_to_three_windows():
    result = speed_up(four_to_three())
    # enumerating successors of window (1,4): outputs {2,3}; of (4,1): {1}
    assert result.decode(result.algorithm.rule((1, 4))) == F({2, 3})
    assert result.decode(result.algorithm.rule((4, 1))) == F({1})
    assert result.algorithm.rounds == 1
    assert result.algorithm.out_palette.size == 2**3 - 2


def test_speed_up_preserves_properness():
    for alg in (four_to_three(), ns_algorithm(6, 2), compose(ns_schedule(7))):
        faster = speed_up(alg).algorithm
        assert exhaustive_properness_check(faster)


def test_speed_up_rejects_zero_rounds_and_two_sided():
    from pathchroma.model import identity_algorithm

    with pytest.raises(ValueError):
        speed_up(identity_algorithm(4))
    with pytest.raises(ValueError):
        speed_up(two_sided_from_one_sided(four_to_three()))


def test_speed_up_flags_improper_source():
    # every successor option realised: the output set would be the full palette
    bad = ReductionAlgorithm(
        ONE_SIDED, 1, Palette(4), Palette(3), lambda w: (w[1] % 3) + 1, name="bad"
    )
    faster = speed_up(bad).algorithm
    with pytest.raises(ValueError):
        faster.rule((1,))


def test_iterate_zero_returns_source_alone():
    alg = four_to_three()
    tower = iterate_speed_up(alg, 0)
    assert len(tower.levels) == 1
    assert tower.algorithm(0) is alg
    assert tower.colours(0) == F({1, 2, 3})


def test_iterate_respects_budget():
    with pytest.raises(BudgetExceeded):
        iterate_speed_up(compose(ns_schedule(7)), 2, budget=10)


def test_iterate_rejects_too_deep():
    with pytest.raises(ValueError):
        iterate_speed_up(four_to_three(), 3)


def test_tower_colour_levels_for_seven_colour_schedule():
    tower = iterate_speed_up(compose(ns_schedule(7)), 2)
    assert tower.colours(0) <= {1, 2, 3}
    six = {F({1}), F({2}), F({3}), F({1, 2}), F({1, 3}), F({2, 3})}
    assert tower.colours(1) <= six
    pairs = {F({1, 2}), F({1, 3}), F({2, 3})}
    for family in tower.colours(2):
        assert family  # non-empty
        assert not pairs <= family  # never all three two-element sets


def test_successor_relation_of_four_to_three():
    rel = iterate_speed_up(four_to_three(), 0).successor_relation(0)
    assert all(a != b for a, b in rel.pairs)
    assert all(a != 4 and b != 4 for a, b in rel.pairs)
    assert (1, 2) in rel.pairs


def test_successor_relation_remark_two_containments():
    tower = iterate_speed_up(compose(ns_schedule(7)), 2)
    s1 = tower.successor_relation(1)
    for a, b in s1.pairs:
        if len(a) == 1:
            (i,) = a
            assert i not in b
        else:
            assert not a <= b


def test_output_relation_containment_and_example():
    tower = iterate_speed_up(four_to_three(), 1)
    r0 = tower.output_relation(0)
    s0 = tower.successor_relation(0)
    for x, family in r0.pairs:
        assert family
        assert family <= s0.image(x)
    # the window (?,1,4) gives own colour 1 and successor options {2,3}
    assert (1, F({2, 3})) in r0.pairs


def test_lemma7_forward_inclusion_holds_empirically():
    tower = iterate_speed_up(compose(ns_schedule(7)), 2)
    for k in (0, 1):
        licensed = lemma7_pairs(tower.output_relation(k))
        empirical = tower.successor_relation(k + 1).pairs
        assert empirical <= licensed


def test_relation_text_export():
    rel = ColourRelation("successor", frozenset({(1, F({2, 3}))}))
    assert rel.to_text() == "1 -> {2,3}\n"


def test_compose_colouring_identity_is_source():
    alg = four_to_three()
    composed = compose_colouring({1: 1, 2: 2, 3: 3}, alg)
    for window in proper_sequences(4, 3):
        assert composed.rule(window) == alg.rule(window)


def test_compose_colouring_missing_class():
    alg = four_to_three()
    composed = compose_colouring({1: 1, 2: 2}, alg)
    with pytest.raises(ValueError):
        composed.rule((1, 4, 2))  # outputs 3, which has no class


def test_one_round_lower_bound_four_three():
    exists, examined = search_one_round_map(4, 3)
    assert not exists
    assert examined == 3**12


def test_one_round_maps_exist_for_easier_targets():
    assert search_one_round_map(4, 4)[0]
    assert search_one_round_map(3, 3)[0]


def test_one_round_budget():
    with pytest.raises(BudgetExceeded):
        search_one_round_map(4, 3, budget=1000)


def test_one_round_budget_is_the_candidate_count():
    assert search_one_round_map(4, 3, budget=3**12) == (False, 3**12)
    with pytest.raises(BudgetExceeded, match=f"{3**12} candidate maps exceed budget"):
        search_one_round_map(4, 3, budget=3**12 - 1)


@functools.lru_cache(maxsize=None)
def _literal_search(n, c):
    # Lemma 4 taken literally: every map in itertools.product order, each
    # tested against the conflict list until one passes.
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    index = {p: i for i, p in enumerate(pairs)}
    conflicts = [
        (index[(u, v)], index[(v, w)]) for (u, v) in pairs for w in range(1, n + 1) if w != v
    ]
    examined = 0
    for candidate in itertools.product(range(c), repeat=len(pairs)):
        examined += 1
        for i, j in conflicts:
            if candidate[i] == candidate[j]:
                break
        else:
            return True, examined
    return False, examined


_SEARCH_CASES = [(n, c) for n in range(1, 5) for c in range(6) if c ** (n * (n - 1)) <= 10**6]


@pytest.mark.parametrize("block", ["default", "1", "c", "whole"])
@pytest.mark.parametrize("n,c", _SEARCH_CASES)
def test_bit_parallel_search_matches_the_literal_scan(n, c, block, monkeypatch):
    sizes = {"1": 1, "c": c, "whole": c ** (n * (n - 1)) + 1}
    if block in sizes:
        monkeypatch.setattr(speedup, "_BLOCK", sizes[block])
    assert search_one_round_map(n, c) == _literal_search(n, c)


def test_first_proper_four_colour_map():
    # 4^12 maps, but the literal scan stops at the first proper one
    assert search_one_round_map(4, 4) == _literal_search(4, 4) == (True, 88768)


@pytest.mark.parametrize("n,c", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_one_round_brute_force_agrees_with_colouring_search(n, c):
    # Two engines for lemma 4: the literal scan over maps, and the colouring
    # search on the graph of adjacent-distinct 2-windows with shift edges.
    exists, _ = search_one_round_map(n, c)
    assert k_colourable(lexicographic_window_graph(n, 2), c).satisfiable == exists
    assert exists == ((n, c) == (3, 3))


def test_random_proper_table_is_proper_and_deterministic():
    alg = random_proper_table(5, 2, 4, seed=11)
    assert exhaustive_properness_check(alg)
    again = random_proper_table(5, 2, 4, seed=11)
    for window in proper_sequences(5, 3):
        assert alg.rule(window) == again.rule(window)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_proper_table_gives_up_when_no_table_exists(seed):
    # Lemma 4: no one-round rule 3-colours from 4 colours, so every restart
    # runs out of backtracks or exhausts the search.
    with pytest.raises(RuntimeError, match="no proper table"):
        random_proper_table(4, 1, 3, seed, restarts=5)


def test_random_proper_table_proves_infeasible_requests():
    # A(5) is not 3-colourable: the two-round threshold is four colours.
    with pytest.raises(RuntimeError) as raised:
        random_proper_table(5, 2, 3, 0)
    assert str(raised.value) == (
        "no proper table exists for n=5, t=2, c=3 "
        "(proved: window graph not 3-colourable, UNSAT in 444 nodes)"
    )


def test_random_proper_table_says_when_feasibility_is_open():
    # The complete search needs 14 nodes to refute (4, 1, 3), more than 5.
    with pytest.raises(RuntimeError, match="not found; feasibility not decided"):
        random_proper_table(4, 1, 3, 0, max_backtracks=5, restarts=3)
    # Here the complete search finds a table that the one restart missed.
    with pytest.raises(RuntimeError, match="not found; a table exists .* 108 nodes"):
        random_proper_table(4, 3, 3, 8, max_backtracks=112, restarts=1)


def test_random_proper_table_lays_out_its_window_graph_once(monkeypatch):
    # (7, 2, 4) with seed 10 takes six restarts, and a complete search after the first.
    masks, layouts, searched = [], [], []

    def counted_masks(n, length, ranks):
        masks.append(window_masks(n, length, ranks))
        return masks[-1]

    def bit_layout(nbr):
        layouts.append(_bit_layout(nbr))
        return layouts[-1]

    def dsatur(layout, *args, **kwargs):
        searched.append(layout)
        return _dsatur(layout, *args, **kwargs)

    def unused(*args, **kwargs):
        raise AssertionError("the sampler builds no UGraph or edge set")

    monkeypatch.setattr(speedup, "window_masks", counted_masks)
    monkeypatch.setattr(speedup, "_bit_layout", bit_layout)
    monkeypatch.setattr(speedup, "_dsatur", dsatur)
    monkeypatch.setattr(chroma.UGraph, "__post_init__", unused)  # every UGraph runs it
    monkeypatch.setattr(chroma.UGraph, "edges", property(unused))
    random_proper_table(7, 2, 4, 10)
    assert len(masks) == 1 and len(layouts) == 1 and layouts[0].nbr is masks[0]
    assert len(searched) == 7 and all(layout is layouts[0] for layout in searched)


@pytest.mark.parametrize("n,t,c,seed", [(4, 2, 3, 0), (6, 1, 4, 1), (4, 3, 3, 2), (6, 2, 4, 3)])
def test_random_tables_feed_the_speed_up(n, t, c, seed):
    alg = random_proper_table(n, t, c, seed=seed)
    faster = speed_up(alg).algorithm
    assert faster.rounds == t - 1
    assert exhaustive_properness_check(faster)
    realized = {faster.rule(w) for w in proper_sequences(n, t)}
    assert len(realized) <= 2**c - 2


# --- table-built tower against the definition --------------------------------
#
# The oracle builds each level's rule as the definition states it (the set of
# colours the level below gives the successor, over every extension) and reads
# every relation off a full enumeration of sequences, one evaluation per window
# of each sequence.  Rules are memoised per window only to keep it quick.


def _oracle_levels(alg, k):
    n = alg.in_palette.size
    rule = functools.lru_cache(maxsize=None)(alg.rule)
    wl, c, semantic = alg.window_length, alg.out_palette.size, None
    levels = []
    for _ in range(k + 1):
        realized = {rule(w) for w in proper_sequences(n, wl)}
        if semantic is None:
            semantic = {r: r for r in realized}
        else:
            below = levels[-1][2]
            semantic = {r: F(below[x] for x in decode_family(r, c)) for r in realized}
            c = (1 << c) - 2
        levels.append((rule, wl, semantic, realized))

        def family(window, below=rule):
            colours = {below(window + (y,)) for y in range(1, n + 1) if y != window[-1]}
            return sum(1 << (x - 1) for x in colours)

        rule = functools.lru_cache(maxsize=None)(family)
        wl -= 1
    return levels


def _oracle_successors(n, level):
    rule, wl, semantic, _ = level
    return {
        (semantic[rule(s[:wl])], semantic[rule(s[1:])]) for s in proper_sequences(n, wl + 1)
    }


def _oracle_outputs(n, level, faster):
    rule, wl, semantic, _ = level
    fast_rule, _, fast_semantic, _ = faster
    return {(semantic[rule(w)], fast_semantic[fast_rule(w[1:])]) for w in proper_sequences(n, wl)}


def _assert_tower_matches_oracle(alg, k):
    n = alg.in_palette.size
    tower = iterate_speed_up(alg, k)
    oracle = _oracle_levels(alg, k)
    assert len(tower.levels) == k + 1
    for i, level in enumerate(oracle):
        _, wl, semantic, realized = level
        assert tower.algorithm(i).window_length == wl
        assert tower.levels[i].realized == realized
        assert tower.colours(i) == {semantic[r] for r in realized}
        assert tower.successor_relation(i).pairs == _oracle_successors(n, level)
        if i < k:
            assert tower.output_relation(i).pairs == _oracle_outputs(n, level, oracle[i + 1])


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_tower_tables_match_oracle_on_schedules(n):
    _assert_tower_matches_oracle(compose(ns_schedule(n)), 2)


def test_tower_tables_match_oracle_at_empty_stem():
    # level 2 of the 2-round reducer has one-colour windows: the stem is empty
    alg = four_to_three()
    _assert_tower_matches_oracle(alg, 2)
    assert iterate_speed_up(alg, 2).algorithm(2).window_length == 1


@pytest.mark.parametrize(
    "n,t,c,seed",
    [(4, 2, 3, 0), (3, 2, 3, 1), (6, 2, 4, 3), (4, 3, 3, 2), (3, 3, 3, 5), (5, 3, 4, 7)],
)
def test_tower_tables_match_oracle_on_random_tables(n, t, c, seed):
    _assert_tower_matches_oracle(random_proper_table(n, t, c, seed=seed), t)


def test_tower_levels_are_tables_over_valid_windows():
    tower = iterate_speed_up(compose(ns_schedule(7)), 2)
    for level in tower.levels[1:]:
        windows = list(proper_sequences(7, level.algorithm.window_length))
        assert list(level.table) == windows
        assert all(level.algorithm.rule(w) == level.table[w] for w in windows)
        assert level.algorithm.name.startswith("speedup(")


def test_iterate_budget_thresholds_unchanged():
    # one evaluation per window of every level: 7*6^4 + 7*6^3 + 7*6^2
    alg = compose(ns_schedule(7))
    sums = [9072, 9072 + 1512, 9072 + 1512 + 252]
    for k, threshold in enumerate(sums):
        assert len(iterate_speed_up(alg, k, budget=threshold).levels) == k + 1
        with pytest.raises(BudgetExceeded, match=f"{threshold} window evaluations"):
            iterate_speed_up(alg, k, budget=threshold - 1)
    # the relations only read tables whose windows the budget already paid for
    tower = iterate_speed_up(alg, 2, budget=sums[2])
    full = iterate_speed_up(alg, 2)
    for k in range(3):
        assert tower.successor_relation(k) == full.successor_relation(k)
    for k in range(2):
        assert tower.output_relation(k) == full.output_relation(k)
    # a window of length 1 pairs n(n-1) sequences; above level 0 they were
    # the windows of the level below (4*3^2 + 4*3 + 4 evaluations) ...
    top = iterate_speed_up(four_to_three(), 2, budget=52).successor_relation(2)
    assert top == iterate_speed_up(four_to_three(), 2).successor_relation(2)
    # ... but a 0-round source paid for n windows only, so the pairs are charged
    zero = iterate_speed_up(identity_algorithm(20), 0, budget=380)
    assert len(zero.successor_relation(0).pairs) == 20 * 19
    with pytest.raises(BudgetExceeded, match="380 sequences exceed budget 379"):
        iterate_speed_up(identity_algorithm(20), 0, budget=379).successor_relation(0)


def test_iterate_budget_checked_before_any_evaluation():
    # 9072 windows at level 0 fit a budget of 10835; the tower's 10836 do not
    calls = []
    first, *rest = compose(ns_schedule(7)).stages

    def counting_rule(window):
        calls.append(window)
        return first.rule(window)

    alg = compose([dataclasses.replace(first, rule=counting_rule), *rest])
    with pytest.raises(BudgetExceeded, match="10836 window evaluations exceed budget 10835"):
        iterate_speed_up(alg, 2, budget=10835)
    assert calls == []
    # level 0 alone fits, and calls the first stage once on each of its 7 * 6 windows
    assert len(iterate_speed_up(alg, 0, budget=10835).levels) == 1 and len(calls) == 42


@pytest.mark.parametrize("n,length", [(2, 1), (2, 5), (3, 1), (3, 4), (4, 3), (5, 2), (7, 4)])
def test_rank_table_round_trip(n, length):
    windows = list(proper_sequences(n, length))
    suffix = _suffix_ranks(n, length) if length > 1 else None
    table = _RankTable(n, length, [10 * r for r in range(len(windows))], suffix)
    assert list(table) == windows and len(table) == len(windows)
    shorter = {w: r for r, w in enumerate(proper_sequences(n, length - 1))}
    for r, w in enumerate(windows):
        assert table.rank(w) == r and table[w] == 10 * r
        if length > 1:
            assert r // (n - 1) == shorter[w[:-1]]
            assert table.suffix[r] == shorter[w[1:]]
    assert dict(table) == {w: 10 * r for r, w in enumerate(windows)}


def test_rank_table_rejects_what_is_not_a_window():
    table = _RankTable(4, 3, list(range(count_proper_sequences(4, 3))), None)
    assert table[(4, 3, 4)] == len(table) - 1
    wrong = [(1, 2), (1, 2, 3, 4), (1, 1, 2), (1, 2, 2), (0, 1, 2), (1, 2, 5), (1, 2.0, 3), [1, 2, 3]]
    for key in wrong:
        with pytest.raises(KeyError):
            table[key]
        assert key not in table


_LEVEL_ZERO_SOURCES = [
    *(compose(ns_schedule(n)) for n in range(4, 10)),
    compose((cv_algorithm(3), *ns_schedule(6).stages)),
    compose((compose(ns_schedule(7).stages[:2]), compose(ns_schedule(7).stages[2:]))),
    compose((identity_algorithm(4), four_to_three(), identity_algorithm(3))),
    # a byte stage, a window-table stage (17^2 codes exceed a byte) and a byte stage again
    compose((identity_algorithm(17), identity_algorithm(17), *ns_schedule(17).stages[:2])),
    four_to_three(),
    identity_algorithm(5),
    *(random_proper_table(n, t, c, seed=seed) for n, t, c, seed in [(4, 2, 3, 0), (5, 3, 4, 7)]),
]


@pytest.mark.parametrize("alg", _LEVEL_ZERO_SOURCES, ids=lambda alg: alg.name)
def test_stage_wise_level_zero_matches_the_rule(alg):
    # a composed source's level 0 is filled stage by stage, never through
    # its rule, so the rule on each window is an independent reference
    table = iterate_speed_up(alg, 0).levels[0].table
    windows = list(proper_sequences(alg.in_palette.size, alg.window_length))
    assert list(table) == windows
    assert [table[w] for w in windows] == [alg.rule(w) for w in windows]


@pytest.mark.parametrize(
    "bad", [-1, 0, 21, "5", 5, 300], ids=["-1", "0", "21", "5", "int-5", "300"]
)
def test_level_zero_checks_each_later_stage_input(bad):
    # The lying first stage turns colour 3 into ``bad``, which leaves the
    # next stage's palette or, for ns and bad = 5, merges colours 3 and 5;
    # the merging one merges colours 1 and 2.  run_algorithm stops such a
    # pipeline, and the tower's stage-wise level 0 stops it with the same
    # message, through ns's window table on 20 colours and through 4to3's
    # byte passes.  A 3-node path keeps the simulator off its byte path.
    def lying(n):
        return ReductionAlgorithm(
            ONE_SIDED, 0, Palette(n), Palette(n), lambda w: bad if w[0] == 3 else w[0], name="lying"
        )

    merging = ReductionAlgorithm(
        ONE_SIDED, 0, Palette(4), Palette(4), lambda w: max(w[0], 2), name="merging"
    )
    pipelines = [
        (compose([lying(20), ns_algorithm(20, 3)]), (3, 5, 1), "ns k=3", 20),
        (compose([lying(4), four_to_three()]), (3, 4, 1), "4to3", 4),
        (compose([merging, four_to_three()]), (1, 2, 3), "4to3", 4),
    ]
    for alg, labels, name, n in pipelines:
        message = f"input of stage {name} is not a proper colouring over {n} colours"
        with pytest.raises(ValueError, match=message) as tower_error:
            iterate_speed_up(alg, 0)
        with pytest.raises(ValueError) as run_error:
            run_algorithm(alg, PathInstance(PATH, labels))
        assert str(tower_error.value) == str(run_error.value)
    honest = compose([identity_algorithm(20), ns_algorithm(20, 3)])
    tables = [iterate_speed_up(a, 1).levels for a in (honest, ns_algorithm(20, 3))]
    assert [list(level.table.values) for level in tables[0]] == [
        list(level.table.values) for level in tables[1]
    ]


def test_byte_sized_level_zero_never_builds_a_window_table(monkeypatch):
    tables = []

    def spy(rule):
        tables.append(rule)
        return model._WindowTable(rule)

    monkeypatch.setattr(speedup, "_WindowTable", spy)
    iterate_speed_up(compose(ns_schedule(8)), 0)
    assert tables == []
    # 20 colours give 400 window codes, more than a byte holds
    iterate_speed_up(compose([identity_algorithm(20), ns_algorithm(20, 3)]), 0)
    assert len(tables) == 1


def test_iterate_flags_improper_source_like_speed_up():
    bad = ReductionAlgorithm(
        ONE_SIDED, 1, Palette(4), Palette(3), lambda w: (w[1] % 3) + 1, name="bad"
    )
    message = r"window \(1,\) realises every colour"
    with pytest.raises(ValueError, match=message):
        speed_up(bad).algorithm.rule((1,))
    with pytest.raises(ValueError, match=message):
        iterate_speed_up(bad, 1)
    with pytest.raises(ValueError, match="one-sided"):
        iterate_speed_up(two_sided_from_one_sided(four_to_three()), 1)
    # improper at one prefix only, so the message must name that window;
    # composed with 0-round stages, it goes through the stage-wise level 0
    late = ReductionAlgorithm(
        ONE_SIDED, 2, Palette(4), Palette(3), lambda w: w[2] if w[:2] == (2, 4) else 1
    )
    late_message = r"window \(2, 4\) realises every colour"
    with pytest.raises(ValueError, match=late_message):
        speed_up(late).algorithm.rule((2, 4))
    for alg in (late, compose((identity_algorithm(4), late, identity_algorithm(3)))):
        with pytest.raises(ValueError, match=late_message):
            iterate_speed_up(alg, 1)


# Digests of random_proper_table's outputs over its windows in enumeration
# order, for criterion 5's grid with table i at seed i.  They pin the
# window order, the overlap graph and the sampler's random stream, which
# draws among tied vertices in ascending index order (not a set's).  All
# sixteen are here; the largest, seeds 14 and 15, take about 0.15 s each.
_TABLE_DIGESTS = [
    (3, 1, 3, 0, "acc1f91097c18ba2"),
    (3, 2, 3, 1, "323aea032523c7c5"),
    (3, 3, 3, 2, "29fe815951d55e0e"),
    (4, 2, 3, 3, "7cfcbb859c6bc068"),
    (4, 3, 3, 4, "3571913ce2269cf7"),
    (4, 1, 4, 5, "f2587b94b15cd37d"),
    (5, 1, 4, 6, "1c9179e8799c2bac"),
    (6, 1, 4, 7, "1fadc94975463e7b"),
    (5, 2, 4, 8, "31b9ef6f643d8dbf"),
    (6, 2, 4, 9, "59e9c6341bb35508"),
    (7, 2, 4, 10, "81e630f2b7b5ddb0"),
    (8, 2, 4, 11, "99df07313c57df3d"),
    (5, 3, 4, 12, "540d96ac3ecaf5bc"),
    (6, 3, 4, 13, "965c279f15686e31"),
    (7, 3, 4, 14, "ea5089dfe2071a39"),
    (8, 3, 4, 15, "0c02e2509a050f5d"),
]


@pytest.mark.parametrize("n,t,c,seed,digest", _TABLE_DIGESTS)
def test_random_proper_table_outputs_are_pinned(n, t, c, seed, digest):
    alg = random_proper_table(n, t, c, seed)
    outputs = bytes(alg.rule(w) for w in proper_sequences(n, t + 1))
    assert hashlib.sha256(outputs).hexdigest()[:16] == digest


def test_speed_up_refuses_families_too_wide_for_int_masks():
    # level 3 of a 3-colour source has 2^62 - 2 colours: a family of them
    # would be a 2^62-bit mask, so level 4 fails before any mask is formed
    tower = iterate_speed_up(compose(ns_schedule(7)), 3)
    message = "cannot speed up 4611686018427387902 colours: families exceed 65536 bits"
    with pytest.raises(ValueError, match=message):
        iterate_speed_up(compose(ns_schedule(7)), 4)
    with pytest.raises(ValueError, match=message):
        speed_up(tower.algorithm(3))
    # a 16-colour source still speeds up twice: families of 2^16 - 2 colours fit
    top = iterate_speed_up(random_proper_table(4, 2, 16, seed=0), 2).algorithm(2)
    assert top.out_palette.size == 2 ** (2**16 - 2) - 2
