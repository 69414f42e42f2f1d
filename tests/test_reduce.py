import itertools
import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from pathchroma.model import (
    CYCLE,
    PathInstance,
    TowerValue,
    exhaustive_properness_check,
    identity_algorithm,
    is_proper,
    random_proper_instance,
    run_algorithm,
    sampled_properness_check,
    tower,
)
import pathchroma.reduce as reduce_module
from pathchroma.reduce import (
    Pipeline,
    _colex_masks,
    _colex_unrank_mask,
    colex_unrank,
    compose,
    cv_algorithm,
    four_to_three,
    least_ns_k,
    ns_algorithm,
    ns_schedule,
    shift_reduce,
)


def _colex_order_oracle(k, m):
    # Independent oracle: sort subsets by comparing largest elements first.
    subsets = itertools.combinations(range(1, m + 1), k)
    return sorted(subsets, key=lambda s: tuple(sorted(s, reverse=True)))


def _colex_rank(subset):
    # The combinatorial number system: the rank that colex_unrank inverts.
    return 1 + sum(comb(a - 1, i) for i, a in enumerate(sorted(subset), start=1))


def test_colex_rank_matches_enumeration_oracle():
    for k, m in [(2, 4), (3, 6), (1, 5), (4, 6)]:
        for expected_rank, subset in enumerate(_colex_order_oracle(k, m), start=1):
            assert _colex_rank(subset) == expected_rank
            assert colex_unrank(expected_rank, k, m) == frozenset(subset)


def test_colex_examples():
    assert colex_unrank(1, 2, 4) == frozenset({1, 2})
    assert colex_unrank(6, 2, 4) == frozenset({3, 4})
    assert colex_unrank(1, 3, 7) == frozenset({1, 2, 3})


def test_colex_round_trip_all_c63():
    for rank in range(1, comb(6, 3) + 1):
        assert _colex_rank(colex_unrank(rank, 3, 6)) == rank


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=10), st.data())
def test_colex_round_trip_property(k, extra, data):
    m = k + extra
    rank = data.draw(st.integers(min_value=1, max_value=comb(m, k)))
    subset = colex_unrank(rank, k, m)
    assert len(subset) == k and all(1 <= x <= m for x in subset)
    assert _colex_rank(subset) == rank


def test_colex_errors():
    with pytest.raises(ValueError):
        colex_unrank(7, 2, 4)  # C(4,2) = 6
    with pytest.raises(ValueError):
        colex_unrank(0, 2, 4)
    with pytest.raises(ValueError):
        colex_unrank(1, 5, 4)  # k > m
    with pytest.raises(ValueError):
        colex_unrank(1, 0, 4)


def _mask(members):
    return sum(1 << (x - 1) for x in members)


def test_gosper_masks_follow_colex_rank_order():
    for k in range(1, 6):
        for m in range(k, 12):
            count = comb(m, k)
            expected = [_mask(colex_unrank(rank, k, m)) for rank in range(1, count + 1)]
            assert _colex_masks(k, count) == expected
    masks = _colex_masks(10, comb(20, 10))
    for rank in random.Random(20).sample(range(1, comb(20, 10) + 1), 2000):
        assert masks[rank - 1] == _mask(colex_unrank(rank, 10, 20))
        assert masks[rank - 1] == _colex_unrank_mask(rank, 10, 20)


def test_ns_rule_same_with_and_without_mask_list(monkeypatch):
    listed = ns_algorithm(20, 3)
    monkeypatch.setattr(reduce_module, "_MASK_LIST_LIMIT", 19)
    unranked = ns_algorithm(20, 3)
    for window in itertools.permutations(range(1, 21), 2):
        assert listed.rule(window) == unranked.rule(window)


def test_ns_rule_values():
    alg = ns_algorithm(6, 2)
    # f(1) = {1,2}, f(2) = {1,3}: min {1,2} \ {1,3} = 2
    assert alg.rule((1, 2)) == 2
    # f(6) = {3,4}, f(1) = {1,2}: min {3,4} \ {1,2} = 3
    assert alg.rule((6, 1)) == 3
    assert alg.rounds == 1 and alg.out_palette.size == 4


def test_ns_whole_table_against_oracle():
    order = _colex_order_oracle(2, 4)
    f = {i: set(s) for i, s in enumerate(order, start=1)}
    alg = ns_algorithm(6, 2)
    for u in range(1, 7):
        for v in range(1, 7):
            if u != v:
                assert alg.rule((u, v)) == min(f[u] - f[v])


def test_ns_exhaustively_proper():
    assert exhaustive_properness_check(ns_algorithm(20, 3))
    assert exhaustive_properness_check(ns_algorithm(6, 2))


def test_ns_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ns_algorithm(7, 2)  # C(4,2) = 6 < 7
    with pytest.raises(ValueError):
        ns_algorithm(4, 1)


def test_ns_simulation_frozen_cycle():
    # Hand application of min f(u) \ f(v) with the colex table (see oracle above).
    inst = PathInstance(CYCLE, (1, 2, 3, 4, 5, 6))
    out = run_algorithm(ns_algorithm(6, 2), inst)
    assert out.labels == (3, 2, 1, 2, 1, 2)
    assert is_proper(out) and all(1 <= x <= 4 for x in out.labels)


def test_cv_rule_values():
    alg = cv_algorithm(3)
    assert alg.rule((1, 2)) == 2  # differ at bit 0, that bit of v-1 is 1
    assert alg.rule((8, 4)) == 5  # 111 vs 011 differ at bit 2, bit is 0
    assert alg.in_palette.size == 8 and alg.out_palette.size == 6


def test_cv_exhaustively_proper():
    assert exhaustive_properness_check(cv_algorithm(3))


def test_cv_rejects_small_k():
    with pytest.raises(ValueError):
        cv_algorithm(2)


def test_four_to_three_rule():
    rule = four_to_three().rule
    assert rule((1, 4, 2)) == 3
    assert rule((3, 4, 3)) == 1
    assert rule((2, 3, 1)) == 3


def test_four_to_three_exhaustively_proper():
    assert exhaustive_properness_check(four_to_three())


def test_four_to_three_simulation_frozen_cycle():
    inst = PathInstance(CYCLE, (1, 4, 2, 3, 1, 4))
    out = run_algorithm(four_to_three(), inst)
    assert out.labels == (2, 1, 3, 2, 3, 1)
    assert is_proper(out) and set(out.labels) <= {1, 2, 3}


def test_shift_reduce():
    alg = shift_reduce(4)
    assert alg.rule((1, 5, 2)) == 3
    assert alg.rule((2, 3, 4)) == 3
    assert exhaustive_properness_check(shift_reduce(5))
    assert shift_reduce(3).name == "4to3"
    with pytest.raises(ValueError):
        shift_reduce(2)


def test_pipeline_validation():
    with pytest.raises(ValueError):
        Pipeline((ns_algorithm(6, 2), shift_reduce(4)))  # 4 -> 5 mismatch
    with pytest.raises(ValueError):
        Pipeline(())


def test_compose_six_to_three():
    alg = compose([ns_algorithm(6, 2), four_to_three()])
    assert alg.rounds == 3
    assert alg.in_palette.size == 6 and alg.out_palette.size == 3
    assert exhaustive_properness_check(alg)


def test_compose_identity():
    ident = identity_algorithm(5)
    assert compose([ident]) is ident


def test_compose_agrees_with_stagewise_run():
    pipe = ns_schedule(17)
    alg = compose(pipe)
    inst = random_proper_instance(17, 40, seed=5)
    staged = run_algorithm(alg, inst)
    # evaluating the collapsed rule per node must give the same labels
    single = PathInstance(
        inst.topology,
        tuple(
            alg.rule(tuple(inst.labels[(i - alg.rounds + j) % len(inst)] for j in range(alg.rounds + 1)))
            for i in range(len(inst))
        ),
    )
    assert staged.labels == single.labels


def test_schedule_65537():
    pipe = ns_schedule(65537)
    palettes = [pipe.in_palette.size] + [s.out_palette.size for s in pipe.stages]
    assert palettes == [65537, 20, 6, 4, 3]
    assert pipe.rounds == 5


def test_schedule_small_cases():
    assert ns_schedule(5).rounds == 3
    assert [s.out_palette.size for s in ns_schedule(5).stages] == [4, 3]
    assert ns_schedule(4).rounds == 2
    assert ns_schedule(17).rounds == 4
    assert ns_schedule(3).rounds == 0
    with pytest.raises(ValueError):
        ns_schedule(2)


def test_schedule_98304():
    pipe = ns_schedule(98304)  # (3/2) * 2^16
    assert pipe.rounds == 5
    assert pipe.out_palette.size == 3


def test_schedule_round_bounds_against_towers():
    for h in (2, 3, 4):
        n = tower(h) + 1
        assert ns_schedule(n).rounds <= h + 1
    # h = 5 by schedule arithmetic only: the palette is a 65537-bit integer
    big = TowerValue(5)
    pipe = ns_schedule(big)
    assert pipe.rounds <= 6
    pipe_plus = ns_schedule(TowerValue(5, 1))
    assert pipe_plus.rounds <= 6 and pipe_plus.out_palette.size == 3


def test_schedule_symbolic_tower_six():
    pipe = ns_schedule(TowerValue(6, 1))
    assert pipe.rounds <= 7
    assert pipe.out_palette.size == 3


def test_symbolic_palettes_that_fit_are_decided_exactly():
    # tower(3) + 60000 = 60016 > C(10,5) = 252, symbolic or not
    for n in (TowerValue(3, 60000), 60016):
        with pytest.raises(ValueError, match=r"n=60016 exceeds C\(10,5\)"):
            ns_algorithm(n, 5)
    offsets = [0, 1, 2, 3, 10, 100, 1000, 10**4, 50000, 10**6, 10**9, 2**100, 2**999]
    for h in range(5):
        for d in offsets:
            n = tower(h) + d
            if n >= tower(h + 1):
                continue
            k = 2  # reference: walk k up with exact binomials
            while comb(2 * k, k) < n:
                k += 1
            assert least_ns_k(TowerValue(h, d)) == least_ns_k(n) == k


def test_schedule_stages_all_proper():
    for n in (5, 17, 300, 65537):
        for stage in ns_schedule(n).stages:
            size = stage.in_palette.size
            if size ** (stage.window_length + 1) <= 10**6:
                assert exhaustive_properness_check(stage)
            else:
                assert sampled_properness_check(stage, samples=20000, seed=42)


def test_schedule_simulation_proper():
    pipe = ns_schedule(300)
    alg = compose(pipe)
    for seed in range(3):
        inst = random_proper_instance(300, 500, seed=seed)
        out = run_algorithm(alg, inst)
        assert is_proper(out) and all(1 <= x <= 3 for x in out.labels)


def test_central_binomial_step_available():
    # For c = 4h the subset code on 3c/4 covers (3/2)*2^c colours, and the
    # greedy first stage never lands above (3/2)*c.
    for c in (8, 12, 16):
        n = 3 * 2**c // 2
        assert comb(3 * c // 2, 3 * c // 4) >= n
        first = ns_schedule(n).stages[0]
        assert first.out_palette.size <= 3 * c // 2


def test_least_k_dominates_bit_pairing():
    # least k with C(2k,k) >= n is never above least k' with 2^k' >= n.
    # Both step functions only change at their thresholds, so checking every
    # threshold up to 10^6 covers all n in between.
    breakpoints = {2, 10**6}
    k = 2
    while comb(2 * k, k) <= 10**6:
        breakpoints.add(comb(2 * k, k))
        breakpoints.add(comb(2 * k, k) + 1)
        k += 1
    for kp in range(1, 21):
        breakpoints.add(2**kp)
        breakpoints.add(2**kp + 1)
    for n in sorted(b for b in breakpoints if 2 <= b <= 10**6):
        k_ns = least_ns_k(n)
        k_cv = max(1, (n - 1).bit_length())
        assert k_ns <= max(k_cv, 2)


def test_builtin_algorithms_preserve_properness_on_random_instances():
    from pathchroma.model import (
        CYCLE,
        PATH,
        one_sided_from_two_sided,
        two_sided_from_one_sided,
    )

    algorithms = [
        identity_algorithm(4),
        four_to_three(),
        shift_reduce(4),
        shift_reduce(5),
        ns_algorithm(6, 2),
        ns_algorithm(20, 3),
        cv_algorithm(3),
        compose(ns_schedule(7)),
        two_sided_from_one_sided(four_to_three()),
        one_sided_from_two_sided(two_sided_from_one_sided(ns_algorithm(6, 2))),
    ]
    checked = 0
    for idx, alg in enumerate(algorithms):
        n = alg.in_palette.size
        for seed in range(100):
            length = 3 + (7 * seed + idx) % 38
            topology = CYCLE if seed % 2 else PATH
            instance = random_proper_instance(n, length, seed=1000 * idx + seed, topology=topology)
            output = run_algorithm(alg, instance)
            assert is_proper(output)
            assert all(x in alg.out_palette for x in output.labels)
            checked += 1
    assert checked >= 1000


def test_pipeline_describe_format():
    text = ns_schedule(65537).describe()
    lines = text.strip().splitlines()
    assert lines[0] == "ns k=10 in=65537 out=20"
    assert lines[1] == "ns k=3 in=20 out=6"
    assert lines[2] == "ns k=2 in=6 out=4"
    assert lines[3] == "4to3 in=4 out=3"
    assert lines[4] == "rounds=5"
