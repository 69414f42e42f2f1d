import dataclasses
import itertools
import random
import tracemalloc
from array import array
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from pathchroma.model import (
    CYCLE,
    ONE_SIDED,
    PATH,
    Palette,
    PathInstance,
    ReductionAlgorithm,
    TowerValue,
    bounds_report,
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


def test_colex_masks_follow_colex_rank_order():
    # The mask builds share no code with the unranker's binomial steps.
    for k in range(1, 7):
        for m in range(k, 13):
            count = comb(m, k)
            expected = [_mask(colex_unrank(rank, k, m)) for rank in range(1, count + 1)]
            masks = _colex_masks(k, count)
            assert isinstance(masks, array) and masks.tolist() == [0, *expected]
    masks = _colex_masks(10, comb(20, 10))
    assert isinstance(masks, array) and len(masks) == comb(20, 10) + 1 and masks[0] == 0
    for rank in random.Random(20).sample(range(1, comb(20, 10) + 1), 2000):
        assert masks[rank] == _mask(colex_unrank(rank, 10, 20))
        assert masks[rank] == _colex_unrank_mask(rank, 10, 20)


@pytest.mark.parametrize(
    "k, m",
    [(k, 2 * k) for k in range(1, 9)] + [(1, 64), (2, 64), (3, 64)],
)
def test_colex_masks_set_each_bit_in_its_byte_plane(k, m):
    # Every subset of [m]: the full levels of k = 1..8 reach up to two
    # bytes, and m = 64 crosses every byte-plane boundary of 8-byte lanes.
    count = comb(m, k)
    masks = _colex_masks(k, count)
    assert masks.itemsize == -(-m // 8)  # lanes of 1, 2 or 8 bytes
    assert masks.tolist() == [0, *(_colex_unrank_mask(r, k, m) for r in range(1, count + 1))]


def test_colex_masks_wider_than_a_lane():
    # C(64, 62) = 2016 masks fit 64-bit lanes; the 2017th needs bit 64, so
    # 3000 masks take the Gosper step into a list.  Both agree with the
    # unranker, after the empty mask of colour 0.
    for count, kind in ((2016, array), (3000, list)):
        masks = _colex_masks(62, count)
        assert type(masks) is kind
        assert list(masks) == [0, *(_colex_unrank_mask(r, 62, 66) for r in range(1, count + 1))]
    # A small palette with a large k builds count masks, not k levels of lanes.
    expected = [0, *(_colex_unrank_mask(r, 10**4, 10**4 + 1) for r in range(1, 6))]
    assert _colex_masks(10**4, 5) == expected
    # The rule has a sequence form exactly where its masks come back packed.
    assert hasattr(ns_algorithm(2016, 62).rule, "over")
    assert not hasattr(ns_algorithm(3000, 62).rule, "over")
    rule = ns_algorithm(5, 10**4).rule
    values = (1, 5, 2, 4, 3, 1, 2)
    assert not hasattr(rule, "over")  # masks wider than 8-byte lanes get no form
    masks = [_colex_unrank_mask(c, 10**4, 2 * 10**4) for c in values]
    expected = [((u & ~v) & -(u & ~v)).bit_length() for u, v in zip(masks, masks[1:])]
    assert list(map(rule, zip(values, values[1:]))) == expected


def test_unranker_on_wide_subsets():
    # Each binomial is a big number here: both ends and sampled ranks,
    # checked by the combinatorial number system.
    k, m = 60, 120
    top = comb(m, k)
    rng = random.Random(60)
    for rank in [1, 2, top - 1, top, *(rng.randint(1, top) for _ in range(50))]:
        members = [i for i in range(1, m + 1) if _colex_unrank_mask(rank, k, m) >> (i - 1) & 1]
        assert len(members) == k and _colex_rank(members) == rank


def test_ns_rule_same_with_and_without_mask_list(monkeypatch):
    listed = ns_algorithm(20, 3)
    monkeypatch.setattr(reduce_module, "_MASK_LIST_LIMIT", 19)
    unranked = ns_algorithm(20, 3)
    for window in itertools.permutations(range(1, 21), 2):
        assert listed.rule(window) == unranked.rule(window)


def test_ns_masks_are_built_once(monkeypatch):
    built = []
    colex_masks = reduce_module._colex_masks

    def counted_masks(k, count):
        built.append((k, count))
        return colex_masks(k, count)

    monkeypatch.setattr(reduce_module, "_colex_masks", counted_masks)
    stage = ns_algorithm(98304, 10)
    assert built == [(10, 98304)]  # with the rule
    values = random_proper_instance(98304, 300, seed=10).labels
    expected = list(map(stage.rule, zip(values, values[1:])))
    assert list(stage.rule.over(values)) == expected
    assert built == [(10, 98304)]  # none from rule or form calls
    # Above 2^20 colours each distinct colour is unranked once, on first sight.
    unranked = []
    unrank = reduce_module._colex_unrank_mask

    def counted_unrank(rank, k, m):
        unranked.append(rank)
        return unrank(rank, k, m)

    monkeypatch.setattr(reduce_module, "_colex_unrank_mask", counted_unrank)
    n = reduce_module._MASK_LIST_LIMIT + 1
    rule = ns_algorithm(n, 12).rule
    assert unranked == []
    values = (1, n, 7, 1, n, 7, 2, 1)
    outputs = list(map(rule, zip(values, values[1:])))
    assert sorted(unranked) == [1, 2, 7, n]
    assert list(map(rule, zip(values, values[1:]))) == outputs
    assert sorted(unranked) == [1, 2, 7, n] and built == [(10, 98304)]
    # A symbolic palette's rule raises the same error on every call.
    stage = ns_schedule(TowerValue(6, 1)).stages[0]
    message = f"cannot evaluate {stage.name} on a symbolic palette of pt:6+1 colours"
    for window in ((1, 2), (2, 1), (1, 2)):
        with pytest.raises(ValueError) as raised:
            stage.rule(window)
        assert raised.value.args == (message,)


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


@pytest.mark.parametrize("bad", [0, 21, -1])
def test_ns_stage_input_outside_its_palette_raises(bad):
    # The ns rule does not check its colours: it reads -1 as colour 20
    # through masks[-1] and gives 0 for colour 0.  The stage's input check
    # stops the run before the rule sees them.
    lying = ReductionAlgorithm(
        ONE_SIDED, 0, Palette(20), Palette(20), lambda w: bad if w[0] == 5 else w[0], name="lying"
    )
    alg = compose([lying, ns_algorithm(20, 3)])
    # 10 nodes: the lying stage is called per node and hands on a list.
    with pytest.raises(ValueError, match="stage ns k=3 is not a proper colouring"):
        run_algorithm(alg, PathInstance(PATH, tuple(range(1, 11))))
    # 40 nodes: its byte table hands on bytes, or cannot store -1.
    with pytest.raises(ValueError):
        run_algorithm(alg, PathInstance(PATH, tuple(range(1, 21)) * 2))


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


def test_schedule_rounds_within_the_reported_upper_bound():
    # upperT comes from tower arithmetic, not from the schedule: it is one
    # round above the schedule at n = 6, 18-20 and 65,538-184,756.
    above = set()
    for n in [*range(4, 301), 65537, 65538, 184756, 184757]:
        rounds, upper = ns_schedule(n).rounds, bounds_report(n).upper_t
        assert rounds <= upper, n
        if rounds < upper:
            above.add(n)
    assert above == {6, 18, 19, 20, 65538, 184756}


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


# --- sequence forms ----------------------------------------------------------

# ns palettes with the least k and with a larger one, on one and on several
# byte planes, and with k > 32 on palettes whose masks still fit 8-byte
# lanes (2016 colours of k = 62 reach bit 63: all 8 planes); cv for
# k = 3..16.
_FORM_CASES = [
    *(("ns", n, k) for n, k in [(5, 2), (6, 2), (6, 4), (20, 3), (20, 5), (32, 4), (70, 4)]),
    *(("ns", n, k) for n, k in [(71, 5), (300, 6), (65537, 10), (98304, 10), (98304, 13)]),
    *(("ns", n, k) for n, k in [(5, 40), (41, 40), (2016, 62)]),
    *(("cv", 2**k, k) for k in range(3, 17)),
]


@lru_cache(maxsize=None)
def _form_stage(kind, n, k):
    return ns_algorithm(n, k) if kind == "ns" else cv_algorithm(k)


def _outcome(stage, values):
    # run_algorithm's labels, or its error, where the stage's input is
    # values[1], values[0], values[1], ..., values[-1]: a 0-round first stage
    # reads them off a path labelled 1..len(values), whose virtual colour
    # before the head is 2.
    feed = ReductionAlgorithm(
        ONE_SIDED, 0, Palette(len(values)), stage.in_palette, lambda w: values[w[0] - 1]
    )
    instance = PathInstance(PATH, tuple(range(1, len(values) + 1)))
    try:
        return run_algorithm(compose([feed, stage]), instance).labels
    except Exception as exc:
        return type(exc), exc.args


def _check_form(stage, values):
    rule = stage.rule
    n = stage.in_palette.size
    if len(values) < 2:
        return
    if all(x in Palette(n) for x in values) and is_proper(PathInstance(PATH, tuple(values))):
        # The form is defined on proper colourings in 1..n, as the rule is.
        expected = list(map(rule, zip(values, values[1:])))
        inputs = [tuple(values), list(values)] + ([bytes(values)] if n < 256 else [])
        for seq in inputs:
            out = rule.over(seq)
            assert type(out) is bytes and list(out) == expected
    # The same stage without its form: the same outputs, or on any other
    # input the same error, raised before the stage runs.
    plain = dataclasses.replace(stage, rule=lambda w: rule(w))
    assert _outcome(stage, values) == _outcome(plain, values)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FORM_CASES), st.data())
def test_sequence_forms_match_the_rule(case, data):
    kind, n, k = case
    stage = _form_stage(kind, n, k)
    colour = st.one_of(
        st.integers(1, n), st.sampled_from([1, n, 0, -1, n + 1, 255, 256, 2**64, True])
    )
    values = data.draw(st.lists(colour, max_size=24))
    for i in data.draw(st.lists(st.integers(1, 23), max_size=3)):
        if i < len(values):
            values[i] = values[i - 1]  # equal neighbours
    _check_form(stage, values)


def test_sequence_forms_take_proper_sequences():
    # Proper input in range: every form answers, whatever the input type,
    # on sequences shorter than the ns gather's chunk, of one chunk, and of
    # one or two chunks and one colour more.
    chunk = reduce_module._GATHER
    for kind, n, k in _FORM_CASES:
        rule = _form_stage(kind, n, k).rule
        for length in (2, 200, chunk, chunk + 1, 2 * chunk + 1):
            values = random_proper_instance(n, length, seed=k).labels
            expected = list(map(rule, zip(values, values[1:])))
            for seq in (values, list(values)):
                assert list(rule.over(seq)) == expected
            if n < 256:
                assert list(rule.over(bytes(values))) == expected


def test_sequence_form_at_the_mask_list_limit():
    limit = reduce_module._MASK_LIST_LIMIT
    assert not hasattr(ns_algorithm(limit + 1, 12).rule, "over")  # masks unranked per colour
    stage = ns_algorithm(limit, 12)
    values = list(random_proper_instance(limit, 300, seed=12).labels)
    assert list(stage.rule.over(values)) == list(map(stage.rule, zip(values, values[1:])))
    for bad in ([], [limit, 1, limit, limit - 1], [3, 0, 5], [1, limit + 1], [7, 7, 2], [2, -1]):
        _check_form(stage, values[:20] + bad)


def test_large_palette_masks_stay_packed():
    # 98,304 colours take k = 10, whose masks reach bit 19: 4 bytes per
    # colour, behind colour 0's empty mask.
    masks = _colex_masks(10, 98304)
    assert isinstance(masks, array) and masks.itemsize == 4
    assert len(masks) == 98305 and masks[0] == 0
    # The schedule on a 10^5-node cycle, traced above the instance's own
    # memory, mask build included: about 3.0 MB with packed masks and
    # released operands, against 6.9 MB with a list of masks and
    # full-length copies of the shifted sequences.
    # The masks are built with the schedule, so the schedule is built in
    # the traced window.
    instance = random_proper_instance(98304, 10**5, seed=5)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        output = run_algorithm(compose(ns_schedule(98304)), instance)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert is_proper(output) and set(output.labels) <= {1, 2, 3}
    assert peak < 4.0e6, f"peak {peak / 1e6:.2f} MB"
