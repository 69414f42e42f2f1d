import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st

import pathchroma.model as model
from pathchroma.errors import BudgetExceeded
from pathchroma.model import (
    CYCLE,
    ONE_SIDED,
    PATH,
    TWO_SIDED,
    Palette,
    PathInstance,
    ReductionAlgorithm,
    TowerValue,
    _random_walk,
    bounds_report,
    count_proper_sequences,
    exhaustive_properness_check,
    format_instance,
    identity_algorithm,
    is_proper,
    log_star,
    one_sided_from_two_sided,
    parse_instance,
    proper_sequences,
    random_proper_instance,
    run_algorithm,
    sampled_properness_check,
    tower,
    two_sided_from_one_sided,
    window_graph,
)
from pathchroma.reduce import (
    compose,
    cv_algorithm,
    four_to_three,
    ns_algorithm,
    ns_schedule,
    shift_reduce,
)
from pathchroma.speedup import compose_colouring


def test_log_star_small_values():
    assert log_star(1) == 0
    assert log_star(2) == 1
    assert log_star(16) == 3
    assert log_star(65536) == 4
    assert log_star(65537) == 5
    assert log_star(2**65536) == 5
    assert log_star(2**65536 + 1) == 6


def test_log_star_floats():
    assert log_star(1.0) == 0
    assert log_star(1.5) == 1
    assert log_star(16.0) == 3


def test_log_star_rejects_below_one():
    with pytest.raises(ValueError):
        log_star(0)
    with pytest.raises(ValueError):
        log_star(0.5)
    for x in (float("inf"), float("nan")):  # log2(inf) is inf; nan fails every comparison
        with pytest.raises(ValueError):
            log_star(x)


@given(st.integers(min_value=2, max_value=20000))
def test_log_star_recurrence(x):
    # log*(2^x) = log*(x) + 1 for x > 1
    assert log_star(2**x) == log_star(x) + 1


def test_tower_values():
    assert tower(0) == 1
    assert tower(1) == 2
    assert tower(4) == 65536
    for h in range(5):
        assert tower(h + 1) == 2 ** tower(h)
    sym = tower(6)
    assert isinstance(sym, TowerValue)
    assert str(sym) == "pt:6"


def test_tower_exact_through_height_five():
    assert tower(5) == TowerValue(5).exact() == 2**65536
    assert isinstance(tower(5), int)
    with pytest.raises(ValueError):
        tower(-1)


def test_tower_value_comparisons():
    assert TowerValue(4) == 65536
    assert TowerValue(4, 1) > 65536
    assert TowerValue(5) > 10**10000
    assert TowerValue(6) > 2**65536
    assert TowerValue(5, 1) < TowerValue(6)
    assert TowerValue(6, 2) > TowerValue(6, 1)
    assert 65536 <= TowerValue(4) and 10**9 < TowerValue(6)  # reflected
    assert TowerValue(6) >= TowerValue(5, 1)
    assert 3 in Palette(TowerValue(6))
    with pytest.raises(TypeError):
        TowerValue(6) < "x"
    assert log_star(TowerValue(5)) == 5
    assert log_star(TowerValue(5, 1)) == 6


def test_tower_value_rejects_overflowing_offset():
    with pytest.raises(ValueError):
        TowerValue(2, 12)  # 4 + 12 = 16 = tower(3)
    TowerValue(2, 11)  # fine


def test_is_proper():
    assert is_proper(PathInstance(PATH, (1, 2, 1, 3)))
    assert not is_proper(PathInstance(CYCLE, (1, 2, 1)))
    assert not is_proper(PathInstance(PATH, (1, 1)))
    assert is_proper(PathInstance(CYCLE, (1, 2)))


@pytest.mark.parametrize("topology", [PATH, CYCLE])
def test_is_proper_gives_the_same_answer_for_wide_labels(topology):
    # Labels 1, 2, 3 as 255, 256, 257: bytes for some sequences, not for others.
    for length in range(2, 7):
        for labels in itertools.product((1, 2, 3), repeat=length):
            expected = all(map(int.__ne__, labels, labels[1:]))
            if topology == CYCLE:
                expected = expected and labels[0] != labels[-1]
            wide = tuple(x + 254 for x in labels)
            assert is_proper(PathInstance(topology, labels)) == expected
            assert is_proper(PathInstance(topology, wide)) == expected


def test_instance_validation():
    with pytest.raises(ValueError):
        PathInstance("ring", (1, 2))
    with pytest.raises(ValueError):
        PathInstance(PATH, (1,))
    with pytest.raises(ValueError):
        PathInstance(PATH, (1, 0))


def test_identity_run_returns_same_instance():
    inst = PathInstance(CYCLE, (1, 3, 2, 4))
    out = run_algorithm(identity_algorithm(4), inst)
    assert out.labels == inst.labels


def test_run_rejects_improper_and_out_of_palette():
    alg = identity_algorithm(3)
    with pytest.raises(ValueError):
        run_algorithm(alg, PathInstance(PATH, (1, 1, 2)))
    with pytest.raises(ValueError):
        run_algorithm(alg, PathInstance(PATH, (1, 4)))


def test_run_rejects_a_zero_byte_in_its_output():
    # A table stage over 3 colours runs as bytes; one window maps to 0.
    zero = ReductionAlgorithm(
        ONE_SIDED, 1, Palette(3), Palette(3), lambda w: 0 if w == (2, 3) else w[0], name="zero"
    )
    with pytest.raises(ValueError, match="labels must be positive integers"):
        run_algorithm(zero, PathInstance(PATH, (1, 2, 3) * 4))


def _predecessor_echo(n):
    # 1-round rule that outputs its predecessor's colour; proper because
    # overlapping windows see distinct predecessors.
    return ReductionAlgorithm(
        ONE_SIDED, 1, Palette(n), Palette(n), lambda w: w[0], name="pred-echo"
    )


def test_virtual_extension_on_paths():
    # Node 0 of a path sees the virtual predecessor prev(first) = 1 (or 2 if first == 1).
    alg = _predecessor_echo(3)
    out = run_algorithm(alg, PathInstance(PATH, (3, 2, 3)))
    assert out.labels == (1, 3, 2)
    out = run_algorithm(alg, PathInstance(PATH, (1, 2, 3)))
    assert out.labels == (2, 1, 2)


@pytest.mark.parametrize(
    "t,ahead,behind", [(1, (1, 3, 2, 1), (1, 3, 1, 3)), (2, (3, 2, 1, 2), (2, 1, 3, 1))]
)
def test_virtual_extension_on_paths_two_sided(t, ahead, behind):
    # A two-sided rule echoing its last (first) window entry outputs the
    # colour t nodes ahead (behind).  Past the tail of (3, 1, 3, 2) the path
    # continues with prev(2) = 1, then prev(1) = 2; before the head it reads
    # ..., prev(prev(3)) = 2, prev(3) = 1.
    path = PathInstance(PATH, (3, 1, 3, 2))
    for echo, expected in ((lambda w: w[-1], ahead), (lambda w: w[0], behind)):
        alg = ReductionAlgorithm(TWO_SIDED, t, Palette(3), Palette(3), echo, name="echo")
        assert run_algorithm(alg, path).labels == expected


def test_proper_sequences_enumeration():
    seqs = list(proper_sequences(3, 3))
    assert len(seqs) == count_proper_sequences(3, 3) == 3 * 2 * 2
    assert len(set(seqs)) == len(seqs)
    assert all(a != b for s in seqs for a, b in zip(s, s[1:]))
    assert list(proper_sequences(4, 1)) == [(1,), (2,), (3,), (4,)]


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4))
def test_proper_sequences_count(n, length):
    assert sum(1 for _ in proper_sequences(n, length)) == count_proper_sequences(n, length)


def _product_sequences(n, length):
    # every sequence over [n] in lexicographic order, less those with equal neighbours
    return [
        w for w in itertools.product(range(1, n + 1), repeat=length)
        if all(a != b for a, b in zip(w, w[1:]))
    ]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("length", range(6))
def test_proper_sequences_match_the_product_order(n, length):
    if n**length <= 10**5:
        assert list(proper_sequences(n, length)) == _product_sequences(n, length)


def test_proper_sequences_of_any_length():
    # two alternating sequences; no recursion limit at any length
    assert list(proper_sequences(2, 5000)) == [(1, 2) * 2500, (2, 1) * 2500]
    assert list(proper_sequences(1, 5000)) == []
    with pytest.raises(ValueError, match="non-negative"):
        proper_sequences(3, -1)


def _dict_window_graph(n, length, all_distinct):
    # windows hashed into a dict, and each shift looked up by its tuple
    windows = tuple(
        w for w in _product_sequences(n, length) if not all_distinct or len(set(w)) == length
    )
    index = {w: i for i, w in enumerate(windows)}
    edges = set()
    for i, w in enumerate(windows):
        for y in range(1, n + 1):
            j = index.get(w[1:] + (y,))
            if j is not None and j != i:
                edges.add((min(i, j), max(i, j)))
    return windows, frozenset(edges)


@pytest.mark.parametrize("all_distinct", [False, True])
@pytest.mark.parametrize("length", range(1, 5))
@pytest.mark.parametrize("n", range(2, 10))
def test_window_graph_matches_the_dict_builder(n, length, all_distinct):
    got = window_graph(n, length, all_distinct=all_distinct)
    assert got == _dict_window_graph(n, length, all_distinct)


def test_exhaustive_check_passes_identity_rejects_constant():
    assert exhaustive_properness_check(identity_algorithm(4))
    constant = ReductionAlgorithm(
        ONE_SIDED, 1, Palette(4), Palette(4), lambda w: 1, name="constant"
    )
    assert not exhaustive_properness_check(constant)


def _pair_check(alg):
    """The properness contract read literally: both windows of every sequence one longer."""
    wl, c = alg.window_length, alg.out_palette.size
    for seq in proper_sequences(alg.in_palette.size, wl + 1):
        a, b = alg.rule(seq[:wl]), alg.rule(seq[1:])
        if a == b or not (1 <= a <= c) or not (1 <= b <= c):
            return False
    return True


def _small_tables(rng):
    """Tables for n <= 5, t <= 3: proper ones, the same with a few entries changed, random ones."""
    for _ in range(400):
        n, t, c = rng.randint(1, 5), rng.randint(0, 3), rng.randint(1, 4)
        windows = list(proper_sequences(n, t + 1))
        kind = rng.choice(["own", "predecessor", "random"])
        if kind == "random" or (kind == "predecessor" and t == 0):
            table = {w: rng.randint(1, c) for w in windows}
        else:
            # the own colour and the predecessor's are proper; relabel injectively
            c = n + rng.randint(0, 2)
            relabel = dict(zip(range(1, n + 1), rng.sample(range(1, c + 1), n)))
            table = {w: relabel[w[-1] if kind == "own" else w[-2]] for w in windows}
        for w in rng.sample(windows, min(len(windows), rng.choice([0, 0, 1, 2]))):
            table[w] = rng.randint(0, c + 1)  # 0 and c + 1 leave the palette
        yield ReductionAlgorithm(ONE_SIDED, t, Palette(n), Palette(c), table.__getitem__)


def test_stem_check_matches_the_pair_loop():
    verdicts = []
    for alg in _small_tables(random.Random(3)):
        verdicts.append(exhaustive_properness_check(alg))
        assert verdicts[-1] == _pair_check(alg), alg
    assert 50 < sum(verdicts) < len(verdicts) - 50


def test_stem_check_calls_the_rule_twice_per_window():
    calls = []
    alg = ReductionAlgorithm(
        ONE_SIDED, 2, Palette(5), Palette(5), lambda w: calls.append(w) or w[-1]
    )
    assert exhaustive_properness_check(alg)
    assert len(calls) == 2 * count_proper_sequences(5, 3) and len(set(calls)) == len(calls) // 2


@pytest.mark.parametrize("t", [0, 1, 3])
def test_exhaustive_check_of_one_colour_calls_no_rule(t):
    def rule(window):
        raise AssertionError(f"rule called on {window}")

    # one colour has no adjacent-distinct pair of windows, so every table is proper
    alg = ReductionAlgorithm(ONE_SIDED, t, Palette(1), Palette(1), rule)
    assert exhaustive_properness_check(alg)


def test_exhaustive_check_budget():
    alg = identity_algorithm(100)
    with pytest.raises(BudgetExceeded):
        exhaustive_properness_check(alg, budget=10)


def test_sampled_check():
    assert sampled_properness_check(_predecessor_echo(50), samples=2000, seed=1)
    bad = ReductionAlgorithm(
        ONE_SIDED, 1, Palette(50), Palette(50), lambda w: 7, name="constant"
    )
    assert not sampled_properness_check(bad, samples=2000, seed=1)


def test_conversion_round_counts():
    one = _predecessor_echo(5)
    two = two_sided_from_one_sided(one)
    assert two.sidedness == TWO_SIDED and two.rounds == 1  # ceil(1/2)
    back = one_sided_from_two_sided(two)
    assert back.sidedness == ONE_SIDED and back.rounds == 2
    with pytest.raises(ValueError):
        two_sided_from_one_sided(two)
    with pytest.raises(ValueError):
        one_sided_from_two_sided(one)


def test_conversion_zero_rounds_is_identity():
    ident = identity_algorithm(4)
    two = two_sided_from_one_sided(ident)
    assert two.rounds == 0
    inst = random_proper_instance(4, 20, seed=3)
    assert run_algorithm(two, inst).labels == inst.labels


def _rotate(seq, k):
    k %= len(seq)
    return seq[k:] + seq[:k]


def test_two_sided_conversion_output_is_rotation_on_cycles():
    one = _predecessor_echo(6)
    two = two_sided_from_one_sided(one)
    inst = random_proper_instance(6, 31, seed=9)
    out_one = run_algorithm(one, inst).labels
    out_two = run_algorithm(two, inst).labels
    # two-sided node i evaluates the one-sided window of node i + floor(t/2)
    shift = one.rounds - two.rounds
    assert out_two == _rotate(out_one, shift)


def test_one_sided_conversion_output_is_rotation_on_cycles():
    two = two_sided_from_one_sided(_predecessor_echo(6))
    one = one_sided_from_two_sided(two)
    inst = random_proper_instance(6, 17, seed=11)
    out_two = run_algorithm(two, inst).labels
    out_one = run_algorithm(one, inst).labels
    # one-sided node i evaluates the two-sided window of node i - t
    assert out_one == _rotate(out_two, -two.rounds)


def test_bounds_report_examples():
    r = bounds_report(65536)
    assert (r.lower_t, r.upper_t) == (4, 5)
    r = bounds_report(4)
    assert (r.lower_t, r.upper_t) == (2, 2)
    assert r.exact and (r.lower_c, r.upper_c) == (1, 1)
    r = bounds_report(TowerValue(5, 1))
    assert r.lower_c == r.upper_c == 3 == r.log_star // 2
    assert r.exact


def test_bounds_report_rejects_small_n():
    with pytest.raises(ValueError):
        bounds_report(3)


def test_bounds_report_text_format():
    text = bounds_report(65536).to_text()
    assert "lowerT=4" in text and "upperT=5" in text
    assert text.endswith("exact=false\n") or "exact=" in text


@given(st.integers(min_value=4, max_value=10**9))
def test_bounds_c_window_at_most_one(n):
    r = bounds_report(n)
    assert 0 <= r.upper_c - r.lower_c <= 1
    assert r.lower_t <= r.upper_t <= r.lower_t + 2


def test_bounds_large_sample():
    import random as _random

    rng = _random.Random(0)
    for _ in range(200):
        n = rng.randint(4, 2**64)
        r = bounds_report(n)
        assert r.upper_c - r.lower_c <= 1


def test_random_proper_instance():
    inst = random_proper_instance(4, 100, seed=7)
    assert is_proper(inst) and len(inst) == 100
    assert all(1 <= x <= 4 for x in inst.labels)
    assert inst.labels == random_proper_instance(4, 100, seed=7).labels
    with pytest.raises(ValueError):
        random_proper_instance(2, 5, seed=0, topology=CYCLE)
    assert is_proper(random_proper_instance(2, 6, seed=0, topology=CYCLE))


@pytest.mark.parametrize(
    "n,length,seed,topology,digest",
    [
        (98304, 10**5, 1, CYCLE, "e78299c439fe818a"),
        (5, 1000, 0, PATH, "c8e27a9d8e02474c"),
        (3, 999, 3, CYCLE, "ee9a5ab2ce92ccc1"),
    ],
)
def test_random_proper_instance_is_pinned(n, length, seed, topology, digest):
    # pins the random stream, so seeded instances stay the same labels
    labels = random_proper_instance(n, length, seed, topology).labels
    assert hashlib.sha256(" ".join(map(str, labels)).encode()).hexdigest()[:16] == digest


def _randint_instance(n, length, seed, topology):
    # Reference generator: one randint call per colour.  Also counts the
    # draws that close a cycle again.
    rng = random.Random(seed)
    labels = [rng.randint(1, n)]
    for _ in range(length - 1):
        x = rng.randint(1, n - 1)
        labels.append(x if x < labels[-1] else x + 1)
    redraws = 0
    if topology == CYCLE:
        while labels[-1] == labels[0] or labels[-1] == labels[-2]:
            labels[-1] = rng.randint(1, n)
            redraws += 1
    return tuple(labels), redraws


def test_random_walk_draws_what_randint_draws():
    redraws = 0
    for n in (2, 3, 4, 5, 17, 65537, 98304):
        for topology in (CYCLE, PATH):
            for seed in range(4):
                length = 200 + seed
                if topology == CYCLE and n == 2 and length % 2:
                    continue
                labels, redrawn = _randint_instance(n, length, seed, topology)
                assert random_proper_instance(n, length, seed, topology).labels == labels
                redraws += redrawn
    assert redraws > 0  # the cycle-closing redraw ran and kept the stream in step
    with pytest.raises(ValueError):
        _random_walk(random.Random(0), 1, 2)


def test_instance_text_round_trip():
    inst = PathInstance(CYCLE, (1, 4, 2, 3))
    assert parse_instance(format_instance(inst)) == inst
    with pytest.raises(ValueError):
        parse_instance("cycle\n1 two 3\n")
    with pytest.raises(ValueError):
        parse_instance("just one line")


def test_palette_membership():
    p = Palette(4)
    assert 1 in p and 4 in p and 5 not in p and 0 not in p
    big = Palette(TowerValue(6))
    assert 10**100 in big


# --- table and closure paths of the simulator --------------------------------


def _reference_run(alg, instance):
    # Evaluate the (composed) rule once per node on the node's own window:
    # t entries before the node, and t after it for two-sided rules.  Paths
    # extend by prev(x) = 1 unless x = 1, then 2, backwards from the head
    # and forwards from the tail.
    t = alg.rounds
    after = t if alg.sidedness == TWO_SIDED else 0
    labels = list(instance.labels)
    if instance.topology == CYCLE:
        seq = [labels[(i - t) % len(labels)] for i in range(len(labels) + t + after)]
    else:

        def extension(x, count):
            out = []
            for _ in range(count):
                x = 1 if x != 1 else 2
                out.append(x)
            return out

        seq = extension(labels[0], t)[::-1] + labels + extension(labels[-1], after)
    wl = alg.window_length
    return tuple(alg.rule(tuple(seq[i : i + wl])) for i in range(len(labels)))


def _counting(stage, calls):
    def rule(window):
        calls[stage.name] = calls.get(stage.name, 0) + 1
        return stage.rule(window)

    return dataclasses.replace(stage, rule=rule)


def _chain(stages):
    # compose() takes one-sided pipelines only; a single stage runs as itself.
    return stages[0] if len(stages) == 1 else compose(stages)


def _late_four_to_three():
    # A 3-round stage on 4 colours: 4**4 = 256 window codes, the most a
    # byte-coded table holds.
    rule = four_to_three().rule
    return ReductionAlgorithm(
        ONE_SIDED, 3, Palette(4), Palette(3), lambda w: rule(w[1:]), name="late 4to3"
    )


@pytest.mark.parametrize("topology", [CYCLE, PATH])
@pytest.mark.parametrize(
    "stages",
    [
        ns_schedule(17).stages,
        (shift_reduce(5),),
        (cv_algorithm(4),),
        (shift_reduce(3),),
        (ns_algorithm(6, 2),),
        (two_sided_from_one_sided(four_to_three()),),
        (_late_four_to_three(),),
    ],
    ids=[
        "ns_schedule(17)",
        "shift_reduce(5)",
        "cv_algorithm(4)",
        "shift_reduce(3)",
        "ns_algorithm(6,2)",
        "two-sided 4to3",
        "late 4to3",
    ],
)
def test_table_and_closure_paths_agree(stages, topology):
    windows = [count_proper_sequences(s.in_palette.size, s.window_length) for s in stages]
    n = stages[0].in_palette.size
    # shorter than every stage's window count (closure path), longer than
    # every one (table path), and in between where the stages differ
    for length in (12, max(windows) // 2, 3 * max(windows)):
        for seed in range(3):
            instance = random_proper_instance(n, length, seed=seed, topology=topology)
            calls: dict[str, int] = {}
            out = run_algorithm(_chain([_counting(s, calls) for s in stages]), instance)
            assert out.labels == _reference_run(_chain(stages), instance)
            assert out.topology == topology
            for i, stage in enumerate(stages):
                if windows[i] <= length:  # once per distinct window
                    assert calls[stage.name] <= windows[i]
                else:  # once per window position, later stages' rounds included
                    later = sum(s.rounds for s in stages[i + 1 :])
                    assert calls[stage.name] == length + later


def _four_cycle(repeats):
    # Windows of 3 colours on this cycle: (3,4,1), (4,1,2), (1,2,3), (2,3,4)
    # in node order; no other window appears.
    return PathInstance(CYCLE, (1, 2, 3, 4) * repeats)


def test_byte_stage_never_builds_a_window_table(monkeypatch):
    def no_table(rule):
        raise AssertionError("window table built for a byte-coded stage")

    monkeypatch.setattr(model, "_WindowTable", no_table)
    ns = ns_algorithm(6, 2)
    # A wrapped rule has no sequence form, so the ns stage takes the byte path.
    alg = compose([dataclasses.replace(ns, rule=lambda w: ns.rule(w)), four_to_three()])
    instance = random_proper_instance(6, 500, seed=1)
    assert run_algorithm(alg, instance).labels == _reference_run(alg, instance)


# The six simulate pipelines of the benchmark, each on a 10^4-node instance
# of seed equal to its index, on a cycle and on a path: output digests as
# the per-window and table paths gave them before the sequence forms.
_SIMULATE_PIPELINES = [
    (98304, lambda: ns_schedule(98304).stages, "225724a82bd4a94f", "725f2ec5426c308e"),
    (65537, lambda: ns_schedule(65537).stages, "982c57a2d4bd49af", "16d957bf397eb02e"),
    (17, lambda: ns_schedule(17).stages, "3a06345373be57cf", "3a06345373be57cf"),
    (5, lambda: ns_schedule(5).stages, "99ca3fcf7f4fa927", "f0600b1fd074f35e"),
    (
        2**16,
        lambda: (cv_algorithm(16), *ns_schedule(32).stages),
        "e37c8e0f452403a1",
        "eefb5401ae26c529",
    ),
    (98304, lambda: ns_schedule(98304).stages, "3cc47b2153a8b91f", "ef48b638bbd367c6"),
]


@pytest.mark.parametrize("seed", range(len(_SIMULATE_PIPELINES)))
@pytest.mark.parametrize("topology", [CYCLE, PATH])
def test_simulate_pipeline_outputs_are_pinned(seed, topology):
    n, stages, cycle_digest, path_digest = _SIMULATE_PIPELINES[seed]
    instance = random_proper_instance(n, 10**4, seed, topology)
    labels = run_algorithm(compose(stages()), instance).labels
    digest = hashlib.sha256(" ".join(map(str, labels)).encode()).hexdigest()[:16]
    assert digest == (cycle_digest if topology == CYCLE else path_digest)


def _lying_identity():
    # Claims 4 output colours but passes 5 through, so the next stage's
    # input holds a colour above its n.
    return ReductionAlgorithm(
        ONE_SIDED, 0, Palette(5), Palette(4), lambda w: w[0], name="lying identity"
    )


@pytest.mark.parametrize("topology", [CYCLE, PATH])
def test_byte_stage_falls_back_on_colours_it_cannot_code(topology):
    # Both first stages hand 4to3 bytes that are no proper colouring over its
    # 4 colours, so no path can code them: the run stops before 4to3.
    lying = _lying_identity()
    # This one outputs equal neighbours, windows outside proper_sequences.
    merging = ReductionAlgorithm(
        ONE_SIDED, 0, Palette(4), Palette(4), lambda w: max(w[0], 2), name="merging"
    )
    for first, n in ((lying, 5), (merging, 4)):
        alg = compose([first, four_to_three()])
        instance = random_proper_instance(n, 300, seed=2, topology=topology)
        with pytest.raises(ValueError, match="stage 4to3 is not a proper colouring"):
            run_algorithm(alg, instance)


def test_byte_stage_range_check_catches_an_aliased_code():
    # A 5 only in the last window, (3, 1, 5), whose overflowing code is that
    # of the proper window (3, 2, 1): the range check on 4to3's input sees it.
    alg = compose([_lying_identity(), four_to_three()])
    instance = PathInstance(PATH, (1, 2, 3, 4) * 9 + (3, 1, 5))
    with pytest.raises(ValueError, match="stage 4to3 is not a proper colouring"):
        run_algorithm(alg, instance)


# The byte table calls the rule on every valid window, present or not: a
# value that fits a byte on an absent window is never read, a rule that
# raises raises, and a value that is no byte raises a ValueError naming the
# stage and the window (a str was the bytearray's TypeError before).
@pytest.mark.parametrize(
    "bad, error",
    [
        (LookupError("absent"), LookupError),
        (0, None),
        (256, ValueError),
        (True, None),
        ("x", ValueError),
    ],
    ids=["raises", "0", "256", "bool", "str"],
)
def test_rule_misbehaving_on_absent_window_changes_nothing(bad, error):
    base = four_to_three().rule

    def rule(window):
        if window == (1, 2, 1):
            if isinstance(bad, Exception):
                raise bad
            return bad
        return base(window)

    stage = dataclasses.replace(four_to_three(), rule=rule)
    instance = _four_cycle(25)
    if error is None:
        assert run_algorithm(stage, instance).labels == _reference_run(four_to_three(), instance)
    elif error is ValueError:
        message = rf"stage 4to3 gives {bad!r} on window \(1, 2, 1\), not a byte"
        with pytest.raises(ValueError, match=message):
            run_algorithm(stage, instance)
    else:
        with pytest.raises(error):
            run_algorithm(stage, instance)


def test_rule_raising_on_present_window_raises_as_the_window_table_does():
    base = four_to_three().rule

    def rule(window):
        # (2, 3, 4) comes first in proper_sequences, (3, 4, 1) first on the cycle
        if window in ((2, 3, 4), (3, 4, 1)):
            raise LookupError(window)
        return base(window)

    stage = dataclasses.replace(four_to_three(), rule=rule)
    with pytest.raises(LookupError) as raised:
        run_algorithm(stage, _four_cycle(25))
    assert raised.value.args == ((2, 3, 4),)  # the byte table's first window
    # a value that is no colour reaches the output check, as before
    stage = dataclasses.replace(four_to_three(), rule=lambda w: 0 if w == (1, 2, 3) else base(w))
    with pytest.raises(ValueError, match="positive integers"):
        run_algorithm(stage, _four_cycle(25))


def _spy_paths(monkeypatch):
    taken = []
    byte_stage, window_table = model._byte_stage, model._WindowTable

    def spy_byte_stage(*args):
        taken.append("byte table")
        return byte_stage(*args)

    def spy_window_table(rule):
        taken.append("window table")
        return window_table(rule)

    monkeypatch.setattr(model, "_byte_stage", spy_byte_stage)
    monkeypatch.setattr(model, "_WindowTable", spy_window_table)
    return taken


def _formless(stage):
    # A wrapped rule carries no sequence form.
    return dataclasses.replace(stage, rule=lambda w: stage.rule(w))


@pytest.mark.parametrize(
    "alg, instance, path",
    [
        # 256 window codes, but colour 256 is no byte
        (identity_algorithm(256), PathInstance(CYCLE, tuple(range(1, 257)) * 2), "window"),
        # 16**2 = 256 window codes, the most a byte table holds
        (_formless(cv_algorithm(4)), random_proper_instance(16, 1000, seed=16), "byte"),
        # 4**3 = 64 window codes, but outputs up to 300 are no bytes
        (
            compose_colouring({1: 300, 2: 1, 3: 150}, four_to_three()),
            random_proper_instance(4, 1000, seed=4),
            "window",
        ),
    ],
    ids=["identity(256)", "one round on 16", "recolour to 300"],
)
def test_stage_path_is_chosen_from_its_palettes(alg, instance, path, monkeypatch):
    taken = _spy_paths(monkeypatch)
    assert run_algorithm(alg, instance).labels == _reference_run(alg, instance)
    assert taken == [f"{path} table"]
