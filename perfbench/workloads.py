"""The benchmark's job families and the two workloads that run them.

Every job calls pathchroma's public functions with explicit budgets, checks
every output, and returns a small record of what it verified; the record
must come out the same in every pass.  Calls into the library go through
``tr.call("<module>.<function>", fn, ...)`` so that the traced run can put
a span around each call into a layer (see spans.py).

Four job families, and what a change should move on each:

simulate  Greedy n-to-3 schedules over seeded 10^5-node instances; each job
          generates its instance and builds its algorithm fresh, as the CLI
          does, so the ns mask cache starts cold.  The simulator
          (model.run_algorithm, about 75% of the time) and stage-rule
          evaluation do nearly all the work and chroma does none: rule tables
          (Direction 3) move its time, random_proper_instance (about 20%)
          moves it too, and a colouring-kernel change (Direction 2) must not.
tower     The speed-up tower to level 2 of the 4-round sources
          compose(ns_schedule(n)), n = 7, 8, with successor and output
          relations, the lemma-7 inclusion, the S2 embedding into S2* and the
          16-class transform.  Window enumeration and re-evaluation of the
          composed closure rule dominate (successor_relation is about 73%);
          reduce.rule_evals and the speedup spans move its time, chroma
          idles.  Table-compiled rules show here and nowhere in refute.
refute    Exact verdicts with known answers: lemma 4 (3^12 candidate maps),
          N(n,1) for n = 7..9 and the adjacent-distinct window graphs for
          n = 5..10 (3 colours, all UNSAT), and fast SAT cross-checks.  The
          complete search does about 96% of the work (chroma.k_colourable
          moves its time); nothing here touches rules or the tower, so
          Direction 3 must leave it unchanged.  The adjacent-distinct graphs
          for n = 8 and 10 with 4 colours are left out: they are SAT but the
          complete search stalls past 10^5 nodes.
sample    random_proper_table over criterion 5's feasible (n, t, c) grid,
          each table followed by speed_up and exhaustive properness checks of
          the table and its speed-up.  The restarting sampler does about 99%
          of the work (speedup.random_proper_table moves its time).  It finds
          SAT with restarts where refute exhausts UNSAT, so a merged
          colouring kernel that helps one and hurts the other shows in the
          per-family times of the traced run.

The workloads (run.py) pair the families by the layer that dominates them,
so each of the two planned optimisations has a workload that exercises it
and one that bypasses it:

simulate-tower  rule evaluation, the simulator and window enumeration;
                chroma idle.  Direction 3 (table-compiled rules) should move
                wall_s here, and job_p50_s and job_tail_s in the traced run;
                Direction 2 should not.
refute-sample   the colouring searches, complete and restarting; no rule or
                tower work.  Direction 2 (one DSATUR kernel) should move
                wall_s here, and job_tail_s in the traced run; Direction 3
                should not.

Two workloads rather than four: on the 2-vCPU virtual machine the baseline
was measured on, speed drifts by about 20% over tens of seconds, only runs
of about a minute average that out, and the benchmark's run budget allows
such runs for two workloads, not four.

The seed draws simulate's instances.  The inputs of tower and refute are
the paper's fixed objects, so the seed changes nothing there.  Table seeds
in sample follow criterion 5 (table i gets seed i) and do not depend on the
run seed either: the sampler's cost is heavy-tailed in the table seed
((8,3,4) took 1 to 15 restarts of about 1 s each over 30 seeds), so
re-drawing them per run would move wall_s by far more than any bound the
benchmark can hold.  Job order is fixed, so a job always follows the same
job.
"""

from __future__ import annotations

import hashlib
import random
import time
from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable

from pathchroma import (
    CYCLE,
    PATH,
    BudgetExceeded,
    compose,
    cv_algorithm,
    exhaustive_properness_check,
    explicit_sixteen_classes,
    is_proper,
    iterate_speed_up,
    k_colourable,
    neighbourhood_graph,
    ns_schedule,
    proper_sequences,
    random_proper_instance,
    random_proper_table,
    run_algorithm,
    speed_up,
    successor_graph_of,
    worst_case_successor_graph,
)
from pathchroma.chroma import is_proper_colouring
from pathchroma.speedup import lemma7_pairs, search_one_round_map

from spans import NullTracer

# Every budget is passed explicitly, so no library default or environment
# variable can change what the benchmark runs.
ENUM_BUDGET = 10**8  # window evaluations per enumeration
NODE_LIMIT = 10**6  # complete-search nodes; the largest job needs 17554
MAX_BACKTRACKS = 1000  # per sampler restart
RESTARTS = 2000

SIM_NODES = 10**5
TOWER_SOURCES = (7, 8)
# Criterion 5's feasible grid: n <= 8, t <= 3, c <= 4.
TABLE_GRID = (
    (3, 1, 3), (3, 2, 3), (3, 3, 3),
    (4, 2, 3), (4, 3, 3),
    (4, 1, 4), (5, 1, 4), (6, 1, 4),
    (5, 2, 4), (6, 2, 4), (7, 2, 4), (8, 2, 4),
    (5, 3, 4), (6, 3, 4), (7, 3, 4), (8, 3, 4),
)


class CheckFailed(Exception):
    """A job's output did not pass its correctness check."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _digest(values) -> str:
    return hashlib.blake2b(array("q", values).tobytes(), digest_size=8).hexdigest()


def _proper_count(n: int, length: int) -> int:
    return n * (n - 1) ** (length - 1) if length else 1


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work.

    ``run(tracer)`` does the work and returns its record.  ``shapes`` lists
    the (n, length) window enumerations the job makes and ``stage_probe``
    times each pipeline stage alone; the traced run uses both, outside the
    timed passes.
    """

    family: str
    name: str
    run: Callable
    shapes: tuple[tuple[int, int], ...] = ()
    stage_probe: Callable | None = None


# --- simulate ---------------------------------------------------------------


def _schedule_stages(tr, n):
    return tr.call("reduce.ns_schedule", ns_schedule, n).stages


def _cv_stages(tr, k):
    first = tr.call("reduce.cv_algorithm", cv_algorithm, k)
    return (first, *tr.call("reduce.ns_schedule", ns_schedule, 2 * k).stages)


SIMULATIONS = (
    # name, input palette, topology, stage builder, its argument
    ("schedule:n=98304", 98304, CYCLE, _schedule_stages, 98304),
    ("schedule:n=65537", 65537, CYCLE, _schedule_stages, 65537),
    ("schedule:n=17", 17, CYCLE, _schedule_stages, 17),
    ("schedule:n=5", 5, CYCLE, _schedule_stages, 5),
    ("cv:k=16+schedule:n=32", 2**16, CYCLE, _cv_stages, 16),
    ("schedule:n=98304/path", 98304, PATH, _schedule_stages, 98304),
)


def _simulate(n, topology, instance_seed, build, arg, tr):
    instance = tr.call(
        "model.random_proper_instance",
        random_proper_instance, n, SIM_NODES, instance_seed, topology,
    )
    stages = build(tr, arg)
    algorithm = tr.call("reduce.compose", compose, tr.counted(stages))
    output = tr.call("model.run_algorithm", run_algorithm, algorithm, instance)
    tr.count("model.run_algorithm.node_stages", SIM_NODES * len(stages))
    _check(tr.call("model.is_proper", is_proper, output), "output is not properly coloured")
    _check(output.topology == topology and len(output) == SIM_NODES, "output shape differs")
    c = algorithm.out_palette.size
    _check(c == 3, f"schedule ends with {c} colours, not 3")
    _check(1 <= min(output.labels) and max(output.labels) <= c, "output leaves the palette")
    return {"rounds": algorithm.rounds, "digest": _digest(output.labels)}


def _stage_times(n, topology, instance_seed, build, arg):
    instance = random_proper_instance(n, SIM_NODES, instance_seed, topology)
    times = []
    for stage in build(NullTracer(), arg):
        start = time.perf_counter()
        instance = run_algorithm(stage, instance)
        times.append((stage.name.split()[0], time.perf_counter() - start, SIM_NODES))
    return times


def _simulate_jobs(rng):
    jobs = []
    for name, n, topology, build, arg in SIMULATIONS:
        args = (n, topology, rng.randrange(2**31), build, arg)
        run, probe_stages = partial(_simulate, *args), partial(_stage_times, *args)
        jobs.append(Job("simulate", name, run, stage_probe=probe_stages))
    return jobs


# --- tower ------------------------------------------------------------------


def _tower(n, tr):
    stages = tr.call("reduce.ns_schedule", ns_schedule, n).stages
    source = tr.call("reduce.compose", compose, tr.counted(stages))
    _check(source.rounds == 4 and source.in_palette.size == n, "source is not a 4-round rule")
    tower = tr.call("speedup.iterate_speed_up", iterate_speed_up, source, 2, budget=ENUM_BUDGET)
    tr.count("speedup.iterate_speed_up.levels", len(tower.levels))
    successors = []
    for k in range(3):
        successors.append(tr.call("speedup.successor_relation", tower.successor_relation, k))
        # Level k has 4 - k rounds: windows of 5 - k colours, sequences of 6 - k.
        tr.count("speedup.successor_relation.seqs", _proper_count(n, 6 - k))
    outputs = [tr.call("speedup.output_relation", tower.output_relation, k) for k in range(2)]
    for k in range(2):
        licensed = tr.call("speedup.lemma7_pairs", lemma7_pairs, outputs[k])
        _check(successors[k + 1].pairs <= licensed, f"lemma 7 inclusion fails at level {k + 1}")
    star = tr.call("graphs.worst_case_successor_graph", worst_case_successor_graph)
    s2 = tr.call("graphs.successor_graph_of", successor_graph_of, source, 2, budget=ENUM_BUDGET)
    _check(tr.call("graphs.is_subgraph_of", s2.is_subgraph_of, star), "S2 does not embed in S2*")
    classes = tr.call("graphs.explicit_sixteen_classes", explicit_sixteen_classes)
    fast = tr.call("speedup.compose_colouring", tower.compose_colouring, classes.as_colouring(), 2)
    _check(fast.rounds == 2 and fast.out_palette.size == 16, "transform is not 2-round, 16-colour")
    proper = tr.call(
        "model.exhaustive_properness_check", exhaustive_properness_check, fast, budget=ENUM_BUDGET
    )
    tr.count("model.exhaustive_properness_check.seqs", _proper_count(n, 4))
    _check(proper, "16-class transform is not proper")
    return {
        "realized": [len(level.realized) for level in tower.levels],
        "successor_pairs": [len(relation.pairs) for relation in successors],
        "output_pairs": [len(relation.pairs) for relation in outputs],
        "s2": [s2.vertex_count, s2.edge_count],
    }


def _tower_jobs():
    return [
        Job("tower", f"n={n}", partial(_tower, n), shapes=tuple((n, L) for L in range(3, 7)))
        for n in TOWER_SOURCES
    ]


# --- refute -----------------------------------------------------------------


def _lemma4(tr):
    exists, examined = tr.call(
        "speedup.search_one_round_map", search_one_round_map, 4, 3, budget=ENUM_BUDGET
    )
    tr.count("speedup.search_one_round_map.candidates", examined)
    _check(not exists, "a one-round 4-to-3 map was reported")
    _check(examined == 3**12, f"examined {examined} candidates, not 3^12")
    return {"examined": examined}


def _window_graph(tr, n, all_distinct):
    graph = tr.call(
        "graphs.neighbourhood_graph", neighbourhood_graph, n, 1, all_distinct=all_distinct
    )
    tr.count("graphs.neighbourhood_graph.edges", graph.edge_count)
    vertices = n * (n - 1) * (n - 2) if all_distinct else n * (n - 1) ** 2
    _check(graph.vertex_count == vertices, f"window graph has {graph.vertex_count} vertices")
    return graph


def _colour(graph_of, k, satisfiable, tr):
    graph = graph_of(tr)
    span = "chroma.k_colourable." + ("sat" if satisfiable else "unsat")
    try:
        certificate = tr.call(span, k_colourable, graph, k, node_limit=NODE_LIMIT)
    except BudgetExceeded:
        tr.count("chroma.k_colourable.budget_exceeded")
        raise
    tr.count("chroma.k_colourable.nodes", certificate.nodes)
    _check(certificate.satisfiable == satisfiable, f"{span} gave the wrong verdict")
    if satisfiable:
        assignment = certificate.assignment
        _check(set(assignment) == set(graph.labels), "colouring misses vertices")
        _check(set(assignment.values()) <= set(range(1, k + 1)), f"colouring leaves [{k}]")
        _check(
            tr.call("chroma.is_proper_colouring", is_proper_colouring, graph, assignment),
            "colouring is not proper",
        )
    return {"vertices": graph.vertex_count, "edges": graph.edge_count, "nodes": certificate.nodes}


def _star(tr):
    graph = tr.call("graphs.worst_case_successor_graph", worst_case_successor_graph)
    _check(graph.vertex_count == 55, f"S2* has {graph.vertex_count} vertices")
    return graph


def _refute_jobs():
    jobs = [Job("refute", "lemma4", _lemma4)]
    distinct = partial(_window_graph, all_distinct=True)
    adjacent = partial(_window_graph, all_distinct=False)
    # name, graph builder, colours, known answer (True for SAT)
    colourings = [(f"N({n},1) k=3", partial(distinct, n=n), 3, False) for n in (7, 8, 9)]
    colourings += [(f"A({n}) k=3", partial(adjacent, n=n), 3, False) for n in range(5, 11)]
    colourings += [
        (f"N({n},1) k={k}", partial(distinct, n=n), k, True) for n, k in ((6, 3), (7, 4), (8, 4))
    ]
    colourings.append(("S2* k=16", _star, 16, True))
    for name, graph_of, k, satisfiable in colourings:
        jobs.append(Job("refute", name, partial(_colour, graph_of, k, satisfiable)))
    return jobs


# --- sample -----------------------------------------------------------------


def _realized(algorithm, n):
    return {algorithm.rule(window) for window in proper_sequences(n, algorithm.window_length)}


def _sample(n, t, c, table_seed, tr):
    table = tr.call(
        "speedup.random_proper_table",
        random_proper_table,
        n,
        t,
        c,
        table_seed,
        max_backtracks=MAX_BACKTRACKS,
        restarts=RESTARTS,
    )
    shape = (table.rounds, table.in_palette.size, table.out_palette.size)
    _check(shape == (t, n, c), f"table has (rounds, n, c) = {shape}")
    proper = tr.call(
        "model.exhaustive_properness_check", exhaustive_properness_check, table, budget=ENUM_BUDGET
    )
    tr.count("model.exhaustive_properness_check.seqs", _proper_count(n, t + 2))
    _check(proper, "table is not proper")
    faster = tr.call("speedup.speed_up", speed_up, table).algorithm
    _check(faster.rounds == t - 1, "speed-up is not one round faster")
    proper = tr.call(
        "model.exhaustive_properness_check",
        exhaustive_properness_check, faster, budget=ENUM_BUDGET,
    )
    tr.count("model.exhaustive_properness_check.seqs", _proper_count(n, t + 1))
    _check(proper, "speed-up is not proper")
    realized = tr.call("speedup.realized_colours", _realized, faster, n)
    _check(len(realized) <= 2**c - 2, f"{len(realized)} realized colours exceed 2^{c} - 2")
    outputs = [table.rule(window) for window in proper_sequences(n, t + 1)]
    return {"table": _digest(outputs), "realized": len(realized)}


def _sample_jobs(table_seed_base=0):
    # Another base gives the seed-sensitivity figures in BASELINE.md.
    jobs = []
    for i, (n, t, c) in enumerate(TABLE_GRID):
        table_seed = table_seed_base + i
        jobs.append(
            Job(
                "sample",
                f"n={n},t={t},c={c},seed={table_seed}",
                partial(_sample, n, t, c, table_seed),
                shapes=((n, t), (n, t + 1), (n, t + 2)),
            )
        )
    return jobs


# --- job lists and probes ---------------------------------------------------


def build_jobs(families, seed: int) -> list[Job]:
    """The jobs of the given families, in a fixed order."""
    builders = {
        "simulate": lambda: _simulate_jobs(random.Random(seed)),
        "tower": _tower_jobs,
        "refute": _refute_jobs,
        "sample": _sample_jobs,
    }
    return [job for family in families for job in builders[family]()]


def probe(jobs: list[Job]) -> dict:
    """Layer rates measured outside the timed passes.

    Drains the window enumerator alone on every (n, length) shape the jobs
    enumerate, and runs each pipeline stage alone on the previous stage's
    output.
    """
    windows, seconds = 0, 0.0
    for n, length in sorted({shape for job in jobs for shape in job.shapes}):
        start = time.perf_counter()
        deque(proper_sequences(n, length), maxlen=0)
        seconds += time.perf_counter() - start
        windows += _proper_count(n, length)
    stage_seconds: dict[str, float] = {}
    stage_nodes: dict[str, int] = {}
    for job in jobs:
        if job.stage_probe is not None:
            for kind, spent, nodes in job.stage_probe():
                stage_seconds[kind] = stage_seconds.get(kind, 0.0) + spent
                stage_nodes[kind] = stage_nodes.get(kind, 0) + nodes
    return {
        "windows": windows,
        "windows_s": seconds,
        "stage_seconds": stage_seconds,
        "stage_nodes": stage_nodes,
    }
