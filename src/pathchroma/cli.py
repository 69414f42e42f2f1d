"""Command-line interface.

Exit codes: 0 success / claim verified, 1 claim refuted, 2 usage error,
3 enumeration or search budget exceeded.  The PATHCHROMA_BUDGET environment
variable overrides the default enumeration budget; a --budget flag
overrides both.  In ``colour`` and ``repro-paper`` the same budget also caps
the nodes of each complete colouring search, and ``colour`` counts the
vertices a DIMACS header claims against it before it builds any.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import comb

from .errors import BudgetExceeded
from .model import (
    CYCLE,
    DEFAULT_BUDGET,
    PATH,
    ReductionAlgorithm,
    TowerValue,
    bounds_report,
    exhaustive_properness_check,
    format_instance,
    identity_algorithm,
    is_proper,
    parse_instance,
    random_proper_instance,
    run_algorithm,
    tower,
)
from .reduce import compose, cv_algorithm, four_to_three, ns_algorithm, ns_schedule, shift_reduce
from .speedup import (
    iterate_speed_up,
    lemma7_pairs,
    search_one_round_map,
)
from .graphs import (
    explicit_sixteen_classes,
    from_dimacs,
    neighbourhood_graph,
    successor_graph_of,
    to_dimacs,
    verify_partition,
    worst_case_successor_graph,
)
from .chroma import chromatic_number, export_cnf, k_colourable


def parse_count(text: str) -> int | TowerValue:
    """Integer or tower form 'pt:h' / 'pt:h+d'."""
    if text.startswith("pt:"):
        body = text[3:]
        if "+" in body:
            h, d = body.split("+", 1)
            return TowerValue(int(h), int(d))
        return TowerValue(int(body))
    return int(text)


def parse_algorithm(spec: str) -> ReductionAlgorithm:
    """Algorithm mini-language: 4to3, ns:k=3, ns:n=20,k=3, cv:k=3,
    shift:k=4, identity:n=5, schedule:n=98304."""
    name, _, args_text = spec.partition(":")
    args: dict[str, str] = {}
    if args_text:
        for part in args_text.split(","):
            key, _, value = part.partition("=")
            if not value:
                raise ValueError(f"bad algorithm argument {part!r} in {spec!r}")
            if key in args:
                raise ValueError(f"repeated algorithm argument {key!r} in {spec!r}")
            args[key] = value
    try:
        if name == "4to3" and not args:
            return four_to_three()
        if name == "ns" and set(args) <= {"n", "k"} and "k" in args:
            k = int(args["k"])
            n = parse_count(args["n"]) if "n" in args else comb(2 * k, k)
            return ns_algorithm(n, k)
        if name == "cv" and set(args) == {"k"}:
            return cv_algorithm(int(args["k"]))
        if name == "shift" and set(args) == {"k"}:
            return shift_reduce(int(args["k"]))
        if name == "identity" and set(args) == {"n"}:
            return identity_algorithm(int(args["n"]))
        if name == "schedule" and set(args) == {"n"}:
            return compose(ns_schedule(parse_count(args["n"])))
    except KeyError:
        pass
    raise ValueError(f"unknown algorithm spec {spec!r}")


def _load_instance(source: str, topology: str):
    """The instance, and the header line to print with the result ("" for files)."""
    if source.startswith("random:"):
        try:
            n, length, seed = (int(x) for x in source[len("random:") :].split(","))
        except ValueError:
            raise ValueError("random input must look like random:n,length,seed") from None
        return random_proper_instance(n, length, seed, topology=topology), f"seed={seed}\n"
    with open(source) as handle:
        return parse_instance(handle.read()), ""


def _resolve_budget(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("PATHCHROMA_BUDGET")
    if env:
        return int(env)
    return DEFAULT_BUDGET


def cmd_simulate(args) -> int:
    alg = parse_algorithm(args.alg)
    instance, header = _load_instance(args.input, args.topology)
    result = run_algorithm(alg, instance)
    # Nothing is printed before the run succeeds, so a failing run leaves stdout empty.
    sys.stdout.write(header + format_instance(result))
    print(f"proper={'true' if is_proper(result) else 'false'}")
    print(f"rounds={alg.rounds}")
    return 0


def cmd_reduce(args) -> int:
    pipeline = ns_schedule(parse_count(args.n))
    sys.stdout.write(pipeline.describe())
    return 0


def cmd_speedup(args) -> int:
    alg = parse_algorithm(args.alg)
    budget = _resolve_budget(args.budget)
    tower_levels = iterate_speed_up(alg, args.k, budget=budget)
    # Relations first: a level outside the tower must fail before any output.
    relations = []
    if args.successors is not None:
        relations.append(tower_levels.successor_relation(args.successors))
    if args.outputs is not None:
        relations.append(tower_levels.output_relation(args.outputs))
    for level, record in enumerate(tower_levels.levels):
        a = record.algorithm
        print(
            f"level={level} rounds={a.rounds} palette={a.out_palette} "
            f"realized={len(record.realized)}"
        )
    for relation in relations:
        sys.stdout.write(relation.to_text())
    return 0


def cmd_graph(args) -> int:
    if args.kind == "neighbourhood":
        all_distinct = not args.adjacent_only
        budget = _resolve_budget(args.budget)
        graph = neighbourhood_graph(args.n, args.t, all_distinct=all_distinct, budget=budget)
    elif args.kind == "s2star":
        graph = worst_case_successor_graph()
    elif args.kind == "successor":
        if not args.alg:
            raise ValueError("successor graphs need --alg")
        graph = successor_graph_of(
            parse_algorithm(args.alg), args.k, budget=_resolve_budget(args.budget)
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown graph kind {args.kind}")
    text = to_dimacs(graph)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {graph.vertex_count} vertices, {graph.edge_count} edges to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_colour(args) -> int:
    budget = _resolve_budget(args.budget)
    with open(args.input) as handle:
        graph = from_dimacs(handle.read(), budget=budget)
    if args.chromatic:
        print(f"chromatic={chromatic_number(graph, node_limit=budget)}")
        return 0
    if args.k is None:
        raise ValueError("pass --k or --chromatic")
    if args.cnf:
        with open(args.cnf, "w") as handle:
            handle.write(export_cnf(graph, args.k))
        print(f"wrote CNF to {args.cnf}")
    certificate = k_colourable(graph, args.k, node_limit=budget)
    sys.stdout.write(certificate.to_text())
    return 0


def cmd_bounds(args) -> int:
    report = bounds_report(parse_count(args.n))
    sys.stdout.write(report.to_text())
    return 0


def _claim_lemma4(budget: int):
    exists, examined = search_one_round_map(4, 3, budget=budget)
    ok = not exists and examined == 3**12
    return ok, f"no proper 1-round map on 4 colours; examined {examined} candidates"


def _claim_lemma5(budget: int):
    graph = neighbourhood_graph(7, 1, budget=budget)
    shape_ok = graph.vertex_count == 210 and graph.edge_count == 1050
    certificate = k_colourable(graph, 3, node_limit=budget)
    ok = shape_ok and not certificate.satisfiable
    return ok, (
        f"windows graph on 7 colours: {graph.vertex_count} vertices, "
        f"{graph.edge_count} edges, 3-colouring refuted in {certificate.nodes} nodes"
    )


def _claim_s2star_partition(budget: int):
    star = worst_case_successor_graph()
    partition = explicit_sixteen_classes()
    sizes = sorted(partition.sizes())
    ok = (
        star.vertex_count == 55
        and sizes == [1] * 7 + [4] * 6 + [8] * 3
        and verify_partition(star, partition)
    )
    return ok, "55 vertices; 16 explicit classes partition them into independent sets"


def _claim_s2star_16col(budget: int):
    star = worst_case_successor_graph()
    certificate = k_colourable(star, 16, node_limit=budget)
    return certificate.satisfiable, f"16-colouring found in {certificate.nodes} nodes"


def _seven_colour_tower(budget: int):
    return iterate_speed_up(compose(ns_schedule(7)), 2, budget=budget)


def _claim_lemma7(budget: int):
    tower_levels = _seven_colour_tower(budget)
    details = []
    ok = True
    for k in (0, 1):
        empirical = tower_levels.successor_relation(k + 1).pairs
        outputs = tower_levels.output_relation(k)
        licensed = lemma7_pairs(outputs)
        ok = ok and empirical <= licensed
        own = tower_levels.successor_relation(k)
        images: dict = {}
        for x, family in outputs.pairs:
            if x not in images:
                images[x] = own.image(x)
            ok = ok and bool(family) and family <= images[x]
        details.append(f"S{k + 1}: {len(empirical)}/{len(licensed)} licensed pairs realized")
    return ok, "; ".join(details) + " (realized relations need not saturate the bound)"


def _claim_lemma6(budget: int):
    tower_levels = _seven_colour_tower(budget)
    partition = explicit_sixteen_classes()
    fast = tower_levels.compose_colouring(partition.as_colouring(), 2)
    proper = exhaustive_properness_check(fast, budget=budget)
    star = worst_case_successor_graph()
    embeds = tower_levels.successor_graph(2).is_subgraph_of(star)
    ok = proper and fast.rounds == 2 and fast.out_palette.size == 16 and embeds
    return ok, "2-round 16-colouring verified on all 7-colour windows; S2 embeds in the worst case"


def _claim_theorem2(budget: int):
    details = []
    ok = True
    for h in (2, 3, 4):
        n = tower(h) + 1
        pipeline = ns_schedule(n)
        ok = ok and pipeline.rounds <= h + 1 and pipeline.out_palette.size == 3
        seed = h
        instance = random_proper_instance(n, 1000, seed=seed)
        output = run_algorithm(compose(pipeline), instance)
        ok = ok and is_proper(output) and all(1 <= x <= 3 for x in output.labels)
        details.append(f"h={h}: rounds={pipeline.rounds} seed={seed}")
    return ok, "; ".join(details)


_CLAIMS = (
    ("lemma4", _claim_lemma4),
    ("lemma5", _claim_lemma5),
    ("s2star-partition", _claim_s2star_partition),
    ("s2star-16col", _claim_s2star_16col),
    ("lemma7", _claim_lemma7),
    ("lemma6", _claim_lemma6),
    ("theorem2", _claim_theorem2),
)


def cmd_repro_paper(args) -> int:
    budget = _resolve_budget(args.budget)
    names = [name for name, _ in _CLAIMS]
    if args.only and args.only not in names:
        raise ValueError(f"unknown claim {args.only!r}; choose from {', '.join(names)}")
    failures = 0
    for name, claim in _CLAIMS:
        if args.only and name != args.only:
            continue
        ok, detail = claim(budget)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathchroma",
        description="Colour reduction on directed paths: simulate, transform, bound, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an algorithm over an instance")
    p.add_argument("--alg", required=True, help="e.g. 4to3, ns:k=3, schedule:n=98304")
    p.add_argument("--input", required=True, help="instance file or random:n,length,seed")
    p.add_argument("--topology", choices=(PATH, CYCLE), default=CYCLE,
                   help="topology for random instances (default cycle)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reduce", help="print the greedy n-to-3 reduction schedule")
    p.add_argument("--n", required=True, help="palette size (integer or pt:h[+d])")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("speedup", help="iterate the round speed-up")
    p.add_argument("--alg", required=True)
    p.add_argument("--k", type=int, default=1, help="number of iterations")
    p.add_argument("--successors", type=int, default=None, metavar="LEVEL",
                   help="print the successor relation of this level")
    p.add_argument("--outputs", type=int, default=None, metavar="LEVEL",
                   help="print the output relation of this level")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser("graph", help="construct a graph and emit DIMACS .col")
    p.add_argument("--kind", choices=("neighbourhood", "s2star", "successor"), required=True)
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--adjacent-only", action="store_true",
                   help="windows only need adjacent entries distinct")
    p.add_argument("--alg", default=None, help="source algorithm for successor graphs")
    p.add_argument("--k", type=int, default=2, help="speed-up level for successor graphs")
    p.add_argument("--out", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("colour", help="decide k-colourability of a DIMACS graph")
    p.add_argument("--input", required=True, help="DIMACS .col file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--chromatic", action="store_true", help="compute the chromatic number")
    p.add_argument("--cnf", default=None, help="also write the CNF encoding here")
    p.add_argument("--budget", type=int, default=None,
                   help="vertex and search node limit (default PATHCHROMA_BUDGET or 10^8)")
    p.set_defaults(func=cmd_colour)

    p = sub.add_parser("bounds", help="round-complexity bounds for 3-colouring")
    p.add_argument("--n", required=True, help="palette size (integer or pt:h[+d])")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("repro-paper", help="re-run every computational claim")
    p.add_argument("--only", default=None, help="run a single named claim")
    p.add_argument("--budget", type=int, default=None,
                   help="window budget, also each colouring search's node limit")
    p.set_defaults(func=cmd_repro_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
