"""pathchroma benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload simulate-tower --seed 1 --seconds 60 --trace 0

Run it from the root of a pathchroma source checkout: the library is
imported from the checkout's ``src`` directory and from nowhere else, and
the run stops with an error when that directory is missing.  The workloads
are ``simulate-tower`` and ``refute-sample``, each running two of the job
families in workloads.py, which says why each was chosen and what it should
and should not move.

The run repeats the workload's job list in passes, one job after another,
and starts another pass only while the typical pass still fits in
``--seconds``.  Between passes it times its set-up: a fresh interpreter
that imports pathchroma and builds the job list.  Every job checks its
outputs; a failed check, a BudgetExceeded or any other exception fails that
job, and so does a record that differs from the job's record in an earlier
pass.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median set-up time, over at least SETUP_REPEATS samples
  wall_s       median time of one pass over the whole job list
  peak_rss_mb  peak resident memory of this process
``--trace 1`` runs one untraced pass, then traced passes, then probes that
time the window enumerator and each pipeline stage alone, and reports the
per-layer metrics listed in PER_LAYER.  Three metrics that cannot carry a
bound are reported there too: the failure ratio, which is 0 on a healthy
build, and the median and slowest job latency, each job's latency being its
median over the traced passes.  Single jobs are too short to average out
the machine's speed drift (see BASELINE.md): their run-to-run spread
reached the largest bound the benchmark may set.  Every run reports its
attempted and failed job counts.

The last line of stdout is the JSON result; the full report, with every
job's latencies and records and, when traced, every span, is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
# Each workload runs the jobs of two families (see workloads.py for why).
WORKLOADS = {"simulate-tower": ("simulate", "tower"), "refute-sample": ("refute", "sample")}
FAMILIES = tuple(family for families in WORKLOADS.values() for family in families)
LAYERS = ("model", "reduce", "speedup", "graphs", "chroma", "bench")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "model.run_algorithm.self_s": "s",
    "model.run_algorithm.ns_per_node_stage": "ns",
    "model.random_proper_instance.self_s": "s",
    "model.proper_sequences.windows_per_s": "1/s",
    "model.exhaustive_properness_check.self_s": "s",
    "model.exhaustive_properness_check.windows_per_s": "1/s",
    "reduce.rule_evals": "count",
    "reduce.ns.ns_per_node": "ns",
    "reduce.4to3.ns_per_node": "ns",
    "reduce.cv.ns_per_node": "ns",
    "speedup.iterate_speed_up.s_per_level": "s",
    "speedup.successor_relation.self_s": "s",
    "speedup.successor_relation.seqs_per_s": "1/s",
    "speedup.output_relation.self_s": "s",
    "speedup.random_proper_table.self_s": "s",
    "speedup.random_proper_table.s_per_table": "s",
    "speedup.random_proper_table.attempts": "count",
    "speedup.random_proper_table.failed": "count",
    "speedup.search_one_round_map.candidates_per_s": "1/s",
    "graphs.neighbourhood_graph.self_s": "s",
    "graphs.neighbourhood_graph.edges_per_s": "1/s",
    "graphs.successor_graph_of.self_s": "s",
    "chroma.k_colourable.nodes": "count",
    "chroma.k_colourable.nodes_per_s": "1/s",
    "chroma.k_colourable.unsat_self_s": "s",
    "chroma.k_colourable.sat_self_s": "s",
    "chroma.k_colourable.budget_exceeded": "count",
    **{f"{family}.wall_s": "s" for family in FAMILIES},
    "job_p50_s": "s",
    "job_tail_s": "s",
    "fail_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Internal: the child process whose lifetime is the set-up time.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import pathchroma from this checkout's src directory, or exit."""
    package = ROOT / "src" / "pathchroma" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package} not found; run from a pathchroma checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import pathchroma

    if Path(pathchroma.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported pathchroma from {pathchroma.__file__}, not {package}")


def time_setup(args) -> float:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    # No timeout: waiting with one polls in steps of up to 50 ms.
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


@dataclass
class Pass:
    wall: float
    latencies: list[float] = field(default_factory=list)
    records: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_pass(jobs, tracer) -> Pass:
    gc.collect()
    result = Pass(0.0)
    start = time.perf_counter()
    for job in jobs:
        began = time.perf_counter()
        try:
            record = tracer.call("bench.job", job.run, tracer)
        except Exception as exc:  # one failed job must not end the run
            record = None
            result.failures.append(f"{job.family}:{job.name}: {type(exc).__name__}: {exc}")
        result.latencies.append(time.perf_counter() - began)
        result.records.append(record)
    result.wall = time.perf_counter() - start
    return result


def run_passes(jobs, tracer, deadline, between=lambda: None) -> list[Pass]:
    """Run passes until the typical pass no longer fits before the deadline.

    ``between`` runs after every pass, outside the pass's timing.
    """
    passes = [run_pass(jobs, tracer)]
    between()
    while time.perf_counter() + statistics.median(p.wall for p in passes) <= deadline:
        passes.append(run_pass(jobs, tracer))
        between()
    return passes


def mark_unstable(jobs, passes) -> None:
    """Fail a job whose record differs from its record in an earlier pass."""
    for i, job in enumerate(jobs):
        first = None
        for p in passes:
            record = p.records[i]
            if record is None:
                continue
            if first is None:
                first = record
            elif record != first:
                p.failures.append(f"{job.family}:{job.name}: record differs between passes")


def job_latencies(passes) -> list[float]:
    """Each job's median latency over the passes.

    Taking the median per job first keeps one noisy execution from deciding
    which job lands on a percentile.
    """
    return [statistics.median(run) for run in zip(*(p.latencies for p in passes))]


def end_to_end_metrics(setup, passes) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def per_layer_metrics(jobs, tracer, traced, untraced, probed, attempted, failed) -> dict:
    """Per-layer metrics from the traced passes and the probes.

    Self times and counts are per traced pass; a rate divides a count by the
    summed duration of the spans that did the work.
    """
    duration, own, calls = tracer.totals()
    counts = tracer.counts
    k = len(traced)

    def self_s(name):  # a layer's name sums the self time of all its spans
        return sum(v for span, v in own.items() if span == name or span.startswith(name + ".")) / k

    def per_pass(count):
        return counts[count] // k

    def rate(span, what):
        return _rate(counts[f"{span}.{what}"], duration[span])

    def stage_ns(kind):
        seconds, nodes = probed["stage_seconds"], probed["stage_nodes"]
        return 1e9 * _rate(seconds.get(kind, 0), nodes.get(kind, 0))

    def family_wall(family):
        spent = (x for p in traced for job, x in zip(jobs, p.latencies) if job.family == family)
        return sum(spent) / k

    searched = duration["chroma.k_colourable.sat"] + duration["chroma.k_colourable.unsat"]
    traced_wall = statistics.median(p.wall for p in traced)
    return {
        **{f"{layer}.self_s": self_s(layer) for layer in LAYERS},
        "model.run_algorithm.self_s": self_s("model.run_algorithm"),
        "model.run_algorithm.ns_per_node_stage": 1e9 * _rate(
            own["model.run_algorithm"], counts["model.run_algorithm.node_stages"]
        ),
        "model.random_proper_instance.self_s": self_s("model.random_proper_instance"),
        "model.proper_sequences.windows_per_s": _rate(probed["windows"], probed["windows_s"]),
        "model.exhaustive_properness_check.self_s": self_s("model.exhaustive_properness_check"),
        "model.exhaustive_properness_check.windows_per_s": rate(
            "model.exhaustive_properness_check", "seqs"
        ),
        "reduce.rule_evals": per_pass("reduce.rule_evals"),
        **{f"reduce.{kind}.ns_per_node": stage_ns(kind) for kind in ("ns", "4to3", "cv")},
        "speedup.iterate_speed_up.s_per_level": _rate(
            duration["speedup.iterate_speed_up"], counts["speedup.iterate_speed_up.levels"]
        ),
        "speedup.successor_relation.self_s": self_s("speedup.successor_relation"),
        "speedup.successor_relation.seqs_per_s": rate("speedup.successor_relation", "seqs"),
        "speedup.output_relation.self_s": self_s("speedup.output_relation"),
        "speedup.random_proper_table.self_s": self_s("speedup.random_proper_table"),
        "speedup.random_proper_table.s_per_table": _rate(
            duration["speedup.random_proper_table"], calls["speedup.random_proper_table"]
        ),
        "speedup.random_proper_table.attempts": per_pass("speedup.random_proper_table.attempts"),
        "speedup.random_proper_table.failed": per_pass("speedup.random_proper_table.failed"),
        "speedup.search_one_round_map.candidates_per_s": rate(
            "speedup.search_one_round_map", "candidates"
        ),
        "graphs.neighbourhood_graph.self_s": self_s("graphs.neighbourhood_graph"),
        "graphs.neighbourhood_graph.edges_per_s": rate("graphs.neighbourhood_graph", "edges"),
        "graphs.successor_graph_of.self_s": self_s("graphs.successor_graph_of"),
        "chroma.k_colourable.nodes": per_pass("chroma.k_colourable.nodes"),
        "chroma.k_colourable.nodes_per_s": _rate(counts["chroma.k_colourable.nodes"], searched),
        "chroma.k_colourable.unsat_self_s": self_s("chroma.k_colourable.unsat"),
        "chroma.k_colourable.sat_self_s": self_s("chroma.k_colourable.sat"),
        "chroma.k_colourable.budget_exceeded": per_pass("chroma.k_colourable.budget_exceeded"),
        **{f"{family}.wall_s": family_wall(family) for family in FAMILIES},
        "job_p50_s": statistics.median(job_latencies(traced)),
        # The slowest job: a list of 8 or 30 jobs has no stable percentile
        # above its median with ten jobs beyond it.
        "job_tail_s": max(job_latencies(traced)),
        "fail_ratio": failed / attempted,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced.wall,
        "trace.overhead_s": traced_wall - untraced.wall,
    }


def count_sampler_attempts(tracer):
    """Count the table sampler's restarts, and the failed ones, in the traced run.

    The sampler runs one randomised search per restart through its module's
    ``_random_dsatur``; wrapping that name from outside counts restarts
    without a span inside the library.  Returns a function that undoes it.
    """
    import pathchroma.speedup as speedup_module

    attempt = getattr(speedup_module, "_random_dsatur", None)
    if attempt is None:
        print("perfbench: sampler restarts not countable; attempts read 0", file=sys.stderr)
        return lambda: None

    def counted_attempt(*args, **kwargs):
        colouring = attempt(*args, **kwargs)
        tracer.count("speedup.random_proper_table.attempts")
        if colouring is None:
            tracer.count("speedup.random_proper_table.failed")
        return colouring

    speedup_module._random_dsatur = counted_attempt
    return lambda: setattr(speedup_module, "_random_dsatur", attempt)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads
    from spans import NullTracer, Tracer

    jobs = workloads.build_jobs(WORKLOADS[args.workload], args.seed)
    if args.setup_only:
        return 0

    deadline = time.perf_counter() + args.seconds
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        untraced = run_pass(jobs, NullTracer())
        tracer = Tracer()
        restore = count_sampler_attempts(tracer)
        try:
            traced = run_passes(jobs, tracer, deadline)
        finally:
            restore()
        probed = workloads.probe(jobs)
        passes = [untraced, *traced]
    else:
        # Set-up samples are spread over the run, one before the first pass
        # and one after each, so that they see the machine as the passes do.
        setup = [time_setup(args)]
        passes = run_passes(jobs, NullTracer(), deadline, lambda: setup.append(time_setup(args)))
        setup += [time_setup(args) for _ in range(SETUP_REPEATS - len(setup))]
        report["setup_s"] = setup
    mark_unstable(jobs, passes)

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = len(failures)
    if args.trace:
        metrics = per_layer_metrics(jobs, tracer, traced, untraced, probed, attempted, failed)
        units = PER_LAYER
        report["spans"] = tracer.spans
        report["counts"] = dict(tracer.counts)
    else:
        metrics = end_to_end_metrics(setup, passes)
        units = END_TO_END

    report.update({
        "passes": [p.wall for p in passes],
        "jobs": [
            {
                "name": f"{job.family}:{job.name}",
                "latencies": [p.latencies[i] for p in passes],
                "record": next((p.records[i] for p in passes if p.records[i] is not None), None),
            }
            for i, job in enumerate(jobs)
        ],
        "failures": failures,
        "metrics": metrics,
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} passes={len(passes)} jobs={len(jobs)} "
        f"job_runs={attempted} failed={failed} report={path.relative_to(ROOT)}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
