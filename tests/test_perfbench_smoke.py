"""The benchmark under perfbench/ still runs against the library.

A library change that breaks a call the benchmark makes would otherwise
show only when the benchmark itself runs.  The benchmark's modules are
loaded from their source by path, so that nothing, not even bytecode, is
written under perfbench/.
"""

import sys
import types
from pathlib import Path

import pytest

import pathchroma.speedup as speedup

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, name, module)  # workloads imports spans by name
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    return _load("spans", monkeypatch), _load("workloads", monkeypatch), _load("run", monkeypatch)


def test_every_benchmark_job_runs(perfbench):
    spans, workloads, run = perfbench
    for families in run.WORKLOADS.values():
        for job in workloads.build_jobs(families, 1):
            assert job.run(spans.NullTracer())
    # traced runs wrap the tower's stage rules, so the tower jobs run traced too
    for job in workloads.build_jobs(("tower",), 1):
        assert job.run(spans.Tracer())


def test_traced_run_counts_sampler_restarts(perfbench):
    # The traced run wraps speedup._random_dsatur by name, one call per restart.
    spans, workloads, run = perfbench
    attempt = speedup._random_dsatur
    tracer = spans.Tracer()
    restore = run.count_sampler_attempts(tracer)
    try:
        for job in workloads.build_jobs(("sample",), 1):
            assert job.run(tracer)
    finally:
        restore()
    assert tracer.counts["speedup.random_proper_table.attempts"] > 0
    assert speedup._random_dsatur is attempt
