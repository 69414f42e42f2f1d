import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import pathchroma
from pathchroma.cli import build_parser, main, parse_algorithm, parse_count
from pathchroma.model import TowerValue


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_count():
    assert parse_count("65536") == 65536
    assert parse_count("pt:5+1") == TowerValue(5, 1)
    assert parse_count("pt:4") == TowerValue(4)
    with pytest.raises(ValueError):
        parse_count("five")


def test_parse_algorithm_specs():
    assert parse_algorithm("4to3").name == "4to3"
    assert parse_algorithm("ns:k=3").in_palette.size == 20
    assert parse_algorithm("ns:n=7,k=3").in_palette.size == 7
    assert parse_algorithm("cv:k=3").out_palette.size == 6
    assert parse_algorithm("shift:k=4").rounds == 2
    assert parse_algorithm("identity:n=5").rounds == 0
    assert parse_algorithm("schedule:n=17").rounds == 4
    for bad in ("nope", "ns:k", "4to3:x=1", "ns:j=3", "ns:k=3,k=4", "ns:n=7,k=3,n=6"):
        with pytest.raises(ValueError):
            parse_algorithm(bad)


def test_simulate_random_cycle(capsys):
    code, out, _ = run(capsys, "simulate", "--alg", "4to3", "--input", "random:4,1000,7")
    assert code == 0
    assert "proper=true" in out
    assert "rounds=2" in out
    assert "seed=7" in out


def test_simulate_big_schedule(capsys):
    code, out, _ = run(
        capsys, "simulate", "--alg", "schedule:n=98304", "--input", "random:98304,2000,1"
    )
    assert code == 0
    assert "proper=true" in out
    assert "rounds=5" in out


def test_simulate_file_input(tmp_path, capsys):
    source = tmp_path / "inst.txt"
    source.write_text("cycle\n1 4 2 3 1 4\n")
    code, out, _ = run(capsys, "simulate", "--alg", "4to3", "--input", str(source))
    assert code == 0
    assert out.splitlines()[1] == "2 1 3 2 3 1"


def test_simulate_improper_file_is_usage_error(tmp_path, capsys):
    source = tmp_path / "bad.txt"
    source.write_text("path\n1 1 2\n")
    code, _, err = run(capsys, "simulate", "--alg", "4to3", "--input", str(source))
    assert code == 2
    assert "error" in err


def test_simulate_unknown_alg(capsys):
    code, _, err = run(capsys, "simulate", "--alg", "wat", "--input", "random:4,10,0")
    assert code == 2


def test_simulate_rejects_too_many_colours_for_k_before_output(capsys):
    code, out, err = run(
        capsys, "simulate", "--alg", "ns:n=pt:3+60000,k=5", "--input", "random:60016,30,1"
    )
    assert code == 2
    assert out == ""
    assert "n=60016 exceeds C(10,5)" in err


@pytest.mark.parametrize("source", ["random:5,10,1", "random:5,1,1"])
def test_simulate_failure_prints_nothing_on_stdout(capsys, source):
    # 5 colours do not fit 4to3's palette; 1 node is no instance
    code, out, err = run(capsys, "simulate", "--alg", "4to3", "--input", source)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_simulate_tower_sized_palette_finishes(capsys):
    # The first stage codes 2^65536 colours as k-subsets with k = 32773.
    code, out, _ = run(
        capsys, "simulate", "--alg", "schedule:n=pt:5", "--input", "random:5,10,1"
    )
    assert code == 0
    assert out.splitlines()[0] == "seed=1"
    assert "proper=true" in out


def test_simulate_symbolic_palette_exits_2(capsys):
    # A tower(6) palette would need colour masks of about 2^65535 bits.
    code, out, err = run(
        capsys, "simulate", "--alg", "schedule:n=pt:6", "--input", "random:5,10,1"
    )
    assert code == 2
    assert out == ""
    assert "symbolic palette" in err


def test_usage_error_exit_code(capsys):
    assert main(["simulate"]) == 2  # missing required flags
    assert main(["no-such-command"]) == 2


def test_reduce_schedule_text(capsys):
    code, out, _ = run(capsys, "reduce", "--n", "65537")
    assert code == 0
    assert out.splitlines() == [
        "ns k=10 in=65537 out=20",
        "ns k=3 in=20 out=6",
        "ns k=2 in=6 out=4",
        "4to3 in=4 out=3",
        "rounds=5",
    ]


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "65536")
    assert code == 0
    assert "lowerT=4" in out and "upperT=5" in out
    code, out, _ = run(capsys, "bounds", "--n", "pt:5+1")
    assert code == 0
    assert "lowerC=3" in out and "upperC=3" in out and "exact=true" in out
    code, _, err = run(capsys, "bounds", "--n", "4")
    assert code == 0
    code, _, err = run(capsys, "bounds", "--n", "3")
    assert code == 2


def test_speedup_command(capsys):
    code, out, _ = run(capsys, "speedup", "--alg", "4to3", "--k", "1", "--outputs", "0")
    assert code == 0
    assert "level=0 rounds=2" in out
    assert "level=1 rounds=1" in out
    assert "1 -> {2,3}" in out


def test_speedup_past_level_three_exits_2(capsys):
    # level 3 of a 3-colour source has 2^62 - 2 colours, too wide for families
    code, out, _ = run(capsys, "speedup", "--alg", "schedule:n=17", "--k", "3")
    assert code == 0
    assert out == (
        "level=0 rounds=4 palette=3 realized=3\n"
        "level=1 rounds=3 palette=6 realized=6\n"
        "level=2 rounds=2 palette=62 realized=14\n"
        "level=3 rounds=1 palette=4611686018427387902 realized=37\n"
    )
    code, out, err = run(capsys, "speedup", "--alg", "schedule:n=7", "--k", "4")
    assert (code, out) == (2, "")
    assert "cannot speed up 4611686018427387902 colours: families exceed 65536 bits" in err


def test_graph_and_colour_commands(tmp_path, capsys):
    colfile = tmp_path / "n31.col"
    code, out, _ = run(
        capsys, "graph", "--kind", "neighbourhood", "--n", "3", "--t", "1", "--out", str(colfile)
    )
    assert code == 0
    assert "6 vertices" in out
    code, out, _ = run(capsys, "colour", "--input", str(colfile), "--chromatic")
    assert code == 0
    assert "chromatic=3" in out
    cnf = tmp_path / "n31.cnf"
    code, out, _ = run(
        capsys, "colour", "--input", str(colfile), "--k", "2", "--cnf", str(cnf)
    )
    assert code == 0
    assert "UNSAT nodes=" in out
    assert cnf.read_text().splitlines()[1].startswith("p cnf 12 ")


def test_graph_s2star_stdout(capsys):
    code, out, _ = run(capsys, "graph", "--kind", "s2star")
    assert code == 0
    assert out.startswith("p edge 55 ")


def test_graph_successor_kind(capsys):
    code, out, _ = run(capsys, "graph", "--kind", "successor", "--alg", "4to3", "--k", "1")
    assert code == 0
    assert out.startswith("p edge ")
    code, _, err = run(capsys, "graph", "--kind", "successor")
    assert code == 2


def test_colour_needs_k_or_chromatic(tmp_path, capsys):
    colfile = tmp_path / "t.col"
    colfile.write_text("p edge 2 1\ne 1 2\n")
    code, _, err = run(capsys, "colour", "--input", str(colfile))
    assert code == 2


def test_repro_single_claim(capsys):
    code, out, _ = run(capsys, "repro-paper", "--only", "lemma4")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 1
    assert lines[0].startswith("PASS lemma4")
    assert "531441" in lines[0]


def test_repro_lemma6_builds_one_tower(capsys, monkeypatch):
    # The claim's successor graph is read off the tower it already holds.
    import pathchroma.cli as cli_module
    import pathchroma.graphs as graphs_module

    builds = []
    build = cli_module.iterate_speed_up

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli_module, "iterate_speed_up", counted)
    monkeypatch.setattr(graphs_module, "iterate_speed_up", counted)
    code, out, _ = run(capsys, "repro-paper", "--only", "lemma6")
    assert code == 0 and out.startswith("PASS lemma6")
    assert len(builds) == 1


def test_repro_budget_exhaustion(capsys):
    code, _, err = run(capsys, "repro-paper", "--only", "lemma4", "--budget", "10")
    assert code == 3
    assert "budget exceeded" in err


def test_repro_unknown_claim(capsys):
    code, _, err = run(capsys, "repro-paper", "--only", "lemma99")
    assert code == 2


def test_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("PATHCHROMA_BUDGET", "10")
    code, _, err = run(capsys, "repro-paper", "--only", "lemma4")
    assert code == 3


def test_speedup_zero_round_successors_within_budget(capsys, monkeypatch):
    # identity:n=20000 has 20000 windows but 20000*19999 successor pairs
    monkeypatch.delenv("PATHCHROMA_BUDGET", raising=False)
    code, out, err = run(
        capsys, "speedup", "--alg", "identity:n=20000", "--k", "0", "--successors", "0"
    )
    assert code == 3
    assert out == ""
    assert "399980000 sequences exceed budget 100000000" in err


@pytest.mark.parametrize(
    "flag,level", [("--successors", "5"), ("--successors", "-1"), ("--outputs", "-1")]
)
def test_speedup_rejects_missing_level(capsys, flag, level):
    code, out, err = run(capsys, "speedup", "--alg", "4to3", "--k", "1", flag, level)
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_colour_rejects_short_edge_line(tmp_path, capsys):
    colfile = tmp_path / "short.col"
    colfile.write_text("p edge 3 1\ne 1\n")
    code, _, err = run(capsys, "colour", "--input", str(colfile), "--k", "3")
    assert code == 2
    assert "error:" in err


def test_repro_budget_caps_search_nodes(capsys):
    code, _, err = run(capsys, "repro-paper", "--only", "lemma5", "--budget", "3950")
    assert code == 3
    assert "budget exceeded" in err
    code, out, _ = run(capsys, "repro-paper", "--only", "lemma5", "--budget", "3951")
    assert code == 0
    assert out.startswith("PASS lemma5") and "3951 nodes" in out


def test_colour_budget_caps_search_nodes(tmp_path, capsys):
    colfile = tmp_path / "n71.col"
    code, _, _ = run(capsys, "graph", "--kind", "neighbourhood", "--n", "7", "--out", str(colfile))
    assert code == 0
    code, _, err = run(capsys, "colour", "--input", str(colfile), "--k", "3", "--budget", "3950")
    assert code == 3
    assert "budget exceeded" in err
    code, out, _ = run(capsys, "colour", "--input", str(colfile), "--k", "3", "--budget", "3951")
    assert code == 0
    assert out == "UNSAT nodes=3951\n"


def _capped_cli(*argv):
    """Run the CLI in a child process whose address space is capped at 1 GiB."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from pathchroma.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pathchroma.__file__).parents[1]))
    env.pop("PATHCHROMA_BUDGET", None)
    return subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_colour_with_a_huge_k_answers_as_with_one_colour_per_vertex(tmp_path, capsys):
    # N(5,1) has 60 vertices; k = 10^9 must not allocate a slot per colour
    colfile = tmp_path / "n51.col"
    code, _, _ = run(capsys, "graph", "--kind", "neighbourhood", "--n", "5", "--out", str(colfile))
    assert code == 0
    huge = _capped_cli("colour", "--input", str(colfile), "--k", "1000000000")
    sixty = _capped_cli("colour", "--input", str(colfile), "--k", "60")
    assert (huge.returncode, huge.stderr) == (0, "")
    assert huge.stdout == sixty.stdout and sixty.stdout.startswith("v (1,2,3) 1\n")


def test_colour_counts_dimacs_vertices_against_the_budget(tmp_path, capsys):
    # 10^11 vertices against the default budget, in a capped child: a
    # build of every vertex fails there, not in the test process
    huge = tmp_path / "huge.col"
    huge.write_text("p edge 100000000000 0\n")
    capped = _capped_cli("colour", "--input", str(huge), "--k", "3")
    assert (capped.returncode, capped.stdout) == (3, "")
    assert capped.stderr == "budget exceeded: 100000000000 vertices exceed budget 100000000\n"
    small = tmp_path / "small.col"
    small.write_text("p edge 5 1\ne 1 2\n")
    code, out, err = run(capsys, "colour", "--input", str(small), "--k", "3", "--budget", "4")
    assert (code, out, err) == (3, "", "budget exceeded: 5 vertices exceed budget 4\n")
    code, out, _ = run(capsys, "colour", "--input", str(small), "--k", "3", "--budget", "5")
    assert code == 0 and out.startswith("v 1 1\nv 2 2\n")


# Requests over their budget, at least one per command that takes --budget:
# the tower of 4to3 to level 1 evaluates 4 * 3^2 + 4 * 3 = 48 windows,
# W(12, 3) holds 12 * 11^2 = 1452 windows and W(300, 5) about 2.4 * 10^12
# (over the default budget too), N(7,1) needs 3,951 search nodes, a
# DIMACS header claims 10^6 vertices and lemma 4 examines 3^12 maps.
_OVER_BUDGET = [
    "speedup --alg 4to3 --k 1 --budget 47",
    "graph --kind neighbourhood --n 12 --t 1 --budget 1451",
    "graph --kind neighbourhood --n 300 --t 2 --budget 1000",
    "graph --kind successor --alg 4to3 --k 1 --budget 47",
    "colour --input {n71} --k 3 --budget 10",
    "colour --input {wide} --k 3 --budget 1000",
    "repro-paper --budget 10",
]


@pytest.mark.parametrize("command", _OVER_BUDGET)
def test_every_budget_command_stops_at_its_budget(command, tmp_path, capsys, monkeypatch):
    # the table must name every command that takes --budget
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    takes_budget = {
        name
        for name, sub in subparsers.choices.items()
        if any("--budget" in action.option_strings for action in sub._actions)
    }
    assert {line.split()[0] for line in _OVER_BUDGET} == takes_budget
    monkeypatch.delenv("PATHCHROMA_BUDGET", raising=False)
    n71 = tmp_path / "n71.col"
    assert run(capsys, "graph", "--kind", "neighbourhood", "--n", "7", "--out", str(n71))[0] == 0
    wide = tmp_path / "wide.col"
    wide.write_text("p edge 1000000 0\n")
    argv = [arg.format(n71=n71, wide=wide) for arg in command.split()]
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: ") and "Traceback" not in err
    assert peak < 1_000_000  # nothing was built at its real size
