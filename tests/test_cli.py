import pytest

from pathchroma.cli import main, parse_algorithm, parse_count
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
    code, _, err = run(capsys, "repro-paper", "--only", "lemma5", "--budget", "5770")
    assert code == 3
    assert "budget exceeded" in err
    code, out, _ = run(capsys, "repro-paper", "--only", "lemma5", "--budget", "5771")
    assert code == 0
    assert out.startswith("PASS lemma5") and "5771 nodes" in out


def test_colour_budget_caps_search_nodes(tmp_path, capsys):
    colfile = tmp_path / "n71.col"
    code, _, _ = run(capsys, "graph", "--kind", "neighbourhood", "--n", "7", "--out", str(colfile))
    assert code == 0
    code, _, err = run(capsys, "colour", "--input", str(colfile), "--k", "3", "--budget", "5770")
    assert code == 3
    assert "budget exceeded" in err
    code, out, _ = run(capsys, "colour", "--input", str(colfile), "--k", "3", "--budget", "5771")
    assert code == 0
    assert out == "UNSAT nodes=5771\n"
