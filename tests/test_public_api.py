import ast
import re
import shlex
from pathlib import Path

import pathchroma
from pathchroma.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(pathchroma.__file__).resolve().parent
# Each module may import only modules to its left.
LAYERS = ("errors", "model", "reduce", "chroma", "speedup", "graphs", "cli")


def test_readme_tour_runs_and_all_names_resolve():
    # The README promises the tour and every name in __all__; deleting API
    # that either one uses fails here.
    text = README.read_text()
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    missing = [name for name in pathchroma.__all__ if not hasattr(pathchroma, name)]
    assert missing == []


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # Every line of the README's command-line block exits 0 as written.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PATHCHROMA_BUDGET", raising=False)
    text = README.read_text()
    section = text[text.index("## Command line") :]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line.split("#")[0].split("|")[0].strip() for line in block.splitlines()]
    assert lines
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "pathchroma"
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if argv[1:] == ["repro-paper"]:
            assert sum(row.startswith("PASS ") for row in out.splitlines()) == 7


def test_module_layering():
    # Reads every relative import, those under TYPE_CHECKING or inside a
    # function too, so no import cycle can come back unseen.
    assert {p.stem for p in PACKAGE.glob("*.py")} == {"__init__", *LAYERS}
    upward = []
    for rank, module in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [(module, t) for t in targets if LAYERS.index(t) >= rank]
    assert upward == []
