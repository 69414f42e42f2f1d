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


def test_only_model_chooses_a_stage_path():
    # model._run_stage chooses how a stage is evaluated, for the simulator
    # and the speed-up tower's level 0 alike; no other module reads the
    # names that make that choice.
    choosers = {"_byte_sized", "_byte_stage"}
    readers = [
        f"{path.stem}: {name}"
        for path, tree in _trees(PACKAGE).items()
        if path.stem != "model"
        for name in sorted(_reads(tree) & choosers)
    ]
    assert readers == []


def _trees(*dirs):
    return {path: ast.parse(path.read_text()) for d in dirs for path in sorted(d.glob("*.py"))}


def _reads(node):
    """Identifiers a statement reads: names, attributes, imported names and identifier strings.

    Identifier strings cover ``__all__`` and names passed to ``getattr`` or
    ``monkeypatch.setattr``.
    """
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                out.add(sub.value)
    return out


def test_no_unused_imports():
    # An import that a deletion leaves behind fails here.
    unused = []
    for path, tree in _trees(PACKAGE, Path(__file__).resolve().parent).items():
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:  # names re-exported through __all__
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                read.update(ast.literal_eval(node.value))
        unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unused == []


def test_every_module_level_name_is_referenced():
    # A module-level name in the package must be read by some other
    # top-level statement of the package or of perfbench: a name that only
    # the tests read is dead API.
    trees = _trees(PACKAGE, PACKAGE.parent.parent / "perfbench")
    readers: dict[str, set] = {}
    for path, tree in trees.items():
        for i, node in enumerate(tree.body):
            for name in _reads(node):
                readers.setdefault(name, set()).add((path, i))
    orphans = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("__") and not readers.get(name, set()) - {(path, i)}:
                    orphans.append(f"{path.name}: {name}")
    assert orphans == []
