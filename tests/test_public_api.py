import re
from pathlib import Path

import pathchroma

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour_runs_and_all_names_resolve():
    # The README promises the tour and every name in __all__; deleting API
    # that either one uses fails here.
    text = README.read_text()
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    missing = [name for name in pathchroma.__all__ if not hasattr(pathchroma, name)]
    assert missing == []
