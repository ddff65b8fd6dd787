"""The README's "Library use" example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_example() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(capsys):
    namespace = {}
    exec(compile(library_use_example(), "README.md", "exec"), namespace)
    # The shapes its comments state.
    result = namespace["result"]
    assert result.s_hat.shape == (4, 9) and result.h_hat.shape == (4, 16)
    assert result.state.trace.objective[-1].shape == (4,)
    assert capsys.readouterr().out
