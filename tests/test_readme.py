"""The README's examples run against the package as it is: the "Library
use" example runs, and every "Quick start" command parses."""

import re
import shlex
from pathlib import Path

from simojed.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading: str, language: str) -> str:
    section = README.read_text().split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(capsys):
    namespace = {}
    exec(compile(fenced_block("Library use", "python"), "README.md", "exec"), namespace)
    # The shapes its comments state.
    assert namespace["s_hat"].shape == (4, 9) and namespace["h_hat"].shape == (4, 16)
    assert namespace["s_ml"].shape == namespace["s_mrc"].shape == (4, 9)
    assert namespace["trace"].objective[-1].shape == (4,)
    assert capsys.readouterr().out


def test_quick_start_commands_parse():
    # Parse only: a renamed or deleted flag makes argparse exit here.
    text = fenced_block("Quick start", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in text.splitlines() if line.startswith("simojed ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]
