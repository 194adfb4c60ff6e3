"""Docs stay honest: README/ARCHITECTURE code blocks must compile.

The full execution pass (``tools/check_docs.py --run``) runs in CI;
here we keep the cheap guarantees in tier-1: the documents exist, link
to each other, every fenced python block parses, and every flag the
README's CLI table lists exists on that subcommand's parser.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent


def test_docs_exist_and_link():
    readme = (REPO / "README.md").read_text()
    architecture = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme  # README links the arch doc
    assert "repro.stream" in readme and "repro.stream" in architecture


def test_readme_python_blocks_compile():
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "README.md" in result.stdout


def _subparser(parser, words):
    for word in words:
        (action,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        parser = action.choices[word]
    return parser


def _leaf_commands(parser=None, prefix=""):
    """Every runnable command path, e.g. ``"run"``, ``"trace write"``."""
    parser = parser or build_parser()
    actions = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        return [prefix.strip()]
    return [leaf for word, sub in actions[0].choices.items()
            for leaf in _leaf_commands(sub, f"{prefix} {word}")]


def test_readme_cli_table_flags_exist():
    readme = (REPO / "README.md").read_text()
    table = readme.split("## CLI reference", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z ]+)` \|[^|]*\|(.*)\|$", table, re.M)
    # One row per command, no row for a command that does not exist.
    assert sorted(command for command, _ in rows) == sorted(_leaf_commands())
    for command, options in rows:
        sub = _subparser(build_parser(), command.split())
        known = {flag for action in sub._actions for flag in action.option_strings}
        for flag in re.findall(r"--[a-z][a-z-]*", options):
            assert flag in known, f"README lists {flag} for `repro {command}`"


def test_documented_invocations_are_parsed():
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import check_docs
    finally:
        sys.path.remove(str(REPO / "tools"))
    block = (
        "PYTHONPATH=src python -m repro run ddos-burst \\\n"
        "    --mode cluster --exact   # trailing comment\n"
        "python -m repro trace write flash-crowd --output t.trace && "
        "python3 -m repro stats t.jsonl > /dev/null\n"
        "echo not-repro | python -m repro stream --live-bins 2\n"
    )
    argvs = list(check_docs.repro_invocations(block))
    assert argvs == [
        ["run", "ddos-burst", "--mode", "cluster", "--exact"],
        ["trace", "write", "flash-crowd", "--output", "t.trace"],
        ["stats", "t.jsonl"],
        ["stream", "--live-bins", "2"],
    ]
    assert [check_docs.check_invocation(a) is None for a in argvs] == [
        True, True, True, False
    ]
    assert "invalid choice: 'stream'" in check_docs.check_invocation(argvs[-1])
