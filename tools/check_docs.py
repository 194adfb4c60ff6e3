"""Docs check: compile (and optionally execute) fenced code in the docs.

Every ```python block in README.md and docs/ARCHITECTURE.md must at
least compile; blocks immediately preceded by an HTML comment marker::

    <!-- docs-check: run -->

are additionally executed when ``--run`` is passed (CI does this), so
the quickstarts cannot rot silently.  In ```bash blocks every
``python -m repro ...`` command (continuation lines joined) must parse
under the CLI's own ``build_parser()``, so a documented invocation of a
deleted command or flag fails here instead of in a reader's shell.

Usage:
    PYTHONPATH=src python tools/check_docs.py [--run]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
DOCS = ("README.md", "docs/ARCHITECTURE.md")
RUN_MARKER = "<!-- docs-check: run -->"

_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)


def extract_blocks(text: str):
    """Yield (language, code, runnable, line_number) for each fence."""
    for match in _FENCE.finditer(text):
        language, code = match.group(1), match.group(2)
        prefix = text[: match.start()].rstrip()
        runnable = prefix.endswith(RUN_MARKER)
        line = text[: match.start()].count("\n") + 1
        yield language, code, runnable, line


def repro_invocations(code: str):
    """Yield the argv of every ``python -m repro ...`` command in a
    shell block: continuations joined, comments dropped, one argv per
    command of a ``&&`` / ``|`` / ``;`` chain, cut at a redirection."""
    for line in code.replace("\\\n", " ").splitlines():
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        command: list[str] = []
        for token in [*lexer, ";"]:
            if token not in ("&&", "||", "|", ";", "&"):
                command.append(token)
                continue
            for i in range(len(command) - 2):
                if command[i].startswith("python") and command[i + 1:i + 3] == ["-m", "repro"]:
                    argv = command[i + 3:]
                    cut = [j for j, t in enumerate(argv) if t[0] in "<>"]
                    yield argv[: cut[0]] if cut else argv
                    break
            command = []


def check_invocation(argv: list[str]) -> str | None:
    """The CLI's complaint about ``argv``, or None if it parses."""
    from repro.cli import build_parser

    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            return stderr.getvalue().strip().splitlines()[-1]
    return None


def check_file(path: Path, run: bool) -> list[str]:
    errors = []
    text = path.read_text()
    n_python = n_executed = n_commands = 0
    for language, code, runnable, line in extract_blocks(text):
        if language == "bash":
            for argv in repro_invocations(code):
                n_commands += 1
                problem = check_invocation(argv)
                if problem:
                    errors.append(f"{path.name}:{line}: `repro {' '.join(argv)}`: {problem}")
            continue
        if language != "python":
            continue
        n_python += 1
        try:
            compiled = compile(code, f"{path.name}:{line}", "exec")
        except SyntaxError as exc:
            errors.append(f"{path.name}:{line}: syntax error: {exc}")
            continue
        if run and runnable:
            n_executed += 1
            namespace: dict = {}
            try:
                exec(compiled, namespace)
            except Exception as exc:  # noqa: BLE001 - report any failure
                errors.append(f"{path.name}:{line}: execution failed: {exc!r}")
    mode = f"{n_executed} executed" if run else "compile-only"
    print(f"{path.name}: {n_python} python block(s) checked ({mode}), "
          f"{n_commands} repro command(s) parsed")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--run",
        action="store_true",
        help="execute blocks marked with the run marker (slower)",
    )
    args = parser.parse_args(argv)
    errors: list[str] = []
    for name in DOCS:
        path = REPO / name
        if not path.exists():
            errors.append(f"{name}: missing")
            continue
        errors.extend(check_file(path, run=args.run))
    for error in errors:
        print(f"ERROR {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
