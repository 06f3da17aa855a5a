"""The README's Library block runs as documented, its ``meanerr`` command
lines parse, and the repository paths it names exist."""

import re
import shlex
from pathlib import Path

from meanerr import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
FOR_LOOP = re.compile(r"for (\w+) in ([^;]+); do (.+); done")


def readme_text():
    return README.read_text(encoding="utf-8")


def readme_commands():
    """Every ``meanerr`` command line of the README's ``sh`` blocks, with
    continuations joined, comments dropped and one-line ``for`` loops
    expanded into one command per value."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            loop = FOR_LOOP.fullmatch(line)
            if loop:
                var, values, body = loop.groups()
                lines = [body.replace(f'"${var}"', value)
                         for value in values.split()]
            else:
                lines = [line]
            commands.extend(shlex.split(text) for text in lines
                            if text.startswith("meanerr "))
    return commands


def test_library_block_runs(capsys):
    section = readme_text().split("\n## Library\n")[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [len(line.split()) for line in printed] == [3, 2]


def test_command_lines_parse():
    commands = readme_commands()
    # CLI 3, data source 1, reference runs 3 and the loop over --n 4
    assert len(commands) == 11
    for command in commands:
        args = cli._parse(cli.build_parser(), command[1:])
        assert args.command == command[1], command


def test_named_paths_exist():
    named = set(re.findall(r"\b(?:bench|scripts|src|tests)/[\w./-]*\w",
                           readme_text()))
    assert named, "README names no repository path"
    missing = sorted(path for path in named if not (ROOT / path).exists())
    assert not missing, missing
