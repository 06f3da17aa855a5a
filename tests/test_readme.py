"""The README's Library block runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n")[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [len(line.split()) for line in printed] == [3, 2]
