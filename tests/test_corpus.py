"""The behaviour corpus: every recorded command line must still give the
exit code, stdout and stderr it gave when the corpus was recorded.

``tests/corpus/manifest.jsonl`` holds one row per command line: its argv,
its exit code (``["SystemExit", code]`` for help), and the sha256 of its
stdout and of its stderr. An argv token that names a data file starts with
``{corpus}``, which stands for the directory of the manifest; the files sit
beside it. The rows are written by ``tests/record_corpus.py``, which also
says how to rewrite them when a change moves bytes on purpose.
"""

import hashlib
import json
from pathlib import Path

from test_parse import run_main

CORPUS = Path(__file__).resolve().parent / "corpus"
MANIFEST = CORPUS / "manifest.jsonl"
PLACEHOLDER = "{corpus}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay(argv) -> dict:
    """The manifest row that ``cli.main(argv)`` gives in the current tree."""
    code, out, err = run_main(
        [arg.replace(PLACEHOLDER, str(CORPUS)) for arg in argv])
    return {"argv": list(argv),
            "exit": list(code) if isinstance(code, tuple) else code,
            "stdout": _digest(out), "stderr": _digest(err)}


def read_manifest() -> list[dict]:
    with open(MANIFEST, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_every_recorded_command_line_replays(tmp_path, monkeypatch):
    # a command line that writes a file writes it here, not in the checkout
    monkeypatch.chdir(tmp_path)
    moved = [row["argv"] for row in read_manifest()
             if replay(row["argv"]) != row]
    assert moved == []
