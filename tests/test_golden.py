"""Golden corpus: every case in golden/cases.json replayed through the CLI.

Each case is an argv list run in-process from inside tests/golden/ (so
input paths and the file names in error messages are relative), with the
exit code, stdout and stderr it produced when the corpus was captured.
The corpus pins the bytes of every `--algo`, text and `--machine`
output, `verify`, `analyze`, `generate`, and the error exits.
"""

import json
from pathlib import Path

import pytest

from harmless.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(list(case["argv"]))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["exit"], case["stdout"], case["stderr"])
