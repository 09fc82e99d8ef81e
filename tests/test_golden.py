"""Golden corpus: every case in golden/cases.json replayed through the CLI.

Each case is an argv list run in-process from inside tests/golden/ (so
input paths and the file names in error messages are relative), with the
exit code, stdout and stderr it produced when the corpus was captured.
The corpus pins the bytes of every `--algo`, text and `--machine`
output, `verify`, `analyze`, `generate`, and the error exits.
"""

import json
import re
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


def readme_examples():
    """(argv, expected lines) for every `$ harmless ...` line of README.md;
    the expected lines run to the next blank line or code fence."""
    lines = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ harmless "):
            expected = []
            for out in lines[i + 1:]:
                if not out or out.startswith("```"):
                    break
                expected.append(out)
            examples.append((line.split()[2:], expected))
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize(
    "argv, expected", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_example(argv, expected, capsys, monkeypatch):
    # a `...` line in the README stands for any run of printed lines
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == 0
    pattern = "".join(
        "(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in expected
    )
    assert re.fullmatch(pattern, capsys.readouterr().out)
