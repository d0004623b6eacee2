"""The README's python examples run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_as_documented():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        printed = out.getvalue().splitlines()
        # a comment after print(...) is the line that call prints
        for expected in re.findall(r"^print\(.*\)[ \t]+# (.*)$", block, re.M):
            assert expected in printed
