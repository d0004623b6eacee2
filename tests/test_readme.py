"""The README's examples run and print what the README says they print."""

import contextlib
import io
import re
from pathlib import Path

from geomtail.cli import main
from geomtail.config import parse_kv

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


def test_readme_quick_start_prints_its_certificate_excerpt(tmp_path):
    text = README.read_text(encoding="utf-8")
    (config,) = re.findall(r"^```ini\n(.*?)^```", text, re.M | re.S)
    (excerpt,) = re.findall(r"flat key=value file:\n\n```\n(.*?)^```", text, re.M | re.S)
    cfg, out = tmp_path / "pareto.cfg", tmp_path / "cert.txt"
    cfg.write_text(config, encoding="utf-8")
    assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
    cert = parse_kv(out.read_text(encoding="utf-8"))
    shown = [ln.split(" = ", 1) for ln in excerpt.splitlines() if " = " in ln]
    assert shown
    for key, value in shown:
        if value.endswith("..."):
            # the leading digits of the value, rounded
            digits = value[:-3]
            places = len(digits.replace(".", "").lstrip("0"))
            assert f"{float(cert[key]):.{places}g}" == digits, key
        else:
            assert cert[key] == value, key
