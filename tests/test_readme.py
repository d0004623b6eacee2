"""The README's examples run and print what the README says they print."""

import contextlib
import io
import re
from pathlib import Path

import geomtail
from geomtail import cli, config
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


def test_readme_configuration_keys_are_the_config_keys():
    # every name in backticks in the "Configuration keys" section (the key of
    # a `key = value` span) is a key, a value a key takes, a command or one
    # of the other words below; so the section names every key and no
    # stale one
    text = README.read_text(encoding="utf-8")
    (section,) = re.findall(r"^## Configuration keys\n(.*?)^## ", text, re.M | re.S)
    named = set()
    for span in re.findall(r"`([^`]+)`", section):
        name = span.split(" = ", 1)[0]
        if re.fullmatch(r"[A-Za-z_][\w.]*", name):
            named.add(name)
    values = {v for choices in config._STR_KEYS.values() for v in choices} | {"none"}
    other = {"K", "OPENBLAS_NUM_THREADS", "bstar", "np.matmul", "u_cap", "x", "x0", "xmax"}
    assert named - values - other - set(cli._COMMANDS) == config.CONFIG_KEYS


def test_readme_lower_level_pieces_are_exported():
    # every name in backticks in the "Lower-level pieces" sentence is in the
    # package's __all__, so a deleted name cannot linger there
    text = README.read_text(encoding="utf-8")
    (sentence,) = re.findall(r"Lower-level pieces are exported too:(.*?)\.\s", text, re.S)
    named = re.findall(r"`([^`]+)`", sentence)
    assert "delta_sup" in named
    assert set(named) <= set(geomtail.__all__)
