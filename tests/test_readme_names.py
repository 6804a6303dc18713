"""Every divflow name, subcommand, flag and config key that README.md shows still exists.

The README's Monte Carlo examples are not run by the suite, so a deleted or
renamed public name, or a config key added without its documentation, would
leave them wrong without failing any test.  This reads those examples as
text; only the custom-model example, which runs no Monte Carlo, is executed.
"""
from __future__ import annotations

import argparse
import ast
import configparser
import contextlib
import io
import re
from pathlib import Path

import pytest

import divflow as dv
from divflow import cli
from divflow.cli import main, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def test_readme_library_names_resolve():
    names = {
        name
        for lang, body in BLOCKS
        if lang == "python"
        for name in re.findall(r"\bdv\.(\w+)", body)
    }
    assert names
    assert sorted(name for name in names if not hasattr(dv, name)) == []


def test_readme_subcommands_exist(capsys):
    shown = {
        command
        for _, body in BLOCKS
        for command in re.findall(r"^divflow (\S+)", body, re.M)
    }
    assert shown
    for command in sorted(shown):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0, f"README shows unknown subcommand {command!r}"


def test_readme_and_cli_flags_agree():
    """README shows every option of every subcommand, and every flag it shows is accepted."""
    parser = cli._build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    options = {
        option
        for command in sub.choices.values()
        for action in command._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    examples = [
        line.split("#")[0].split()[1:]
        for _, body in BLOCKS
        for line in body.splitlines()
        if line.startswith("divflow ")
    ]
    shown = set(re.findall(r"`(--[\w-]+)", README))  # in inline code
    shown |= {tok for args in examples for tok in args if tok.startswith("--")}
    assert examples
    assert sorted(options - shown) == []
    assert sorted(shown - options) == []
    for args in examples:
        parser.parse_args(args)


def test_readme_config_block_shows_every_key_and_parses(tmp_path):
    """README's INI block lists exactly the file keys of `cli._KEYS`, each in its section."""
    (block,) = [body for lang, body in BLOCKS if lang == "ini"]
    ini = configparser.ConfigParser(inline_comment_prefixes=(";",))
    ini.read_string(block)
    shown = {(section, key) for section in ini.sections() for key in ini[section]}
    assert shown == {(section, key) for key, (section, _, _) in cli._KEYS.items() if section is not None}
    path = tmp_path / "readme.ini"
    path.write_text(block)
    parse_config(path)


def test_readme_custom_model_example_runs_and_is_consistent():
    """The custom model omits jac_drift and declares H = 0; its printed deviations are tiny."""
    (block,) = [body for lang, body in BLOCKS if lang == "python" and "CoefficientModel(" in body]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    report = ast.literal_eval(out.getvalue().strip())
    assert set(report) == {"antisym_max_dev", "hess_sym_max_dev", "grad_antisym_fd_max_dev"}
    assert max(report.values()) < 1e-6


def test_readme_verify_table_lists_the_checks_in_order():
    """The `check` column of README's verify table is `cli.CHECKS`, in run order."""
    section = README.split("## The `verify` checks", 1)[1].split("\n## ", 1)[0]
    shown = re.findall(r"^\| \d+ \| `(\w+)` \|", section, re.M)
    assert shown == [check.__name__.lstrip("_") for check in cli.CHECKS]
