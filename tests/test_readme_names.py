"""Every divflow name, subcommand and config key that README.md shows still exists.

The README examples are not run by the suite, so a deleted or renamed
public name, or a config key added without its documentation, would leave
them wrong without failing any test.  This reads the examples as text and
runs no Monte Carlo.
"""
from __future__ import annotations

import configparser
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
