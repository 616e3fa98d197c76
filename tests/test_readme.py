"""README's examples run as written: the library sketch executes, the config
example loads, and every `skipdiff ...` command line parses."""

import re
import shlex
from pathlib import Path

import pytest

from skipdiff.cli import build_parser
from skipdiff.config import load_config

README = (Path(__file__).parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, re.M | re.S)
COMMANDS = [line for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines() if line.startswith("skipdiff ")]


def test_blocks_found():
    assert [lang for lang, _ in BLOCKS].count("python") == 1
    assert [lang for lang, _ in BLOCKS].count("ini") == 1
    assert len(COMMANDS) == 6  # one line per subcommand


def test_library_sketch_runs(capsys):
    (sketch,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(sketch, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_config_example_loads():
    (text,) = [body for lang, body in BLOCKS if lang == "ini"]
    cfg = load_config(text)
    # a comment line stays a comment, never part of a value
    assert (cfg.raw["sampler.family"], cfg.mode, cfg.devices, cfg.samples) == (
        "ddim", "aggressive", 3, 100)
    assert cfg.op.eval_ms > 0  # so `skipdiff bench` accepts it


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split()[1] for line in COMMANDS])
def test_command_parses(line):
    args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
    assert args.command == line.split()[1]
