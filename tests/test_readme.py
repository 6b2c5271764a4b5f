"""README's command lines parse.

Every ``xsrl ...`` line of README's ``sh`` blocks is parsed, not run, by
the command line's own parser, so README cannot document a subcommand or
a flag that the parser does not have.
"""

import re
import shlex
from pathlib import Path

import pytest

from xsrl import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _commands(text: str) -> list[list[str]]:
    """The arguments of each ``xsrl`` line of the ``sh`` blocks, with
    backslash continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["xsrl"]:
                commands.append(words[1:])
    return commands


COMMANDS = _commands(README.read_text(encoding="utf-8"))


def test_readme_shows_the_toy_recipe():
    assert [argv[0] for argv in COMMANDS][:6] == [
        "align-train", "fit-pos", "project", "train", "predict", "eval"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_parses(argv):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"xsrl {shlex.join(argv)}: the parser exits {exc.code}")
