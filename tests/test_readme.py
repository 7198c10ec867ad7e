"""The README's CLI walkthrough, replayed in-process.

Every ``$ blockspec ...`` command in the README's code blocks runs in
order through ``cli.main`` in one directory, after the README's corpus
dump snippet.  Each must exit 0, and every output line the README shows
under a command (``...`` marks an elided tail) must be printed by it.
The config file the README shows must be the CLI's default config.
"""

import re
import shlex
from pathlib import Path

from blockspec import cli
from blockspec.core import GenerationConfig, UnmaskSchedule, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(text):
    return re.findall(r"^```\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def walkthrough(blocks):
    """(argv, shown output lines) for every ``$ blockspec`` command."""
    steps = []
    for block in blocks:
        shown = None
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("$ "):
                shown = []
                steps.append((shlex.split(line[2:]), shown))
            elif shown is not None and line.strip() not in ("", "..."):
                shown.append(line)
    return steps


def test_readme_walkthrough_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    blocks = code_blocks(README.read_text())
    dump = next(b for b in blocks if b.startswith('python3 -c "'))
    steps = walkthrough(blocks)
    assert [(argv[:2], len(shown)) for argv, shown in steps] == [
        (["blockspec", "calibrate"], 1),
        (["blockspec", "check-lossless"], 1),
        (["blockspec", "bench"], 1),
        (["blockspec", "generate"], 1),
        (["blockspec", "graph"], 3),
        (["blockspec", "graph"], 0),
        (["blockspec", "calibrate"], 0),
        (["blockspec", "bench"], 1),
    ]
    monkeypatch.chdir(tmp_path)
    exec("\n".join(dump.splitlines()[1:-1]), {})
    for argv, shown in steps:
        code = cli.main(argv[1:])
        printed = capsys.readouterr().out.splitlines()
        assert code == 0, argv
        for line in shown:
            assert line in printed, (argv, line)
    assert Path("draft.dot").read_text().startswith("digraph")


def test_readme_config_is_the_cli_default():
    block = next(b for b in code_blocks(README.read_text()) if b.startswith("W = "))
    want = GenerationConfig(schedule=UnmaskSchedule.fixed(1), eot_token=12, **cli._DEFAULTS)
    assert parse_config(block) == want
