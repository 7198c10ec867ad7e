"""The CLI on generated inputs: the README walkthrough's files, each
example with one of them mutated.

Each example edits the prompt, graph or config file once: a digit
swapped for another, a ``_``, sign, ``:``, ``=`` or ``#`` inserted, a
blank line added, a number replaced by a huge one or by ``nan``, or the
text truncated.  A digit swap keeps each number's length, so no edit
asks for a long decode.  It then runs one command that reads that file
in-process through ``cli.main``.  The exit code is 0 or 2.  On 2, stderr
is one ``error:`` line naming the mutated file; when a mutated config's
``top_k_vocab`` no longer covers the unchanged graph, that line names
both files.  On 0, ``generate --graph`` prints the tokens that
``generate`` without a graph prints.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspec import cli, synthetic
from blockspec.model import format_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The README walkthrough's files, with its calibrated graph and the
    config block it shows."""
    tmp = tmp_path_factory.mktemp("walkthrough")
    paths = {name: tmp / name for name in ("corpus.txt", "prompts.txt", "draft.graph", "readme.cfg")}
    paths["corpus.txt"].write_text(format_corpus(synthetic.make_corpus(7)))
    paths["prompts.txt"].write_text(format_corpus(synthetic.make_prompts(11, 20)))
    config = re.search(r"^```\n(W = .*?)^```$", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    paths["readme.cfg"].write_text(config.group(1))
    calibrate = ["calibrate", "--corpus", paths["corpus.txt"], "--prompts", paths["prompts.txt"]]
    assert run([*calibrate, "--lookahead", 4, "--budget", 8, "--out", paths["draft.graph"]])[0] == 0
    return paths


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


_NUMBER = re.compile("[0-9]+")


@st.composite
def edits(draw, text):
    """``text`` with one edit."""
    kind = draw(st.sampled_from(("digit", "insert", "blank", "huge", "nan", "truncate")))
    numbers = list(_NUMBER.finditer(text))
    if kind == "digit":
        digits = [n for n, c in enumerate(text) if c.isdigit()]
        at = draw(st.sampled_from(digits))
        return text[:at] + draw(st.sampled_from("0123456789")) + text[at + 1 :]
    if kind in ("huge", "nan"):
        number = draw(st.sampled_from(numbers))
        new = draw(st.sampled_from(("9" * 19, "1" + "0" * 30, "-" + "9" * 25))) if kind == "huge" else "nan"
        return text[: number.start()] + new + text[number.end() :]
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "blank":
        starts = [0] + [n + 1 for n, c in enumerate(text) if c == "\n"]
        at = draw(st.sampled_from(starts))
        return text[:at] + "\n" + text[at:]
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from("_-+:=#")) + text[at:]


# the commands that read each file
_COMMANDS = {
    "prompts.txt": ("generate", "check-lossless", "calibrate"),
    "readme.cfg": ("generate", "check-lossless", "calibrate"),
    "draft.graph": ("generate", "check-lossless", "graph show"),
}


def command(name, paths):
    setup = ["--corpus", paths["corpus.txt"], "--prompts", paths["prompts.txt"], "--config", paths["readme.cfg"]]
    graph = ["--graph", paths["draft.graph"]]
    out = paths["corpus.txt"].parent / "calibrated.graph"
    return {
        "generate": ["generate", *setup, *graph],
        "check-lossless": ["check-lossless", *setup, *graph, "--trials", 1],
        "calibrate": ["calibrate", *setup, "--lookahead", 2, "--budget", 2, "--limit", 2, "--out", out],
        "graph show": ["graph", "show", *graph],
    }[name]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_walkthrough_file_exits_0_or_names_it(walkthrough, data):
    name = data.draw(st.sampled_from(sorted(_COMMANDS)), label="file")
    text = data.draw(edits(walkthrough[name].read_text()), label="text")
    mutated = walkthrough[name].with_name("mutated-" + name)
    mutated.write_text(text)
    paths = dict(walkthrough, **{name: mutated})
    which = data.draw(st.sampled_from(_COMMANDS[name]), label="command")
    code, out, err = run(command(which, paths))
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(mutated) in err, err
    elif which == "generate":
        vanilla = run(command("generate", paths)[:-2])
        assert (vanilla[0], out) == (0, vanilla[1])
