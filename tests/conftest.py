"""Shared fixtures: the bundled synthetic corpus, a model trained on it,
and the environment for Python child processes."""

import os
from pathlib import Path

import numpy as np
import pytest

import blockspec
from blockspec import engine, synthetic
from blockspec.core import BlockState, GenerationConfig, UnmaskSchedule, unmask
from blockspec.model import train_from_corpus
from blockspec.verification import StepRecord, advance


@pytest.fixture(scope="session")
def corpus():
    return synthetic.make_corpus(synthetic.DEFAULT_SEED)


@pytest.fixture(scope="session")
def vocab_size(corpus):
    return max(t for seq in corpus for t in seq)


@pytest.fixture(scope="session")
def model(corpus, vocab_size):
    return train_from_corpus(corpus, vocab_size)


@pytest.fixture(scope="session")
def child_env(tmp_path_factory):
    """Environment for ``python`` child processes: blockspec on the path,
    and bytecode written under one directory for the whole session (or
    the parent's, when this session is itself such a child), so only the
    first child of each optimization level compiles numpy and blockspec.
    Nothing is written next to the sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(blockspec.__file__).resolve().parent.parent))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.setdefault("PYTHONPYCACHEPREFIX", str(tmp_path_factory.mktemp("pycache")))
    return env


@pytest.fixture(scope="session")
def prompts():
    return synthetic.make_prompts(11, 20)


def make_config(schedule="fixed:1", total_length=32, block_length=8, vocab_size=12, **kw):
    """Config helper: schedule given as its parse string."""
    return GenerationConfig(
        total_length=total_length,
        block_length=block_length,
        schedule=UnmaskSchedule.parse(schedule),
        top_k_vocab=kw.pop("top_k_vocab", 3),
        eot_token=kw.pop("eot_token", vocab_size),
    )


def with_token(block, position, token):
    """``block`` with ``token`` committed at its masked ``position``."""
    tokens = list(block.tokens)
    unmask(tokens, position, token)
    return BlockState(tuple(tokens))


def advance_on_rows(block, rows, schedule):
    """``advance`` on one block's (L, V) ``rows``, each row read as
    ``verify`` reads it: its largest probability and the first column
    that holds it."""
    return advance(block, np.maximum.reduce(rows, 1).tolist(), rows.argmax(1).tolist(), schedule)


def scripted_report(nfes, block_length, eot_block):
    """The report of a run given as a script instead of a model: block k
    takes ``nfes[k]`` calls over ``block_length`` one-token steps, and
    only block ``eot_block`` holds the EOT token."""
    eot = 2
    blocks = []
    for k, n in enumerate(nfes):
        block = BlockState((eot if k == eot_block else 1,) * block_length)
        step = StepRecord(ordered=(), state_after=block, realized=1)
        blocks.append([(step,) * (block_length - n + 1)] + [(step,)] * (n - 1))
    return engine._report(blocks, eot, None)
