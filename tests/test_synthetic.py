"""The bundled corpus generator: pinned bytes and the chain's shape.

Every calibrated graph, pinned count and benchmark figure starts from
these sequences, so the corpus and the prompt sets the tests and the
benchmark draw are pinned as the sha256 of their file text.  The draws
are read off PCG64's raw output; they must equal what
``numpy.random.Generator``'s methods return for the same seed, which the
reference generator walks the chain with.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_synthetic import reference_corpus, reference_prompts

from blockspec import synthetic
from blockspec.model import format_corpus

SEEDS = st.integers(0, 2**32 - 1)


def digest(sequences):
    return hashlib.sha256(format_corpus(sequences).encode()).hexdigest()


def test_corpus_bytes():
    assert digest(synthetic.make_corpus(7)) == "54bad4c12be64a83762d2978fda422b7d82c02f0d62059e58d620544236cfea7"


@pytest.mark.parametrize(
    "seed, count, want",
    [
        (11, 20, "0b75e430f7a00de2e70674c8f8ddd0b4e2484cd3e5a17329e64022c4d5736335"),
        (23, 20, "89e2041dca5b274b830666406bf49bb420e2483bcfce0cb371e6417d107b1163"),
        (31, 5, "62f972cd7afbb797d6bf51211132ed2d48b11dc4a58ea5afc9a62d9c1c6c938f"),
        (71, 2000, "b79e5d8c41bdca4b0f507ec0471fe263c9726e12516ac44e71f07ed0cdd1fb77"),
    ],
)
def test_prompt_bytes(seed, count, want):
    assert digest(synthetic.make_prompts(seed, count)) == want


def test_corpus_shape():
    corpus = synthetic.make_corpus(synthetic.DEFAULT_SEED)
    eot = synthetic.eot_id()
    assert eot == synthetic.DEFAULT_VOCAB
    assert sum(len(seq) for seq in corpus) >= 12000
    for seq in corpus:
        assert seq[-1] == eot and eot not in seq[:-1]
        assert len(seq) <= 150
        assert all(1 <= t < eot for t in seq[:-1])


@pytest.mark.parametrize(
    "count, message",
    [
        (0, "count must be >= 1, got 0"),
        (-3, "count must be >= 1, got -3"),
        (True, "count True is not an integer"),
        (2.5, "count 2.5 is not an integer"),
        (None, "count None is not an integer"),
    ],
    ids=["0", "-3", "True", "2.5", "None"],
)
def test_prompt_count_must_be_positive(count, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        synthetic.make_prompts(11, count)


@pytest.mark.parametrize(
    "seed, message",
    [
        (None, "seed None is not an integer"),
        (-1, "seed must be >= 0, got -1"),
        (False, "seed False is not an integer"),
        (7.0, "seed 7.0 is not an integer"),
        ("7", "seed '7' is not an integer"),
    ],
)
def test_seed_must_be_a_nonnegative_integer(seed, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        synthetic.make_corpus(seed)
    with pytest.raises(ValueError, match="^%s$" % message):
        synthetic.make_prompts(seed, 2)


def test_numpy_integers_are_accepted():
    assert synthetic.make_prompts(np.uint32(11), np.int64(20)) == synthetic.make_prompts(11, 20)
    assert synthetic.make_corpus(np.int8(7)) == synthetic.make_corpus(7)


def test_prompts_are_three_content_tokens():
    for prompt in synthetic.make_prompts(11, 50):
        assert len(prompt) == 3
        assert all(1 <= t < synthetic.eot_id() for t in prompt)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS)
def test_corpus_matches_the_generator_methods(seed):
    assert synthetic.make_corpus(seed) == reference_corpus(seed)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, count=st.integers(1, 300))
def test_prompts_match_the_generator_methods(seed, count):
    assert synthetic.make_prompts(seed, count) == reference_prompts(seed, count)


# "random" or the n of an integers(n) draw.  n = 1 draws nothing, and
# 2**31 + 1 redraws about half its draws; 2**32 - 1 is the largest n.
DRAWS = st.sampled_from(["random", 1, 2, 9, 11, 2**31 + 1, 2**32 - 1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, pattern=st.lists(DRAWS, min_size=1, max_size=30), repeats=st.integers(1, 150))
@example(seed=0, pattern=["random", 1, 2**31 + 1, 1, 9], repeats=1000)  # over two chunks of raw words
@example(seed=5, pattern=[2, "random", 1, 1, "random"], repeats=1)
def test_reader_matches_the_generator(seed, pattern, repeats):
    """Interleaved draws equal ``np.random.default_rng(seed)``'s, value for
    value, including across the reader's chunk boundaries."""
    draws = synthetic._Draws(seed)
    rng = np.random.default_rng(seed)
    for draw in pattern * repeats:
        if draw == "random":
            assert draws.random() == rng.random()
        else:
            assert draws.integers(draw) == rng.integers(draw)
