"""The bundled corpus generator: pinned bytes and the chain's shape.

Every calibrated graph, pinned count and benchmark figure starts from
these sequences, so the corpus and the prompt sets the tests and the
benchmark draw are pinned as the sha256 of their file text.
"""

import hashlib

import pytest

from blockspec import synthetic
from blockspec.model import format_corpus


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


@pytest.mark.parametrize("count", [0, -3])
def test_prompt_count_must_be_positive(count):
    with pytest.raises(ValueError, match="^count must be >= 1, got %d$" % count):
        synthetic.make_prompts(11, count)


def test_prompts_are_three_content_tokens():
    for prompt in synthetic.make_prompts(11, 50):
        assert len(prompt) == 3
        assert all(1 <= t < synthetic.eot_id() for t in prompt)
