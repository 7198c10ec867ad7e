"""Tests for the toy denoiser: training counts, the mixture forward pass,
and the batched-forward contract.

The mixture oracle is recomputed by hand inside the tests: smoothed
probabilities are (count + alpha) / (row_sum + alpha * V), and a masked
row is w_left * P_left + w_right * P_right + w_uni * P_uni with
w_side = lambda_side * 0.5^gap and w_uni absorbing the remainder.  The
batched pass is checked byte for byte against the per-position scalar
forward in ``scalar_forward``.
"""

import hashlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import with_token
from scalar_forward import one_hot_rows, scalar_forward, scalar_forward_batched

from blockspec import synthetic
from blockspec.core import MASK, BlockState, SequenceState
from blockspec.model import (
    MAX_BLOCK_CELLS,
    MAX_VOCAB_SIZE,
    ToyDenoiser,
    forward_batched,
    forward_many,
    format_corpus,
    parse_corpus,
    train_from_corpus,
)

# corpus "ababab" with a=1, b=2
ABABAB = [(1, 2, 1, 2, 1, 2)]


def _abab_model(lambdas=(0.6, 0.3, 0.1)):
    return train_from_corpus(ABABAB, 2, alpha=0.5, lambdas=lambdas)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class TestTrainFromCorpus:
    def test_adjacent_pair_counts(self):
        """Hand-count of "1 2 1 2 1 2": pairs (1,2) x3 and (2,1) x2."""
        m = _abab_model()
        assert m.bigram_left[1].tolist() == [0, 3]
        assert m.bigram_left[2].tolist() == [2, 0]
        assert m.bigram_right[2].tolist() == [3, 0]
        assert m.bigram_right[1].tolist() == [0, 2]
        assert m.unigram.tolist() == [3, 3]

    def test_single_token_corpus(self):
        m = train_from_corpus([(1,)], 2)
        assert m.unigram.tolist() == [1, 0]
        assert not m.bigram_left.any()
        assert not m.bigram_right.any()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            train_from_corpus([], 4)
        with pytest.raises(ValueError, match="empty corpus"):
            train_from_corpus([()], 4)

    def test_out_of_range_token_named(self):
        with pytest.raises(ValueError, match="7"):
            train_from_corpus([(1, 7)], 4)

    def test_vocabulary_limit(self):
        """The limit itself trains; one past it is refused before the
        corpus is even read, so nothing is allocated for it."""
        m = train_from_corpus([(1, MAX_VOCAB_SIZE)], MAX_VOCAB_SIZE)
        assert m.bigram_left.shape == (MAX_VOCAB_SIZE + 1, MAX_VOCAB_SIZE)
        assert m.bigram_left[1, MAX_VOCAB_SIZE - 1] == 1

        class Unread:
            def __iter__(self):
                raise AssertionError("corpus read before the vocabulary check")

        with pytest.raises(ValueError, match="^vocab_size 1025 above the limit of 1024$"):
            train_from_corpus(Unread(), MAX_VOCAB_SIZE + 1)

    def test_lambda_sum_checked(self):
        with pytest.raises(ValueError, match="mixture weights"):
            train_from_corpus(ABABAB, 2, lambdas=(0.5, 0.3, 0.1))

    def test_pure_smoothing_uniform(self):
        # alpha=1 over all-zero counts: every smoothed row is 1/V = 0.25
        zeros = np.zeros((5, 4), dtype=np.int64)
        m = ToyDenoiser(
            vocab_size=4,
            alpha=1.0,
            lambda_left=0.5,
            lambda_right=0.3,
            lambda_uni=0.2,
            bigram_left=zeros.copy(),
            bigram_right=zeros.copy(),
            unigram=np.zeros(4, dtype=np.int64),
        )
        assert np.allclose(m._prob_left, 0.25)
        assert np.allclose(m._prob_right, 0.25)
        assert np.allclose(m._prob_uni, 0.25)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"vocab_size": 0}, "vocab_size must be >= 1, got 0"),
            ({"alpha": 0.0}, "alpha must be positive, got 0.0"),
            (
                {"bigram_left": np.zeros((4, 4), dtype=np.int64)},
                r"bigram_left has shape \(4, 4\), vocab_size 4 needs \(5, 4\)",
            ),
            ({"bigram_right": np.zeros((5, 3), dtype=np.int64)}, r"bigram_right has shape \(5, 3\)"),
            ({"unigram": np.zeros(5, dtype=np.int64)}, r"unigram has shape \(5,\), vocab_size 4 needs \(4,\)"),
        ],
        ids=["vocab", "alpha", "bigram_left", "bigram_right", "unigram"],
    )
    def test_bad_tables_rejected(self, change, message):
        fields = dict(
            vocab_size=4,
            alpha=1.0,
            lambda_left=0.5,
            lambda_right=0.3,
            lambda_uni=0.2,
            bigram_left=np.zeros((5, 4), dtype=np.int64),
            bigram_right=np.zeros((5, 4), dtype=np.int64),
            unigram=np.zeros(4, dtype=np.int64),
        )
        fields.update(change)
        with pytest.raises(ValueError, match=message):
            ToyDenoiser(**fields)


@st.composite
def corpora(draw):
    """A vocabulary size and a corpus over it; half the corpora may also
    hold ids outside 1..vocab."""
    vocab = draw(st.integers(1, 6))
    low, high = (-1, vocab + 1) if draw(st.booleans()) else (1, vocab)
    return vocab, draw(st.lists(st.lists(st.integers(low, high), max_size=8), max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(corpora())
@example((3, [[], [2], [1, 3, 3], [3]]))
@example((2, [[1], [], [2]]))
def test_training_counts_match_a_pure_python_count(case):
    """Empty and one-token sequences contribute no pairs; pairs never span
    two sequences; a bad token is named in corpus order."""
    vocab, corpus = case
    if not any(corpus):
        with pytest.raises(ValueError, match="^empty corpus$"):
            train_from_corpus(corpus, vocab)
        return
    bad = [t for seq in corpus for t in seq if not 1 <= t <= vocab]
    if bad:
        with pytest.raises(ValueError, match="^corpus token %d outside 1..%d$" % (bad[0], vocab)):
            train_from_corpus(corpus, vocab)
        return
    m = train_from_corpus(corpus, vocab)
    unigrams = Counter(t for seq in corpus for t in seq)
    pairs = Counter(pair for seq in corpus for pair in zip(seq, seq[1:]))
    ids = range(1, vocab + 1)
    assert m.unigram.tolist() == [unigrams[t] for t in ids]
    assert m.bigram_left.tolist() == [[pairs[a, b] for b in ids] for a in range(vocab + 1)]
    assert m.bigram_right.tolist() == [[pairs[b, a] for b in ids] for a in range(vocab + 1)]
    assert m.unigram.dtype == m.bigram_left.dtype == m.bigram_right.dtype == np.int64


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def _smooth(counts, alpha=0.5):
    counts = np.asarray(counts, dtype=float)
    return (counts + alpha) / (counts.sum() + alpha * len(counts))


class TestForward:
    def test_both_side_neighbors_hand_mix(self):
        """Neighbors a on both sides at gap 0 on "ababab": argmax is b.

        Row oracle: 0.6 * P_left(.|1) + 0.3 * P_right(.|1) + 0.1 * P_uni.
        """
        m = _abab_model()
        state = SequenceState.initial((1,), 1, 3)
        state = state.with_active_block(with_token(state.active_block, 1, 1))
        got = forward_batched(m, state, [])[0]
        want0 = (
            0.6 * _smooth([0, 3]) + 0.3 * _smooth([0, 2]) + 0.1 * _smooth([3, 3])
        )
        assert np.allclose(got[0], want0, atol=1e-12)
        assert got[0].argmax() + 1 == 2
        # position 1 is committed: one-hot on token 1
        assert got[1].tolist() == [1.0, 0.0]

    def test_gap_decay_shifts_weight_to_unigram(self):
        """Right neighbor at gap 1 contributes lambda_right * 0.5."""
        m = _abab_model()
        state = SequenceState.initial((1,), 1, 3)
        state = state.with_active_block(with_token(state.active_block, 2, 2))
        got = forward_batched(m, state, [])[0]
        w_left, w_right = 0.6, 0.3 * 0.5
        w_uni = 1.0 - w_left - w_right
        want0 = (
            w_left * _smooth([0, 3])
            + w_right * _smooth([3, 0])
            + w_uni * _smooth([3, 3])
        )
        assert np.allclose(got[0], want0, atol=1e-12)

    def test_no_right_neighbor_at_sequence_end(self):
        m = _abab_model()
        state = SequenceState.initial((1,), 1, 3)
        state = state.with_active_block(with_token(state.active_block, 1, 1))
        got = forward_batched(m, state, [])[0]
        # position 2: left neighbor token 1 at gap 0, nothing to the right
        want2 = 0.6 * _smooth([0, 3]) + 0.4 * _smooth([3, 3])
        assert np.allclose(got[2], want2, atol=1e-12)

    def test_unigram_only_mixture_collapse(self):
        m = _abab_model(lambdas=(0.0, 0.0, 1.0))
        state = SequenceState.initial((1, 2), 1, 4)
        got = forward_batched(m, state, [])[0]
        for n in range(4):
            assert np.allclose(got[n], _smooth([3, 3]), atol=1e-12)

    def test_deterministic(self, model):
        state = SequenceState.initial((2, 2), 2, 8)
        a = forward_batched(model, state, [])[0]
        b = forward_batched(model, state, [])[0]
        assert np.array_equal(a, b)

    def test_locality_beyond_nearest_neighbor(self, model):
        """Tokens shadowed by a nearer unmasked token cannot matter."""
        base = SequenceState.initial((3, 8), 2, 4)
        base = base.with_active_block(BlockState(tokens=(5, 6, 7, 8))).advance_block()
        changed = SequenceState(
            prompt=(9, 8), blocks=base.blocks, active=base.active
        )
        # every masked position in block 1 resolves its left neighbor inside
        # block 0; the prompt's first token is unreachable
        a = forward_batched(model, base, [])[0]
        b = forward_batched(model, changed, [])[0]
        assert np.array_equal(a, b)

    def test_rows_normalized(self, model):
        state = SequenceState.initial((2, 3, 4), 2, 8)
        state = state.with_active_block(with_token(state.active_block, 3, 5))
        got = forward_batched(model, state, [])[0]
        sums = got.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)
        assert np.all(got >= 0.0) and np.all(got <= 1.0)

    def test_complete_block_rejected(self, model):
        state = SequenceState.initial((1,), 1, 2)
        state = state.with_active_block(BlockState(tokens=(1, 2)))
        with pytest.raises(ValueError, match="nothing to denoise"):
            forward_batched(model, state, [])

    def test_invalid_state_rejected(self):
        blocks = (BlockState.masked(2), BlockState(tokens=(1, MASK)))
        with pytest.raises(ValueError, match="invalid sequence state"):
            SequenceState(prompt=(1,), blocks=blocks, active=0)


# ---------------------------------------------------------------------------
# batched forward
# ---------------------------------------------------------------------------


class TestForwardBatched:
    def test_empty_draft_list(self, model):
        state = SequenceState.initial((2,), 1, 4)
        rows = forward_batched(model, state, [])
        assert rows.shape == (1, 4, model.vocab_size)
        assert np.array_equal(rows[0], scalar_forward(model, state))

    def test_identity_draft_equals_target(self, model):
        state = SequenceState.initial((2,), 1, 4)
        state = state.with_active_block(with_token(state.active_block, 0, 2))
        target, draft = forward_batched(model, state, [state.active_block.tokens])
        assert np.array_equal(draft, target)

    def test_distinct_drafts_match_independent_forwards(self, model):
        state = SequenceState.initial((5, 6), 2, 4)
        block = state.active_block
        drafts = [
            with_token(block, 0, 7),
            with_token(block, 1, 8),
            with_token(with_token(block, 0, 7), 3, 2),
        ]
        _, *per_draft = forward_batched(model, state, [d.tokens for d in drafts])
        for d, got in zip(drafts, per_draft):
            want = forward_batched(model, state.with_active_block(d), [])[0]
            assert np.array_equal(got, want)

    def test_complete_draft_scores_one_hot(self, model):
        state = SequenceState.initial((2,), 1, 3)
        _, draft = forward_batched(model, state, [(4, 5, 6)])
        want = np.zeros((3, model.vocab_size))
        want[0, 3] = want[1, 4] = want[2, 5] = 1.0
        assert np.array_equal(draft, want)

    def test_one_hot_reference_requires_complete_block(self):
        with pytest.raises(ValueError, match="needs a complete block"):
            one_hot_rows(BlockState(tokens=(1, MASK)), 3)
        rows = one_hot_rows(BlockState(tokens=(2, 1)), 3)
        assert rows.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]

    def test_draft_length_mismatch_rejected(self, model):
        state = SequenceState.initial((2,), 1, 3)
        with pytest.raises(ValueError, match="length"):
            forward_batched(model, state, [(MASK, MASK)])

    def test_draft_token_range_checked(self, model):
        """Complete drafts too: their rows are one-hot on the draft's tokens."""
        state = SequenceState.initial((2,), 1, 3)
        too_big = model.vocab_size + 1
        for draft in ((1, too_big, MASK), (1, 2, too_big)):
            with pytest.raises(ValueError, match="token %d outside 1..%d" % (too_big, model.vocab_size)):
                forward_batched(model, state, [(1, 2, 3), draft])

    @pytest.mark.parametrize(
        "prompt, message",
        [
            ((2, 13), "token 13 outside 1..12"),
            ((-1, 2), "token -1 outside 1..12"),
            ((2.5, 3), "invalid sequence state: prompt token 2.5 is not an integer"),
            ((float("nan"), 3), "invalid sequence state: prompt token nan is not an integer"),
            ((2, 3.0), "invalid sequence state: prompt token 3.0 is not an integer"),
            ((2, True), "invalid sequence state: prompt token True is not an integer"),
        ],
        ids=["above", "below", "non-integer", "nan", "float-id", "bool-id"],
    )
    @pytest.mark.parametrize(
        "score",
        [lambda m, state: forward_batched(m, state, [(1, 2, 3)]), lambda m, state: forward_many(m, [state])],
        ids=["forward_batched", "forward_many"],
    )
    def test_context_token_range_checked(self, model, prompt, message, score):
        """Both ends of 1..V in either call, and non-integers, which the
        state rejects when it is made: a check that ignored the lower
        bound once passed the token-range property below, one that
        compared only the context's smallest and largest token let 2.5
        through, and the error once printed 2.5 as 2 and failed to print
        NaN at all."""
        assert model.vocab_size == 12
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            score(model, SequenceState.initial(prompt, 1, 3))

    def test_draft_float_id_named(self, model):
        """A float equal to an id passes the range check, since it hashes
        like the id; the pass that indexes with it names it."""
        state = SequenceState.initial((2,), 1, 3)
        with pytest.raises(ValueError, match="^token 3.0 is not an integer$"):
            forward_batched(model, state, [(3.0, MASK, MASK)])

    def test_unindexed_float_and_bool_ids_score_as_the_ids(self, model):
        """A call's non-integer check runs on the error path only: a bool
        in a draft that indexes like its id scores as id 1.  A float in
        the prompt left of the context token once scored as id 3 too; the
        state now rejects it when it is made."""
        want = SequenceState.initial((3, 2), 1, 3)
        got = forward_batched(model, want, [(True, MASK, MASK)])
        assert np.array_equal(got, forward_batched(model, want, [(1, MASK, MASK)]))
        with pytest.raises(ValueError, match="^invalid sequence state: prompt token 3.0 is not an integer$"):
            SequenceState.initial((3.0, 2), 1, 3)

    def test_bool_context_is_rejected_before_it_can_mask_the_tables(self):
        """With V = 2 and a bool left context, the pass's index list was
        all bools, which numpy reads as a mask: ``forward_batched`` once
        returned wrong rows for ``(2, True)`` without raising."""
        m = train_from_corpus([(1, 2, 1, 2, 2)], 2)
        with pytest.raises(ValueError, match="^invalid sequence state: prompt token True is not an integer$"):
            forward_batched(m, SequenceState.initial((2, True), 1, 3), [])

    def test_finished_block_token_range_checked(self):
        """A non-integer in a finished block is named when the state is
        made, before a model call can take it for the left context."""
        with pytest.raises(ValueError, match="^invalid sequence state: block 0 token 1.5 is not an integer$"):
            SequenceState(prompt=(1,), blocks=(BlockState(tokens=(3, 1.5)), BlockState.masked(2)), active=1)

    def test_bool_finished_block_is_rejected_before_it_can_mask_the_tables(self):
        """With V = 2 and a bool last token in a finished block, both
        calls once returned wrong rows for this state without raising:
        the first read ``[0.475, 0.525]``, against ``[0.2417, 0.7583]``
        with 1 for True."""
        m = train_from_corpus([(1, 2, 1, 2, 2)], 2)
        assert forward_batched(m, SequenceState((1,), (BlockState((2, 1)), BlockState.masked(3)), 1), [])[0, 0] == (
            pytest.approx([0.2417, 0.7583], abs=1e-4)
        )
        with pytest.raises(ValueError, match="^invalid sequence state: block 0 token True is not an integer$"):
            SequenceState((1,), (BlockState((2, True)), BlockState.masked(3)), 1)

    @pytest.mark.parametrize(
        "score",
        [lambda m, state: forward_batched(m, state, []), lambda m, state: forward_many(m, [state])],
        ids=["forward_batched", "forward_many"],
    )
    def test_block_size_limit_checked(self, score):
        """L x V one past ``MAX_BLOCK_CELLS`` is rejected by either call,
        not only by the CLI's config check."""
        m = train_from_corpus([(1, MAX_VOCAB_SIZE)], MAX_VOCAB_SIZE)
        assert MAX_BLOCK_CELLS == 1024 * MAX_VOCAB_SIZE
        message = "L 1025 x vocabulary 1024 = 1049600 marginals per block, above the limit of 1048576"
        with pytest.raises(ValueError, match="^%s$" % message):
            score(m, SequenceState.initial((1,), 1, 1025))

    @pytest.mark.parametrize(
        "score, shape",
        [
            (lambda m, state: forward_batched(m, state, [(1, MASK, MASK), (1, 2, 3)]), (3, 3, 12)),
            (lambda m, state: forward_many(m, [state, state]), (2, 3, 12)),
            (lambda m, state: forward_many(m, []), (0, 0, 12)),
        ],
        ids=["forward_batched", "forward_many", "forward_many-empty"],
    )
    def test_rows_are_one_read_only_array(self, model, score, shape):
        rows = score(model, SequenceState.initial((2,), 1, 3))
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.shape == shape
        assert not rows.flags.writeable

    def test_state_checks_hold_with_drafts(self, model):
        done = SequenceState.initial((1,), 1, 2).with_active_block(BlockState(tokens=(1, 2)))
        with pytest.raises(ValueError, match="nothing to denoise"):
            forward_batched(model, done, [(1, 2)])


LAMBDAS = ((0.7, 0.1, 0.2), (0.6, 0.3, 0.1), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0))


@st.composite
def models(draw):
    """A model trained on a generated corpus over 1..V, V from 1 to 6."""
    vocab = draw(st.integers(1, 6))
    tokens = st.integers(1, vocab)
    corpus = draw(st.lists(st.lists(tokens, min_size=1, max_size=8), min_size=1, max_size=4))
    return train_from_corpus(
        corpus, vocab, alpha=draw(st.sampled_from((0.5, 1.0, 0.01))), lambdas=draw(st.sampled_from(LAMBDAS))
    )


@st.composite
def valid_states(draw, vocab, length):
    """A valid state over ids 1..vocab whose active block has ``length``
    slots, one or more of them masked.  Prompts may be empty and any
    block may be active."""
    tokens = st.integers(1, vocab)
    num_blocks = draw(st.integers(1, 4))
    active = draw(st.integers(0, num_blocks - 1))
    current = draw(st.lists(st.one_of(st.just(MASK), tokens), min_size=length, max_size=length))
    current[draw(st.integers(0, length - 1))] = MASK
    complete = st.lists(tokens, min_size=length, max_size=length)
    blocks = [BlockState(tokens=tuple(draw(complete))) for _ in range(active)]
    blocks.append(BlockState(tokens=tuple(current)))
    blocks += [BlockState.masked(length)] * (num_blocks - active - 1)
    return SequenceState(prompt=tuple(draw(st.lists(tokens, max_size=5))), blocks=tuple(blocks), active=active)


@st.composite
def batched_cases(draw):
    """A model, a valid state, and drafts that take any tokens (complete
    ones included), not only extensions of the block."""
    m = draw(models())
    length = draw(st.integers(1, 9))
    state = draw(valid_states(m.vocab_size, length))
    tokens = st.integers(1, m.vocab_size)
    partial = st.lists(st.one_of(st.just(MASK), tokens), min_size=length, max_size=length)
    complete = st.lists(tokens, min_size=length, max_size=length)
    drafts = [BlockState(tokens=tuple(d)) for d in draw(st.lists(st.one_of(partial, complete), max_size=16))]
    return m, state, drafts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(batched_cases())
def test_batched_pass_matches_the_scalar_reference_byte_for_byte(case):
    m, state, drafts = case
    target, *per_draft = forward_batched(m, state, [d.tokens for d in drafts])
    want_target, want_drafts = scalar_forward_batched(m, state, drafts)
    assert target.tobytes() == want_target.tobytes()
    assert len(per_draft) == len(want_drafts)
    for got, want in zip(per_draft, want_drafts):
        assert got.tobytes() == want.tobytes()


def id_bounds(vocab):
    """Half the time (MASK, vocab); otherwise bounds that reach past
    1..vocab on both sides."""
    return st.sampled_from(((-2, vocab + 2), (MASK, vocab)))


@st.composite
def range_states(draw, vocab, length, bounds):
    """A well-formed state whose active block has ``length`` slots and ids
    drawn within ``bounds``: past 1..vocab, they may be too large anywhere
    and negative in the prompt (a BlockState rejects negative ids itself)."""
    low, high = bounds
    num_blocks = draw(st.integers(1, 3))
    active = draw(st.integers(0, num_blocks - 1))
    row = st.lists(st.integers(low, high), min_size=length, max_size=length)
    filled = st.lists(st.integers(1, max(high, 1)), min_size=length, max_size=length)
    prompt = draw(st.lists(st.integers(low, high).filter(lambda t: t != MASK), max_size=4))
    blocks = [BlockState(tokens=tuple(draw(filled))) for _ in range(active)]
    current = [max(t, MASK) for t in draw(row)]
    current[draw(st.integers(0, length - 1))] = MASK
    blocks.append(BlockState(tokens=tuple(current)))
    blocks += [BlockState.masked(length)] * (num_blocks - active - 1)
    return SequenceState(prompt=tuple(prompt), blocks=tuple(blocks), active=active)


@st.composite
def range_cases(draw):
    """A model over 1..V, a well-formed state and same-length drafts.  Half
    the cases may hold ids outside 1..V, negative ones in the prompt and
    the drafts too."""
    vocab = draw(st.integers(1, 5))
    m = train_from_corpus([tuple(range(1, vocab + 1))], vocab)
    length = draw(st.integers(1, 5))
    low, high = draw(id_bounds(vocab))
    state = draw(range_states(vocab, length, (low, high)))
    drafts = draw(st.lists(st.lists(st.integers(low, high), min_size=length, max_size=length).map(tuple), max_size=6))
    return m, state, drafts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(range_cases())
def test_token_range_error_names_the_first_bad_token(case):
    """The error names the first id outside MASK and 1..V of a plain scan:
    the sequence first, then the drafts in order.  Valid inputs pass."""
    m, state, drafts = case
    v = m.vocab_size
    scanned = (state.prompt, state.generated_tokens(), *drafts)
    bad = [t for tokens in scanned for t in tokens if t != MASK and not 1 <= t <= v]
    if not bad:
        rows = forward_batched(m, state, drafts)
        assert rows.shape == (1 + len(drafts), state.active_block.length, v)
        return
    with pytest.raises(ValueError, match="^token %d outside 1..%d$" % (bad[0], v)):
        forward_batched(m, state, drafts)


def _outcome(m, state, drafts):
    """forward_batched's result bytes, or its error text."""
    try:
        rows = forward_batched(m, state, drafts)
    except ValueError as exc:
        return str(exc)
    return rows.tobytes()


@st.composite
def reached_cases(draw):
    """A model over 1..V, a state reached from ``initial`` by any mix of
    ``with_active_block`` with any same-length block and ``advance_block``
    when the active block is complete, and same-length drafts.  Half the
    cases may hold ids outside 1..V: in the prompt, in any block and in
    the drafts."""
    vocab = draw(st.integers(1, 5))
    m = train_from_corpus([tuple(range(1, vocab + 1))], vocab)
    length = draw(st.integers(1, 4))
    low, high = draw(id_bounds(vocab))
    prompt = draw(st.lists(st.integers(low, high).filter(lambda t: t != MASK), max_size=4))
    state = SequenceState.initial(tuple(prompt), draw(st.integers(1, 4)), length)
    complete = st.lists(st.integers(1, max(high, 1)), min_size=length, max_size=length)
    any_block = st.lists(st.integers(MASK, max(high, 1)), min_size=length, max_size=length)
    for _ in range(draw(st.integers(0, 10))):
        if state.active_block.is_complete and state.active + 1 < len(state.blocks) and draw(st.booleans()):
            state = state.advance_block()
        else:
            state = state.with_active_block(BlockState(tokens=tuple(draw(st.one_of(complete, any_block)))))
    drafts = draw(st.lists(st.lists(st.integers(low, high), min_size=length, max_size=length).map(tuple), max_size=4))
    return m, state, drafts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reached_cases())
def test_reached_state_equals_the_constructed_one(case):
    """``with_active_block`` skips the order check rather than redoing
    it; the state it reaches equals the one the constructor builds from
    the same fields, and a model call gives both the same bytes or the
    same error text."""
    m, state, drafts = case
    built = SequenceState(prompt=state.prompt, blocks=state.blocks, active=state.active)
    assert state == built and hash(state) == hash(built)
    assert _outcome(m, state, drafts) == _outcome(m, built, drafts)


# ---------------------------------------------------------------------------
# several sequences in one call
# ---------------------------------------------------------------------------


@st.composite
def many_cases(draw):
    """A model and states of one block length, drawn with repeats from a
    small pool of states on any block."""
    m = draw(models())
    length = draw(st.integers(1, 9))
    pool = draw(st.lists(valid_states(m.vocab_size, length), min_size=1, max_size=4))
    return m, [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(many_cases())
def test_forward_many_rows_equal_draft_free_forwards(case):
    """Row i is byte-equal to a draft-free ``forward_batched`` of state i,
    repeats included."""
    m, states = case
    want = [forward_batched(m, s, [])[0].tobytes() for s in states]
    assert [g.tobytes() for g in forward_many(m, states)] == want


@st.composite
def odd_states(draw, vocab, length):
    """A state ``forward_batched`` rejects for its shape, not its ids: the
    active block complete."""
    full = BlockState(tokens=tuple(draw(st.lists(st.integers(1, vocab), min_size=length, max_size=length))))
    return SequenceState(prompt=(1,), blocks=(full,), active=0)


@st.composite
def many_error_cases(draw):
    """A model over 1..V and states of one block length, each of which
    may hold ids outside 1..V, with an odd state put in at any place half
    the time."""
    vocab = draw(st.integers(1, 5))
    m = train_from_corpus([tuple(range(1, vocab + 1))], vocab)
    length = draw(st.integers(1, 5))
    states = draw(st.lists(id_bounds(vocab).flatmap(lambda b: range_states(vocab, length, b)), min_size=1, max_size=5))
    if draw(st.booleans()):
        states.insert(draw(st.integers(0, len(states))), draw(odd_states(vocab, length)))
    return m, states


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(many_error_cases())
def test_forward_many_raises_the_first_bad_states_error(case):
    """A list holding states ``forward_batched`` rejects raises the error
    text of the first one; a list without any scores every state."""
    m, states = case
    outcomes = [_outcome(m, s, []) for s in states]
    errors = [o for o in outcomes if isinstance(o, str)]
    if not errors:
        assert [g.tobytes() for g in forward_many(m, states)] == outcomes
        return
    with pytest.raises(ValueError, match="^%s$" % re.escape(errors[0])):
        forward_many(m, states)


class TestForwardMany:
    def test_no_states_no_rows(self, model):
        assert forward_many(model, []).shape == (0, 0, model.vocab_size)

    def test_block_lengths_must_agree(self, model):
        states = [SequenceState.initial((2,), 1, 4), SequenceState.initial((3,), 2, 3)]
        with pytest.raises(ValueError, match="^state 1 has active block length 3, state 0 has 4$"):
            forward_many(model, states)

    def test_equal_states_each_get_a_row(self, model):
        state = SequenceState.initial((2, 3), 2, 4)
        got = forward_many(model, [state, state, SequenceState.initial((2, 3), 2, 4)])
        assert len(got) == 3
        assert all(g.tobytes() == forward_batched(model, state, [])[0].tobytes() for g in got)


class TestPinnedRows:
    """sha256 of the target's and every draft's marginals bytes for fixed
    states at the README settings (corpus seed 7, W=32, L=8): the first
    prompt of seed 11 with block 0 active, then with block 2 active."""

    PROMPT = synthetic.make_prompts(11, 1)[0]

    @pytest.mark.parametrize(
        "committed, active, current, drafts, digest",
        [
            ((), 0, (0,) * 8, [], "672c6afa5d85eaae54ef5b45f7dd451fdbe2f14d4b3f3c2f3f3afb7d68a294b9"),
            (
                (),
                0,
                (0, 3, 0, 0, 0, 0, 0, 0),
                [(0, 3, 4, 0, 0, 0, 0, 0), (5, 3, 4, 0, 0, 0, 0, 0)],
                "37fd81c7b1f55e97d777f5566dd0e483174aa6d6f4d4cb4d51748f19c9cca889",
            ),
            (
                ((1, 2, 3, 4, 5, 6, 7, 8), (9, 10, 11, 12, 1, 2, 3, 4)),
                2,
                (0, 0, 6, 0, 0, 0, 7, 0),
                [(5, 0, 6, 0, 0, 0, 7, 0), (5, 5, 6, 5, 5, 5, 7, 5), (0, 0, 6, 0, 0, 0, 7, 0)],
                "eff24c80c037dbeb30cb90676891ef989bcb0b61fcd074fcf909acae0ac0efc3",
            ),
        ],
        ids=["empty-block", "block0-two-drafts", "block2-three-drafts"],
    )
    def test_marginals_bytes(self, model, committed, active, current, drafts, digest):
        blocks = [BlockState(tokens=b) for b in committed] + [BlockState(tokens=current)]
        blocks += [BlockState.masked(8)] * (4 - len(blocks))
        state = SequenceState(prompt=self.PROMPT, blocks=tuple(blocks), active=active)
        hashed = hashlib.sha256(forward_batched(model, state, drafts).tobytes())
        assert hashed.hexdigest() == digest


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------


class TestModelFiles:
    def test_corpus_round_trip(self):
        seqs = [(1, 2, 3), (4,), (2, 2)]
        assert parse_corpus(format_corpus(seqs)) == seqs

    def test_corpus_rejects_non_integer(self):
        with pytest.raises(ValueError, match="c.txt:2"):
            parse_corpus("1 2\n3 x\n", source="c.txt")

    def test_corpus_rejects_nonpositive_ids(self):
        with pytest.raises(ValueError, match=">= 1"):
            parse_corpus("1 0 2\n")

    def test_corpus_ids_stop_at_the_vocabulary_limit(self):
        assert parse_corpus("1 %d\n" % MAX_VOCAB_SIZE) == [(1, MAX_VOCAB_SIZE)]
        with pytest.raises(ValueError, match="^c.txt:3: token 1025 outside corpus vocabulary 1..1024$"):
            parse_corpus("1 2\n\n%d 1\n" % (MAX_VOCAB_SIZE + 1), source="c.txt")

    def test_blank_text_gives_no_sequences(self):
        assert parse_corpus("\n \t\n") == []
