"""Tests for the toy denoiser: training counts, the mixture forward pass,
and the batched-forward contract.

The mixture oracle is recomputed by hand inside the tests: smoothed
probabilities are (count + alpha) / (row_sum + alpha * V), and a masked
row is w_left * P_left + w_right * P_right + w_uni * P_uni with
w_side = lambda_side * 0.5^gap and w_uni absorbing the remainder.
"""

import numpy as np
import pytest

from blockspec.core import MASK, BlockState, SequenceState
from blockspec.model import (
    ToyDenoiser,
    forward,
    forward_batched,
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
        state = state.with_active_block(state.active_block.with_token(1, 1))
        got = forward(m, state)
        want0 = (
            0.6 * _smooth([0, 3]) + 0.3 * _smooth([0, 2]) + 0.1 * _smooth([3, 3])
        )
        assert np.allclose(got.rows[0], want0, atol=1e-12)
        assert got.argmax_token(0) == 2
        # position 1 is committed: one-hot on token 1
        assert got.rows[1].tolist() == [1.0, 0.0]

    def test_gap_decay_shifts_weight_to_unigram(self):
        """Right neighbor at gap 1 contributes lambda_right * 0.5."""
        m = _abab_model()
        state = SequenceState.initial((1,), 1, 3)
        state = state.with_active_block(state.active_block.with_token(2, 2))
        got = forward(m, state)
        w_left, w_right = 0.6, 0.3 * 0.5
        w_uni = 1.0 - w_left - w_right
        want0 = (
            w_left * _smooth([0, 3])
            + w_right * _smooth([3, 0])
            + w_uni * _smooth([3, 3])
        )
        assert np.allclose(got.rows[0], want0, atol=1e-12)

    def test_no_right_neighbor_at_sequence_end(self):
        m = _abab_model()
        state = SequenceState.initial((1,), 1, 3)
        state = state.with_active_block(state.active_block.with_token(1, 1))
        got = forward(m, state)
        # position 2: left neighbor token 1 at gap 0, nothing to the right
        want2 = 0.6 * _smooth([0, 3]) + 0.4 * _smooth([3, 3])
        assert np.allclose(got.rows[2], want2, atol=1e-12)

    def test_unigram_only_mixture_collapse(self):
        m = _abab_model(lambdas=(0.0, 0.0, 1.0))
        state = SequenceState.initial((1, 2), 1, 4)
        got = forward(m, state)
        for n in range(4):
            assert np.allclose(got.rows[n], _smooth([3, 3]), atol=1e-12)

    def test_deterministic(self, model):
        state = SequenceState.initial((2, 2), 2, 8)
        a = forward(model, state)
        b = forward(model, state)
        assert np.array_equal(a.rows, b.rows)

    def test_locality_beyond_nearest_neighbor(self, model):
        """Tokens shadowed by a nearer unmasked token cannot matter."""
        base = SequenceState.initial((3, 8), 2, 4)
        base = base.with_active_block(BlockState(tokens=(5, 6, 7, 8))).advance_block()
        changed = SequenceState(
            prompt=(9, 8), blocks=base.blocks, active=base.active
        )
        # every masked position in block 1 resolves its left neighbor inside
        # block 0; the prompt's first token is unreachable
        a = forward(model, base)
        b = forward(model, changed)
        assert np.array_equal(a.rows, b.rows)

    def test_rows_normalized(self, model):
        state = SequenceState.initial((2, 3, 4), 2, 8)
        state = state.with_active_block(state.active_block.with_token(3, 5))
        got = forward(model, state)
        sums = got.rows.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)
        assert np.all(got.rows >= 0.0) and np.all(got.rows <= 1.0)

    def test_complete_block_rejected(self, model):
        state = SequenceState.initial((1,), 1, 2)
        state = state.with_active_block(BlockState(tokens=(1, 2)))
        with pytest.raises(ValueError, match="nothing to denoise"):
            forward(model, state)

    def test_invalid_state_rejected(self, model):
        blocks = (BlockState.masked(2), BlockState(tokens=(1, MASK)))
        state = SequenceState(prompt=(1,), blocks=blocks, active=0)
        with pytest.raises(ValueError, match="invalid sequence state"):
            forward(model, state)


# ---------------------------------------------------------------------------
# batched forward
# ---------------------------------------------------------------------------


class TestForwardBatched:
    def test_empty_draft_list(self, model):
        state = SequenceState.initial((2,), 1, 4)
        target, per_draft = forward_batched(model, state, [])
        assert per_draft == []
        assert np.array_equal(target.rows, forward(model, state).rows)

    def test_identity_draft_equals_target(self, model):
        state = SequenceState.initial((2,), 1, 4)
        state = state.with_active_block(state.active_block.with_token(0, 2))
        target, per_draft = forward_batched(model, state, [state.active_block])
        assert np.array_equal(per_draft[0].rows, target.rows)

    def test_distinct_drafts_match_independent_forwards(self, model):
        state = SequenceState.initial((5, 6), 2, 4)
        block = state.active_block
        drafts = [
            block.with_token(0, 7),
            block.with_token(1, 8),
            block.with_token(0, 7).with_token(3, 2),
        ]
        _, per_draft = forward_batched(model, state, drafts)
        for d, got in zip(drafts, per_draft):
            want = forward(model, state.with_active_block(d))
            assert np.array_equal(got.rows, want.rows)

    def test_complete_draft_scores_one_hot(self, model):
        state = SequenceState.initial((2,), 1, 3)
        full = BlockState(tokens=(4, 5, 6))
        _, per_draft = forward_batched(model, state, [full])
        want = np.zeros((3, model.vocab_size))
        want[0, 3] = want[1, 4] = want[2, 5] = 1.0
        assert np.array_equal(per_draft[0].rows, want)

    def test_draft_length_mismatch_rejected(self, model):
        state = SequenceState.initial((2,), 1, 3)
        with pytest.raises(ValueError, match="length"):
            forward_batched(model, state, [BlockState.masked(2)])


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

    def test_corpus_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_corpus("\n\n")
