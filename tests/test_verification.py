"""Tests for the advance step and draft verification.

Drafts here are handcrafted DraftBlock records so each oracle controls
exactly which chain verify can walk; losslessness against real spawned
drafts is exercised end to end in the engine and acceptance suites.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspec.core import MASK, BlockState, Marginals, UnmaskSchedule
from blockspec.drafting import DraftBlock, DraftFormula, order_positions
from blockspec.verification import VerifyOutcome, advance, verify


def _marginals(rows, vocab=4):
    out = np.zeros((len(rows), vocab), dtype=np.float64)
    for n, row in enumerate(rows):
        out[n, : len(row)] = row
    return Marginals(rows=out)


def _advance(block, m, schedule):
    return advance(block, m, order_positions(m, block), schedule)


def _draft(tokens, level=1):
    return DraftBlock(tokens=tokens, formula=DraftFormula.of([(1, 1)]), level=level)


def _rows(*marginals, length=3, vocab=4):
    """The drafts' (D, L, V) rows, as forward_batched returns them."""
    return np.array([m.rows for m in marginals]).reshape(len(marginals), length, vocab)


# ---------------------------------------------------------------------------
# advance
# ---------------------------------------------------------------------------


class TestAdvance:
    def test_fixed1_takes_top_position_argmax_token(self):
        m = _marginals([[0.2, 0.0, 0.0], [0.1, 0.8, 0.1], [0.5, 0.0, 0.0]])
        block = BlockState.masked(3)
        out, realized = _advance(block, m, UnmaskSchedule.fixed(1))
        assert realized == 1
        assert out.tokens == (0, 2, 0)

    def test_fixed_clamps_to_masked_count(self):
        m = _marginals([[0.9], [0.0], [0.8]])
        block = BlockState(tokens=(0, 5, 0))
        out, realized = _advance(block, m, UnmaskSchedule.fixed(4))
        assert realized == 2
        assert out.is_complete

    def test_threshold_takes_all_clearing_positions(self):
        m = _marginals([[0.95], [0.91], [0.5]])
        out, realized = _advance(BlockState.masked(3), m, UnmaskSchedule.at_threshold(0.9))
        assert realized == 2
        assert out.tokens == (1, 1, 0)

    def test_threshold_floor_of_one(self):
        m = _marginals([[0.5], [0.4]])
        out, realized = _advance(BlockState.masked(2), m, UnmaskSchedule.at_threshold(0.9))
        assert realized == 1
        assert out.tokens == (1, 0)

    def test_position_and_token_ties_break_low(self):
        m = _marginals([[0.0, 0.4, 0.4], [0.4, 0.4, 0.0]])
        out, _ = _advance(BlockState.masked(2), m, UnmaskSchedule.fixed(1))
        # equal top-1 probs: position 0 wins; equal probs inside the row:
        # lower token id wins
        assert out.tokens == (2, 0)

    def test_complete_block_is_error(self):
        m = _marginals([[1.0]])
        with pytest.raises(ValueError, match="fully unmasked"):
            advance(BlockState(tokens=(3,)), m, (), UnmaskSchedule.fixed(1))

    def test_marginals_must_cover_the_block(self):
        """Three rows for a two-slot block are refused, not read in part."""
        m = _marginals([[0.9], [0.5], [0.1]])
        with pytest.raises(ValueError, match="^marginals cover 3 positions, block has 2$"):
            advance(BlockState.masked(2), m, (0, 1), UnmaskSchedule.fixed(1))


@st.composite
def advance_cases(draw):
    """A block with at least one masked slot, tie-heavy marginals over it,
    and a fixed or threshold schedule."""
    length = draw(st.integers(1, 8))
    vocab = draw(st.integers(1, 5))
    tokens = draw(st.lists(st.integers(MASK, vocab), min_size=length, max_size=length))
    tokens[draw(st.integers(0, length - 1))] = MASK
    cell = st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.9, 1.0))
    rows = np.array(draw(st.lists(st.lists(cell, min_size=vocab, max_size=vocab), min_size=length, max_size=length)))
    schedule = draw(
        st.one_of(
            st.integers(1, 9).map(UnmaskSchedule.fixed),
            st.sampled_from((0.1, 0.25, 0.5, 0.9, 1.0)).map(UnmaskSchedule.at_threshold),
        )
    )
    return BlockState(tokens=tuple(tokens)), Marginals(rows=rows), schedule


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(advance_cases())
def test_advance_equals_committing_the_prefix_one_token_at_a_time(case):
    block, m, schedule = case
    ordered = order_positions(m, block)
    if schedule.kind == "fixed":
        count = min(schedule.tokens_per_step, len(ordered))
    else:
        count = 1
        while count < len(ordered) and m.top1[ordered[count]] >= schedule.threshold:
            count += 1
    want = block
    for n in ordered[:count]:
        want = want.with_token(n, m.argmax_token(n))
    assert advance(block, m, ordered, schedule) == (want, count)


@pytest.mark.parametrize("schedule", [UnmaskSchedule.fixed(s) for s in (1, 3, 8)] + [UnmaskSchedule.at_threshold(0.1)])
def test_advance_builds_one_block_state_however_many_tokens_it_commits(monkeypatch, schedule):
    m = _marginals([[0.5, 0.5]] * 8)
    block = BlockState.masked(8)
    ordered = order_positions(m, block)
    built = []
    check = BlockState.__post_init__
    monkeypatch.setattr(BlockState, "__post_init__", lambda self: (built.append(self), check(self)))
    out, realized = advance(block, m, ordered, schedule)
    assert realized == min(schedule.tokens_per_step or 8, 8)
    assert built == [out]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_no_drafts_single_step(self):
        target = _marginals([[0.2], [0.9], [0.5]])
        out = verify(BlockState.masked(3), target, [], _rows(), UnmaskSchedule.fixed(1))
        assert isinstance(out, VerifyOutcome)
        assert len(out.realized_s) == 1
        assert out.accepted_levels == ()
        assert out.adopted_marginals is None
        assert out.realized_s == (1,)
        assert out.new_block.tokens == (0, 1, 0)
        # the target's order minus the committed position: 0.5 before 0.2
        assert out.remaining_order == (2, 0)

    def test_acceptance_chain_walks_matching_drafts(self):
        """Two drafts that reproduce the greedy path give three steps."""
        target = _marginals([[0.2], [0.9], [0.5]])          # step 1: pos 1 -> 1
        m1 = _marginals([[0.3], [0.0], [0.0, 0.7]])          # step 2: pos 2 -> 2
        m2 = _marginals([[0.0, 0.0, 0.6], [0.0], [0.0]])     # step 3: pos 0 -> 3
        d1 = _draft((0, 1, 0), level=1)
        d2 = _draft((0, 1, 2), level=2)
        out = verify(BlockState.masked(3), target, [d1, d2], _rows(m1, m2), UnmaskSchedule.fixed(1))
        assert len(out.realized_s) == 3
        assert out.accepted_levels == (1, 2)
        assert list(out.accepted_levels) == sorted(out.accepted_levels)
        assert out.adopted_marginals.rows.tobytes() == m2.rows.tobytes()
        assert out.new_block.tokens == (3, 1, 2)
        assert out.realized_s == (1, 1, 1)
        assert out.remaining_order == ()

    def test_one_token_mismatch_rejects(self):
        target = _marginals([[0.2], [0.9], [0.5]])
        bad = _draft((0, 2, 0))  # wrong token at position 1
        m1 = _marginals([[0.3], [0.0], [0.7]])
        out = verify(BlockState.masked(3), target, [bad], _rows(m1), UnmaskSchedule.fixed(1))
        assert len(out.realized_s) == 1
        assert out.accepted_levels == ()
        assert out.adopted_marginals is None

    def test_first_of_equal_drafts_wins(self):
        """Equal tokens, different rows: the draft first in scan order is
        the one adopted, and its rows drive the next advance."""
        target = _marginals([[0.2], [0.9], [0.5]])
        first = _marginals([[0.3], [0.0], [0.0, 0.7]])  # commits pos 2 -> 2
        second = _marginals([[0.0, 0.0, 0.8], [0.0], [0.1]])  # would commit pos 0 -> 3
        drafts = [_draft((0, 1, 0), level=1), _draft((0, 1, 0), level=2)]
        out = verify(BlockState.masked(3), target, drafts, _rows(first, second), UnmaskSchedule.fixed(1))
        assert out.accepted_levels == (1,)
        assert out.adopted_marginals.rows.tobytes() == first.rows.tobytes()
        assert out.new_block.tokens == (0, 1, 2)

    def test_committed_slot_must_match_too(self):
        target = _marginals([[0.2], [0.9], [0.5]])
        start = BlockState(tokens=(0, 0, 9))
        wrong = _draft((0, 1, 4))  # disagrees on the old slot
        m1 = _marginals([[0.3], [0.0], [0.0]])
        out = verify(start, target, [wrong], _rows(m1), UnmaskSchedule.fixed(1))
        assert len(out.realized_s) == 1

    def test_complete_state_stops_before_scanning(self):
        """A draft matching the finished block is never accepted."""
        target = _marginals([[0.0], [0.9]])
        start = BlockState(tokens=(5, 0))
        finished = _draft((5, 1))
        m1 = _marginals([[0.0], [0.0]])
        out = verify(start, target, [finished], _rows(m1, length=2), UnmaskSchedule.fixed(1))
        assert out.new_block.is_complete
        assert len(out.realized_s) == 1
        assert out.accepted_levels == ()

    def test_threshold_step_can_jump_past_draft(self):
        target = _marginals([[0.95], [0.91], [0.5]])
        d = _draft((1, 0, 0))
        m1 = _marginals([[0.0], [0.9], [0.0]])
        out = verify(BlockState.masked(3), target, [d], _rows(m1), UnmaskSchedule.at_threshold(0.9))
        assert out.realized_s == (2,)
        assert out.accepted_levels == ()

    def test_misaligned_lists_error(self):
        target = _marginals([[0.5]])
        with pytest.raises(ValueError, match="length mismatch"):
            verify(BlockState.masked(1), target, [_draft((1,))], _rows(length=1), UnmaskSchedule.fixed(1))
