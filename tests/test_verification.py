"""Tests for the advance step and draft verification.

Drafts here are handcrafted token tuples so each oracle controls
exactly which chain verify can walk; losslessness against real spawned
drafts is exercised end to end in the engine and acceptance suites.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import with_token

from blockspec.core import MASK, BlockState, UnmaskSchedule
from blockspec.drafting import order_positions
from blockspec.verification import StepRecord, verify


def _marginals(rows, vocab=4):
    """One block's (L, V) rows, each zero-padded to ``vocab``."""
    out = np.zeros((len(rows), vocab), dtype=np.float64)
    for n, row in enumerate(rows):
        out[n, : len(row)] = row
    return out


def _step(block, rows, schedule):
    """The one step ``verify`` takes on one block's (L, V) ``rows`` with
    no drafts: ``advance`` on each row's largest probability and the
    first column that holds it."""
    (step,), _ = verify(block, [], rows[None], schedule)
    return step


def _rows(target, *drafts):
    """The target's and the drafts' (1 + D, L, V) rows, as forward_batched
    returns them."""
    return np.array([target, *drafts])


# ---------------------------------------------------------------------------
# advance
# ---------------------------------------------------------------------------


class TestAdvance:
    def test_fixed1_takes_top_position_argmax_token(self):
        m = _marginals([[0.2, 0.0, 0.0], [0.1, 0.8, 0.1], [0.5, 0.0, 0.0]])
        block = BlockState.masked(3)
        step = _step(block, m, UnmaskSchedule.fixed(1))
        assert step.realized == 1
        assert step.state_after.tokens == (0, 2, 0)
        # the step carries the ranking it committed a prefix of
        assert step.ordered == (1, 2, 0)

    def test_fixed_clamps_to_masked_count(self):
        m = _marginals([[0.9], [0.0], [0.8]])
        block = BlockState(tokens=(0, 5, 0))
        step = _step(block, m, UnmaskSchedule.fixed(4))
        assert step.realized == 2
        assert step.state_after.is_complete

    def test_threshold_takes_all_clearing_positions(self):
        m = _marginals([[0.95], [0.91], [0.5]])
        step = _step(BlockState.masked(3), m, UnmaskSchedule.at_threshold(0.9))
        assert step.realized == 2
        assert step.state_after.tokens == (1, 1, 0)

    def test_threshold_floor_of_one(self):
        m = _marginals([[0.5], [0.4]])
        step = _step(BlockState.masked(2), m, UnmaskSchedule.at_threshold(0.9))
        assert step.realized == 1
        assert step.state_after.tokens == (1, 0)

    def test_position_and_token_ties_break_low(self):
        m = _marginals([[0.0, 0.4, 0.4], [0.4, 0.4, 0.0]])
        step = _step(BlockState.masked(2), m, UnmaskSchedule.fixed(1))
        # equal top-1 probs: position 0 wins; equal probs inside the row:
        # lower token id wins
        assert step.state_after.tokens == (2, 0)

    def test_complete_block_is_error(self):
        m = _marginals([[1.0]])
        with pytest.raises(ValueError, match="fully unmasked"):
            _step(BlockState(tokens=(3,)), m, UnmaskSchedule.fixed(1))

    def test_commits_the_one_based_argmax(self):
        """Row column ``t`` is token ``t + 1``: token 0 is the mask."""
        step = _step(BlockState.masked(1), np.array([[0.2, 0.3, 0.5]]), UnmaskSchedule.fixed(1))
        assert step.state_after.tokens == (3,)

    def test_argmax_tie_breaks_to_lower_id(self):
        step = _step(BlockState.masked(1), np.array([[0.4, 0.4, 0.2]]), UnmaskSchedule.fixed(1))
        assert step.state_after.tokens == (1,)

    def test_reads_the_rows_without_writing_or_freezing_them(self):
        """A step neither writes the caller's rows nor changes their
        flags: model rows come read-only, and other rows stay as given."""
        rows = _marginals([[0.2, 0.0, 0.0], [0.1, 0.8, 0.1]])
        before = rows.tobytes()
        _step(BlockState.masked(2), rows, UnmaskSchedule.fixed(2))
        assert rows.tobytes() == before and rows.flags.writeable
        rows.flags.writeable = False
        assert _step(BlockState.masked(2), rows, UnmaskSchedule.fixed(2)).state_after.tokens == (1, 2)


@pytest.mark.parametrize(
    "rows",
    [
        np.full(1, 0.5),  # one row's worth
        np.full((1, 4), 0.25),  # one block's rows, not a call's
        np.full((1, 1, 2, 4), 0.25),  # one more axis, with the block's length
        np.full((1, 3, 4), 0.25),  # three rows for two slots, not read in part
        np.full((1, 1, 4), 0.25),
    ],
    ids=["1-D", "2-D", "4-D", "too-long", "too-short"],
)
def test_verify_rejects_rows_that_do_not_fit_the_block(rows):
    """The call's rows are checked once, before any step reads a slice."""
    want = "^rows of shape %s for a block of length 2$" % re.escape(str(rows.shape))
    with pytest.raises(ValueError, match=want):
        verify(BlockState.masked(2), [], rows, UnmaskSchedule.fixed(1))


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
    return BlockState(tokens=tuple(tokens)), rows, schedule


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(advance_cases())
def test_advance_equals_committing_the_prefix_one_token_at_a_time(case):
    block, rows, schedule = case
    top1 = [max(row) for row in rows.tolist()]
    ordered = order_positions(top1, block)
    if schedule.kind == "fixed":
        count = min(schedule.tokens_per_step, len(ordered))
    else:
        count = 1
        while count < len(ordered) and top1[ordered[count]] >= schedule.threshold:
            count += 1
    want = block
    for n in ordered[:count]:
        want = with_token(want, n, int(rows[n].argmax()) + 1)
    step = _step(block, rows, schedule)
    assert (step.ordered, step.state_after, step.realized) == (ordered, want, count)


@pytest.mark.parametrize("schedule", [UnmaskSchedule.fixed(s) for s in (1, 3, 8)] + [UnmaskSchedule.at_threshold(0.1)])
def test_advance_builds_one_block_state_however_many_tokens_it_commits(monkeypatch, schedule):
    m = _marginals([[0.5, 0.5]] * 8)
    block = BlockState.masked(8)
    built = []
    check = BlockState.__post_init__
    monkeypatch.setattr(BlockState, "__post_init__", lambda self: (built.append(self), check(self)))
    step = _step(block, m, schedule)
    assert step.realized == min(schedule.tokens_per_step or 8, 8)
    assert built == [step.state_after]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_no_drafts_single_step(self):
        target = _marginals([[0.2], [0.9], [0.5]])
        steps, last_rows = verify(BlockState.masked(3), [], _rows(target), UnmaskSchedule.fixed(1))
        assert isinstance(steps, tuple) and all(isinstance(s, StepRecord) for s in steps)
        (step,) = steps
        assert last_rows.tobytes() == target.tobytes()
        assert step.realized == 1
        assert step.state_after.tokens == (0, 1, 0)
        # the target's order minus the committed position: 0.5 before 0.2
        assert step.ordered[step.realized :] == (2, 0)

    def test_acceptance_chain_walks_matching_drafts(self):
        """Two drafts that reproduce the greedy path give three steps,
        each after the first driven by the accepted draft's rows."""
        target = _marginals([[0.2], [0.9], [0.5]])          # step 1: pos 1 -> 1
        m1 = _marginals([[0.3], [0.0], [0.0, 0.7]])          # step 2: pos 2 -> 2
        m2 = _marginals([[0.0, 0.0, 0.6], [0.0], [0.0]])     # step 3: pos 0 -> 3
        drafts = [(0, 1, 0), (0, 1, 2)]
        steps, last_rows = verify(BlockState.masked(3), drafts, _rows(target, m1, m2), UnmaskSchedule.fixed(1))
        assert [s.state_after.tokens for s in steps] == [(0, 1, 0), (0, 1, 2), (3, 1, 2)]
        assert last_rows.tobytes() == m2.tobytes()
        assert tuple(s.realized for s in steps) == (1, 1, 1)
        assert steps[-1].ordered[steps[-1].realized :] == ()

    def test_one_token_mismatch_rejects(self):
        target = _marginals([[0.2], [0.9], [0.5]])
        bad = (0, 2, 0)  # wrong token at position 1
        m1 = _marginals([[0.3], [0.0], [0.7]])
        steps, last_rows = verify(BlockState.masked(3), [bad], _rows(target, m1), UnmaskSchedule.fixed(1))
        assert len(steps) == 1
        assert last_rows.tobytes() == target.tobytes()

    def test_first_of_equal_drafts_wins(self):
        """Equal tokens, different rows: the draft first in scan order is
        the one adopted, and its rows drive the next advance."""
        target = _marginals([[0.2], [0.9], [0.5]])
        first = _marginals([[0.3], [0.0], [0.0, 0.7]])  # commits pos 2 -> 2
        second = _marginals([[0.0, 0.0, 0.8], [0.0], [0.1]])  # would commit pos 0 -> 3
        drafts = [(0, 1, 0), (0, 1, 0)]
        steps, last_rows = verify(BlockState.masked(3), drafts, _rows(target, first, second), UnmaskSchedule.fixed(1))
        assert len(steps) == 2
        assert last_rows.tobytes() == first.tobytes()
        assert steps[1].state_after.tokens == (0, 1, 2)

    def test_committed_slot_must_match_too(self):
        target = _marginals([[0.2], [0.9], [0.5]])
        start = BlockState(tokens=(0, 0, 9))
        wrong = (0, 1, 4)  # disagrees on the old slot
        m1 = _marginals([[0.3], [0.0], [0.0]])
        steps, _ = verify(start, [wrong], _rows(target, m1), UnmaskSchedule.fixed(1))
        assert len(steps) == 1

    def test_complete_state_stops_before_scanning(self):
        """A draft matching the finished block is never accepted."""
        target = _marginals([[0.0], [0.9]])
        start = BlockState(tokens=(5, 0))
        finished = (5, 1)
        m1 = _marginals([[0.0], [0.0]])
        steps, _ = verify(start, [finished], _rows(target, m1), UnmaskSchedule.fixed(1))
        assert len(steps) == 1
        assert steps[0].state_after.is_complete

    def test_threshold_step_can_jump_past_draft(self):
        target = _marginals([[0.95], [0.91], [0.5]])
        d = (1, 0, 0)
        m1 = _marginals([[0.0], [0.9], [0.0]])
        steps, _ = verify(BlockState.masked(3), [d], _rows(target, m1), UnmaskSchedule.at_threshold(0.9))
        assert tuple(s.realized for s in steps) == (2,)

    @pytest.mark.parametrize("accepted", [0, 1, 2])
    def test_last_rows_are_a_view_of_the_call(self, accepted):
        """The returned rows are the slice of the call's array that the
        last step read, not a copy: the engine ranks from them and no
        other rows outlive the call."""
        target = _marginals([[0.2], [0.9], [0.5]])
        m1 = _marginals([[0.3], [0.0], [0.0, 0.7]])
        m2 = _marginals([[0.0, 0.0, 0.6], [0.0], [0.0]])
        drafts = [(0, 1, 0), (0, 1, 2)][:accepted]
        rows = _rows(target, m1, m2)[: 1 + accepted]
        rows.flags.writeable = False
        steps, last_rows = verify(BlockState.masked(3), drafts, rows, UnmaskSchedule.fixed(1))
        assert len(steps) == 1 + accepted
        assert last_rows.shape == (3, 4) and np.shares_memory(last_rows, rows[accepted])
        assert last_rows.tobytes() == rows[accepted].tobytes() and not last_rows.flags.writeable

    def test_misaligned_lists_error(self):
        target = _marginals([[0.5]])
        with pytest.raises(ValueError, match="^1 rows for the target and 1 drafts$"):
            verify(BlockState.masked(1), [(1,)], _rows(target), UnmaskSchedule.fixed(1))
