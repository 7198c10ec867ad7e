"""Calibration's lockstep call, ranked as a whole.

One ``vocab_ranking`` ranks the vocabulary of every row of the
(B, L, V) array ``forward_many`` returns, while each state steps from
its own (L, V) slice of it.  The ranking must give exactly what the
per-block form, ``order_vocab``, gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import make_config
from hypothesis import strategies as st

from blockspec import calibration, verification
from blockspec.calibration import collect_records
from blockspec.drafting import order_vocab, vocab_ranking

# few probability levels, so most rows hold equal entries and the tie
# rule decides the order
LEVELS = (0.0, 0.125, 0.25, 0.5)


@st.composite
def row_batches(draw):
    """Rows of shape (*leading, L, V) with zero to two leading axes."""
    leading = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    length, vocab = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    shape = leading + (length, vocab)
    values = draw(st.lists(st.sampled_from(LEVELS), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.float64).reshape(shape)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(row_batches(), st.integers(1, 7))
def test_batched_ranking_equals_order_vocab_row_by_row(rows, top_k):
    """Each row's ids also equal a plain sort by (-probability, id), so
    the rule is checked, not only that both forms share it."""
    ranked = vocab_ranking(rows, top_k)
    length, vocab = rows.shape[-2:]
    assert ranked.shape == rows.shape[:-1] + (min(top_k, vocab),)
    for index in np.ndindex(rows.shape[:-2]):
        block = rows[index]
        got = tuple(map(tuple, ranked[index].tolist()))
        assert got == order_vocab(block.copy(), range(length), top_k)
        assert got == tuple(
            tuple(sorted(range(1, vocab + 1), key=lambda t: (-block[n, t - 1], t))[:top_k]) for n in range(length)
        )


def test_ranking_needs_a_positive_width():
    with pytest.raises(ValueError, match="^top_k must be >= 1, got 0$"):
        vocab_ranking(np.ones((2, 3, 4)), 0)


@pytest.mark.parametrize("schedule", ["fixed:1", "fixed:2", "threshold:0.4"])
def test_each_state_steps_from_its_own_slice_of_the_lockstep_call(model, prompts, monkeypatch, schedule):
    """Every step of a README calibration reads, without a copy, one
    read-only (L, V) slice of the array the step's ``forward_many`` call
    returned, and the call's slices are read once each."""
    calls = []

    def recorded_forward_many(*args):
        rows = forward_many(*args)
        calls.append((rows, []))
        return rows

    def checked_advance(block, rows, schedule):
        call, read = calls[-1]
        (slot,) = [j for j in range(len(call)) if np.shares_memory(rows, call[j])]
        assert rows.shape == call[slot].shape and rows.tobytes() == call[slot].tobytes()
        assert not rows.flags.writeable
        read.append(slot)
        return advance(block, rows, schedule)

    forward_many, advance = calibration.forward_many, verification.advance
    monkeypatch.setattr(calibration, "forward_many", recorded_forward_many)
    monkeypatch.setattr(verification, "advance", checked_advance)
    collect_records(model, prompts, make_config(schedule), 4)
    assert len(calls) > 0
    assert all(read == list(range(len(call))) for call, read in calls)
    assert sum(len(call) for call, _ in calls) > len(calls)
