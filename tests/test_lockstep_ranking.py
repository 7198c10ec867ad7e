"""Calibration's lockstep call, read as a whole.

One ``vocab_ranking`` ranks the vocabulary of every row of the
(B, L, V) array ``forward_many`` returns, and every row's step inputs,
its top-1 probability and the column that holds it, are read off that
ranking.  Each must give exactly what the per-block form gives: the
ranking what ``order_vocab`` gives, the step inputs what
``verification.verify`` reads off one (L, V) slice.  So every step
calibration takes is the step ``verify`` takes on its state's own slice
of the call, as vanilla decoding does.
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
    the rule is checked, not only that both forms share it.  The step
    inputs read off the whole array, as calibration reads them, equal
    the ones ``verify`` reads off each slice, bit for bit.  Rank 1 is
    the argmax + 1: the ranking and the commit state "ties toward the
    lower id" apart, and agree."""
    ranked = vocab_ranking(rows, top_k)
    length, vocab = rows.shape[-2:]
    assert ranked.shape == rows.shape[:-1] + (min(top_k, vocab),)
    assert np.array_equal(ranked[..., 0], rows.argmax(-1) + 1)
    top1, columns = map(np.array, calibration._step_inputs(rows, ranked))
    for index in np.ndindex(rows.shape[:-2]):
        block = rows[index]
        got = tuple(map(tuple, ranked[index].tolist()))
        assert got == order_vocab(block.copy(), range(length), top_k)
        assert got == tuple(
            tuple(sorted(range(1, vocab + 1), key=lambda t: (-block[n, t - 1], t))[:top_k]) for n in range(length)
        )
        # what ``verify`` reads off the slice
        assert top1[index].tobytes() == np.maximum.reduce(block, 1).tobytes()
        assert columns[index].tolist() == block.argmax(1).tolist()


def test_ranking_needs_a_positive_width():
    with pytest.raises(ValueError, match="^top_k must be >= 1, got 0$"):
        vocab_ranking(np.ones((2, 3, 4)), 0)


@pytest.mark.parametrize("schedule", ["fixed:1", "fixed:2", "threshold:0.4"])
def test_every_replayed_step_is_the_one_verify_takes_on_its_slice(model, prompts, monkeypatch, schedule):
    """Over a README calibration, every step equals the one step
    ``verification.verify`` takes, with no drafts, on its state's own
    (L, V) slice of the step's ``forward_many`` call, and in each call
    every live state steps once, in the call's order."""
    calls = []

    def recorded_forward_many(model, states):
        rows = forward_many(model, states)
        calls.append((states, rows, []))
        return rows

    def recorded_advance(block, top1, columns, schedule):
        step = advance(block, top1, columns, schedule)
        calls[-1][2].append((block, step))
        return step

    forward_many, advance = calibration.forward_many, verification.advance
    monkeypatch.setattr(calibration, "forward_many", recorded_forward_many)
    monkeypatch.setattr(verification, "advance", recorded_advance)
    config = make_config(schedule)
    collect_records(model, prompts, config, 4)
    monkeypatch.undo()
    assert len(calls) > 0
    assert sum(len(states) for states, _, _ in calls) > len(calls)
    for states, rows, stepped in calls:
        assert [block for block, _ in stepped] == [state.active_block for state in states]
        for i, (block, step) in enumerate(stepped):
            (want,), read = verification.verify(block, [], rows[i : i + 1], config.schedule)
            assert step == want and read.tobytes() == rows[i].tobytes()
