"""Calibration's lockstep call, reduced and ranked as a whole.

Calibration reads the (B, L, V) array ``forward_many`` returns twice:
``split_marginals`` takes every row's ``top1`` from one reduction over
it, and one ``vocab_ranking`` ranks the vocabulary of all its rows.
Both must give exactly what the per-block forms give: ``Marginals(rows)``
and ``order_vocab``.
"""

import numpy as np
import pytest
from conftest import make_config
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspec import calibration
from blockspec.calibration import collect_records
from blockspec.core import Marginals, split_marginals
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
        assert got == order_vocab(Marginals(block.copy()), range(length), top_k)
        assert got == tuple(
            tuple(sorted(range(1, vocab + 1), key=lambda t: (-block[n, t - 1], t))[:top_k]) for n in range(length)
        )


def test_ranking_needs_a_positive_width():
    with pytest.raises(ValueError, match="^top_k must be >= 1, got 0$"):
        vocab_ranking(np.ones((2, 3, 4)), 0)


@pytest.mark.parametrize("schedule", ["fixed:1", "fixed:2", "threshold:0.4"])
def test_lockstep_top1_bytes_equal_a_fresh_marginals(model, prompts, monkeypatch, schedule):
    """Every row of every call of a README calibration: ``top1`` has the
    bytes of ``Marginals`` built on a copy of the same rows."""
    checked = []

    def compared(rows):
        got = split_marginals(rows)
        for m in got:
            fresh = Marginals(m.rows.copy())
            assert np.array(m.top1).tobytes() == np.array(fresh.top1).tobytes()
            assert m.rows.tobytes() == fresh.rows.tobytes() and not m.rows.flags.writeable
        checked.append(len(got))
        return got

    monkeypatch.setattr(calibration, "split_marginals", compared)
    collect_records(model, prompts, make_config(schedule), 4)
    assert sum(checked) > len(checked) > 0
