"""Property tests for the one ranking rule.

Rows are drawn from a handful of probability levels, so equal top-1
values across positions and equal entries inside a row are common: the
tie-break rules, not the values, decide most of the orders checked here.
The last property is the suffix identity the decoders rely on: the order
the last step of ``verify`` leaves uncommitted, which the engine drafts
over, is exactly a fresh ranking of the block it produced, under the
rows that step read, which ``verify`` hands back.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspec.core import MASK, BlockState, UnmaskSchedule
from blockspec.drafting import order_positions, order_vocab
from blockspec.verification import verify
from conftest import advance_on_rows

LEVELS = (0.0, 0.125, 0.25, 0.5)
THRESHOLDS = (0.125, 0.25, 0.5, 1.0)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def sizes(draw):
    return draw(st.integers(1, 6)), draw(st.integers(1, 4))


@st.composite
def marginals(draw, length, vocab):
    rows = draw(
        st.lists(
            st.lists(st.sampled_from(LEVELS), min_size=vocab, max_size=vocab),
            min_size=length,
            max_size=length,
        )
    )
    return np.array(rows, dtype=np.float64)


@st.composite
def partial_blocks(draw, length, vocab):
    """A block with at least one masked position."""
    tokens = draw(st.lists(st.integers(MASK, vocab), min_size=length, max_size=length))
    tokens[draw(st.integers(0, length - 1))] = MASK
    return BlockState(tokens=tuple(tokens))


schedules = st.one_of(
    st.integers(1, 3).map(UnmaskSchedule.fixed),
    st.sampled_from(THRESHOLDS).map(UnmaskSchedule.at_threshold),
)


@PROPERTY
@given(st.data())
def test_positions_sort_by_descending_top1_then_index(data):
    length, vocab = data.draw(sizes())
    m = data.draw(marginals(length, vocab))
    block = data.draw(partial_blocks(length, vocab))
    row_max = m.max(axis=1).tolist()
    want = sorted(block.masked_positions, key=lambda n: (-row_max[n], n))
    assert order_positions(row_max, block) == tuple(want)


@PROPERTY
@given(st.data())
def test_vocab_sorts_by_descending_probability_then_id(data):
    length, vocab = data.draw(sizes())
    m = data.draw(marginals(length, vocab))
    positions = data.draw(st.lists(st.integers(0, length - 1), max_size=length))
    k = data.draw(st.integers(1, vocab + 1))
    want = tuple(
        tuple(sorted(range(1, vocab + 1), key=lambda t: (-m[n, t - 1], t))[:k]) for n in positions
    )
    assert order_vocab(m, positions, k) == want


@PROPERTY
@given(st.data())
def test_verify_hands_on_the_ranking_of_its_last_advance(data):
    """Drafts replay the vanilla chain after the target's step, each kept
    or dropped at random, so verify accepts a random-length prefix of it."""
    length, vocab = data.draw(sizes())
    schedule = data.draw(schedules)
    block = data.draw(partial_blocks(length, vocab))
    target = data.draw(marginals(length, vocab))
    drafts, rows = [], [target]
    state, m = block, target
    while True:
        state = advance_on_rows(state, m, schedule).state_after
        if state.is_complete:
            break
        m = data.draw(marginals(length, vocab))
        if data.draw(st.booleans()):
            drafts.append(state.tokens)
            rows.append(m)

    steps, last_rows = verify(block, drafts, np.array(rows), schedule)

    last = steps[-1]
    if last.state_after.is_complete:
        assert last.ordered[last.realized :] == ()
    else:
        assert last.ordered[last.realized :] == order_positions(last_rows.max(axis=1).tolist(), last.state_after)
