"""Scalar reference for ``blockspec.model.forward_batched``.

This is the per-position forward the batched pass replaced: it walks the
whole sequence from each masked slot to its nearest unmasked neighbours
and mixes one row at a time, and it scores every draft by an independent
forward of the state with that draft in place.  Tests compare the
batched pass against it byte for byte.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from blockspec.core import MASK, BlockState, SequenceState


def one_hot_rows(block: BlockState, vocab_size: int) -> np.ndarray:
    """Degenerate (L, V) rows for a fully unmasked block: every row one-hot."""
    if not block.is_complete:
        raise ValueError("one_hot_rows needs a complete block")
    rows = np.zeros((block.length, vocab_size), dtype=np.float64)
    for n, t in enumerate(block.tokens):
        rows[n, t - 1] = 1.0
    return rows


def _nearest_unmasked(tokens: Sequence[int], start: int, step: int) -> Optional[Tuple[int, int]]:
    """(token, masked positions skipped) walking from ``start`` by ``step``."""
    gap = 0
    i = start
    while 0 <= i < len(tokens):
        if tokens[i] != MASK:
            return tokens[i], gap
        gap += 1
        i += step
    return None


def scalar_forward(model, state: SequenceState) -> np.ndarray:
    block = state.active_block
    if block.is_complete:
        raise ValueError("nothing to denoise: active block fully unmasked")
    sequence = state.prompt + state.generated_tokens()
    offset = len(state.prompt) + state.active * block.length
    for t in sequence:
        if t != MASK and not (1 <= t <= model.vocab_size):
            raise ValueError("token %d outside 1..%d" % (t, model.vocab_size))

    rows = np.zeros((block.length, model.vocab_size), dtype=np.float64)
    for n, token in enumerate(block.tokens):
        if token != MASK:
            rows[n, token - 1] = 1.0
            continue
        g = offset + n
        left = _nearest_unmasked(sequence, g - 1, -1)
        right = _nearest_unmasked(sequence, g + 1, +1)
        w_left = model.lambda_left * 0.5 ** left[1] if left is not None else 0.0
        w_right = model.lambda_right * 0.5 ** right[1] if right is not None else 0.0
        w_uni = 1.0 - w_left - w_right
        row = w_uni * model._prob_uni
        if left is not None:
            row = row + w_left * model._prob_left[left[0]]
        if right is not None:
            row = row + w_right * model._prob_right[right[0]]
        rows[n] = row
    return rows


def scalar_forward_batched(
    model, state: SequenceState, drafts: Sequence[BlockState]
) -> Tuple[np.ndarray, List[np.ndarray]]:
    target = scalar_forward(model, state)
    per_draft = []
    for d in drafts:
        if d.is_complete:
            per_draft.append(one_hot_rows(d, model.vocab_size))
        else:
            per_draft.append(scalar_forward(model, state.with_active_block(d)))
    return target, per_draft
