"""Lossless draft verification.

One verify call owns one model call's worth of progress: advance the
block once with the target's rows, then repeatedly look up the state
just reached among the drafts by content.  A draft is accepted exactly
when its tokens equal that state over the whole block, which also means
it unmasks the same number of slots: content equality implies the
cumulative-step match.  The accepted draft equals the state vanilla
decoding would have produced, so its rows of the same call are the
model's distribution for that exact state and can drive the next
advance for free.  On a miss we simply stop with whatever the target
produced: output never depends on draft quality, only speed does.

``verify`` returns the steps it took, one ``StepRecord`` each, and the
(L, V) rows its last step read: the first step reads the target's rows
of the call, each later one an accepted draft's.  With no drafts it
takes the one step of vanilla decoding.  The last step holds the block
after the call; its uncommitted order and the returned rows are what
the engine ranks the next drafts from.  No record keeps rows, so a
decode holds one call's array at a time.

``advance`` is the one denoising step, shared by verification and
calibration: it ranks the block's masked positions once and commits
the scheduled prefix of that order.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .core import BlockState, UnmaskSchedule, unmask
from .drafting import order_positions


class StepRecord(NamedTuple):
    """One denoising step; a tuple record, since one is built per step.

    ``ordered`` is the step's position ranking: ``order_positions`` of
    its rows' top-1 probabilities over the block before the step.  The
    step committed ``ordered[:realized]``, so ``ordered[realized:]``
    ranks the masked positions of ``state_after`` under those rows.
    """

    ordered: Tuple[int, ...]
    state_after: BlockState
    realized: int


def advance(block: BlockState, rows: np.ndarray, schedule: UnmaskSchedule) -> StepRecord:
    """One denoising step: rank ``block``'s masked positions under
    ``rows``, the (L, V) marginals of one model call for it, then commit
    the scheduled prefix of that order.

    Fixed{s} takes the first min(s, masked) positions; Threshold{p} takes
    the prefix whose top-1 probability clears p, and at least one
    position.  Each chosen position commits its argmax token (ties toward
    the lower id) into one token list, so a step builds one
    ``BlockState`` however many it commits.
    """
    if block.is_complete:
        raise ValueError("advance on a fully unmasked block")
    if rows.ndim != 2 or len(rows) != block.length:
        raise ValueError("rows of shape %s for a block of length %d" % (rows.shape, block.length))
    top1 = np.maximum.reduce(rows, axis=1).tolist()
    ordered = order_positions(top1, block)
    if schedule.kind == "fixed":
        count = min(schedule.tokens_per_step, len(ordered))
    else:
        # ordered is descending in top-1, so the first miss ends the prefix
        count = 1
        while count < len(ordered) and top1[ordered[count]] >= schedule.threshold:
            count += 1
    tokens = list(block.tokens)
    for n in ordered[:count]:
        # argmax returns the first maximum: ties go to the lower token id
        unmask(tokens, n, int(rows[n].argmax()) + 1)
    return StepRecord(ordered, BlockState(tuple(tokens)), count)


def verify(
    block: BlockState,
    drafts: Sequence[Tuple[int, ...]],
    rows: np.ndarray,
    schedule: UnmaskSchedule,
) -> Tuple[Tuple[StepRecord, ...], np.ndarray]:
    """The steps one model call takes, and the rows the last one read:
    advance once with the target's rows, then once more from each
    accepted draft's rows.

    ``drafts`` are the token tuples ``forward_batched`` scored and
    ``rows`` is what it returned: ``rows[0]`` is the target's (L, V)
    marginals and ``rows[1 + d]`` those of ``drafts[d]``.  After every
    advance the new state's tokens are looked up among the drafts; a hit
    is accepted and its rows drive the next advance.  Equal tokens mean
    an equal unmasked count, so a threshold step that jumps past a
    draft's count simply never finds it.  When two drafts have the same
    tokens the first in scan order wins.  A state never repeats within a
    call (each advance commits at least one slot), so no draft can be
    accepted twice.
    """
    if len(rows) != 1 + len(drafts):
        raise ValueError("%d rows for the target and %d drafts" % (len(rows), len(drafts)))
    step_rows = rows[0]
    steps = [advance(block, step_rows, schedule)]
    state = steps[-1].state_after
    # the lookup first: with no drafts (vanilla decoding) it ends the loop at once
    while state.tokens in drafts and not state.is_complete:
        step_rows = rows[1 + drafts.index(state.tokens)]
        steps.append(advance(state, step_rows, schedule))
        state = steps[-1].state_after
    return tuple(steps), step_rows
