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
calibration: it ranks the block's masked positions once by their top-1
probabilities and commits the scheduled prefix of that order, each
position its top-1 token.  ``verify`` reads those two lists off one
(L, V) slice of its call's rows per step, as decoding steps;
calibration reads them off a whole lockstep call at once and steps
each state from its own pair of lists.
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


def advance(
    block: BlockState, top1: Sequence[float], columns: Sequence[int], schedule: UnmaskSchedule
) -> StepRecord:
    """One denoising step: rank ``block``'s masked positions by ``top1``,
    then commit the scheduled prefix of that order.  ``top1[n]`` is
    position n's largest probability under one model call's rows and
    ``columns[n]`` the first column of its row that holds it, so its
    top-1 token is ``columns[n] + 1``: ties go to the lower id.

    Fixed{s} takes the first min(s, masked) positions; Threshold{p} takes
    the prefix whose top-1 probability clears p, and at least one
    position.  Each chosen position commits its top-1 token into one
    token list, so a step builds one ``BlockState`` however many it
    commits.  The columns are 0-based, as a row's argmax gives them, so
    the + 1 is paid per commit, not per position.
    """
    if block.is_complete:
        raise ValueError("advance on a fully unmasked block")
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
        unmask(tokens, n, columns[n] + 1)
    # StepRecord(...) without the Python frame of its __new__
    return tuple.__new__(StepRecord, (ordered, BlockState(tuple(tokens)), count))


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
    accepted twice.  Each advance reads its inputs off the (L, V) rows
    that drive it: one reduction and one argmax.
    """
    if len(rows) != 1 + len(drafts):
        raise ValueError("%d rows for the target and %d drafts" % (len(rows), len(drafts)))
    if rows.ndim != 3 or rows.shape[1] != block.length:
        raise ValueError("rows of shape %s for a block of length %d" % (rows.shape, block.length))
    state, step_rows, steps = block, rows[0], []
    while True:
        top1, columns = np.maximum.reduce(step_rows, 1).tolist(), step_rows.argmax(1).tolist()
        steps.append(advance(state, top1, columns, schedule))
        state = steps[-1].state_after
        # with no drafts (vanilla decoding) the lookup ends the call at once
        if state.tokens not in drafts or state.is_complete:
            return tuple(steps), step_rows
        step_rows = rows[1 + drafts.index(state.tokens)]
