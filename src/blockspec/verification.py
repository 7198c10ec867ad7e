"""Lossless draft verification.

One verify call owns one model call's worth of progress: advance the
block once with the target marginals, then repeatedly look up the state
just reached among the drafts by content.  A draft is accepted exactly
when its tokens equal that state over the whole block, which also means
it unmasks the same number of slots: content equality implies the
cumulative-step match.  The accepted draft equals the state vanilla
decoding would have produced, so its marginals are the model's
distribution for that exact state and can drive the next advance for
free.  On a miss we simply stop with whatever the target produced:
output never depends on draft quality, only speed does.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import BlockState, Marginals, UnmaskSchedule, unmask
from .drafting import DraftBlock, order_positions


def advance(
    block: BlockState,
    marginals: Marginals,
    ordered: Sequence[int],
    schedule: UnmaskSchedule,
) -> Tuple[BlockState, int]:
    """One denoising step: commit the scheduled prefix of ``ordered``.

    ``ordered`` is ``order_positions(marginals, block)``, ranked once by
    the caller.  Fixed{s} takes the first min(s, masked) positions;
    Threshold{p} takes the prefix whose top-1 probability clears p, and
    at least one position.  Each chosen position commits its argmax token
    (ties toward the lower id) into one token list, so a step builds one
    ``BlockState`` however many it commits.  Both schedules commit a
    prefix, so ``ordered[realized:]`` is the new block's order under
    ``marginals``.
    """
    if not ordered:
        raise ValueError("advance on a fully unmasked block")
    if marginals.block_length != block.length:
        raise ValueError("marginals cover %d positions, block has %d" % (marginals.block_length, block.length))
    if schedule.kind == "fixed":
        count = min(schedule.tokens_per_step, len(ordered))
    else:
        # ordered is descending in top-1, so the first miss ends the prefix
        top1 = marginals.top1
        count = 1
        while count < len(ordered) and top1[ordered[count]] >= schedule.threshold:
            count += 1
    tokens = list(block.tokens)
    for n in ordered[:count]:
        unmask(tokens, n, marginals.argmax_token(n))
    return BlockState(tuple(tokens)), count


class VerifyOutcome(NamedTuple):
    """Result of one verify call; a tuple record, since one is built per
    speculative model call.

    ``adopted_marginals`` is the last accepted draft's distribution
    (None when the single advance came straight from the fresh target);
    the engine uses it as the ranking source for the next round of
    drafts.  ``realized_s`` logs the token count of every step taken.
    ``remaining_order`` is ``new_block``'s masked positions ranked under
    the marginals of the last advance: the suffix that advance left
    uncommitted, and empty once the block is complete.
    """

    new_block: BlockState
    accepted_levels: Tuple[int, ...]
    adopted_marginals: Optional[Marginals]
    realized_s: Tuple[int, ...]
    remaining_order: Tuple[int, ...]


def verify(
    block: BlockState,
    target: Marginals,
    drafts: Sequence[DraftBlock],
    draft_rows: np.ndarray,
    schedule: UnmaskSchedule,
) -> VerifyOutcome:
    """Advance once with ``target``, then chain through matching drafts.

    ``draft_rows[d]`` is the (L, V) marginals of ``drafts[d]``, as
    ``forward_batched`` returns them.  After every advance the new state's
    tokens are looked up among the drafts' tokens; a hit is accepted and
    its rows drive the next advance.  Equal tokens mean an equal
    unmasked count, so a threshold step that jumps past a draft's count
    simply never finds it.  When two drafts have the same tokens the
    first in scan order wins.  A state never repeats within a call (each
    advance commits at least one slot), so no draft can be accepted
    twice.  Only the adopted draft's rows become a ``Marginals``.
    """
    if len(drafts) != len(draft_rows):
        raise ValueError("drafts and draft_rows length mismatch")
    ordered = order_positions(target, block)
    current, s0 = advance(block, target, ordered, schedule)
    realized: List[int] = [s0]
    accepted: List[int] = []
    adopted: Optional[Marginals] = None
    contents = [draft.tokens for draft in drafts]
    while not current.is_complete and current.tokens in contents:
        hit = contents.index(current.tokens)
        accepted.append(drafts[hit].level)
        adopted = Marginals(draft_rows[hit])
        ordered = order_positions(adopted, current)
        current, s = advance(current, adopted, ordered, schedule)
        realized.append(s)
    return VerifyOutcome(current, tuple(accepted), adopted, tuple(realized), ordered[realized[-1]:])
