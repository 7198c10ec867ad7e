"""Lossless draft verification.

One verify call owns one model call's worth of progress: advance the
block once with the target marginals, then repeatedly look for a draft
whose cumulative unmasked count and full content match the state just
reached.  A match means the draft equals the state vanilla decoding
would have produced, so its marginals are the model's distribution for
that exact state and can drive the next advance for free.  On a miss we
simply stop with whatever the target produced: output never depends on
draft quality, only speed does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import BlockState, Marginals, UnmaskSchedule
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
    (ties toward the lower id).  Both schedules commit a prefix, so
    ``ordered[realized:]`` is the new block's order under ``marginals``.
    """
    if not ordered:
        raise ValueError("advance on a fully unmasked block")
    assert marginals.block_length == block.length
    if schedule.kind == "fixed":
        count = min(schedule.tokens_per_step, len(ordered))
    else:
        # ordered is descending in top-1, so the first miss ends the prefix
        top1 = marginals.top1
        count = 1
        while count < len(ordered) and top1[ordered[count]] >= schedule.threshold:
            count += 1
    out = block
    for n in ordered[:count]:
        out = out.with_token(n, marginals.argmax_token(n))
    return out, count


@dataclass(frozen=True)
class VerifyOutcome:
    """Result of one verify call.

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
    draft_marginals: Sequence[Marginals],
    schedule: UnmaskSchedule,
) -> VerifyOutcome:
    """Advance once with ``target``, then chain through matching drafts.

    The scan restarts from the head of the remaining draft list after
    every acceptance; a draft is eligible only when its step_tag equals
    the new cumulative unmasked count (threshold steps that jump past a
    draft's count simply never match it) and is accepted only on
    token-for-token equality over the whole block.
    """
    if len(drafts) != len(draft_marginals):
        raise ValueError("drafts and draft_marginals length mismatch")
    ordered = order_positions(target, block)
    current, s0 = advance(block, target, ordered, schedule)
    realized: List[int] = [s0]
    accepted: List[int] = []
    adopted: Optional[Marginals] = None
    remaining = list(zip(drafts, draft_marginals))
    while not current.is_complete:
        hit = None
        for entry in remaining:
            d, m = entry
            if d.step_tag == current.unmasked_count and d.block.tokens == current.tokens:
                hit = entry
                break
        if hit is None:
            break
        remaining.remove(hit)
        accepted.append(hit[0].level)
        adopted = hit[1]
        ordered = order_positions(adopted, current)
        current, s = advance(current, adopted, ordered, schedule)
        realized.append(s)
    return VerifyOutcome(
        new_block=current,
        accepted_levels=tuple(accepted),
        adopted_marginals=adopted,
        realized_s=tuple(realized),
        remaining_order=ordered[realized[-1]:],
    )
