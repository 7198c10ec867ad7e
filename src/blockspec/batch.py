"""Attention mask and position ids for batched draft evaluation.

One forward call scores the true sequence and D draft blocks together.
The square mask has side prompt_len + N*L + D*L: context rows (prompt +
all N blocks) attend only to the context, and each draft row attends to
the context minus the active block's columns plus the draft's own L
columns.  Drafts never see each other, so a single call reproduces D+1
independent forwards bit for bit.

This is the specification of ``model.forward_batched``'s isolation.  The
toy model has no attention, so the batched pass realises it directly and
does not build the mask or the position ids.
"""

from __future__ import annotations

import numpy as np


def build_mask(prompt_len: int, num_blocks: int, block_length: int, active: int, num_drafts: int) -> np.ndarray:
    """Boolean attention mask; True means "row may attend to column"."""
    for name, value, least in (
        ("prompt_len", prompt_len, 0),
        ("num_blocks", num_blocks, 1),
        ("block_length", block_length, 1),
        ("num_drafts", num_drafts, 0),
    ):
        if value < least:
            raise ValueError("%s must be >= %d, got %d" % (name, least, value))
    _check_active(active, num_blocks)
    context = prompt_len + num_blocks * block_length
    side = context + num_drafts * block_length
    mask = np.zeros((side, side), dtype=bool)
    mask[:context, :context] = True
    block_lo = prompt_len + active * block_length
    block_hi = block_lo + block_length
    for m in range(num_drafts):
        lo = context + m * block_length
        hi = lo + block_length
        mask[lo:hi, :context] = True
        mask[lo:hi, block_lo:block_hi] = False
        mask[lo:hi, lo:hi] = True
    return mask


def build_position_ids(prompt_len: int, num_blocks: int, block_length: int, active: int, num_drafts: int) -> np.ndarray:
    """Position ids: context counts up 0..context-1; each draft repeats the
    active block's absolute positions."""
    _check_active(active, num_blocks)
    context = prompt_len + num_blocks * block_length
    ids = list(range(context))
    block_lo = prompt_len + active * block_length
    for _ in range(num_drafts):
        ids.extend(range(block_lo, block_lo + block_length))
    return np.asarray(ids, dtype=np.int64)


def _check_active(active: int, num_blocks: int) -> None:
    if not 0 <= active < num_blocks:
        raise ValueError("active block %d outside 0..%d" % (active, num_blocks - 1))


def format_mask(mask: np.ndarray) -> str:
    """Textual 0/1 grid, one row per line."""
    return "\n".join("".join("1" if x else "0" for x in row) for row in mask) + "\n"
