"""Reference for ``blockspec.drafting.spawn_drafts`` and
``blockspec.verification.verify``.

This is the speculative step the index-native one replaced: ranking
argsorts one position at a time, each graph node is materialized into a
``BlockState`` through a ranking view's ``token_at`` and ``unmask``,
a materialized draft with no masked slot left is dropped, every draft
carries a step tag (its cumulative unmasked count), and verify scans
the remaining drafts in order for one whose step tag and tokens both
match, with each draft paired with its own rows.  Tests compare the new
functions against it draft for draft and step for step.
"""

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from blockspec.core import BlockState, UnmaskSchedule, unmask
from blockspec.drafting import DraftFormula, DraftGraphSpec, order_positions
from blockspec.verification import StepRecord
from conftest import advance_on_rows


class RankingView(NamedTuple):
    """A ranked position order and, aligned with it, each position's
    token ids in vocabulary-rank order."""

    ordered_positions: Tuple[int, ...]
    vocab_by_position: Tuple[Tuple[int, ...], ...]


def reference_order_vocab(rows: np.ndarray, positions: Sequence[int], top_k: int) -> Tuple[Tuple[int, ...], ...]:
    out = []
    for n in positions:
        order = np.argsort(-rows[n], kind="stable")[:top_k]
        out.append(tuple(int(v) + 1 for v in order))
    return tuple(out)


def reference_rank(rows: np.ndarray, block: BlockState, top_k: int) -> RankingView:
    positions = order_positions([float(row.max()) for row in rows], block)
    return RankingView(ordered_positions=positions, vocab_by_position=reference_order_vocab(rows, positions, top_k))


def token_at(ranking: RankingView, i: int, j: int) -> Optional[int]:
    if not (1 <= i <= len(ranking.ordered_positions)):
        return None
    vocab = ranking.vocab_by_position[i - 1]
    if 1 <= j <= len(vocab):
        return vocab[j - 1]
    return None


@dataclass(frozen=True)
class ReferenceDraft:
    block: BlockState
    formula: DraftFormula
    level: int
    step_tag: int


def materialize(
    formula: DraftFormula, ranking: RankingView, block: BlockState, tokens_per_level: int = 1
) -> Optional[ReferenceDraft]:
    """None means Skip: some rank points outside the view."""
    tokens = list(block.tokens)
    for i, j in formula.pairs:
        token = token_at(ranking, i, j)
        if token is None:
            return None
        unmask(tokens, ranking.ordered_positions[i - 1], token)
    draft = BlockState(tokens=tuple(tokens))
    return ReferenceDraft(
        block=draft, formula=formula, level=formula.size // tokens_per_level, step_tag=draft.unmasked_count
    )


def reference_spawn_drafts(graph: DraftGraphSpec, ranking: RankingView, block: BlockState) -> List[ReferenceDraft]:
    out = []
    for idx in sorted(range(graph.num_nodes), key=lambda i: (graph.level_of(i), i)):
        made = materialize(graph.nodes[idx], ranking, block, graph.tokens_per_level)
        if made is not None and not made.block.is_complete:
            out.append(made)
    return out


def reference_verify(
    block: BlockState,
    drafts: Sequence[ReferenceDraft],
    rows: np.ndarray,
    schedule: UnmaskSchedule,
) -> Tuple[Tuple[StepRecord, ...], np.ndarray]:
    last_rows = rows[0]
    steps = [advance_on_rows(block, last_rows, schedule)]
    current = steps[-1].state_after
    remaining = list(zip(drafts, rows[1:]))
    while not current.is_complete:
        hit = None
        for entry in remaining:
            d, _ = entry
            if d.step_tag == current.unmasked_count and d.block.tokens == current.tokens:
                hit = entry
                break
        if hit is None:
            break
        remaining.remove(hit)
        last_rows = hit[1]
        steps.append(advance_on_rows(current, last_rows, schedule))
        current = steps[-1].state_after
    return tuple(steps), last_rows
