"""Deterministic toy denoiser standing in for a masked-diffusion LM.

The model is a smoothed bigram/unigram mixture over integer tokens.  For
a masked position it finds the nearest unmasked token on each side,
decays that side's mixture weight by 0.5 per masked position skipped,
and hands the lost weight to the unigram term, so rows always sum to 1.
Everything is exact float64 arithmetic with a fixed evaluation order:
identical inputs give bit-identical outputs, which is what makes the
lossless checks in the test suite meaningful.

The NFE counter lives in the engine; this module only computes
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import batch
from .core import MASK, BlockState, Marginals, SequenceState, one_hot_marginals, validate_sequence
from .timing import StageTimer, maybe_stage


@dataclass(frozen=True)
class ToyDenoiser:
    """Bigram mixture denoiser.

    ``bigram_left[a][b-1]`` counts token b directly after a in the
    corpus; ``bigram_right[a][b-1]`` counts b directly before a.  Row 0
    of both tables is unused (MASK never occurs in a corpus).  Counts
    stay exact integers; smoothing happens at probability time.
    """

    vocab_size: int
    alpha: float
    lambda_left: float
    lambda_right: float
    lambda_uni: float
    bigram_left: np.ndarray
    bigram_right: np.ndarray
    unigram: np.ndarray

    def __post_init__(self):
        v = self.vocab_size
        assert v >= 1
        assert self.alpha > 0.0, "alpha must be positive"
        total = self.lambda_left + self.lambda_right + self.lambda_uni
        if abs(total - 1.0) > 1e-9:
            raise ValueError("mixture weights sum to %r, expected 1" % total)
        assert self.bigram_left.shape == (v + 1, v)
        assert self.bigram_right.shape == (v + 1, v)
        assert self.unigram.shape == (v,)
        self.bigram_left.setflags(write=False)
        self.bigram_right.setflags(write=False)
        self.unigram.setflags(write=False)

    @cached_property
    def _prob_left(self) -> np.ndarray:
        return _smooth_rows(self.bigram_left, self.alpha)

    @cached_property
    def _prob_right(self) -> np.ndarray:
        return _smooth_rows(self.bigram_right, self.alpha)

    @cached_property
    def _prob_uni(self) -> np.ndarray:
        return _smooth_rows(self.unigram[None, :], self.alpha)[0]


def _smooth_rows(counts: np.ndarray, alpha: float) -> np.ndarray:
    counts = counts.astype(np.float64)
    v = counts.shape[1]
    return (counts + alpha) / (counts.sum(axis=1, keepdims=True) + alpha * v)


def train_from_corpus(
    corpus: Sequence[Sequence[int]],
    vocab_size: int,
    *,
    alpha: float = 0.5,
    lambdas: Tuple[float, float, float] = (0.7, 0.1, 0.2),
) -> ToyDenoiser:
    """Count bigrams/unigrams over ``corpus`` (sequences of ids in 1..V)."""
    sequences = [tuple(seq) for seq in corpus]
    if not sequences or all(len(s) == 0 for s in sequences):
        raise ValueError("empty corpus")
    v = vocab_size
    bigram_left = np.zeros((v + 1, v), dtype=np.int64)
    bigram_right = np.zeros((v + 1, v), dtype=np.int64)
    unigram = np.zeros(v, dtype=np.int64)
    for seq in sequences:
        for t in seq:
            if not (1 <= t <= v):
                raise ValueError("corpus token %d outside 1..%d" % (t, v))
            unigram[t - 1] += 1
        for a, b in zip(seq, seq[1:]):
            bigram_left[a][b - 1] += 1
            bigram_right[b][a - 1] += 1
    return ToyDenoiser(
        vocab_size=v,
        alpha=alpha,
        lambda_left=lambdas[0],
        lambda_right=lambdas[1],
        lambda_uni=lambdas[2],
        bigram_left=bigram_left,
        bigram_right=bigram_right,
        unigram=unigram,
    )


# ---------------------------------------------------------------------------
# forward


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


def forward(model: ToyDenoiser, state: SequenceState) -> Marginals:
    """Next-step marginals for the active block.

    Masked rows are the decayed left/right/unigram mixture described in
    the module docstring; unmasked rows are one-hot on the committed
    token.  Depends only on unmasked content and positions, never on
    MASK placeholders.
    """
    problems = validate_sequence(state)
    if problems:
        raise ValueError("invalid sequence state: " + "; ".join(problems))
    block = state.active_block
    if block.is_complete:
        raise ValueError("nothing to denoise: active block fully unmasked")
    sequence = state.all_tokens()
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
    return Marginals(rows=rows)


def forward_batched(
    model: ToyDenoiser,
    state: SequenceState,
    drafts: Sequence[BlockState],
    *,
    timer: Optional[StageTimer] = None,
) -> Tuple[Marginals, List[Marginals]]:
    """Evaluate the true state and every draft in one model call.

    Semantically one NFE: the block attention mask lets each draft see
    the context minus the active block plus itself, which is exactly
    "replace the active block and run forward".  The toy model has no
    attention, so we build the mask for interface fidelity and compute
    the replicated forwards directly; outputs are bit-identical to
    independent calls by construction.  A fully unmasked draft has
    nothing left to denoise and scores as all one-hot rows.
    """
    block_length = state.active_block.length
    for i, d in enumerate(drafts):
        if d.length != block_length:
            raise ValueError("draft %d has length %d, active block has %d" % (i, d.length, block_length))
    with maybe_stage(timer, "mask"):
        batch.build_mask(len(state.prompt), len(state.blocks), block_length, state.active, len(drafts))
    with maybe_stage(timer, "position ids"):
        batch.build_position_ids(len(state.prompt), len(state.blocks), block_length, state.active, len(drafts))
    with maybe_stage(timer, "model"):
        target = forward(model, state)
        per_draft = []
        for d in drafts:
            if d.is_complete:
                per_draft.append(one_hot_marginals(d, model.vocab_size))
            else:
                per_draft.append(forward(model, state.with_active_block(d)))
    return target, per_draft


# ---------------------------------------------------------------------------
# corpus files


def parse_corpus(text: str, *, source: str = "<corpus>") -> List[Tuple[int, ...]]:
    """Whitespace-separated ids, one sequence per line; blank lines skipped."""
    sequences = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            seq = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ValueError("%s:%d: non-integer token in %r" % (source, lineno, raw))
        for t in seq:
            if t < 1:
                raise ValueError("%s:%d: token ids must be >= 1, got %d" % (source, lineno, t))
        sequences.append(seq)
    if not sequences:
        raise ValueError("%s: empty corpus" % source)
    return sequences


def format_corpus(sequences: Sequence[Sequence[int]]) -> str:
    return "\n".join(" ".join(str(t) for t in seq) for seq in sequences) + "\n"
