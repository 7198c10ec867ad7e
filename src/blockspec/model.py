"""Deterministic toy denoiser standing in for a masked-diffusion LM.

The model is a smoothed bigram/unigram mixture over integer tokens.  For
a masked position it finds the nearest unmasked token on each side,
decays that side's mixture weight by 0.5 per masked position skipped,
and hands the lost weight to the unigram term, so rows always sum to 1.
Everything is exact float64 arithmetic with a fixed evaluation order:
identical inputs give bit-identical outputs, which is what makes the
lossless checks in the test suite meaningful.  ``forward_batched`` scores
the true state and all D drafts of one call in a single numpy pass;
``forward`` is its draft-free case.  ``forward_many`` scores the active
blocks of several sequences in one pass, as a dLLM scores a batch:
calibration replays its distinct prompts together with it, one model
call per denoising step for the whole group.  Every row is computed on
its own, with the same arithmetic in the same order, so each equals
that sequence's draft-free ``forward_batched`` row bit for bit.

The NFE counter lives in the engine; this module only computes
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import MASK, Marginals, SequenceState, validate_sequence
from .core import one_hot_marginals  # noqa: F401  (re-exported: callers import it from here)


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
        if v < 1:
            raise ValueError("vocab_size must be >= 1, got %d" % v)
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive, got %r" % self.alpha)
        total = self.lambda_left + self.lambda_right + self.lambda_uni
        if abs(total - 1.0) > 1e-9:
            raise ValueError("mixture weights sum to %r, expected 1" % total)
        for name, table, shape in (
            ("bigram_left", self.bigram_left, (v + 1, v)),
            ("bigram_right", self.bigram_right, (v + 1, v)),
            ("unigram", self.unigram, (v,)),
        ):
            if table.shape != shape:
                raise ValueError("%s has shape %s, vocab_size %d needs %s" % (name, table.shape, v, shape))
        self.bigram_left.setflags(write=False)
        self.bigram_right.setflags(write=False)
        self.unigram.setflags(write=False)

    @cached_property
    def token_ids(self) -> frozenset:
        """Every id a sequence may hold: MASK and 1..vocab_size."""
        return frozenset(range(self.vocab_size + 1))

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
    ids = frozenset(range(1, v + 1))
    for seq in sequences:
        if not ids.issuperset(seq):
            bad = next(t for t in seq if t not in ids)
            raise ValueError("corpus token %d outside 1..%d" % (bad, v))
    tokens = np.fromiter(chain.from_iterable(sequences), dtype=np.int64)
    # the adjacent pairs (before[k], after[k]) within each sequence start
    # at every token but a sequence's last; the (v + 1, v) tables are
    # counted flat at index a * v + (b - 1)
    ends = np.cumsum(np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences)))
    pair_start = np.ones(len(tokens), dtype=bool)
    pair_start[ends[ends > 0] - 1] = False
    first = np.flatnonzero(pair_start)
    before = tokens[first]
    after = tokens[first + 1]
    unigram = np.bincount(tokens - 1, minlength=v)
    bigram_left = np.bincount(before * v + (after - 1), minlength=(v + 1) * v).reshape(v + 1, v)
    bigram_right = np.bincount(after * v + (before - 1), minlength=(v + 1) * v).reshape(v + 1, v)
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


def forward(model: ToyDenoiser, state: SequenceState) -> Marginals:
    """Next-step marginals for the active block: ``forward_batched`` with
    no drafts."""
    return forward_batched(model, state, [])[0]


def forward_batched(
    model: ToyDenoiser,
    state: SequenceState,
    drafts: Sequence[Sequence[int]],
) -> Tuple[Marginals, np.ndarray]:
    """Score the true state and every draft in one model call.

    ``drafts`` are candidate blocks as token tuples.  Returns the target's
    Marginals and the drafts' read-only (D, L, V) rows: ``rows[d]`` is
    draft d's marginals.  One NFE: each draft is scored as if it replaced
    the active block, and the result equals an independent forward of
    that state bit for bit (``batch.build_mask`` is the attention mask
    that specifies this isolation; the toy model has no attention, so it
    is not built).
    Masked rows are the decayed left/right/unigram mixture described in
    the module docstring; unmasked rows are one-hot on the committed
    token, so a fully unmasked draft scores as all one-hot rows.

    ``validate_sequence`` fixes everything left of the active block as
    unmasked and everything right of it as masked, so a masked slot's
    neighbours are the nearest unmasked slots inside its own block, or
    the token just before the block when none is to its left.  The
    target and all drafts therefore go through one (D+1, L) pass.
    Inputs are checked by ``_checked_left_context``.
    """
    left_context = _checked_left_context(model, state, drafts)
    blocks = [state.active_block.tokens, *drafts]
    rows = _mixture_pass(model, blocks, (left_context,) * len(blocks))
    rows.setflags(write=False)
    return Marginals(rows[0]), rows[1:]


def forward_many(model: ToyDenoiser, states: Sequence[SequenceState]) -> List[Marginals]:
    """Score the active blocks of several sequences in one model call.

    ``result[i]`` equals ``forward_batched(model, states[i], [])[0]`` bit
    for bit: every state is checked as that call checks it, in order, so
    the first bad state raises that call's error, and each block is
    mixed against its own sequence's left token.  Equal states still get
    a row each, as they would in a real dLLM's batch.  The active blocks
    must share one length, as the rows of one (B, L, V) pass do.
    """
    if not states:
        return []
    left_contexts = [_checked_left_context(model, state, ()) for state in states]
    blocks = [state.active_block.tokens for state in states]
    length = len(blocks[0])
    if not all(map(length.__eq__, map(len, blocks))):
        i, b = next((i, b) for i, b in enumerate(blocks) if len(b) != length)
        raise ValueError("state %d has active block length %d, state 0 has %d" % (i, len(b), length))
    rows = _mixture_pass(model, blocks, left_contexts)
    rows.setflags(write=False)
    return list(map(Marginals, rows))


def _checked_left_context(model: ToyDenoiser, state: SequenceState, drafts: Sequence[Sequence[int]]) -> int:
    """Check one call's ``state`` and ``drafts``; return the token just
    before the active block (MASK when there is none).

    The whole sequence is checked the first time a state's context is
    met; the result is kept as ``state.checked_context``, which
    ``with_active_block`` carries forward.  A state that has it for this
    vocabulary size only needs its active block and the drafts checked:
    nothing else can have changed, so the errors and their order are
    those of the full check.
    """
    checked = state.checked_context
    context_checked = checked is not None and checked[0] == model.vocab_size
    if not context_checked:
        problems = validate_sequence(state)
        if problems:
            raise ValueError("invalid sequence state: " + "; ".join(problems))
    block = state.active_block
    length = block.length
    if not all(map(length.__eq__, map(len, drafts))):
        i, d = next((i, d) for i, d in enumerate(drafts) if len(d) != length)
        raise ValueError("draft %d has length %d, active block has %d" % (i, len(d), length))
    if block.is_complete:
        raise ValueError("nothing to denoise: active block fully unmasked")
    if context_checked:
        _check_token_range(model, [block.tokens, *drafts])
        return checked[1]
    sequence = state.all_tokens()
    _check_token_range(model, [sequence, *drafts])
    offset = len(state.prompt) + state.active * length
    left_context = sequence[offset - 1] if offset else MASK
    object.__setattr__(state, "checked_context", (model.vocab_size, left_context))
    return left_context


def _check_token_range(model: ToyDenoiser, blocks: Sequence[Sequence[int]]) -> None:
    """Every token of every sequence in ``blocks`` is MASK or in 1..vocab_size;
    the error names the first one that is not, in order."""
    ids = model.token_ids
    if not all(map(ids.issuperset, blocks)):
        bad = next(t for tokens in blocks for t in tokens if t not in ids)
        raise ValueError("token %d outside 1..%d" % (bad, model.vocab_size))


def _mixture_pass(model: ToyDenoiser, blocks: Sequence[Tuple[int, ...]], left_contexts: Sequence[int]) -> np.ndarray:
    """(B, L, V) marginals for B blocks of one length; ``left_contexts[b]``
    is the token before block b (MASK when there is none).

    The side weights are Python floats computed exactly as for a single
    slot; the rows are then mixed for every masked slot at once in the
    fixed order w_uni * P_uni + w_left * P_left + w_right * P_right.  A
    side without a neighbour has weight 0.0 and indexes the table's
    unused MASK row, which adds +0.0 and so leaves every bit as it is.
    """
    length = len(blocks[0])
    lambda_left, lambda_right = model.lambda_left, model.lambda_right
    hot_slots: List[int] = []
    hot_columns: List[int] = []
    slots: List[int] = []
    left_tokens: List[int] = []
    right_tokens: List[int] = []
    w_left: List[float] = []
    w_right: List[float] = []
    w_uni: List[float] = []
    for b, tokens in enumerate(blocks):
        base = b * length
        # nearest unmasked slot to the right of each position
        right_of = [(MASK, length)] * length
        token, at = MASK, length
        for n in range(length - 1, 0, -1):
            if tokens[n] != MASK:
                token, at = tokens[n], n
            right_of[n - 1] = (token, at)
        token, at = left_contexts[b], -1
        for n, t in enumerate(tokens):
            if t != MASK:
                hot_slots.append(base + n)
                hot_columns.append(t - 1)
                token, at = t, n
                continue
            r_token, r_at = right_of[n]
            wl = lambda_left * 0.5 ** (n - at - 1) if token != MASK else 0.0
            wr = lambda_right * 0.5 ** (r_at - n - 1) if r_token != MASK else 0.0
            slots.append(base + n)
            left_tokens.append(token)
            right_tokens.append(r_token)
            w_left.append(wl)
            w_right.append(wr)
            w_uni.append(1.0 - wl - wr)
    out = np.zeros((len(blocks) * length, model.vocab_size), dtype=np.float64)
    out[hot_slots, hot_columns] = 1.0
    out[slots] = (
        np.array(w_uni)[:, None] * model._prob_uni
        + np.array(w_left)[:, None] * model._prob_left[left_tokens]
        + np.array(w_right)[:, None] * model._prob_right[right_tokens]
    )
    return out.reshape(len(blocks), length, model.vocab_size)


# ---------------------------------------------------------------------------
# corpus files


def parse_corpus(
    text: str, *, source: str = "<corpus>", vocab_size: Optional[int] = None
) -> List[Tuple[int, ...]]:
    """Whitespace-separated ids, one sequence per line; blank lines skipped.
    Given ``vocab_size``, ids above it are rejected too."""
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
            if vocab_size is not None and t > vocab_size:
                raise ValueError(
                    "%s:%d: token %d outside corpus vocabulary 1..%d" % (source, lineno, t, vocab_size)
                )
        sequences.append(seq)
    if not sequences:
        raise ValueError("%s: empty corpus" % source)
    return sequences


def format_corpus(sequences: Sequence[Sequence[int]]) -> str:
    return "\n".join(" ".join(str(t) for t in seq) for seq in sequences) + "\n"
