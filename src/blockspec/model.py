"""Deterministic toy denoiser standing in for a masked-diffusion LM.

The model is a smoothed bigram/unigram mixture over integer tokens.  For
a masked position it finds the nearest unmasked token on each side,
decays that side's mixture weight by 0.5 per masked position skipped,
and hands the lost weight to the unigram term, so rows always sum to 1.
Everything is exact float64 arithmetic with a fixed evaluation order:
identical inputs give bit-identical outputs, which is what makes the
lossless checks in the test suite meaningful.  A model call returns one
read-only float64 array.  ``forward_batched`` scores the true state and
all D drafts of one call in a single numpy pass: row 0 is the target,
row 1 + d is draft d.  ``forward_many`` scores the active blocks of
several sequences in one pass, as a dLLM scores a batch: calibration
replays its distinct prompts together with it, one model call per
denoising step for the whole group.  Every row is computed on its own,
with the same arithmetic in the same order, so each equals that
sequence's draft-free ``forward_batched`` row bit for bit.

A model call reads a ``SequenceState`` and keeps nothing on it: the
state checked its block order when it was made, and each call checks
the block's size and every token of the sequence and the drafts.

The NFE counter lives in the engine, and the step layer reads the
returned rows as they are; this module only computes distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import contains
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .core import MASK, SequenceState, ascii_split, is_integer, parse_int

# The largest vocabulary a model may have.  The two bigram count tables
# and their smoothed probabilities take about 32 * V**2 bytes, 32 MiB at
# this limit; a corpus id far above it would ask for more memory than
# the machine has.
MAX_VOCAB_SIZE = 1024

# The most marginals one scored block may hold, L * V: 8 MiB of float64
# per block of a model call.  Both L and V are capped on their own, but
# their product at those caps would ask for 512 MiB per scored block.
MAX_BLOCK_CELLS = 2**20


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
    """Count bigrams/unigrams over ``corpus`` (sequences of ids in 1..V).

    ``vocab_size`` is at most ``MAX_VOCAB_SIZE``, checked before anything
    is allocated."""
    if vocab_size > MAX_VOCAB_SIZE:
        raise ValueError("vocab_size %d above the limit of %d" % (vocab_size, MAX_VOCAB_SIZE))
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


def forward_batched(
    model: ToyDenoiser,
    state: SequenceState,
    drafts: Sequence[Sequence[int]],
) -> np.ndarray:
    """Score the true state and every draft in one model call.

    ``drafts`` are candidate blocks as token tuples.  Returns the call's
    read-only (1 + D, L, V) rows: ``rows[0]`` is the target's marginals
    and ``rows[1 + d]`` is draft d's.  One NFE: each draft is scored as
    if it replaced the active block, and the result equals an independent
    forward of that state bit for bit (``batch.build_mask`` is the
    attention mask that specifies this isolation; the toy model has no
    attention, so it is not built).
    Masked rows are the decayed left/right/unigram mixture described in
    the module docstring; unmasked rows are one-hot on the committed
    token, so a fully unmasked draft scores as all one-hot rows.

    A ``SequenceState`` is made with everything left of the active block
    unmasked and everything right of it masked, so a masked slot's
    neighbours are the nearest unmasked slots inside its own block, or
    the token just before the block when none is to its left.  The
    target and all drafts therefore go through one (D+1, L) pass.
    ``_checked_left_context`` checks the rest: the drafts' lengths, that
    something is left to denoise, L * V, and every token against 1..V.
    A float or bool equal to an id fails the pass, which then names it.
    """
    left_context = _checked_left_context(model, state, drafts)
    blocks = [state.active_block.tokens, *drafts]
    try:
        rows = _mixture_pass(model, blocks, (left_context,) * len(blocks))
    except IndexError:
        _name_non_integer(_scanned(state, drafts))
        raise
    rows.setflags(write=False)
    return rows


def forward_many(model: ToyDenoiser, states: Sequence[SequenceState]) -> np.ndarray:
    """Score the active blocks of several sequences in one model call.

    Returns the call's read-only (B, L, V) rows; ``rows[i]`` equals
    ``forward_batched(model, states[i], [])[0]`` bit for bit, and each
    block is mixed against its own sequence's left token.  The batch is
    checked once per call, not once per state: one length, one L * V
    limit, a masked slot in every active block, and one scan of every
    token against 1..V.  Only a batch that fails it is checked state by
    state, as ``forward_batched`` checks a state, in order, so the first
    state that call rejects (its active block complete or too large, or
    a token outside 1..V) raises that call's error.  Equal states still
    get a row each, as they would in a real dLLM's batch.  The active
    blocks must share one length, as the rows of one (B, L, V) pass do;
    no states give a (0, 0, V) array.
    """
    if not states:
        rows = np.zeros((0, 0, model.vocab_size))
    else:
        blocks = [state.active_block.tokens for state in states]
        length = len(blocks[0])
        # one check for the batch; a batch that fails it is checked again
        # state by state, for the first bad state's error text
        sequences = chain.from_iterable(map(_scanned, states, repeat(())))
        if not (
            all(map(length.__eq__, map(len, blocks)))
            and all(map(contains, blocks, repeat(MASK)))
            and length * model.vocab_size <= MAX_BLOCK_CELLS
            and model.token_ids.issuperset(chain.from_iterable(sequences))
        ):
            for state in states:
                _checked_left_context(model, state, ())
            i, b = next((i, b) for i, b in enumerate(blocks) if len(b) != length)
            raise ValueError("state %d has active block length %d, state 0 has %d" % (i, len(b), length))
        left_contexts = [state.token_before_active for state in states]
        try:
            rows = _mixture_pass(model, blocks, left_contexts)
        except IndexError:
            _name_non_integer(chain.from_iterable(_scanned(state, ()) for state in states))
            raise
    rows.setflags(write=False)
    return rows


def _checked_left_context(model: ToyDenoiser, state: SequenceState, drafts: Sequence[Sequence[int]]) -> int:
    """Check one call's ``state`` and ``drafts``; return the token just
    before the active block (MASK when there is none).  The state checked
    its block order when it was made; tokens are scanned in ``_scanned``'s
    order, so an error names the first bad one."""
    block = state.active_block
    length = block.length
    if not all(map(length.__eq__, map(len, drafts))):
        i, d = next((i, d) for i, d in enumerate(drafts) if len(d) != length)
        raise ValueError("draft %d has length %d, active block has %d" % (i, len(d), length))
    if block.is_complete:
        raise ValueError("nothing to denoise: active block fully unmasked")
    check_block_size(model, length)
    _check_token_range(model, _scanned(state, drafts))
    return state.token_before_active


def _scanned(state: SequenceState, drafts: Sequence[Sequence[int]]) -> List[Sequence[int]]:
    """A call's prompt, finished blocks, active block and drafts, in order."""
    return [state.prompt, *[b.tokens for b in state.blocks[: state.active]], state.active_block.tokens, *drafts]


def check_block_size(model: ToyDenoiser, block_length: int) -> None:
    """The one block-size rule: L * V is at most ``MAX_BLOCK_CELLS``."""
    cells = block_length * model.vocab_size
    if cells > MAX_BLOCK_CELLS:
        raise ValueError(
            "L %d x vocabulary %d = %d marginals per block, above the limit of %d"
            % (block_length, model.vocab_size, cells, MAX_BLOCK_CELLS)
        )


def _check_token_range(model: ToyDenoiser, blocks: Sequence[Sequence[int]]) -> None:
    """Every token of every sequence in ``blocks`` is MASK or in 1..vocab_size;
    the error names the first one that is not, in order."""
    ids = model.token_ids
    if not all(map(ids.issuperset, blocks)):
        bad = next(t for tokens in blocks for t in tokens if t not in ids)
        if not is_integer(bad):
            raise ValueError("token %r is not an integer" % (bad,))
        raise ValueError("token %d outside 1..%d" % (bad, model.vocab_size))


def _name_non_integer(sequences: Iterable[Sequence[int]]) -> None:
    """On a pass's IndexError, raise the ValueError naming the first token
    of ``sequences`` that is not an integer: a float or bool equal to an
    id hashes like it, so ``_check_token_range`` lets it through."""
    bad = next((t for tokens in sequences for t in tokens if not is_integer(t)), None)
    if bad is not None:
        raise ValueError("token %r is not an integer" % (bad,)) from None


def check_prompt(model: ToyDenoiser, prompt: Sequence[int]) -> Tuple[int, ...]:
    """``prompt`` as a tuple of ints, each in 1..vocab_size.  Python and
    numpy integers are accepted; anything else (a bool, a float, a
    string) is rejected, not converted."""
    tokens = tuple(prompt)
    for t in tokens:
        if not is_integer(t):
            raise ValueError("prompt token %r is not an integer" % (t,))
        if not (1 <= t <= model.vocab_size):
            raise ValueError("prompt token %d outside 1..%d" % (t, model.vocab_size))
    return tuple(map(int, tokens))


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


def parse_corpus(text: str, *, source: str = "<corpus>", vocab_size: int = MAX_VOCAB_SIZE) -> List[Tuple[int, ...]]:
    """Ids separated by ASCII whitespace, one sequence per line; blank
    lines skipped, so blank text gives no sequences.  Ids above
    ``vocab_size`` are rejected: a prompt file passes its corpus's
    vocabulary, a corpus keeps the limit a model can hold."""
    sequences = []
    for lineno, line in enumerate(ascii_split(text, "\n"), start=1):
        if not line:
            continue
        try:
            seq = tuple(map(parse_int, ascii_split(line)))
        except ValueError:
            raise ValueError("%s:%d: non-integer token in %r" % (source, lineno, line))
        for t in seq:
            if t < 1:
                raise ValueError("%s:%d: token ids must be >= 1, got %d" % (source, lineno, t))
            if t > vocab_size:
                raise ValueError(
                    "%s:%d: token %d outside corpus vocabulary 1..%d" % (source, lineno, t, vocab_size)
                )
        sequences.append(seq)
    return sequences


def format_corpus(sequences: Sequence[Sequence[int]]) -> str:
    return "\n".join(" ".join(str(t) for t in seq) for seq in sequences) + "\n"
