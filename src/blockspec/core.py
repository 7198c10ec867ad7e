"""Core value types for block-wise masked diffusion decoding.

Token ids are plain ints: MASK is 0, real tokens are 1..V.  A generation
run owns a prompt plus N blocks of L positions each, denoised strictly
left to right.  All types here are immutable values; nothing mutates in
place, so they are safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

MASK = 0


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer.  A bool is not: an
    input that must be an integer rejects bools, floats and strings
    rather than converting them."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# block / sequence state


@dataclass(frozen=True)
class BlockState:
    """One block of L token slots, MASK for not-yet-denoised positions."""

    tokens: Tuple[int, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("empty block")
        if min(self.tokens) < 0:
            raise ValueError("negative token id %d" % min(self.tokens))

    @staticmethod
    def masked(length: int) -> "BlockState":
        return BlockState((MASK,) * length)

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def masked_positions(self) -> Tuple[int, ...]:
        return tuple([n for n, t in enumerate(self.tokens) if t == MASK])

    @property
    def unmasked_count(self) -> int:
        return len(self.tokens) - self.tokens.count(MASK)

    @property
    def is_complete(self) -> bool:
        return MASK not in self.tokens

    def with_token(self, position: int, token: int) -> "BlockState":
        toks = list(self.tokens)
        unmask(toks, position, token)
        return BlockState(tuple(toks))


def unmask(tokens: List[int], position: int, token: int) -> None:
    """Commit ``token`` at a masked ``position`` of a block's token list."""
    if tokens[position] != MASK:
        raise ValueError("position %d already unmasked" % position)
    if token == MASK:
        raise ValueError("cannot unmask position %d to MASK" % position)
    tokens[position] = token


@dataclass(frozen=True)
class SequenceState:
    """Prompt plus N blocks; ``active`` is the block currently denoising.

    Blocks left of ``active`` must be complete, blocks right of it fully
    masked (strict left-to-right order).

    ``checked_context`` is set by a model call (``model.forward_batched``
    or ``model.forward_many``) once it has checked everything outside the
    active block: the vocabulary size the tokens were checked against and
    the token just before the active block.  ``with_active_block``
    changes nothing outside the active block, so it carries the value
    forward; every other way of making a state starts without it.
    """

    prompt: Tuple[int, ...]
    blocks: Tuple[BlockState, ...]
    active: int
    checked_context: Optional[Tuple[int, int]] = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def initial(prompt: Tuple[int, ...], num_blocks: int, block_length: int) -> "SequenceState":
        # one shared masked block: states are immutable, so sharing is safe
        return SequenceState(tuple(prompt), (BlockState.masked(block_length),) * num_blocks, 0)

    @property
    def active_block(self) -> BlockState:
        return self.blocks[self.active]

    def with_active_block(self, block: BlockState) -> "SequenceState":
        active = self.active
        length = len(self.blocks[active].tokens)
        if len(block.tokens) != length:
            raise ValueError(
                "block of length %d cannot replace an active block of length %d" % (len(block.tokens), length)
            )
        out = SequenceState(self.prompt, self.blocks[:active] + (block,) + self.blocks[active + 1 :], active)
        object.__setattr__(out, "checked_context", self.checked_context)
        return out

    def advance_block(self) -> "SequenceState":
        if not self.active_block.is_complete:
            raise ValueError("active block %d not complete" % self.active)
        if self.active + 1 >= len(self.blocks):
            raise ValueError("no block after block %d" % self.active)
        return SequenceState(self.prompt, self.blocks, self.active + 1)

    def all_tokens(self) -> Tuple[int, ...]:
        out = list(self.prompt)
        for b in self.blocks:
            out.extend(b.tokens)
        return tuple(out)

    def generated_tokens(self) -> Tuple[int, ...]:
        out: List[int] = []
        for b in self.blocks:
            out.extend(b.tokens)
        return tuple(out)


def validate_sequence(state: SequenceState) -> List[str]:
    """Return a list of invariant violations (empty when the state is well formed)."""
    problems = []
    if not (0 <= state.active < len(state.blocks)):
        problems.append("active block index out of range")
        return problems
    if MASK in state.prompt:
        problems.append("prompt contains MASK")
    for i, b in enumerate(state.blocks):
        if i < state.active:
            if not b.is_complete:
                problems.append("block %d left of active is incomplete" % i)
        elif i > state.active and b.unmasked_count != 0:
            problems.append("block %d right of active is partially unmasked" % i)
    return problems


# ---------------------------------------------------------------------------
# marginals


@dataclass(frozen=True)
class Marginals:
    """Per-position next-step distributions for one block.

    ``rows`` has shape (L, V); column c holds the probability of token
    c + 1.  Rows for unmasked positions are one-hot on the committed
    token.  The array is frozen after construction.  ``top1`` holds,
    per position, the largest probability in its row; it is set at
    construction, since every step that builds a Marginals ranks its
    positions by it.
    """

    rows: np.ndarray
    top1: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rows.ndim != 2:
            raise ValueError("marginals rows must be 2-D, got shape %s" % (self.rows.shape,))
        self.rows.setflags(write=False)
        object.__setattr__(self, "top1", tuple(np.maximum.reduce(self.rows, axis=1).tolist()))

    @property
    def block_length(self) -> int:
        return self.rows.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.rows.shape[1]

    def argmax_token(self, position: int) -> int:
        # ties broken toward the smaller token id (argmax returns first max)
        return int(self.rows[position].argmax()) + 1


def one_hot_marginals(block: BlockState, vocab_size: int) -> Marginals:
    """Degenerate marginals for a fully unmasked block: every row one-hot."""
    if not block.is_complete:
        raise ValueError("one_hot_marginals needs a complete block")
    rows = np.zeros((block.length, vocab_size), dtype=np.float64)
    for n, t in enumerate(block.tokens):
        rows[n, t - 1] = 1.0
    return Marginals(rows)


# ---------------------------------------------------------------------------
# unmasking schedules


@dataclass(frozen=True)
class UnmaskSchedule:
    """How many tokens each denoising step commits.

    ``fixed`` unmasks exactly s tokens per step (fewer at block end);
    ``threshold`` unmasks every position whose top-1 probability clears
    p, and always at least one.  Realized per-step counts are logged in
    the run report, not here.
    """

    kind: str
    tokens_per_step: Optional[int] = None
    threshold: Optional[float] = None

    def __post_init__(self):
        s, p = self.tokens_per_step, self.threshold
        if self.kind == "fixed" and p is None:
            if s is None or s < 1:
                raise ValueError("fixed schedule needs s >= 1, got %r" % (s,))
        elif self.kind == "threshold" and s is None:
            if p is None or not 0.0 < p <= 1.0:
                raise ValueError("threshold schedule needs 0 < p <= 1, got %r" % (p,))
        else:
            raise ValueError("bad schedule: kind %r with s=%r, p=%r" % (self.kind, s, p))

    @staticmethod
    def fixed(s: int) -> "UnmaskSchedule":
        return UnmaskSchedule(kind="fixed", tokens_per_step=s)

    @staticmethod
    def at_threshold(p: float) -> "UnmaskSchedule":
        return UnmaskSchedule(kind="threshold", threshold=p)

    @staticmethod
    def parse(text: str) -> "UnmaskSchedule":
        """Parse ``fixed:2`` / ``threshold:0.9`` style schedule strings."""
        parts = text.strip().split(":")
        if len(parts) != 2:
            raise ValueError("bad schedule %r (want mode:value)" % (text,))
        mode, value = parts[0].strip(), parts[1].strip()
        if mode == "fixed":
            convert, build = int, UnmaskSchedule.fixed
        elif mode == "threshold":
            convert, build = float, UnmaskSchedule.at_threshold
        else:
            raise ValueError("unknown schedule mode %r" % (mode,))
        try:
            number = convert(value)
        except ValueError:
            raise ValueError("bad %s schedule value %r" % (mode, value))
        return build(number)

    def format(self) -> str:
        if self.kind == "fixed":
            return "fixed:%d" % self.tokens_per_step
        return "threshold:%r" % float(self.threshold)


# ---------------------------------------------------------------------------
# generation config


@dataclass(frozen=True)
class GenerationConfig:
    """Static knobs for one generation run.

    W must divide into N = W / L blocks exactly.  ``top_k_vocab`` bounds
    the vocabulary rank any draft formula may address; ``eot_token`` is
    the id whose first occurrence marks the useful prefix for up-to-EOT
    accounting.
    """

    total_length: int
    block_length: int
    schedule: UnmaskSchedule
    top_k_vocab: int = 3
    eot_token: int = 1

    def __post_init__(self):
        if self.total_length < 1 or self.block_length < 1:
            raise ValueError(
                "total length and block length must be >= 1, got %d and %d"
                % (self.total_length, self.block_length)
            )
        if self.total_length % self.block_length != 0:
            raise ValueError(
                "total length %d not divisible by block length %d"
                % (self.total_length, self.block_length)
            )
        if self.top_k_vocab < 1:
            raise ValueError("top_k_vocab must be >= 1, got %d" % self.top_k_vocab)
        if self.eot_token == MASK:
            raise ValueError("eot_token cannot be MASK (%d)" % MASK)

    @property
    def num_blocks(self) -> int:
        return self.total_length // self.block_length


# ---------------------------------------------------------------------------
# config file format: flat key/value text


_CONFIG_KEYS = ("W", "L", "schedule", "top_k_vocab", "eot_token")


def parse_config(text: str, *, source: str = "<config>") -> GenerationConfig:
    """Parse the flat key/value config document.  Every key in
    ``_CONFIG_KEYS`` is required; ``schedule`` takes the ``mode:value``
    text of ``UnmaskSchedule.parse`` and the rest take integers.  Raises
    ValueError with the offending file and line on malformed input."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError("%s:%d: expected 'key = value', got %r" % (source, lineno, raw))
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError("%s:%d: unknown key %r" % (source, lineno, key))
        if key in values:
            raise ValueError("%s:%d: duplicate key %r" % (source, lineno, key))
        values[key] = (lineno, value)

    def take(key, convert=int):
        if key not in values:
            raise ValueError("%s: missing key %r" % (source, key))
        lineno, value = values[key]
        try:
            return convert(value)
        except ValueError as exc:
            reason = "%s must be an integer, got %r" % (key, value) if convert is int else exc
            raise ValueError("%s:%d: %s" % (source, lineno, reason))

    w = take("W")
    length = take("L")
    schedule = take("schedule", UnmaskSchedule.parse)
    top_k = take("top_k_vocab")
    eot = take("eot_token")
    try:
        return GenerationConfig(
            total_length=w,
            block_length=length,
            schedule=schedule,
            top_k_vocab=top_k,
            eot_token=eot,
        )
    except ValueError as exc:
        raise ValueError("%s: %s" % (source, exc))
