"""Core value types for block-wise masked diffusion decoding.

Token ids are plain ints: MASK is 0, real tokens are 1..V.  A generation
run owns a prompt plus N blocks of L positions each, denoised strictly
left to right.  All types here are immutable values; nothing mutates in
place, so they are safe to share.  A model call's marginals are one
read-only float64 array, and each denoising step reads its block's
(L, V) slice of it, where column c holds the probability of token c + 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import filterfalse, islice
from typing import List, Optional, Tuple

import numpy as np

MASK = 0

# The longest generation a config may ask for, W (and so L, which divides
# it).  Every block state holds L token slots and every model call scores
# L x V marginals, so a far larger W or L allocates until memory runs
# out.
MAX_TOTAL_LENGTH = 65536


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer.  A bool is not: an
    input that must be an integer rejects bools, floats and strings
    rather than converting them."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


_INT_TYPE = frozenset([int])


def _first_non_integer(tokens) -> tuple:
    """``(t,)`` for the first of ``tokens`` that is not ``is_integer``,
    ``()`` when there is none.  A decode's tokens are Python ints, so one
    pass over their types settles that case before ``is_integer`` runs
    per token."""
    if _INT_TYPE.issuperset(map(type, tokens)):
        return ()
    return tuple(islice(filterfalse(is_integer, tokens), 1))


_INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """``text`` as an int when it is ASCII digits with an optional sign.
    Python's ``int`` also takes digit underscores, non-ASCII digits and
    surrounding whitespace; every integer read from text uses this rule
    instead.  Raises ValueError otherwise."""
    if _INTEGER_TEXT.fullmatch(text) is None:
        raise ValueError("invalid integer %r" % (text,))
    return int(text)


_ASCII_WHITESPACE = " \t\n\r\v\f"
_ASCII_WHITESPACE_RUN = re.compile("[%s]+" % _ASCII_WHITESPACE)
_LINE_END = re.compile("\r\n|\r|\n")


def ascii_split(text: str, sep: Optional[str] = None, maxsplit: int = -1) -> List[str]:
    r"""``str.split`` by ASCII rules.  With no ``sep``: the runs of
    ``text`` between ASCII whitespace, none for blank text.  With one:
    the parts between at most ``maxsplit`` occurrences of ``sep``, each
    trimmed of ASCII whitespace; ``"\n"`` splits at every line end,
    ``\n``, ``\r\n`` or ``\r``.  ``str.split`` and ``str.strip`` also
    take U+00A0, U+3000 and \x1c-\x1f for whitespace, and
    ``str.splitlines`` also ends lines at \v, \f, \x1c-\x1e, \x85,
    U+2028 and U+2029; every text input is read by this rule instead."""
    if sep is None:
        return [field for field in _ASCII_WHITESPACE_RUN.split(text) if field]
    parts = _LINE_END.split(text) if sep == "\n" else text.split(sep, maxsplit)
    return [part.strip(_ASCII_WHITESPACE) for part in parts]


def _parse_threshold(text: str) -> float:
    """``text`` read by ``float`` when it is ASCII with no ``_``.
    ``float`` also takes digit underscores and non-ASCII digits, which
    ``parse_int`` rejects.  Raises ValueError otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError("invalid number %r" % (text,))
    return float(text)


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

    A state is valid when it is made: ``active`` indexes a block, the
    prompt holds no MASK, blocks left of ``active`` are complete and
    blocks right of it fully masked (strict left-to-right order), and the
    prompt and those finished blocks hold only integers (``is_integer``).
    The constructor raises ``ValueError("invalid sequence state: ...")``
    naming every broken rule otherwise, and the first non-integer of the
    prompt and of each finished block.  The active block's token types
    and every token's range are not checked here: a model call checks
    ranges against its vocabulary.
    """

    prompt: Tuple[int, ...]
    blocks: Tuple[BlockState, ...]
    active: int

    def __post_init__(self):
        if not 0 <= self.active < len(self.blocks):
            raise ValueError("invalid sequence state: active block index out of range")
        problems = []
        if MASK in self.prompt:
            problems.append("prompt contains MASK")
        for bad in _first_non_integer(self.prompt):
            problems.append("prompt token %r is not an integer" % (bad,))
        for i, b in enumerate(self.blocks):
            if i < self.active:
                if not b.is_complete:
                    problems.append("block %d left of active is incomplete" % i)
                for bad in _first_non_integer(b.tokens):
                    problems.append("block %d token %r is not an integer" % (i, bad))
            elif i > self.active and b.unmasked_count != 0:
                problems.append("block %d right of active is partially unmasked" % i)
        if problems:
            raise ValueError("invalid sequence state: " + "; ".join(problems))

    @staticmethod
    def initial(prompt: Tuple[int, ...], num_blocks: int, block_length: int) -> "SequenceState":
        # one shared masked block: states are immutable, so sharing is safe
        return SequenceState(tuple(prompt), (BlockState.masked(block_length),) * num_blocks, 0)

    @property
    def active_block(self) -> BlockState:
        return self.blocks[self.active]

    @property
    def token_before_active(self) -> int:
        """The token just before the active block: the last of the block
        before it, else of the prompt, else MASK."""
        if self.active:
            return self.blocks[self.active - 1].tokens[-1]
        return self.prompt[-1] if self.prompt else MASK

    def with_active_block(self, block: BlockState) -> "SequenceState":
        active = self.active
        length = len(self.blocks[active].tokens)
        if len(block.tokens) != length:
            raise ValueError(
                "block of length %d cannot replace an active block of length %d" % (len(block.tokens), length)
            )
        # The order rule puts no constraint on the active block, so it
        # holds as it did for this state: the fields are set without
        # running the check again.
        out = object.__new__(SequenceState)
        object.__setattr__(out, "prompt", self.prompt)
        object.__setattr__(out, "blocks", self.blocks[:active] + (block,) + self.blocks[active + 1 :])
        object.__setattr__(out, "active", active)
        return out

    def advance_block(self) -> "SequenceState":
        if not self.active_block.is_complete:
            raise ValueError("active block %d not complete" % self.active)
        if self.active + 1 >= len(self.blocks):
            raise ValueError("no block after block %d" % self.active)
        return SequenceState(self.prompt, self.blocks, self.active + 1)

    def generated_tokens(self) -> Tuple[int, ...]:
        out: List[int] = []
        for b in self.blocks:
            out.extend(b.tokens)
        return tuple(out)


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
        parts = ascii_split(text, ":")
        if len(parts) != 2:
            raise ValueError("bad schedule %r (want mode:value)" % (text,))
        mode, value = parts
        if mode == "fixed":
            convert, build = parse_int, UnmaskSchedule.fixed
        elif mode == "threshold":
            convert, build = _parse_threshold, UnmaskSchedule.at_threshold
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

    W must divide into N = W / L blocks exactly and is at most
    ``MAX_TOTAL_LENGTH``.  ``top_k_vocab`` bounds the vocabulary rank any
    draft formula may address; ``eot_token`` is the id whose first
    occurrence marks the useful prefix for up-to-EOT accounting.
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
        if self.total_length > MAX_TOTAL_LENGTH:
            raise ValueError("total length %d above the limit of %d" % (self.total_length, MAX_TOTAL_LENGTH))
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
    for lineno, line in enumerate(ascii_split(text, "\n"), start=1):
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError("%s:%d: expected 'key = value', got %r" % (source, lineno, line))
        key, value = ascii_split(line, "=", 1)
        if key not in _CONFIG_KEYS:
            raise ValueError("%s:%d: unknown key %r" % (source, lineno, key))
        if key in values:
            raise ValueError("%s:%d: duplicate key %r" % (source, lineno, key))
        values[key] = (lineno, value)

    def take(key, convert=parse_int):
        if key not in values:
            raise ValueError("%s: missing key %r" % (source, key))
        lineno, value = values[key]
        try:
            return convert(value)
        except ValueError as exc:
            reason = "%s must be an integer, got %r" % (key, value) if convert is parse_int else exc
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
