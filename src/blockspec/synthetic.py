"""Bundled synthetic corpus: a peaked bigram process over park and mover tokens.

The vocabulary is ``DEFAULT_VOCAB`` = 12: content tokens 1..11 and the
EOT id 12.  Content tokens follow a Markov chain where "mover" tokens
hand off to their cyclic successor and the two "park" tokens mostly
repeat; the last content token usually emits EOT and ends the sequence.
Greedy decoding of the trained bigram model therefore walks a short
transient of movers and then sits in a park run (or terminates); draft
acceptance concentrates in the runs while transients exercise the
rejection path.  ``make_corpus`` draws sequences of at most 150 ids
until 12000 are emitted, and ``make_prompts`` draws 3-token prompts
from the same chain.

Everything is driven by a seeded PCG64 bit generator, so the corpus,
prompts, and anything calibrated from them are reproducible byte for
byte.  The draws are read off PCG64's raw 64-bit output (``_Draws``),
which numpy keeps fixed across releases, so the bytes are a function of
that raw stream alone and not of ``numpy.random.Generator``'s methods,
whose algorithms a numpy feature release may change.  They equal what
``np.random.default_rng(seed)``'s ``random()`` and ``integers(n)``
return today.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from .core import is_integer

DEFAULT_VOCAB = 12
DEFAULT_SEED = 7

_CONTENT = DEFAULT_VOCAB - 1
PARK_TOKENS = (max(2, _CONTENT // 4), min(_CONTENT - 1, (3 * _CONTENT) // 4))
_P_MAJOR = 0.8  # a park token's chance to repeat, a mover's to hand off
_P_MINOR = 0.1  # the other of the two
_P_END = 0.8  # the last content token's chance to end the sequence
_CORPUS_TOKENS = 12000
_MAX_SEQ_LEN = 150
_PROMPT_LENGTH = 3
_RAW_CHUNK = 1024  # raw words read per call into the bit generator


def _transition(state: int) -> Tuple[float, float, int, Tuple[int, ...]]:
    """Stay cut-off, move cut-off, successor, and the other content tokens."""
    successor = state % _CONTENT + 1
    stay, move = (_P_MAJOR, _P_MINOR) if state in PARK_TOKENS else (_P_MINOR, _P_MAJOR)
    others = tuple(t for t in range(1, _CONTENT + 1) if t not in (state, successor))
    return stay, stay + move, successor, others


_TRANSITIONS = {state: _transition(state) for state in range(1, _CONTENT + 1)}


def eot_id() -> int:
    return DEFAULT_VOCAB


class _Draws:
    """``random()`` and ``integers(n)`` of ``np.random.default_rng(seed)``,
    read off PCG64's raw 64-bit words.

    ``random()`` takes one word: its top 53 bits over 2**53.  ``integers(n)``
    is Lemire's bounded draw on 32-bit halves: the low half of a fresh
    word first, its high half kept for the next integer draw (a
    ``random()`` in between leaves it), redrawn while the low 32 bits of
    ``half * n`` fall below ``(2**32 - n) % n``; ``n == 1`` draws nothing.
    """

    def __init__(self, seed: int):
        bits = np.random.PCG64(seed)
        self._words = chain.from_iterable(iter(lambda: bits.random_raw(_RAW_CHUNK).tolist(), None))
        self._high: Optional[int] = None

    def random(self) -> float:
        return (next(self._words) >> 11) * 2.0**-53

    def _half(self) -> int:
        high = self._high
        if high is not None:
            self._high = None
            return high
        word = next(self._words)
        self._high = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        """Uniform in ``0..n-1``, for ``1 <= n < 2**32``."""
        if n == 1:
            return 0
        threshold = (2**32 - n) % n
        m = self._half() * n
        while m & 0xFFFFFFFF < threshold:
            m = self._half() * n
        return m >> 32


def _checked(name: str, value: int, least: int) -> int:
    """``value`` as an int: an integer (``core.is_integer``) of at least
    ``least``, so None, which would seed from the OS, is rejected."""
    if not is_integer(value):
        raise ValueError("%s %r is not an integer" % (name, value))
    if value < least:
        raise ValueError("%s must be >= %d, got %d" % (name, least, value))
    return int(value)


def _next_state(state: int, draws: _Draws) -> Optional[int]:
    """Next content token, or None when the chain ends the sequence."""
    if state == _CONTENT and draws.random() < _P_END:
        return None
    stay_below, move_below, successor, others = _TRANSITIONS[state]
    u = draws.random()
    if u < stay_below:
        return state
    if u < move_below:
        return successor
    return others[draws.integers(len(others))]


def make_corpus(seed: int = DEFAULT_SEED) -> List[Tuple[int, ...]]:
    """EOT-terminated sequences totalling at least 12000 ids."""
    draws = _Draws(_checked("seed", seed, 0))
    sequences: List[Tuple[int, ...]] = []
    emitted = 0
    while emitted < _CORPUS_TOKENS:
        state: Optional[int] = 1 + draws.integers(_CONTENT)
        seq: List[int] = []
        while state is not None and len(seq) < _MAX_SEQ_LEN - 1:
            seq.append(state)
            state = _next_state(state, draws)
        seq.append(eot_id())
        sequences.append(tuple(seq))
        emitted += len(seq)
    return sequences


def make_prompts(seed: int, count: int) -> List[Tuple[int, ...]]:
    """Short prompt sequences drawn from the same chain (no EOT)."""
    draws = _Draws(_checked("seed", seed, 0))
    count = _checked("count", count, 1)
    prompts = []
    for _ in range(count):
        state = 1 + draws.integers(_CONTENT)
        seq = [state]
        while len(seq) < _PROMPT_LENGTH:
            nxt = _next_state(state, draws)
            if nxt is None:
                nxt = 1 + draws.integers(_CONTENT)
            state = nxt
            seq.append(state)
        prompts.append(tuple(seq))
    return prompts
