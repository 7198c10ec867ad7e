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
from the same chain.  Everything is driven by a seeded generator, so
the corpus, prompts, and anything calibrated from them are reproducible
byte for byte.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

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


def _transition(state: int) -> Tuple[float, float, int, Tuple[int, ...]]:
    """Stay cut-off, move cut-off, successor, and the other content tokens."""
    successor = state % _CONTENT + 1
    stay, move = (_P_MAJOR, _P_MINOR) if state in PARK_TOKENS else (_P_MINOR, _P_MAJOR)
    others = tuple(t for t in range(1, _CONTENT + 1) if t not in (state, successor))
    return stay, stay + move, successor, others


_TRANSITIONS = {state: _transition(state) for state in range(1, _CONTENT + 1)}


def eot_id() -> int:
    return DEFAULT_VOCAB


def _next_state(state: int, rng: np.random.Generator) -> Optional[int]:
    """Next content token, or None when the chain ends the sequence."""
    if state == _CONTENT and rng.random() < _P_END:
        return None
    stay_below, move_below, successor, others = _TRANSITIONS[state]
    u = rng.random()
    if u < stay_below:
        return state
    if u < move_below:
        return successor
    return others[rng.integers(len(others))]


def make_corpus(seed: int = DEFAULT_SEED) -> List[Tuple[int, ...]]:
    """EOT-terminated sequences totalling at least 12000 ids."""
    rng = np.random.default_rng(seed)
    sequences: List[Tuple[int, ...]] = []
    emitted = 0
    while emitted < _CORPUS_TOKENS:
        state: Optional[int] = int(rng.integers(1, _CONTENT + 1))
        seq: List[int] = []
        while state is not None and len(seq) < _MAX_SEQ_LEN - 1:
            seq.append(state)
            state = _next_state(state, rng)
        seq.append(eot_id())
        sequences.append(tuple(seq))
        emitted += len(seq)
    return sequences


def make_prompts(seed: int, count: int) -> List[Tuple[int, ...]]:
    """Short prompt sequences drawn from the same chain (no EOT)."""
    if count < 1:
        raise ValueError("count must be >= 1, got %d" % count)
    rng = np.random.default_rng(seed)
    prompts = []
    for _ in range(count):
        state = int(rng.integers(1, _CONTENT + 1))
        seq = [state]
        while len(seq) < _PROMPT_LENGTH:
            nxt = _next_state(state, rng)
            if nxt is None:
                nxt = int(rng.integers(1, _CONTENT + 1))
            state = nxt
            seq.append(state)
        prompts.append(tuple(seq))
    return prompts
