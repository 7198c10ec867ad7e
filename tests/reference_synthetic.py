"""Reference for ``blockspec.synthetic.make_corpus`` and ``make_prompts``.

This is the generator the raw-stream reader replaced: the same chain
walked with ``numpy.random.Generator``'s ``random()`` and ``integers()``
methods.  Tests compare the two sequence for sequence.
"""

from typing import List, Optional, Tuple

import numpy as np

from blockspec.synthetic import _CONTENT, _CORPUS_TOKENS, _MAX_SEQ_LEN, _P_END, _PROMPT_LENGTH, _TRANSITIONS, eot_id


def _next_state(state: int, rng: np.random.Generator) -> Optional[int]:
    if state == _CONTENT and rng.random() < _P_END:
        return None
    stay_below, move_below, successor, others = _TRANSITIONS[state]
    u = rng.random()
    if u < stay_below:
        return state
    if u < move_below:
        return successor
    return others[rng.integers(len(others))]


def reference_corpus(seed: int) -> List[Tuple[int, ...]]:
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


def reference_prompts(seed: int, count: int) -> List[Tuple[int, ...]]:
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
