"""Wall-clock stage accounting for overhead profiling.

Timing is opt-in and owned by the caller: a decoder given a
``StageTimer`` adds each stage's wall time to it, and the caller reads
``seconds`` afterwards.  No report holds a time, so reports stay
deterministic."""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional


class StageTimer:
    """Accumulates seconds per named stage."""

    def __init__(self):
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + (time.perf_counter() - start)


def timed(timer: Optional[StageTimer], name: str, fn: Callable) -> Callable:
    """``fn`` with the wall time of every call added to ``timer``'s stage
    ``name``; ``fn`` itself when ``timer`` is None, so untimed runs pay
    nothing per call."""
    if timer is None:
        return fn

    def staged(*args, **kwargs):
        with timer.stage(name):
            return fn(*args, **kwargs)

    return staged
