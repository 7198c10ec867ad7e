"""Wall-clock stage accounting for overhead profiling."""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Dict, Iterator, Optional


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

    def snapshot(self) -> Dict[str, float]:
        return dict(self.seconds)


_UNTIMED = nullcontext()


def maybe_stage(timer: Optional[StageTimer], name: str) -> AbstractContextManager:
    """``timer.stage(name)``, or a shared no-op context when ``timer`` is None."""
    return _UNTIMED if timer is None else timer.stage(name)
