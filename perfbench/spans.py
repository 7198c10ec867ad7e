"""Span recording for the traced run.

``SpanRecorder.installed()`` replaces the public functions of each
layer with wrappers that record one span per call: name, start, end,
parent span, and the phase and operation (prompt or repetition) it
belongs to.  Spans stay in memory until the run ends.

Several modules import a layer's function by name (``engine`` binds
``forward_batched``, ``order_positions``, ``order_vocab`` and
``spawn_drafts``; ``verification`` binds ``order_positions``;
``calibration`` binds ``vanilla_block_steps``), so the wrapper goes on
every binding the caller looks up, not only on the defining module.
Functions looked up through their module at call time (``model.forward``,
``batch.*``, ``verification.verify``) are wrapped where they are defined.

A span's self time is its duration minus the durations of its children.
Calls are single-threaded and strictly nested, so the self times of a
tree sum exactly to the duration of its root.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from blockspec import batch, calibration, engine, model, synthetic, verification


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # -1 for a root
    name: str  # "<layer>.<function>"
    phase: str  # "setup", "calibrate" or "decode"
    op: int  # repetition or prompt index within the phase
    start_ns: int
    end_ns: int
    drafts: int  # D for model.forward_batched, -1 elsewhere

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _draft_count(args: tuple, kwargs: dict) -> int:
    drafts = kwargs["drafts"] if "drafts" in kwargs else args[2]
    return len(drafts)


# (module holding the binding, attribute, span name, draft counter)
WRAP_TARGETS: Tuple[Tuple[object, str, str, Optional[Callable[[tuple, dict], int]]], ...] = (
    (synthetic, "make_corpus", "synthetic.make_corpus", None),
    (model, "train_from_corpus", "model.train_from_corpus", None),
    (calibration, "calibrate_graph", "calibration.calibrate_graph", None),
    (calibration, "collect_records", "calibration.collect_records", None),
    (calibration, "build_table", "calibration.build_table", None),
    (calibration, "select_subgraph", "calibration.select_subgraph", None),
    (calibration, "vanilla_block_steps", "engine.vanilla_block_steps", None),
    (engine, "generate_vanilla", "engine.generate_vanilla", None),
    (engine, "generate_speculative", "engine.generate_speculative", None),
    (engine, "vanilla_block_steps", "engine.vanilla_block_steps", None),
    (engine, "forward_batched", "model.forward_batched", _draft_count),
    (engine, "order_positions", "drafting.order_positions", None),
    (engine, "order_vocab", "drafting.order_vocab", None),
    (engine, "spawn_drafts", "drafting.spawn_drafts", None),
    (verification, "verify", "verification.verify", None),
    (verification, "advance", "verification.advance", None),
    (verification, "order_positions", "drafting.order_positions", None),
    (model, "forward", "model.forward", None),
    (batch, "build_mask", "batch.build_mask", None),
    (batch, "build_position_ids", "batch.build_position_ids", None),
)


class SpanRecorder:
    """Collects spans from wrapped layer functions while installed."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.phase = "setup"
        self.op = 0
        self._stack: List[int] = []

    def at(self, phase: str, op: int) -> None:
        """Tag the spans recorded from now on."""
        self.phase = phase
        self.op = op

    def _wrap(self, name: str, fn: Callable, drafts_of: Optional[Callable[[tuple, dict], int]]) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                drafts = drafts_of(args, kwargs) if drafts_of is not None else -1
                spans[sid] = Span(sid, parent, name, self.phase, self.op, start, end, drafts)

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every binding in ``WRAP_TARGETS`` that exists; restore on exit."""
        saved = []
        try:
            for module, attr, name, drafts_of in WRAP_TARGETS:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, drafts_of))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def finished(self) -> List[Span]:
        return [s for s in self.spans if s is not None]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for s in self.finished():
                out.write(json.dumps([s.id, s.parent, s.name, s.phase, s.op, s.start_ns, s.end_ns, s.drafts]))
                out.write("\n")


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> duration minus the durations of its direct children."""
    child_ns: Dict[int, int] = {}
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.duration_ns
    return {s.id: s.duration_ns - child_ns.get(s.id, 0) for s in spans}


@dataclass
class NameStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0

    def mean_us(self, *, own: bool = False) -> float:
        if self.calls == 0:
            return 0.0
        return (self.self_ns if own else self.total_ns) / self.calls / 1e3


def by_name(
    spans: Sequence[Span], selfs: Dict[int, int], key: Callable[[Span], str] = lambda s: s.name
) -> Dict[str, NameStats]:
    """Calls, inclusive time and self time, grouped by ``key`` (the span name by default)."""
    out: Dict[str, NameStats] = {}
    for s in spans:
        stats = out.setdefault(key(s), NameStats())
        stats.calls += 1
        stats.total_ns += s.duration_ns
        stats.self_ns += selfs[s.id]
    return out


def draft_bucket(drafts: int) -> str:
    if drafts == 0:
        return "d0"
    if drafts <= 4:
        return "d1-4"
    return "d5plus"
