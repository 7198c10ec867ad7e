"""Offline draft-graph calibration.

Calibration replays vanilla generations and asks, at every step t of
every block: over the next ell steps, which (i, j) ranks did the tokens
that actually got unmasked hold under step t's own distribution?  Each
full window yields one record whose pair set is cumulative over the
window, so the level-k candidates can be read off the lookahead-k
records directly.  Each piece of that is done once: decoding is
deterministic, so each distinct prompt is replayed once and a repeat
gets the same windows under its own sample id, and an origin's windows
grow by one step's commits at a time rather than re-scanning the block.
The distinct prompts are replayed together, as a dLLM scores a batch of
sequences in one forward pass: one model call per denoising step for
the whole group, each sequence still getting its own rows.
Counting identical sets gives a small candidate table per level, and a
pruned depth-first search over root-reachable subsets picks the best
subgraph within the draft budget D under one of three scores:

* degree0: sum of node counts;
* degree1: sum of node counts plus, per node, its in-graph parents'
  counts (rewards nodes whose route into the graph is itself frequent);
* total: sum of recursive totalcounts, where totalcount(q) adds the
  totalcounts of q's in-graph parents to its own count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, groupby, islice
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import GenerationConfig, SequenceState
from .drafting import (
    DraftFormula,
    DraftGraphSpec,
    build_graph,
    order_vocab,
    parent_indices,
)
from .engine import StepRecord, check_prompt, vanilla_step
from .engine import vanilla_block_steps  # noqa: F401  (perfbench's span wrappers look this binding up)
from .model import ToyDenoiser, forward_many

STRATEGIES = ("degree0", "degree1", "total")

# Distinct prompts replayed together: one model call scores at most this
# many blocks, however long the prompt file.
_REPLAY_GROUP = 64


# ---------------------------------------------------------------------------
# record collection


class CalibrationRecord(NamedTuple):
    """One (origin step, lookahead) window; a tuple record, since one is
    built per window."""

    sample_id: int
    origin_step: int
    lookahead: int
    pairs: Tuple[Tuple[int, int], ...]  # canonical, sorted by position rank


# One window of a replayed prompt: (origin step, lookahead, pairs).
Window = Tuple[int, int, Tuple[Tuple[int, int], ...]]


def _block_windows(steps: Sequence[StepRecord], lookahead_max: int, top_k: int) -> List[Window]:
    """Every in-view window of one block's steps, by origin, then lookahead.

    A window's pairs rank the tokens committed during its steps against
    the origin step's ranking.  Step t commits ``ordered[:realized]`` of
    its own ranking, all of them masked at every earlier step, so the
    lookahead-ell pairs are the (ell-1) pairs plus those of step
    origin+ell-1's commits.  A commit outside the origin's top-k view
    ends the origin's windows: every longer window holds it too.
    """
    windows: List[Window] = []
    for origin, step in enumerate(steps):
        ordered = step.ordered
        vocab = order_vocab(step.marginals, ordered, top_k)
        pairs: List[Tuple[int, int]] = []
        for ell, later in enumerate(steps[origin : origin + lookahead_max], start=1):
            tokens = later.state_after.tokens
            try:
                for n in later.ordered[: later.realized]:
                    i = ordered.index(n)
                    pairs.append((i + 1, vocab[i].index(tokens[n]) + 1))
            except ValueError:  # tokens[n] is outside the top-k view
                break
            pairs.sort()
            windows.append((origin, ell, tuple(pairs)))
    return windows


def _replay(
    model: ToyDenoiser,
    prompts: Sequence[Tuple[int, ...]],
    config: GenerationConfig,
    lookahead_max: int,
) -> List[List[Window]]:
    """Every window of each of ``prompts``, replayed in lockstep.

    Within a block, each step makes one ``forward_many`` call over the
    states whose active block is not yet complete (under a threshold
    schedule blocks complete after different step counts); each state
    then takes the step ``vanilla_block_steps`` takes.
    """
    schedule = config.schedule
    states = [SequenceState.initial(prompt, config.num_blocks, config.block_length) for prompt in prompts]
    windows: List[List[Window]] = [[] for _ in prompts]
    for k in range(config.num_blocks):
        steps: List[List[StepRecord]] = [[] for _ in prompts]
        live = range(len(states))
        while live:
            targets = forward_many(model, [states[i] for i in live])
            still: List[int] = []
            for i, target in zip(live, targets):
                step = vanilla_step(states[i].active_block, target, schedule)
                steps[i].append(step)
                states[i] = states[i].with_active_block(step.state_after)
                if not step.state_after.is_complete:
                    still.append(i)
            live = still
        for i, state in enumerate(states):
            windows[i] += _block_windows(steps[i], lookahead_max, config.top_k_vocab)
            if k + 1 < config.num_blocks:
                states[i] = state.advance_block()
    return windows


def collect_records(
    model: ToyDenoiser,
    prompts: Sequence[Sequence[int]],
    config: GenerationConfig,
    lookahead_max: int,
) -> List[CalibrationRecord]:
    """Replay vanilla generation over ``prompts`` and emit one record per
    (origin step, lookahead) window that fits inside its block and whose
    tokens all fall inside the origin step's top-k view.

    Records run by sample (sample_id is the prompt index), block, origin
    step and lookahead, so the record list is deterministic.  Prompts are
    checked first, as the decoders check them.  Decoding is deterministic,
    so each distinct prompt is replayed once and a repeat gets its first
    occurrence's windows under its own sample_id.  The distinct prompts
    are replayed together, in first-seen groups of at most
    ``_REPLAY_GROUP``: one model call per denoising step for the whole
    group.
    """
    if lookahead_max < 1:
        raise ValueError("lookahead must be >= 1, got %d" % lookahead_max)
    checked = [check_prompt(model, prompt) for prompt in prompts]
    distinct = list(dict.fromkeys(checked))
    windows_of: Dict[Tuple[int, ...], List[Window]] = {}
    for start in range(0, len(distinct), _REPLAY_GROUP):
        group = distinct[start : start + _REPLAY_GROUP]
        windows_of.update(zip(group, _replay(model, group, config, lookahead_max)))
    return [
        CalibrationRecord(sample_id, *window)
        for sample_id, prompt in enumerate(checked)
        for window in windows_of[prompt]
    ]


def format_records(records: Sequence[CalibrationRecord]) -> str:
    lines = []
    for r in records:
        pairs = " ".join("%d:%d" % (i, j) for i, j in r.pairs)
        lines.append("%d %d %d %s" % (r.sample_id, r.origin_step, r.lookahead, pairs))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# candidate table


@dataclass(frozen=True)
class TableEntry:
    level: int
    formula: DraftFormula
    count: int


@dataclass(frozen=True)
class CandidateTable:
    """Top candidate formulas per level with occurrence counts."""

    entries: Tuple[TableEntry, ...]
    tokens_per_level: int
    lookahead_max: int


def build_table(
    records: Sequence[CalibrationRecord],
    lookahead_max: int,
    tokens_per_level: int = 1,
    *,
    width: int = 3,
) -> CandidateTable:
    """Count identical pair sets per level and keep the top ``width``.

    The lookahead-k records are already cumulative over k steps, so the
    level-k candidates are exactly their pair sets.  Records whose size
    is not k * tokens_per_level (partial steps at a block edge) cannot
    become level-k formulas and are ignored, as are records deeper than
    ``lookahead_max``.  Entries run by level, then by descending count,
    then by pairs; one pass counts every level, so the cost does not
    grow with ``lookahead_max``.
    """
    if width < 1:
        raise ValueError("width must be >= 1, got %d" % width)
    counts = Counter(
        (r.lookahead, r.pairs)
        for r in records
        if 1 <= r.lookahead <= lookahead_max and len(r.pairs) == r.lookahead * tokens_per_level
    )
    ranked = sorted(counts.items(), key=lambda kv: (kv[0][0], -kv[1], kv[0][1]))
    entries = tuple(
        TableEntry(level=level, formula=DraftFormula(pairs=pairs), count=count)
        for _, group in groupby(ranked, key=lambda kv: kv[0][0])
        for (level, pairs), count in islice(group, width)
    )
    return CandidateTable(entries=entries, tokens_per_level=tokens_per_level, lookahead_max=lookahead_max)


def format_table(table: CandidateTable) -> str:
    lines = [
        "lookahead_max %d" % table.lookahead_max,
        "tokens_per_level %d" % table.tokens_per_level,
    ]
    for e in table.entries:
        formula = ",".join("%d:%d" % (i, j) for i, j in e.formula.pairs)
        lines.append("%d %s %d" % (e.level, formula, e.count))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subgraph selection


def _carried(strategy: str, count: int, gain: int) -> int:
    """What a node adds to each in-graph child's gain under ``strategy``."""
    if strategy == "degree0":
        return 0
    return count if strategy == "degree1" else gain


def select_subgraph(
    table: CandidateTable,
    budget: int,
    strategy: str,
) -> Tuple[DraftGraphSpec, int]:
    """Best-scoring root-reachable subgraph of the table within ``budget``.

    A depth-first search takes candidates in (size, pairs) order and
    admits one only at level 1 or after one of its parents, so every set
    it builds is root-reachable and each such set is built once.  Parents
    precede children in that order, so a node's gain (its share of the
    score) is fixed when it enters.  A branch is cut when its score plus
    the largest gains its free slots could still add falls strictly below
    the best score; that bound needs counts >= 0.

    Returns the best graph and its score; ties prefer the smaller node
    count, then the lexicographically smaller node list.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1, got %d" % budget)
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r (want one of %s)" % (strategy, ", ".join(STRATEGIES)))
    for e in table.entries:
        if e.count < 0:
            raise ValueError("count of %s is %d; counts must be >= 0" % (e.formula.format(), e.count))
    tpl = table.tokens_per_level
    candidates = sorted({e.formula for e in table.entries}, key=lambda f: (f.size, f.pairs))
    if not any(f.size == tpl for f in candidates):
        raise ValueError("no level-1 candidates")
    counts = {e.formula: e.count for e in table.entries}
    count = [counts[f] for f in candidates]
    parents = parent_indices(candidates, tpl)
    n = len(candidates)

    # cap[q]: q's gain with every parent in the graph, its largest possible;
    # ceilings[i][r]: the sum of the r largest caps among candidates i..n-1.
    cap = [0] * n
    cap_carried = [0] * n
    for q in range(n):
        cap[q] = count[q] + sum(cap_carried[p] for p in parents[q])
        cap_carried[q] = _carried(strategy, count[q], cap[q])
    ceilings = [list(accumulate(sorted(cap[i:], reverse=True), initial=0)) for i in range(n)]

    chosen: List[int] = []
    carried: List[Optional[int]] = [None] * n  # None: not in the graph
    best_score = -1
    best: Tuple[DraftFormula, ...] = ()

    def tie_key(nodes: Sequence[DraftFormula]):
        return len(nodes), [f.pairs for f in nodes]

    def grow(start: int, score: int) -> None:
        nonlocal best_score, best
        slots = budget - len(chosen)
        for q in range(start, n):
            if score + ceilings[q][min(slots, n - q)] < best_score:
                return
            if candidates[q].size != tpl and all(carried[p] is None for p in parents[q]):
                continue
            gain = count[q] + sum(carried[p] for p in parents[q] if carried[p] is not None)
            chosen.append(q)
            carried[q] = _carried(strategy, count[q], gain)
            if score + gain >= best_score:
                nodes = tuple(candidates[i] for i in chosen)
                if score + gain > best_score or tie_key(nodes) < tie_key(best):
                    best_score, best = score + gain, nodes
            if slots > 1:
                grow(q + 1, score + gain)
            carried[q] = None
            chosen.pop()

    grow(0, 0)
    return build_graph(best, tpl, budget=budget), best_score


def calibrate_graph(
    model: ToyDenoiser,
    prompts: Sequence[Sequence[int]],
    config: GenerationConfig,
    *,
    lookahead_max: int,
    budget: int,
    strategy: str = "degree1",
    width: int = 3,
) -> Tuple[DraftGraphSpec, CandidateTable, List[CalibrationRecord]]:
    """End-to-end calibration: records, table, then subgraph selection."""
    tokens_per_level = (
        config.schedule.tokens_per_step if config.schedule.kind == "fixed" else 1
    )
    records = collect_records(model, prompts, config, lookahead_max)
    table = build_table(records, lookahead_max, tokens_per_level, width=width)
    graph, _ = select_subgraph(table, budget, strategy)
    return graph, table, records
