"""Offline draft-graph calibration.

Calibration replays vanilla generations and asks, at every step t of
every block: over the next ell steps, which (i, j) ranks did the tokens
that actually got unmasked hold under step t's own distribution?  Each
full window yields one record whose pair set is cumulative over the
window, so the level-k candidates can be read off the lookahead-k
records directly.  Counting identical sets gives a small candidate
table per level, and an exhaustive search picks the best root-reachable
subgraph within the draft budget D under one of three scores:

* degree0: sum of node counts;
* degree1: sum of node counts plus, per node, its in-graph parents'
  counts (rewards nodes whose route into the graph is itself frequent);
* total: sum of recursive totalcounts, where totalcount(q) adds the
  totalcounts of q's in-graph parents to its own count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .core import MASK, GenerationConfig, SequenceState
from .drafting import DraftFormula, DraftGraphSpec, RankingView, build_graph, is_parent, order_vocab
from .engine import StepRecord, vanilla_block_steps
from .model import ToyDenoiser

STRATEGIES = ("degree0", "degree1", "total")


# ---------------------------------------------------------------------------
# record collection


@dataclass(frozen=True)
class CalibrationRecord:
    sample_id: int
    origin_step: int
    lookahead: int
    pairs: Tuple[Tuple[int, int], ...]  # canonical, sorted by position rank


def _window_record(
    steps: Sequence[StepRecord],
    origin: int,
    lookahead: int,
    sample_id: int,
    ranking: RankingView,
) -> Optional[CalibrationRecord]:
    """Rank the tokens unmasked during the next ``lookahead`` steps against
    the origin step's ranking; None when any rank falls outside the view
    (skip, not an error)."""
    after = steps[origin + lookahead - 1].state_after
    pairs = []
    for i, n in enumerate(ranking.ordered_positions, start=1):
        token = after.tokens[n]
        if token == MASK:
            continue
        vocab = ranking.vocab_by_position[i - 1]
        if token not in vocab:
            return None
        pairs.append((i, vocab.index(token) + 1))
    return CalibrationRecord(
        sample_id=sample_id,
        origin_step=origin,
        lookahead=lookahead,
        pairs=tuple(pairs),
    )


def collect_records(
    model: ToyDenoiser,
    prompts: Sequence[Sequence[int]],
    config: GenerationConfig,
    lookahead_max: int,
) -> List[CalibrationRecord]:
    """Replay vanilla generation over ``prompts`` and emit one record per
    (origin step, lookahead) window that fits inside its block.

    Prompts are processed in order and sample_id is the prompt index, so
    the record list is deterministic.  Each step is ranked once and that
    ranking serves every window opening at it.
    """
    if lookahead_max < 1:
        raise ValueError("lookahead must be >= 1, got %d" % lookahead_max)
    records: List[CalibrationRecord] = []
    for sample_id, prompt in enumerate(prompts):
        state = SequenceState.initial(tuple(prompt), config.num_blocks, config.block_length)
        for k in range(config.num_blocks):
            state, steps = vanilla_block_steps(model, state, config)
            for origin, step in enumerate(steps):
                ranking = RankingView(
                    ordered_positions=step.ordered,
                    vocab_by_position=order_vocab(step.marginals, step.ordered, config.top_k_vocab),
                )
                for ell in range(1, lookahead_max + 1):
                    if origin + ell > len(steps):
                        break
                    record = _window_record(steps, origin, ell, sample_id, ranking)
                    if record is not None:
                        records.append(record)
            if k + 1 < config.num_blocks:
                state = state.advance_block()
    return records


def format_records(records: Sequence[CalibrationRecord]) -> str:
    lines = []
    for r in records:
        pairs = " ".join("%d:%d" % (i, j) for i, j in r.pairs)
        lines.append("%d %d %d %s" % (r.sample_id, r.origin_step, r.lookahead, pairs))
    return "\n".join(lines) + "\n"


def parse_records(text: str, *, source: str = "<records>") -> List[CalibrationRecord]:
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 4:
            raise ValueError("%s:%d: want 'sample origin lookahead i:j ...'" % (source, lineno))
        try:
            sample_id, origin, ell = int(fields[0]), int(fields[1]), int(fields[2])
            pairs = []
            for field in fields[3:]:
                i, sep, j = field.partition(":")
                if not sep:
                    raise ValueError(field)
                pairs.append((int(i), int(j)))
        except ValueError:
            raise ValueError("%s:%d: malformed record %r" % (source, lineno, raw))
        records.append(
            CalibrationRecord(
                sample_id=sample_id,
                origin_step=origin,
                lookahead=ell,
                pairs=tuple(sorted(pairs)),
            )
        )
    return records


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

    def by_level(self, level: int) -> Tuple[TableEntry, ...]:
        return tuple(e for e in self.entries if e.level == level)


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
    become level-k formulas and are ignored.
    """
    if width < 1:
        raise ValueError("width must be >= 1, got %d" % width)
    entries: List[TableEntry] = []
    for level in range(1, lookahead_max + 1):
        counts: Dict[Tuple[Tuple[int, int], ...], int] = {}
        for r in records:
            if r.lookahead != level or len(r.pairs) != level * tokens_per_level:
                continue
            counts[r.pairs] = counts.get(r.pairs, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:width]
        for pairs, count in ranked:
            entries.append(TableEntry(level=level, formula=DraftFormula(pairs=pairs), count=count))
    return CandidateTable(entries=tuple(entries), tokens_per_level=tokens_per_level, lookahead_max=lookahead_max)


def format_table(table: CandidateTable) -> str:
    lines = [
        "lookahead_max %d" % table.lookahead_max,
        "tokens_per_level %d" % table.tokens_per_level,
    ]
    for e in table.entries:
        formula = ",".join("%d:%d" % (i, j) for i, j in e.formula.pairs)
        lines.append("%d %s %d" % (e.level, formula, e.count))
    return "\n".join(lines) + "\n"


def parse_table(text: str, *, source: str = "<table>") -> CandidateTable:
    lookahead_max = None
    tokens_per_level = None
    entries: List[TableEntry] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "lookahead_max" and len(fields) == 2:
            lookahead_max = int(fields[1])
            continue
        if fields[0] == "tokens_per_level" and len(fields) == 2:
            tokens_per_level = int(fields[1])
            continue
        if len(fields) != 3:
            raise ValueError("%s:%d: want 'level formula count'" % (source, lineno))
        try:
            level = int(fields[0])
            pairs = []
            for field in fields[1].split(","):
                i, sep, j = field.partition(":")
                if not sep:
                    raise ValueError(field)
                pairs.append((int(i), int(j)))
            count = int(fields[2])
        except ValueError:
            raise ValueError("%s:%d: malformed table row %r" % (source, lineno, raw))
        entries.append(TableEntry(level=level, formula=DraftFormula.of(pairs), count=count))
    if lookahead_max is None or tokens_per_level is None:
        raise ValueError("%s: missing lookahead_max or tokens_per_level header" % source)
    return CandidateTable(entries=tuple(entries), tokens_per_level=tokens_per_level, lookahead_max=lookahead_max)


# ---------------------------------------------------------------------------
# subgraph selection


def _subset_valid(nodes: Sequence[DraftFormula], tokens_per_level: int) -> bool:
    reachable: Dict[DraftFormula, bool] = {}
    for q in sorted(nodes, key=lambda f: f.size):
        if q.size == tokens_per_level:
            reachable[q] = True
        else:
            reachable[q] = any(
                is_parent(p, q, tokens_per_level) and reachable[p]
                for p in nodes
                if p.size == q.size - tokens_per_level
            )
        if not reachable[q]:
            return False
    return True


def _score_subset(
    nodes: Sequence[DraftFormula],
    counts: Dict[DraftFormula, int],
    tokens_per_level: int,
    strategy: str,
) -> int:
    parents_of = {
        q: [p for p in nodes if is_parent(p, q, tokens_per_level)] for q in nodes
    }
    if strategy == "degree0":
        return sum(counts[q] for q in nodes)
    if strategy == "degree1":
        return sum(counts[q] + sum(counts[p] for p in parents_of[q]) for q in nodes)
    assert strategy == "total"
    memo: Dict[DraftFormula, int] = {}

    def totalcount(q: DraftFormula) -> int:
        if q not in memo:
            memo[q] = counts[q] + sum(totalcount(p) for p in parents_of[q])
        return memo[q]

    return sum(totalcount(q) for q in nodes)


def select_subgraph(
    table: CandidateTable,
    budget: int,
    strategy: str,
) -> Tuple[DraftGraphSpec, int]:
    """Exhaustively search subsets of table formulas within ``budget``.

    Returns the best-scoring valid graph and its score; ties prefer the
    smaller node count, then the lexicographically smaller node list.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1, got %d" % budget)
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r (want one of %s)" % (strategy, ", ".join(STRATEGIES)))
    if not table.by_level(1):
        raise ValueError("no level-1 candidates")
    candidates = sorted({e.formula for e in table.entries}, key=lambda f: (f.size, f.pairs))
    counts = {e.formula: e.count for e in table.entries}
    best: Optional[Tuple[int, Tuple[DraftFormula, ...]]] = None
    for size in range(1, min(budget, len(candidates)) + 1):
        for combo in combinations(candidates, size):
            if not _subset_valid(combo, table.tokens_per_level):
                continue
            score = _score_subset(combo, counts, table.tokens_per_level, strategy)
            if best is None or score > best[0] or (
                score == best[0]
                and (len(combo), tuple(f.pairs for f in combo))
                < (len(best[1]), tuple(f.pairs for f in best[1]))
            ):
                best = (score, combo)
    assert best is not None  # level-1 singletons are always valid
    graph = build_graph(best[1], table.tokens_per_level, budget=budget)
    return graph, best[0]


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
