"""Draft formulas, rankings, and directed draft graphs.

A draft formula is a set of (i, j) pairs: "unmask the i-th ranked masked
position with its j-th ranked token".  Ranks are 1-based and computed
against one block's (L, V) rows: positions ordered by descending top-1
probability (ties toward the lower position index), vocabulary ordered
by descending probability (ties toward the lower token id).
``order_positions`` and ``vocab_ranking`` state these tie-break rules;
``vocab_ranking`` takes rows of any leading shape, and ``order_vocab``
reads it at one block's positions.  A denoising step commits each
position's first argmax column, which ties toward the lower id as well
and so is ``vocab_ranking``'s rank 1; the test
``test_batched_ranking_equals_order_vocab_row_by_row`` in
``tests/test_lockstep_ranking.py`` pins this.  ``verification.advance``
ranks the positions once per denoising step and hands that order on, in
the step it returns, to drafting and calibration.  Calibration ranks the
vocabulary once per lockstep model call, every row of that call in one
``vocab_ranking``.  Formulas are state-independent; ``spawn_drafts``
turns each formula that fits a ranked position order and its vocabulary
into the token tuple of a candidate block, and spawns no formula that
would fill every masked slot, since verification never accepts a
complete state.

Formulas are organized into a rooted DAG: A is a parent of B when A's
pairs are a subset of B's and B has exactly one level's worth of extra
tokens.  Nodes may have several parents (the routes through the graph
are what verification exploits level by level).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import MASK, BlockState, ascii_split, parse_int


# ---------------------------------------------------------------------------
# ranking


def order_positions(top1: Sequence[float], block: BlockState) -> Tuple[int, ...]:
    """Masked positions of ``block`` sorted by descending top-1
    probability (``top1[n]`` is position n's largest probability), ties
    toward the lower position index."""
    masked = block.masked_positions
    if not masked:
        raise ValueError("no masked positions to rank")
    # masked is ascending and the sort is stable (reverse keeps it so), so
    # equal top-1 probabilities stay in position order
    return tuple(sorted(masked, key=top1.__getitem__, reverse=True))


def vocab_ranking(rows: np.ndarray, top_k: int) -> np.ndarray:
    """The top_k token ids of every row of ``rows`` (any leading shape,
    V along the last axis) by descending probability, ties toward the
    lower id: one stable argsort over the negated rows, ids = index + 1.
    The result has ``rows``' shape with the last axis cut to
    min(top_k, V)."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1, got %d" % top_k)
    return (-rows).argsort(axis=-1, kind="stable")[..., :top_k] + 1


def order_vocab(rows: np.ndarray, positions: Sequence[int], top_k: int) -> Tuple[Tuple[int, ...], ...]:
    """Per position: top_k token ids by descending probability, ties toward
    the lower id (``vocab_ranking`` of one block's (L, V) ``rows`` at
    ``positions`` only).  Every position gets the same number of them, min(top_k, V)."""
    return tuple(map(tuple, vocab_ranking(rows.take(positions, axis=0), top_k).tolist()))


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class DraftFormula:
    """Canonical (sorted by position rank) tuple of (i, j) pairs."""

    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("empty formula")
        seen = set()
        for i, j in self.pairs:
            if i < 1 or j < 1:
                raise ValueError("ranks are 1-based, got (%d, %d)" % (i, j))
            if i in seen:
                raise ValueError("duplicate position rank %d in formula" % i)
            seen.add(i)
        if list(self.pairs) != sorted(self.pairs):
            raise ValueError("formula pairs must be sorted by position rank")

    @staticmethod
    def of(pairs) -> "DraftFormula":
        return DraftFormula(pairs=tuple(sorted((int(i), int(j)) for i, j in pairs)))

    @property
    def size(self) -> int:
        return len(self.pairs)

    def format(self) -> str:
        return " ".join("%d:%d" % (i, j) for i, j in self.pairs)


def parent_indices(formulas: Sequence[DraftFormula], tokens_per_level: int) -> Tuple[Tuple[int, ...], ...]:
    """Per formula, the indices of its parents among ``formulas``: A is
    a parent of B when A's pairs are a subset of B's and B has exactly
    ``tokens_per_level`` more.  Each formula's pair set is built once."""
    sets = [frozenset(f.pairs) for f in formulas]
    return tuple(
        tuple(a_idx for a_idx, a in enumerate(sets) if len(b) - len(a) == tokens_per_level and a < b)
        for b in sets
    )


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class DraftGraphSpec:
    """Validated draft DAG: nodes in declaration order plus parent edges
    (indices into ``nodes``; the implicit root parents every level-1 node)."""

    nodes: Tuple[DraftFormula, ...]
    tokens_per_level: int
    budget: int
    parents: Tuple[Tuple[int, ...], ...]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def depth(self) -> int:
        return max((self.level_of(i) for i in range(len(self.nodes))), default=0)

    def level_of(self, index: int) -> int:
        return self.nodes[index].size // self.tokens_per_level

    def max_vocab_rank(self) -> int:
        return max((j for node in self.nodes for _, j in node.pairs), default=0)

    @cached_property
    def compiled(self) -> Tuple[Tuple[int, int, int, Tuple[Tuple[int, int], ...]], ...]:
        """The nodes in (level, declaration) order, each as (highest
        position rank, highest vocabulary rank, size, its (i, j) pairs
        0-based).  Built on first use and kept with the graph."""
        # a stable sort keeps declaration order within a level, and pairs
        # are sorted by position rank, so the last holds the highest
        return tuple(
            (node.pairs[-1][0], max(j for _, j in node.pairs), node.size, tuple((i - 1, j - 1) for i, j in node.pairs))
            for node in sorted(self.nodes, key=lambda node: node.size)
        )


def build_graph(
    formulas: Sequence[DraftFormula],
    tokens_per_level: int = 1,
    *,
    budget: Optional[int] = None,
) -> DraftGraphSpec:
    """Validate formulas into a rooted DAG.

    Every node's pair count must be a multiple of tokens_per_level, and
    every node above level 1 needs at least one in-graph parent through
    which the root is reachable.
    """
    if tokens_per_level < 1:
        raise ValueError("tokens_per_level must be >= 1, got %d" % tokens_per_level)
    nodes = tuple(formulas)
    if budget is None:
        budget = len(nodes)
    if len(nodes) > budget:
        raise ValueError("graph has %d nodes, budget D is %d" % (len(nodes), budget))
    seen = set()
    for node in nodes:
        if node.pairs in seen:
            raise ValueError("duplicate node %s" % node.format())
        seen.add(node.pairs)
        if node.size % tokens_per_level != 0:
            raise ValueError(
                "node %s has %d pairs, not a multiple of tokens_per_level %d"
                % (node.format(), node.size, tokens_per_level)
            )
    parents = parent_indices(nodes, tokens_per_level)
    reachable = [False] * len(nodes)
    for idx in sorted(range(len(nodes)), key=lambda i: nodes[i].size):
        level = nodes[idx].size // tokens_per_level
        if level == 1:
            reachable[idx] = True
        else:
            reachable[idx] = any(reachable[p] for p in parents[idx])
        if not reachable[idx]:
            raise ValueError("node %s is not reachable from the root" % nodes[idx].format())
    return DraftGraphSpec(nodes=nodes, tokens_per_level=tokens_per_level, budget=budget, parents=parents)


# ---------------------------------------------------------------------------
# spawning


def spawn_drafts(
    graph: DraftGraphSpec,
    positions: Sequence[int],
    vocab: Sequence[Sequence[int]],
    block: BlockState,
) -> List[Tuple[int, ...]]:
    """The token tuples of every node of ``graph`` that fits the ranking
    (``positions``, ranked masked positions of ``block``, and ``vocab``,
    their ``order_vocab`` ids) and leaves a slot of ``block`` masked.
    The returned order (ascending level, then node declaration order) is
    also the verification scan order.

    The walk goes over ``graph.compiled``: a node is skipped (not an
    error) when its highest position rank exceeds the ranked positions
    or its highest vocabulary rank exceeds the ranking's width, or when
    its size equals ``block``'s masked count.  Such a node would fill
    every masked slot, and verification never accepts a complete state.
    A kept node writes its 0-based pairs into one copy of the block's
    tokens.  Every ranked position is checked once per call to be still
    masked, so no pair overwrites a committed token, and every written
    token is >= 1 because ``order_vocab`` ids are argsort indices plus
    one.

    No kept node lacks a kept parent: a parent's pairs are a subset of
    its child's, so when all of a child's ranks fit the ranking, so do
    its parents', a parent is smaller than its child, and
    ``build_graph`` gives every node above level 1 a parent.  No two
    kept drafts share content: ranked positions are distinct, each
    position's tokens are distinct, and each position is unmasked at
    most once, so distinct formulas (``build_graph`` rejects duplicates)
    give distinct blocks.
    """
    base = list(block.tokens)
    for n in positions:
        if base[n] != MASK:
            raise ValueError("position %d already unmasked" % n)
    ranks = len(positions)
    width = len(vocab[0]) if vocab else 0
    masked = base.count(MASK)
    out: List[Tuple[int, ...]] = []
    for max_i, max_j, size, pairs in graph.compiled:
        if max_i > ranks or max_j > width or size == masked:
            continue
        tokens = base[:]
        for i, j in pairs:
            tokens[positions[i]] = vocab[i][j]
        out.append(tuple(tokens))
    return out


# ---------------------------------------------------------------------------
# graph file format


def format_graph(graph: DraftGraphSpec) -> str:
    lines = ["D %d" % graph.budget, "tokens_per_level %d" % graph.tokens_per_level]
    for node in graph.nodes:
        lines.append(node.format())
    return "\n".join(lines) + "\n"


def parse_graph(text: str, *, source: str = "<graph>") -> DraftGraphSpec:
    budget = None
    tokens_per_level = None
    formulas: List[DraftFormula] = []
    for lineno, line in enumerate(ascii_split(text, "\n"), start=1):
        if not line or line.startswith("#"):
            continue
        fields = ascii_split(line)
        if fields[0] == "D":
            if len(fields) != 2 or budget is not None:
                raise ValueError("%s:%d: bad D header" % (source, lineno))
            budget = _parse_positive_int(fields[1], source, lineno, "D")
        elif fields[0] == "tokens_per_level":
            if len(fields) != 2 or tokens_per_level is not None:
                raise ValueError("%s:%d: bad tokens_per_level header" % (source, lineno))
            tokens_per_level = _parse_positive_int(fields[1], source, lineno, "tokens_per_level")
        else:
            pairs = []
            for field in fields:
                i, sep, j = field.partition(":")
                if not sep:
                    raise ValueError("%s:%d: expected i:j pair, got %r" % (source, lineno, field))
                pairs.append((_parse_positive_int(i, source, lineno, "i"), _parse_positive_int(j, source, lineno, "j")))
            try:
                formulas.append(DraftFormula.of(pairs))
            except ValueError as exc:
                raise ValueError("%s:%d: %s" % (source, lineno, exc))
    if budget is None:
        raise ValueError("%s: missing D header" % source)
    if tokens_per_level is None:
        raise ValueError("%s: missing tokens_per_level header" % source)
    try:
        return build_graph(formulas, tokens_per_level, budget=budget)
    except ValueError as exc:
        raise ValueError("%s: %s" % (source, exc))


def _parse_positive_int(text: str, source: str, lineno: int, what: str) -> int:
    """``text`` as an integer >= 1; errors name ``source:lineno`` and ``what``."""
    try:
        value = parse_int(text)
    except ValueError:
        raise ValueError("%s:%d: %s must be an integer, got %r" % (source, lineno, what, text))
    if value < 1:
        raise ValueError("%s:%d: %s must be >= 1, got %d" % (source, lineno, what, value))
    return value


# ---------------------------------------------------------------------------
# dot export


def export_dot(graph: DraftGraphSpec) -> str:
    """Graphviz document: root plus one node per formula, ranked by level."""
    lines = ["digraph draft_graph {", "  rankdir=TB;", '  root [label="root"];']
    for idx, node in enumerate(graph.nodes):
        label = ", ".join("c_{%d,%d}" % (i, j) for i, j in node.pairs)
        lines.append('  n%d [label="%s"];' % (idx, label))
    by_level: Dict[int, List[int]] = {}
    for idx in range(graph.num_nodes):
        by_level.setdefault(graph.level_of(idx), []).append(idx)
    for level in sorted(by_level):
        members = " ".join("n%d;" % idx for idx in by_level[level])
        lines.append("  { rank = same; %s }" % members)
    for idx in range(graph.num_nodes):
        if graph.level_of(idx) == 1:
            lines.append("  root -> n%d;" % idx)
    for idx, parent_ids in enumerate(graph.parents):
        for p in parent_ids:
            lines.append("  n%d -> n%d;" % (p, idx))
    lines.append("}")
    return "\n".join(lines) + "\n"
