"""Draft formulas, ranking views, and directed draft graphs.

A draft formula is a set of (i, j) pairs: "unmask the i-th ranked masked
position with its j-th ranked token".  Ranks are 1-based and computed
against a concrete Marginals: positions ordered by descending top-1
probability (ties toward the lower position index), vocabulary ordered
by descending probability (ties toward the lower token id).
``order_positions`` and ``order_vocab`` are the only statement of these
tie-break rules; callers rank once per denoising step and reuse that
order for advancing, drafting and calibration.  Formulas are
state-independent; materializing one against a ranking view turns it
into an actual candidate block.

Formulas are organized into a rooted DAG: A is a parent of B when A's
pairs are a subset of B's and B has exactly one level's worth of extra
tokens.  Nodes may have several parents (the routes through the graph
are what verification exploits level by level).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import BlockState, Marginals, unmask


# ---------------------------------------------------------------------------
# ranking


@dataclass(frozen=True)
class RankingView:
    """Position and vocabulary orderings extracted from one Marginals."""

    ordered_positions: Tuple[int, ...]
    vocab_by_position: Tuple[Tuple[int, ...], ...]  # aligned with ordered_positions

    def token_at(self, i: int, j: int) -> Optional[int]:
        if not (1 <= i <= len(self.ordered_positions)):
            return None
        vocab = self.vocab_by_position[i - 1]
        if 1 <= j <= len(vocab):
            return vocab[j - 1]
        return None


def order_positions(marginals: Marginals, block: BlockState) -> Tuple[int, ...]:
    """Masked positions sorted by descending top-1 probability, ties toward
    the lower position index."""
    masked = block.masked_positions
    if not masked:
        raise ValueError("no masked positions to rank")
    top1 = marginals.top1
    return tuple(sorted(masked, key=lambda n: (-top1[n], n)))


def order_vocab(marginals: Marginals, positions: Sequence[int], top_k: int) -> Tuple[Tuple[int, ...], ...]:
    """Per position: top_k token ids by descending probability, ties toward
    the lower id (stable argsort on the negated row)."""
    assert top_k >= 1
    out = []
    for n in positions:
        order = np.argsort(-marginals.rows[n], kind="stable")[:top_k]
        out.append(tuple(int(v) + 1 for v in order))
    return tuple(out)


def rank(marginals: Marginals, block: BlockState, top_k: int) -> RankingView:
    positions = order_positions(marginals, block)
    return RankingView(
        ordered_positions=positions,
        vocab_by_position=order_vocab(marginals, positions, top_k),
    )


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class DraftFormula:
    """Canonical (sorted by position rank) tuple of (i, j) pairs."""

    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        assert len(self.pairs) >= 1, "empty formula"
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


def is_parent(a: DraftFormula, b: DraftFormula, tokens_per_level: int) -> bool:
    return b.size - a.size == tokens_per_level and set(a.pairs) < set(b.pairs)


def parent_indices(formulas: Sequence[DraftFormula], tokens_per_level: int) -> Tuple[Tuple[int, ...], ...]:
    """Per formula, the indices of its parents among ``formulas``."""
    return tuple(
        tuple(a_idx for a_idx, a in enumerate(formulas) if is_parent(a, b, tokens_per_level))
        for b in formulas
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
    assert tokens_per_level >= 1
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
# materialization


@dataclass(frozen=True)
class DraftBlock:
    """A materialized draft: the candidate block plus bookkeeping.

    ``step_tag`` is the cumulative unmasked count this draft represents;
    verification matches it against the advancing state's count.
    """

    block: BlockState
    formula: DraftFormula
    level: int
    step_tag: int


def materialize(
    formula: DraftFormula,
    ranking: RankingView,
    block: BlockState,
    tokens_per_level: int = 1,
) -> Optional[DraftBlock]:
    """Instantiate ``formula`` against ``ranking``; None means Skip (some
    rank points outside the view), which is not an error."""
    tokens = list(block.tokens)
    for i, j in formula.pairs:
        token = ranking.token_at(i, j)
        if token is None:
            return None
        unmask(tokens, ranking.ordered_positions[i - 1], token)
    draft = BlockState(tokens=tuple(tokens))
    return DraftBlock(
        block=draft,
        formula=formula,
        level=formula.size // tokens_per_level,
        step_tag=draft.unmasked_count,
    )


def spawn_drafts(graph: DraftGraphSpec, ranking: RankingView, block: BlockState) -> List[DraftBlock]:
    """Materialize the whole graph against the current block, keeping
    every node that is not skipped.  The returned order (ascending level,
    then node declaration order) is also the verification scan order.

    No kept node lacks a kept parent: a parent's pairs are a subset of
    its child's, so when all of a child's ranks fit the view, so do its
    parents', and ``build_graph`` gives every node above level 1 a
    parent.  No two kept drafts share content: positions in the view are
    distinct, each position's tokens are distinct, and each position is
    unmasked at most once, so distinct formulas (``build_graph`` rejects
    duplicates) give distinct blocks.
    """
    out: List[DraftBlock] = []
    for idx in sorted(range(graph.num_nodes), key=lambda i: (graph.level_of(i), i)):
        made = materialize(graph.nodes[idx], ranking, block, graph.tokens_per_level)
        if made is not None:
            out.append(made)
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
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
        value = int(text)
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
