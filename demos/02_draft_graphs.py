"""Draft formulas, directed draft graphs, and spawning drafts.

A draft formula {(i, j)} names ranked candidates, not tokens: "take the
i-th most confident masked position and its j-th most likely token".
Formulas only turn into concrete blocks once a distribution is in hand,
which is what lets one fixed graph serve every decoding step.  Nodes
with multiple parents are the point: the six-node graph below gives its
deepest draft three distinct acceptance routes.

Run: python3 demos/02_draft_graphs.py
"""

from blockspec import synthetic
from blockspec.core import MASK, BlockState, SequenceState
from blockspec.drafting import (
    DraftFormula,
    build_graph,
    export_dot,
    format_graph,
    order_positions,
    order_vocab,
    spawn_drafts,
)
from blockspec.model import forward_batched, train_from_corpus


def main() -> None:
    # The six-formula graph from the worked examples: two level-1 roots,
    # three level-2 combinations, one level-3 node with three parents.
    formulas = [
        DraftFormula.of([(1, 1)]),
        DraftFormula.of([(2, 1)]),
        DraftFormula.of([(1, 1), (2, 1)]),
        DraftFormula.of([(1, 1), (3, 1)]),
        DraftFormula.of([(2, 1), (3, 1)]),
        DraftFormula.of([(1, 1), (2, 1), (3, 1)]),
    ]
    graph = build_graph(formulas, tokens_per_level=1, budget=10)
    print("graph: %d nodes, depth %d" % (graph.num_nodes, graph.depth))
    for idx, node in enumerate(graph.nodes):
        parents = graph.parents[idx]
        names = ", ".join(graph.nodes[p].format() for p in parents) or "root"
        print("  level %d  %-14s <- %s" % (graph.level_of(idx), node.format(), names))
    deepest = graph.num_nodes - 1
    print("the level-3 node has %d parents: accept any level-2 draft and it stays alive."
          % len(graph.parents[deepest]))

    # Spawn the whole graph against a live model distribution.
    corpus = synthetic.make_corpus(synthetic.DEFAULT_SEED)
    model = train_from_corpus(corpus, max(t for s in corpus for t in s))
    state = SequenceState.initial((2, 2), num_blocks=1, block_length=4)
    rows = forward_batched(model, state, [])[0]
    top1 = rows.max(axis=1).tolist()
    block = state.active_block
    positions = order_positions(top1, block)
    print("\nranking for prompt '2 2', four masked positions:")
    print("  position order:", positions)
    drafts = spawn_drafts(graph, positions, order_vocab(rows, positions, 3), block)
    print("spawned %d drafts (level order):" % len(drafts))
    for d in drafts:
        # the block starts fully masked, so a draft's unmasked count is its level
        print("  level %d  -> %s" % (BlockState(d).unmasked_count, d))

    # With fewer masked positions, formulas that need rank 3 skip, and so
    # does a formula that would fill every masked slot: verification
    # never accepts a complete block, so it is not spawned.
    shrunken = BlockState((2, MASK, MASK, 2))
    positions = order_positions(top1, shrunken)
    survivors = spawn_drafts(graph, positions, order_vocab(rows, positions, 3), shrunken)
    print("\nwith only 2 masked positions, %d of 6 formulas survive:" % len(survivors))
    print("  (rank 3 is out of range, and 1:1 2:1 would fill both slots)")
    for d in survivors:
        print("  %s" % (d,))

    # Graphs are plain text on disk and graphviz for the eyes.
    print("\ngraph file format:")
    print(format_graph(graph))
    dot = export_dot(graph)
    print("DOT export (feed to `dot -Tpng`): %d lines, in-degree of n%d is %d"
          % (len(dot.splitlines()), deepest, dot.count("-> n%d;" % deepest)))


if __name__ == "__main__":
    main()
