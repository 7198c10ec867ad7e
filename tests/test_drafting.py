"""Tests for ranking, draft formulas, draft graphs, and spawning drafts.

The six-node example graph used throughout is the one whose level-3
node is reachable by three routes; its structure (a node with three
parents) is what separates draft graphs from draft trees.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspec.core import MASK, BlockState, Marginals, UnmaskSchedule
from blockspec.drafting import (
    DraftFormula,
    build_graph,
    export_dot,
    format_graph,
    is_parent,
    order_positions,
    order_vocab,
    parse_graph,
    rank,
    spawn_drafts,
)
from blockspec.verification import advance, verify

from reference_speculation import reference_rank, reference_spawn_drafts, reference_verify


def _marginals(rows, vocab=4):
    """Pad explicit probability rows out to ``vocab`` columns."""
    out = np.zeros((len(rows), vocab), dtype=np.float64)
    for n, row in enumerate(rows):
        out[n, : len(row)] = row
    return Marginals(rows=out)


def _six_node_formulas():
    return [
        DraftFormula.of([(1, 1)]),
        DraftFormula.of([(2, 1)]),
        DraftFormula.of([(1, 1), (2, 1)]),
        DraftFormula.of([(1, 1), (3, 1)]),
        DraftFormula.of([(2, 1), (3, 1)]),
        DraftFormula.of([(1, 1), (2, 1), (3, 1)]),
    ]


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


class TestRanking:
    def test_positions_sorted_by_top1_descending(self):
        m = _marginals([[0.2], [0.9], [0.5]])
        block = BlockState.masked(3)
        assert order_positions(m, block) == (1, 2, 0)

    def test_position_tie_breaks_to_lower_index(self):
        m = _marginals([[0.9], [0.0, 0.5], [0.9], [0.0, 0.5], [0.9]])
        block = BlockState(tokens=(1, 0, 1, 0, 1))
        assert order_positions(m, block) == (1, 3)

    def test_only_masked_positions_ranked(self):
        m = _marginals([[0.9], [0.1]])
        block = BlockState(tokens=(3, 0))
        assert order_positions(m, block) == (1,)

    def test_no_masked_positions_is_error(self):
        m = _marginals([[1.0]])
        with pytest.raises(ValueError, match="no masked positions"):
            order_positions(m, BlockState(tokens=(2,)))

    def test_vocab_sorted_descending_truncated(self):
        m = _marginals([[0.1, 0.6, 0.3]], vocab=3)
        assert order_vocab(m, [0], 2) == ((2, 3),)
        assert order_vocab(m, [0], 5) == ((2, 3, 1),)

    def test_vocab_top_k_must_be_positive(self):
        m = _marginals([[0.1, 0.6, 0.3]], vocab=3)
        with pytest.raises(ValueError, match="^top_k must be >= 1, got 0$"):
            order_vocab(m, [0], 0)

    def test_vocab_tie_breaks_to_lower_id(self):
        m = _marginals([[0.4, 0.4, 0.2]], vocab=3)
        assert order_vocab(m, [0], 3) == ((1, 2, 3),)

    def test_rank_view_accessors(self):
        m = _marginals([[0.2], [0.9]])
        view = rank(m, BlockState.masked(2), 2)
        assert view.ordered_positions == (1, 0)
        assert view.vocab_by_position == ((1, 2), (1, 2))


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


class TestDraftFormula:
    def test_of_canonicalizes_order(self):
        f = DraftFormula.of([(3, 1), (1, 2)])
        assert f.pairs == ((1, 2), (3, 1))
        assert f.format() == "1:2 3:1"

    def test_duplicate_position_rank_rejected(self):
        with pytest.raises(ValueError, match="duplicate position rank"):
            DraftFormula.of([(1, 1), (1, 2)])

    def test_zero_based_ranks_rejected(self):
        with pytest.raises(ValueError, match="1-based"):
            DraftFormula.of([(0, 1)])

    def test_empty_formula_rejected(self):
        with pytest.raises(ValueError, match="^empty formula$"):
            DraftFormula(pairs=())
        with pytest.raises(ValueError, match="^empty formula$"):
            DraftFormula.of([])

    def test_unsorted_direct_construction_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            DraftFormula(pairs=((2, 1), (1, 1)))

    def test_is_parent_subset_plus_size(self):
        a = DraftFormula.of([(1, 1)])
        b = DraftFormula.of([(1, 1), (2, 1)])
        c = DraftFormula.of([(1, 2)])
        assert is_parent(a, b, 1)
        assert not is_parent(b, a, 1)
        assert not is_parent(a, b, 2)  # size gap must equal tokens_per_level
        assert not is_parent(c, b, 1)  # not a subset


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


class TestBuildGraph:
    def test_six_node_graph_level3_has_three_parents(self):
        graph = build_graph(_six_node_formulas(), 1, budget=10)
        assert graph.num_nodes == 6
        assert graph.depth == 3
        level3 = [i for i in range(6) if graph.level_of(i) == 3]
        assert len(level3) == 1
        parents = graph.parents[level3[0]]
        assert len(parents) == 3
        assert sorted(graph.nodes[p].format() for p in parents) == [
            "1:1 2:1",
            "1:1 3:1",
            "2:1 3:1",
        ]

    def test_single_node_graph(self):
        graph = build_graph([DraftFormula.of([(1, 1)])], 1)
        assert graph.parents == ((),)
        assert graph.depth == 1
        assert graph.max_vocab_rank() == 1

    def test_unreachable_node_rejected(self):
        with pytest.raises(ValueError, match="not reachable"):
            build_graph([DraftFormula.of([(1, 1), (2, 1)])], 1)

    def test_duplicate_node_rejected(self):
        f = DraftFormula.of([(1, 1)])
        with pytest.raises(ValueError, match="duplicate node"):
            build_graph([f, DraftFormula.of([(1, 1)])], 1)

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            build_graph(_six_node_formulas(), 1, budget=5)

    def test_tokens_per_level_must_be_positive(self):
        with pytest.raises(ValueError, match="^tokens_per_level must be >= 1, got 0$"):
            build_graph([DraftFormula.of([(1, 1)])], 0)

    def test_size_must_be_level_multiple(self):
        with pytest.raises(ValueError, match="multiple of tokens_per_level"):
            build_graph([DraftFormula.of([(1, 1)])], 2)

    def test_tokens_per_level_scaling(self):
        nodes = [
            DraftFormula.of([(1, 1), (2, 1)]),
            DraftFormula.of([(1, 1), (2, 1), (3, 1), (4, 1)]),
        ]
        graph = build_graph(nodes, 2)
        assert graph.level_of(0) == 1
        assert graph.level_of(1) == 2
        assert graph.parents[1] == (0,)


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------


def _spawn_one(formula, view, block):
    """The drafts of a graph holding ``formula`` and its parent chain."""
    chain = [DraftFormula.of(formula.pairs[:n]) for n in range(1, formula.size + 1)]
    return spawn_drafts(build_graph(chain, 1), view, block)[formula.size - 1:]


class TestMaterialize:
    def test_level1_matches_vanilla_greedy_step(self):
        """Rank consistency: {(1,1)} is exactly one Fixed{1} advance."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            length = int(rng.integers(2, 6))
            tokens = tuple(
                0 if rng.random() < 0.7 else int(rng.integers(1, 5)) for _ in range(length)
            )
            block = BlockState(tokens=tokens)
            if not block.masked_positions:
                block = BlockState.masked(length)
            rows = rng.random((length, 4))
            rows /= rows.sum(axis=1, keepdims=True)
            m = Marginals(rows=rows)
            view = rank(m, block, 4)
            (made,) = _spawn_one(DraftFormula.of([(1, 1)]), view, block)
            stepped, realized = advance(block, m, view.ordered_positions, UnmaskSchedule.fixed(1))
            assert realized == 1
            assert made.tokens == stepped.tokens

    def test_draft_unmasks_one_slot_per_pair(self):
        m = _marginals([[0.2], [0.9], [0.5]])
        block = BlockState.masked(3)
        view = rank(m, block, 2)
        (made,) = _spawn_one(DraftFormula.of([(1, 1), (2, 1)]), view, block)
        assert made.level == 2
        assert made.tokens == (0, 1, 1)
        assert BlockState(tokens=made.tokens).unmasked_count == 2

    def test_position_rank_out_of_range_skips(self):
        m = _marginals([[0.2], [0.9], [0.5]])
        view = rank(m, BlockState.masked(3), 2)
        assert spawn_drafts(build_graph([DraftFormula.of([(5, 1)])], 1), view, BlockState.masked(3)) == []

    def test_vocab_rank_out_of_range_skips(self):
        m = _marginals([[0.2], [0.9], [0.5]])
        view = rank(m, BlockState.masked(3), 1)
        assert spawn_drafts(build_graph([DraftFormula.of([(1, 2)])], 1), view, BlockState.masked(3)) == []

    def test_monotone_along_parent_edges(self):
        """If A is a parent of B, A's unmasked set is inside B's."""
        rng = np.random.default_rng(8)
        a = DraftFormula.of([(1, 1), (2, 1)])
        b = DraftFormula.of([(1, 1), (2, 1), (3, 2)])
        graph = build_graph([DraftFormula.of([(1, 1)]), a, b], 1)
        for _ in range(30):
            rows = rng.random((5, 4))
            rows /= rows.sum(axis=1, keepdims=True)
            m = Marginals(rows=rows)
            block = BlockState.masked(5)
            _, made_a, made_b = spawn_drafts(graph, rank(m, block, 3), block)
            assert (made_a.formula, made_b.formula) == (a, b)
            set_a = {n for n, t in enumerate(made_a.tokens) if t != 0}
            set_b = {n for n, t in enumerate(made_b.tokens) if t != 0}
            assert set_a < set_b


class TestSpawnDrafts:
    def test_empty_graph(self):
        m = _marginals([[0.5], [0.5]])
        graph = build_graph([], 1)
        assert spawn_drafts(graph, rank(m, BlockState.masked(2), 2), BlockState.masked(2)) == []

    def test_six_nodes_with_room(self):
        graph = build_graph(_six_node_formulas(), 1, budget=10)
        m = _marginals([[0.2], [0.9], [0.5]])
        block = BlockState.masked(3)
        drafts = spawn_drafts(graph, rank(m, block, 3), block)
        assert len(drafts) == 6
        assert [d.level for d in drafts] == [1, 1, 2, 2, 2, 3]
        # level order, then declaration order within a level
        assert [d.formula.format() for d in drafts[:2]] == ["1:1", "2:1"]

    def test_rank3_nodes_dropped_with_two_masked(self):
        graph = build_graph(_six_node_formulas(), 1, budget=10)
        m = _marginals([[0.2], [0.9], [0.5]])
        block = BlockState(tokens=(0, 0, 7))
        drafts = spawn_drafts(graph, rank(m, block, 3), block)
        assert [d.formula.format() for d in drafts] == ["1:1", "2:1", "1:1 2:1"]

    def test_determinism(self):
        graph = build_graph(_six_node_formulas(), 1, budget=10)
        m = _marginals([[0.3], [0.8], [0.6], [0.1]])
        block = BlockState.masked(4)
        a = spawn_drafts(graph, rank(m, block, 3), block)
        b = spawn_drafts(graph, rank(m, block, 3), block)
        assert [d.tokens for d in a] == [d.tokens for d in b]

    def test_surviving_parent_keeps_multiparent_child(self):
        # drop {(2,1)} by vocab range while {(1,1)} survives: the child
        # {(1,1),(2,1)} must still spawn through its surviving parent
        nodes = [
            DraftFormula.of([(1, 1)]),
            DraftFormula.of([(2, 2)]),
            DraftFormula.of([(1, 1), (2, 2)]),
            DraftFormula.of([(1, 1), (2, 1)]),
        ]
        graph = build_graph(nodes, 1, budget=5)
        m = _marginals([[0.2], [0.9]])
        block = BlockState.masked(2)
        drafts = spawn_drafts(graph, rank(m, block, 1), block)
        assert [d.formula.format() for d in drafts] == ["1:1", "1:1 2:1"]

    def test_ranked_position_already_unmasked_is_error(self):
        graph = build_graph([DraftFormula.of([(1, 1)])], 1)
        m = _marginals([[0.2], [0.9]])
        view = rank(m, BlockState.masked(2), 2)
        with pytest.raises(ValueError, match="position 1 already unmasked"):
            spawn_drafts(graph, view, BlockState(tokens=(0, 3)))


@st.composite
def spawn_cases(draw):
    """A block with some slots already unmasked, tie-heavy marginals, a
    top_k and a valid graph declared in shuffled order.  Ranks reach one
    past the masked slots and one past the view's vocabulary, so some
    nodes are skipped."""
    length = draw(st.integers(1, 9))
    vocab = draw(st.integers(1, 4))
    top_k = draw(st.integers(1, 4))
    slot = st.one_of(st.just(MASK), st.integers(MASK, vocab))
    tokens = draw(st.lists(slot, min_size=length, max_size=length))
    tokens[draw(st.integers(0, length - 1))] = MASK
    block = BlockState(tokens=tuple(tokens))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from((0.0, 0.25, 0.5)), min_size=vocab, max_size=vocab),
            min_size=length,
            max_size=length,
        )
    )
    marginals = Marginals(rows=np.array(rows, dtype=np.float64))
    masked = len(block.masked_positions)
    tokens_per_level = draw(st.integers(1, min(3, masked + 1)))
    # mostly top ranks, so that deep nodes often fit
    ranks = st.tuples(
        st.one_of(st.integers(1, 2), st.integers(1, masked + 1)),
        st.one_of(st.just(1), st.integers(1, min(top_k, vocab) + 1)),
    )
    depth = min(3, (masked + 1) // tokens_per_level)
    levels = [[]]
    for _ in range(draw(st.integers(1, depth))):
        level = []
        for _ in range(draw(st.integers(1, 3))):
            below = levels[-1]
            grown = dict(draw(st.sampled_from(below)).pairs) if below else {}
            size = len(grown) + tokens_per_level
            while len(grown) < size:
                i, j = draw(ranks)
                grown.setdefault(i, j)
            node = DraftFormula.of(grown.items())
            if node not in level:
                level.append(node)
        levels.append(level)
    nodes = draw(st.permutations([node for level in levels for node in level]))
    return build_graph(nodes, tokens_per_level), marginals, block, top_k


class TestSpawnProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(spawn_cases())
    def test_spawns_every_node_that_fits_in_scan_order(self, case):
        graph, marginals, block, top_k = case
        view = rank(marginals, block, top_k)

        def fits(node):
            return all(
                i <= len(view.ordered_positions) and j <= len(view.vocab_by_position[i - 1])
                for i, j in node.pairs
            )

        drafts = spawn_drafts(graph, view, block)
        spawned = [graph.nodes.index(d.formula) for d in drafts]
        assert sorted(spawned) == [idx for idx, node in enumerate(graph.nodes) if fits(node)]
        assert spawned == sorted(spawned, key=lambda idx: (graph.level_of(idx), idx))
        for idx in spawned:
            if graph.level_of(idx) > 1:
                assert any(p in spawned for p in graph.parents[idx])
        assert len({d.tokens for d in drafts}) == len(drafts)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(spawn_cases(), st.data())
    def test_spawn_and_verify_match_the_reference(self, case, data):
        """Same drafts in the same order, and the same verify outcome, as
        the materialize-based reference.  The target is often the ranking
        source itself, so level-1 drafts match; each draft's rows are the
        source again or fresh draws, so chains continue or stop; and some
        drafts are appended again with other rows, so the first of equal
        drafts must win."""
        graph, marginals, block, top_k = case
        drafts = spawn_drafts(graph, rank(marginals, block, top_k), block)
        want = reference_spawn_drafts(graph, reference_rank(marginals, block, top_k), block)
        assert [tuple(d) for d in drafts] == [(w.block.tokens, w.formula, w.level) for w in want]

        length, vocab = marginals.rows.shape

        def rows():
            if data.draw(st.integers(0, 2)) < 2:
                return marginals.rows
            seed = data.draw(st.integers(0, 2**16))
            return np.random.default_rng(seed).choice((0.0, 0.25, 0.5), size=(length, vocab))

        target = Marginals(rows=rows())
        picks = list(range(len(drafts)))
        if drafts:
            picks += data.draw(st.lists(st.integers(0, len(drafts) - 1), max_size=3))
        draft_rows = np.array([rows() for _ in picks]).reshape(len(picks), length, vocab)
        schedule = data.draw(
            st.one_of(
                st.just(UnmaskSchedule.fixed(graph.tokens_per_level)),
                st.integers(1, 3).map(UnmaskSchedule.fixed),
                st.sampled_from((0.25, 0.5, 1.0)).map(UnmaskSchedule.at_threshold),
            )
        )

        out = verify(block, target, [drafts[k] for k in picks], draft_rows, schedule)
        ref = reference_verify(
            block, target, [want[k] for k in picks], [Marginals(rows=r) for r in draft_rows], schedule
        )
        assert out.new_block == ref.new_block
        assert out.accepted_levels == ref.accepted_levels
        assert out.realized_s == ref.realized_s
        assert out.remaining_order == ref.remaining_order
        if ref.adopted_marginals is None:
            assert out.adopted_marginals is None
        else:
            assert out.adopted_marginals.rows.tobytes() == ref.adopted_marginals.rows.tobytes()


# ---------------------------------------------------------------------------
# graph files and DOT export
# ---------------------------------------------------------------------------


class TestGraphFile:
    def test_round_trip(self):
        graph = build_graph(_six_node_formulas(), 1, budget=10)
        again = parse_graph(format_graph(graph))
        assert again.nodes == graph.nodes
        assert again.budget == graph.budget
        assert again.tokens_per_level == graph.tokens_per_level
        assert again.parents == graph.parents

    def test_missing_headers_rejected(self):
        with pytest.raises(ValueError, match="missing D header"):
            parse_graph("tokens_per_level 1\n1:1\n")
        with pytest.raises(ValueError, match="missing tokens_per_level"):
            parse_graph("D 4\n1:1\n")

    def test_malformed_pair_names_line(self):
        with pytest.raises(ValueError, match="g.txt:3"):
            parse_graph("D 4\ntokens_per_level 1\n1;1\n", source="g.txt")

    def test_comments_skipped(self):
        graph = parse_graph("# chain\nD 2\ntokens_per_level 1\n1:1\n1:1 2:1\n")
        assert graph.num_nodes == 2

    def test_unreachable_node_error_carries_source(self):
        with pytest.raises(ValueError, match="bad.graph"):
            parse_graph("D 2\ntokens_per_level 1\n1:1 2:1\n", source="bad.graph")


class TestExportDot:
    def test_single_node_golden(self):
        graph = build_graph([DraftFormula.of([(1, 1)])], 1)
        want = (
            "digraph draft_graph {\n"
            "  rankdir=TB;\n"
            '  root [label="root"];\n'
            '  n0 [label="c_{1,1}"];\n'
            "  { rank = same; n0; }\n"
            "  root -> n0;\n"
            "}\n"
        )
        assert export_dot(graph) == want

    def test_six_node_in_degree_three(self):
        graph = build_graph(_six_node_formulas(), 1, budget=10)
        dot = export_dot(graph)
        # the level-3 node is declared last (n5) and keeps three in-edges
        assert dot.count("-> n5;") == 3
        assert dot.count("root ->") == 2
        assert '"c_{1,1}, c_{2,1}, c_{3,1}"' in dot

    def test_levels_ranked_same(self):
        graph = build_graph(_six_node_formulas(), 1, budget=10)
        dot = export_dot(graph)
        assert dot.count("rank = same") == 3
