"""Tests for ranking, draft formulas, draft graphs, and spawning drafts.

The six-node example graph used throughout is the one whose level-3
node is reachable by three routes; its structure (a node with three
parents) is what separates draft graphs from draft trees.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspec.core import MASK, BlockState, UnmaskSchedule
from blockspec.drafting import (
    DraftFormula,
    build_graph,
    export_dot,
    format_graph,
    order_positions,
    order_vocab,
    parent_indices,
    parse_graph,
    spawn_drafts,
)
from blockspec.verification import verify
from conftest import advance_on_rows

from reference_speculation import materialize, reference_rank, reference_spawn_drafts, reference_verify


def _marginals(rows, vocab=4):
    """Pad explicit probability rows out to ``vocab`` columns."""
    out = np.zeros((len(rows), vocab), dtype=np.float64)
    for n, row in enumerate(rows):
        out[n, : len(row)] = row
    return out


def _top1(rows):
    """Each position's largest probability, as ``order_positions`` reads it."""
    return rows.max(axis=1).tolist()


def _spawn(graph, rows, block, top_k):
    """``spawn_drafts`` against ``block`` ranked under ``rows``."""
    positions = order_positions(_top1(rows), block)
    return spawn_drafts(graph, positions, order_vocab(rows, positions, top_k), block)


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
        block = BlockState.masked(3)
        assert order_positions((0.2, 0.9, 0.5), block) == (1, 2, 0)

    def test_position_tie_breaks_to_lower_index(self):
        block = BlockState(tokens=(1, 0, 1, 0, 1))
        assert order_positions((0.9, 0.5, 0.9, 0.5, 0.9), block) == (1, 3)

    def test_only_masked_positions_ranked(self):
        block = BlockState(tokens=(3, 0))
        assert order_positions((0.9, 0.1), block) == (1,)

    def test_no_masked_positions_is_error(self):
        with pytest.raises(ValueError, match="no masked positions"):
            order_positions((1.0,), BlockState(tokens=(2,)))

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

    def test_order_positions_then_order_vocab(self):
        m = _marginals([[0.2], [0.9]])
        positions = order_positions(_top1(m), BlockState.masked(2))
        assert positions == (1, 0)
        assert order_vocab(m, positions, 2) == ((1, 2), (1, 2))


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
        parents = parent_indices([a, b, c], 1)
        assert 0 in parents[1]
        assert 1 not in parents[0]
        assert 0 not in parent_indices([a, b, c], 2)[1]  # size gap must equal tokens_per_level
        assert 2 not in parents[1]  # not a subset


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


def _spawn_one(formula, marginals, block, top_k):
    """The drafts of a graph holding ``formula`` and its parent chain."""
    chain = [DraftFormula.of(formula.pairs[:n]) for n in range(1, formula.size + 1)]
    return _spawn(build_graph(chain, 1), marginals, block, top_k)[formula.size - 1:]


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
            drafts = _spawn_one(DraftFormula.of([(1, 1)]), rows, block, 4)
            step = advance_on_rows(block, rows, UnmaskSchedule.fixed(1))
            assert step.ordered == order_positions(_top1(rows), block)
            assert step.realized == 1
            if step.state_after.is_complete:
                # one masked slot: the draft would fill it, so none is spawned
                assert drafts == []
            else:
                assert drafts == [step.state_after.tokens]

    def test_draft_unmasks_one_slot_per_pair(self):
        m = _marginals([[0.2], [0.9], [0.5]])
        block = BlockState.masked(3)
        (made,) = _spawn_one(DraftFormula.of([(1, 1), (2, 1)]), m, block, 2)
        assert made == (0, 1, 1)
        assert BlockState(tokens=made).unmasked_count == 2

    def test_position_rank_out_of_range_skips(self):
        m = _marginals([[0.2], [0.9], [0.5]])
        assert _spawn(build_graph([DraftFormula.of([(5, 1)])], 1), m, BlockState.masked(3), 2) == []

    def test_vocab_rank_out_of_range_skips(self):
        m = _marginals([[0.2], [0.9], [0.5]])
        assert _spawn(build_graph([DraftFormula.of([(1, 2)])], 1), m, BlockState.masked(3), 1) == []

    def test_monotone_along_parent_edges(self):
        """If A is a parent of B, A's unmasked set is inside B's."""
        rng = np.random.default_rng(8)
        a = DraftFormula.of([(1, 1), (2, 1)])
        b = DraftFormula.of([(1, 1), (2, 1), (3, 2)])
        graph = build_graph([DraftFormula.of([(1, 1)]), a, b], 1)
        for _ in range(30):
            rows = rng.random((5, 4))
            rows /= rows.sum(axis=1, keepdims=True)
            block = BlockState.masked(5)
            _, made_a, made_b = _spawn(graph, rows, block, 3)
            set_a = {n for n, t in enumerate(made_a) if t != 0}
            set_b = {n for n, t in enumerate(made_b) if t != 0}
            assert (len(set_a), len(set_b)) == (a.size, b.size)
            assert set_a < set_b


class TestSpawnDrafts:
    def test_empty_graph(self):
        m = _marginals([[0.5], [0.5]])
        graph = build_graph([], 1)
        assert _spawn(graph, m, BlockState.masked(2), 2) == []

    def test_six_nodes_with_room(self):
        graph = build_graph(_six_node_formulas(), 1, budget=10)
        m = _marginals([[0.2], [0.9], [0.5], [0.1]])
        block = BlockState.masked(4)
        drafts = _spawn(graph, m, block, 3)
        # level order, then declaration order within a level; positions
        # rank (1, 2, 0, 3) and token 1 ranks first everywhere
        assert drafts == [
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 1, 1, 0),
            (1, 1, 0, 0),
            (1, 0, 1, 0),
            (1, 1, 1, 0),
        ]

    def test_draft_filling_every_masked_slot_not_spawned(self):
        graph = build_graph(_six_node_formulas(), 1, budget=10)
        m = _marginals([[0.2], [0.9], [0.5]])
        block = BlockState.masked(3)
        drafts = _spawn(graph, m, block, 3)
        # the level-3 node would fill all three slots
        assert drafts == [(0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 1)]
        assert all(MASK in d for d in drafts)
        assert _spawn(build_graph([DraftFormula.of([(1, 1)])], 1), m, BlockState((0, 2, 2)), 3) == []

    def test_rank3_nodes_dropped_with_two_masked(self):
        graph = build_graph(_six_node_formulas(), 1, budget=10)
        m = _marginals([[0.2], [0.9], [0.5]])
        block = BlockState(tokens=(0, 0, 7))
        drafts = _spawn(graph, m, block, 3)
        # 1:1 and 2:1; 1:1 2:1 would fill both masked slots
        assert drafts == [(0, 1, 7), (1, 0, 7)]

    def test_determinism(self):
        graph = build_graph(_six_node_formulas(), 1, budget=10)
        m = _marginals([[0.3], [0.8], [0.6], [0.1]])
        block = BlockState.masked(4)
        assert _spawn(graph, m, block, 3) == _spawn(graph, m, block, 3)

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
        m = _marginals([[0.2], [0.9], [0.1]])
        block = BlockState.masked(3)
        # 1:1 then 1:1 2:1; positions rank (1, 0, 2)
        assert _spawn(graph, m, block, 1) == [(0, 1, 0), (1, 1, 0)]

    def test_ranked_position_already_unmasked_is_error(self):
        graph = build_graph([DraftFormula.of([(1, 1)])], 1)
        m = _marginals([[0.2], [0.9]])
        positions = order_positions(_top1(m), BlockState.masked(2))
        with pytest.raises(ValueError, match="position 1 already unmasked"):
            spawn_drafts(graph, positions, order_vocab(m, positions, 2), BlockState(tokens=(0, 3)))


@st.composite
def spawn_cases(draw):
    """A block with some slots already unmasked, tie-heavy marginals, a
    top_k and a valid graph declared in shuffled order.  Ranks reach one
    past the masked slots and one past the view's vocabulary, and node
    sizes often reach the masked count, so some nodes are skipped."""
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
    marginals = np.array(rows, dtype=np.float64)
    masked = len(block.masked_positions)
    tokens_per_level = draw(st.integers(1, min(3, masked + 1)))
    # mostly top ranks, so that deep nodes often fit
    ranks = st.tuples(
        st.one_of(st.integers(1, 2), st.integers(1, masked + 1)),
        st.one_of(st.just(1), st.integers(1, min(top_k, vocab) + 1)),
    )
    depth = min(3, (masked + 1) // tokens_per_level)
    # when a level's size is the masked count, often reach that level:
    # its nodes that fit fill every masked slot, so spawning skips them
    full = masked // tokens_per_level
    least = full if masked % tokens_per_level == 0 and full <= depth and draw(st.booleans()) else 1
    levels = [[]]
    for _ in range(draw(st.integers(least, depth))):
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
        """Every node whose ranks fit and that leaves a slot masked, in
        (level, declaration) order; each with a spawned parent above
        level 1, and no two with the same tokens."""
        graph, marginals, block, top_k = case
        view = reference_rank(marginals, block, top_k)

        def fits(node):
            return all(
                i <= len(view.ordered_positions) and j <= len(view.vocab_by_position[i - 1])
                for i, j in node.pairs
            )

        drafts = _spawn(graph, marginals, block, top_k)
        assert len(set(drafts)) == len(drafts)
        masked = len(block.masked_positions)
        node_of = {}
        for idx, node in enumerate(graph.nodes):
            if fits(node):
                node_of.setdefault(materialize(node, view, block).block.tokens, []).append(idx)
        spawned = [idx for d in drafts for idx in node_of[d]]
        assert sorted(spawned) == [
            idx for idx, node in enumerate(graph.nodes) if fits(node) and node.size < masked
        ]
        assert spawned == sorted(spawned, key=lambda idx: (graph.level_of(idx), idx))
        for idx in spawned:
            if graph.level_of(idx) > 1:
                assert any(p in spawned for p in graph.parents[idx])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(spawn_cases(), st.data())
    def test_spawn_and_verify_match_the_reference(self, case, data):
        """Same drafts in the same order, and the same verify outcome, as
        the materialize-based reference: the final block, the accepted
        levels, the rows the last step read, the realized counts and the
        remaining order all agree, read off the two calls alike."""
        graph, marginals, block, top_k = case
        drafts = _spawn(graph, marginals, block, top_k)
        want = reference_spawn_drafts(graph, reference_rank(marginals, block, top_k), block)
        assert drafts == [w.block.tokens for w in want]

        picks, rows, schedule = _verify_inputs(graph, marginals, len(drafts), data)
        out = verify(block, [drafts[k] for k in picks], rows, schedule)
        ref = reference_verify(block, [want[k] for k in picks], rows, schedule)
        levels = {w.block.tokens: w.level for w in want}
        assert _outcome(out, levels) == _outcome(ref, levels)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(spawn_cases(), st.data())
    def test_verify_returns_the_steps_it_took(self, case, data):
        """The first step is the target's advance; each later one starts
        from the state before it, which is exactly one spawned draft, and
        runs on the rows of the first scored copy of that draft; the chain
        stops on a complete block or a state no draft matches, and its
        realized counts sum to the slots it unmasked.  The rows handed back
        are the last step's."""
        graph, marginals, block, top_k = case
        drafts = _spawn(graph, marginals, block, top_k)
        picks, rows, schedule = _verify_inputs(graph, marginals, len(drafts), data)
        scored = [drafts[k] for k in picks]
        steps, last_rows = verify(block, scored, rows, schedule)

        step_rows = rows[0]
        assert steps[0] == advance_on_rows(block, step_rows, schedule)
        for before, step in zip(steps, steps[1:]):
            state = before.state_after
            assert drafts.count(state.tokens) == 1
            step_rows = rows[1 + scored.index(state.tokens)]
            assert step == advance_on_rows(state, step_rows, schedule)
        assert last_rows.tobytes() == step_rows.tobytes()
        last = steps[-1].state_after
        assert last.is_complete or last.tokens not in scored
        assert sum(step.realized for step in steps) == last.unmasked_count - block.unmasked_count


def _verify_inputs(graph, marginals, num_drafts, data):
    """What one model call hands verify: the indices of the spawned drafts
    it scored, the call's (1 + D, L, V) rows, the target's first, and a
    fixed or threshold schedule.  The target is often the ranking source
    itself, so level-1 drafts match; each draft's rows are the source
    again or fresh draws, so chains continue or stop; and some drafts are
    scored again with other rows, so the first of equal drafts must win."""
    length, vocab = marginals.shape

    def rows():
        if data.draw(st.integers(0, 2)) < 2:
            return marginals
        seed = data.draw(st.integers(0, 2**16))
        return np.random.default_rng(seed).choice((0.0, 0.25, 0.5), size=(length, vocab))

    target = rows()
    picks = list(range(num_drafts))
    if num_drafts:
        picks += data.draw(st.lists(st.integers(0, num_drafts - 1), max_size=3))
    call_rows = np.array([target, *(rows() for _ in picks)])
    schedule = data.draw(
        st.one_of(
            st.just(UnmaskSchedule.fixed(graph.tokens_per_level)),
            st.integers(1, 3).map(UnmaskSchedule.fixed),
            st.sampled_from((0.25, 0.5, 1.0)).map(UnmaskSchedule.at_threshold),
        )
    )
    return picks, call_rows, schedule


def _outcome(call, levels):
    """One verify call's outcome, read off its steps and returned rows: the
    final block, the levels of the accepted drafts (looked up by their
    tokens), the rows the last step read, the realized counts and the
    order the last step left uncommitted."""
    steps, last_rows = call
    last = steps[-1]
    return (
        last.state_after,
        tuple(levels[step.state_after.tokens] for step in steps[:-1]),
        last_rows.tobytes(),
        tuple(step.realized for step in steps),
        last.ordered[last.realized :],
    )


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
