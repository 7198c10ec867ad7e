"""Tests for calibration records, candidate tables, and subgraph search.

The selection oracle below enumerates every subset and re-implements
validity and all three scoring strategies on its own (sets and plain
recursion instead of the module's pruned search), so agreement between
the two is a real cross-check and not a copy of the same code path.
"""

import hashlib
import itertools
import re
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from conftest import make_config
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_calibration import reference_collect_records

from blockspec import calibration
from blockspec.calibration import (
    STRATEGIES,
    CalibrationRecord,
    CandidateTable,
    TableEntry,
    build_table,
    calibrate_graph,
    collect_records,
    format_records,
    format_table,
    select_subgraph,
)
from blockspec.drafting import DraftFormula, build_graph, format_graph
from blockspec.engine import generate_vanilla
from blockspec.model import forward_many


def _record(pairs, sample_id=0, origin=0, lookahead=None):
    if lookahead is None:
        lookahead = len(pairs)
    return CalibrationRecord(
        sample_id=sample_id,
        origin_step=origin,
        lookahead=lookahead,
        pairs=tuple(sorted(pairs)),
    )


def _table(rows, tokens_per_level=1, lookahead_max=None):
    """rows: list of (level, pairs, count)."""
    if lookahead_max is None:
        lookahead_max = max(level for level, _, _ in rows)
    entries = tuple(
        TableEntry(level=level, formula=DraftFormula.of(pairs), count=count)
        for level, pairs, count in rows
    )
    return CandidateTable(entries=entries, tokens_per_level=tokens_per_level, lookahead_max=lookahead_max)


SPEC_TABLE = _table([(1, [(1, 1)], 10), (2, [(1, 1), (2, 1)], 6)])


# ---------------------------------------------------------------------------
# independent selection oracle
# ---------------------------------------------------------------------------


def _oracle_valid(nodes, tpl):
    """A set is valid when every formula above the base size has a parent
    chain inside the set down to a base-size formula."""
    ok = set()
    for f in sorted(nodes, key=lambda f: len(f.pairs)):
        if len(f.pairs) == tpl:
            ok.add(f)
            continue
        for g in ok:
            if len(f.pairs) - len(g.pairs) == tpl and set(g.pairs) < set(f.pairs):
                ok.add(f)
                break
    return len(ok) == len(set(nodes))


def _oracle_score(nodes, counts, tpl, strategy):
    parents = {
        f: [g for g in nodes if len(f.pairs) - len(g.pairs) == tpl and set(g.pairs) < set(f.pairs)]
        for f in nodes
    }
    if strategy == "degree0":
        return sum(counts[f] for f in nodes)
    if strategy == "degree1":
        return sum(counts[f] + sum(counts[g] for g in parents[f]) for f in nodes)

    def total(f):
        return counts[f] + sum(total(g) for g in parents[f])

    return sum(total(f) for f in nodes)


def _oracle_best(table, budget, strategy):
    candidates = sorted({e.formula for e in table.entries}, key=lambda f: (len(f.pairs), f.pairs))
    counts = {e.formula: e.count for e in table.entries}
    best = None
    for size in range(1, min(budget, len(candidates)) + 1):
        for combo in itertools.combinations(candidates, size):
            if not _oracle_valid(combo, table.tokens_per_level):
                continue
            score = _oracle_score(combo, counts, table.tokens_per_level, strategy)
            key = (-score, len(combo), tuple(f.pairs for f in combo))
            if best is None or key < best[0]:
                best = (key, score, combo)
    return best[1], frozenset(best[2])


def _random_table(rng, *, max_positions=4, max_vocab=2, width=3, levels=3):
    rows = []
    seen = set()
    for level in range(1, levels + 1):
        for _ in range(int(rng.integers(1, width + 1))):
            positions = rng.choice(max_positions, size=level, replace=False) + 1
            pairs = tuple(sorted((int(i), int(rng.integers(1, max_vocab + 1))) for i in positions))
            if len({i for i, _ in pairs}) < level or pairs in seen:
                continue
            seen.add(pairs)
            rows.append((level, list(pairs), int(rng.integers(1, 30))))
    if not any(level == 1 for level, _, _ in rows):
        rows.append((1, [(1, 1)], 5))
    return _table(rows, lookahead_max=levels)


# ---------------------------------------------------------------------------
# record collection
# ---------------------------------------------------------------------------


class TestCollectRecords:
    def test_three_step_block_emits_five_windows(self, model):
        """One block of three fixed:1 steps with lookahead 2 has windows
        (0,1) (0,2) (1,1) (1,2) (2,1): the (2,2) window would run past
        the end of the block and is not emitted."""
        cfg = make_config("fixed:1", total_length=3, block_length=3)
        records = collect_records(model, [(2, 2)], cfg, 2)
        assert [(r.origin_step, r.lookahead) for r in records] == [
            (0, 1),
            (0, 2),
            (1, 1),
            (1, 2),
            (2, 1),
        ]
        assert all(r.sample_id == 0 for r in records)

    def test_out_of_view_windows_are_skipped(self, model):
        """Anchoring on a mover token makes the step-2 commit fall outside
        the top-3 vocabulary view of the origin marginals, so both
        two-step windows are dropped rather than recorded partially."""
        cfg = make_config("fixed:1", total_length=3, block_length=3)
        records = collect_records(model, [(2, 3)], cfg, 2)
        assert [(r.origin_step, r.lookahead) for r in records] == [
            (0, 1),
            (1, 1),
            (2, 1),
        ]

    def test_level1_windows_are_self_commits(self, model, prompts):
        cfg = make_config("fixed:1", total_length=16, block_length=8)
        records = collect_records(model, prompts[:4], cfg, 3)
        ones = [r for r in records if r.lookahead == 1]
        assert ones
        assert all(r.pairs == ((1, 1),) for r in ones)

    def test_pair_count_equals_window_span_under_fixed1(self, model, prompts):
        cfg = make_config("fixed:1", total_length=16, block_length=8)
        for r in collect_records(model, prompts[:4], cfg, 4):
            assert len(r.pairs) == r.lookahead

    def test_windows_never_cross_blocks(self, model):
        cfg = make_config("fixed:1", total_length=6, block_length=3)
        records = collect_records(model, [(2, 2)], cfg, 5)
        assert max(r.lookahead for r in records) <= 3

    def test_sample_ids_follow_prompt_order(self, model):
        cfg = make_config("fixed:1", total_length=4, block_length=4)
        records = collect_records(model, [(2,), (3,)], cfg, 1)
        assert sorted(set(r.sample_id for r in records)) == [0, 1]

    def test_deterministic(self, model, prompts):
        cfg = make_config("fixed:2", total_length=16, block_length=8)
        a = collect_records(model, prompts[:3], cfg, 3)
        assert a == collect_records(model, prompts[:3], cfg, 3)

    def test_lookahead_must_be_positive(self, model):
        with pytest.raises(ValueError, match="lookahead must be >= 1, got 0"):
            collect_records(model, [(2,)], make_config(), 0)

    @pytest.mark.parametrize("schedule", ["fixed:1", "threshold:0.4"])
    def test_each_distinct_prompt_is_replayed_once(self, model, prompts, monkeypatch, schedule):
        """The 20 README prompts hold 15 distinct ones; a repeat reuses its
        first occurrence's windows, and the distinct ones are replayed in
        lockstep.  So each distinct prompt's state is scored once per step
        its vanilla decode takes, never twice in one call, and each call
        scores every state whose block is still open: under fixed:1 that
        is 32 calls (4 blocks of 8 steps) instead of 15 * 32."""
        calls = []

        def counted(model, states):
            calls.append([s.prompt for s in states])
            return forward_many(model, states)

        monkeypatch.setattr(calibration, "forward_many", counted)
        cfg = make_config(schedule)
        records = collect_records(model, prompts, cfg, 4)
        distinct = list(dict.fromkeys(prompts))
        assert len(distinct) == 15
        assert all(len(set(call)) == len(call) for call in calls)
        reports = [generate_vanilla(model, p, cfg).report for p in distinct]
        assert Counter(p for call in calls for p in call) == {p: r.total_nfe for p, r in zip(distinct, reports)}
        assert len(calls) == sum(max(r.per_block[k].nfe for r in reports) for k in range(cfg.num_blocks))
        if schedule == "fixed:1":
            assert len(calls) == 32 and all(sorted(call) == sorted(distinct) for call in calls)
        assert records == reference_collect_records(model, prompts, cfg, 4)

    @pytest.mark.parametrize(
        "prompt, message",
        [
            ((2.7, 3), "prompt token 2.7 is not an integer"),
            ((True, 2), "prompt token True is not an integer"),
            (("3", 4), "prompt token '3' is not an integer"),
            ((2, 13), "prompt token 13 outside 1..12"),
            ((0,), "prompt token 0 outside 1..12"),
        ],
    )
    def test_prompts_are_checked_as_the_decoders_check_them(self, model, prompt, message):
        """A repeat of an accepted prompt in another spelling, (True, 2)
        for (1, 2), is rejected too, not served from the first one."""
        cfg = make_config()
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            generate_vanilla(model, prompt, cfg)
        for bad in ([prompt], [(1, 2), (3, 4), prompt]):
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                collect_records(model, bad, cfg, 2)

    @pytest.mark.parametrize("schedule, lookahead", [("fixed:1", 4), ("fixed:2", 3), ("threshold:0.4", 4)])
    def test_records_share_pair_objects(self, model, prompts, schedule, lookahead):
        """Every window takes its (i, j) pairs from one table of
        L x top_k_vocab pairs, so the README records, thousands of pairs
        in all, hold no more distinct pair objects than that."""
        cfg = make_config(schedule)
        records = collect_records(model, prompts, cfg, lookahead)
        assert records == reference_collect_records(model, prompts, cfg, lookahead)
        shared = {id(pair) for record in records for pair in record.pairs}
        assert len(shared) <= cfg.block_length * cfg.top_k_vocab

    def test_numpy_integer_prompts_give_the_same_records(self, model):
        cfg = make_config("fixed:1", total_length=16, block_length=8)
        plain = collect_records(model, [(7, 8, 8)], cfg, 3)
        assert collect_records(model, [np.array([7, 8, 8])], cfg, 3) == plain


@st.composite
def calibration_cases(draw):
    """Prompts (empty ones too) drawn with repeats from a small pool, a
    W/L split, one of three schedules and a lookahead from 1 to L + 2
    (past the block, so windows are cut at its edge)."""
    block_length = draw(st.integers(1, 6))
    num_blocks = draw(st.integers(1, 3))
    schedule = draw(st.sampled_from(("fixed:1", "fixed:2", "threshold:0.4")))
    top_k = draw(st.integers(1, 3))
    cfg = make_config(
        schedule, total_length=block_length * num_blocks, block_length=block_length, top_k_vocab=top_k
    )
    tokens = st.integers(1, 12)
    pool = draw(st.lists(st.lists(tokens, max_size=3).map(tuple), min_size=1, max_size=3))
    prompts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    return prompts, cfg, draw(st.integers(1, block_length + 2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(calibration_cases())
def test_records_match_the_per_window_reference(model, case):
    """Replaying each distinct prompt once, in lockstep groups, and growing
    each origin's windows step by step gives the records of replaying
    every prompt on its own and re-scanning the block for every window.
    Group caps of 1 and 2 put the pool's distinct prompts (up to 3) in
    several groups."""
    prompts, cfg, lookahead = case
    want = reference_collect_records(model, prompts, cfg, lookahead)
    for cap in (1, 2, calibration._REPLAY_GROUP):
        with mock.patch.object(calibration, "_REPLAY_GROUP", cap):
            assert collect_records(model, prompts, cfg, lookahead) == want


# ---------------------------------------------------------------------------
# candidate table
# ---------------------------------------------------------------------------


class TestBuildTable:
    def test_counts_and_descending_order(self):
        records = [_record([(1, 1)])] * 3 + [_record([(2, 1)])] * 1
        table = build_table(records, 1)
        assert [(e.formula.pairs, e.count) for e in table.entries] == [
            (((1, 1),), 3),
            (((2, 1),), 1),
        ]

    def test_width_truncates(self):
        records = [_record([(1, 1)])] * 3 + [_record([(2, 1)])] * 2 + [_record([(3, 1)])]
        table = build_table(records, 1, width=2)
        assert len([e for e in table.entries if e.level == 1]) == 2
        assert [e.formula.pairs for e in table.entries] == [((1, 1),), ((2, 1),)]

    def test_count_ties_break_lexicographically(self):
        records = [_record([(2, 1)]), _record([(1, 2)])]
        table = build_table(records, 1)
        assert [e.formula.pairs for e in table.entries] == [((1, 2),), ((2, 1),)]

    def test_partial_size_records_ignored(self):
        """A lookahead-2 record with one pair cannot seed a level-2 node."""
        records = [_record([(1, 1)], lookahead=2), _record([(1, 1), (2, 1)], lookahead=2)]
        table = build_table(records, 2)
        assert [e for e in table.entries if e.level == 2] == [
            TableEntry(level=2, formula=DraftFormula.of([(1, 1), (2, 1)]), count=1),
        ]

    def test_tokens_per_level_two(self):
        records = [_record([(1, 1), (2, 1)], lookahead=1)] * 4
        table = build_table(records, 1, tokens_per_level=2)
        assert [e.count for e in table.entries if e.level == 1] == [4]

    def test_width_of_at_least_the_record_count_keeps_every_candidate(self, model, prompts):
        records = collect_records(model, prompts, make_config("fixed:1"), 4)
        every = build_table(records, 4, width=len(records))
        assert build_table(records, 4, width=10**20) == every
        assert len(every.entries) > len(build_table(records, 4, width=3).entries)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError, match="width must be >= 1, got 0"):
            build_table([], 1, width=0)

    def test_levels_ascend_and_deeper_records_are_ignored(self):
        records = [
            _record([(1, 1), (2, 1), (3, 1)], lookahead=3),
            _record([(1, 1), (2, 1)], lookahead=2),
            _record([(1, 1)]),
        ]
        table = build_table(records, 2)
        assert [(e.level, e.count) for e in table.entries] == [(1, 1), (2, 1)]

    def test_huge_lookahead_matches_block_length(self, model, prompts):
        """No window outlives its block, so any lookahead past L gives the
        entries of lookahead L; counting takes one pass either way."""
        cfg = make_config("fixed:1")
        records = collect_records(model, prompts[:2], cfg, 10**9)
        assert records == collect_records(model, prompts[:2], cfg, cfg.block_length)
        assert build_table(records, 10**9).entries == build_table(records, cfg.block_length).entries


# ---------------------------------------------------------------------------
# subgraph selection
# ---------------------------------------------------------------------------


class TestSelectSubgraph:
    def test_worked_example_degree0(self):
        graph, score = select_subgraph(SPEC_TABLE, 2, "degree0")
        assert score == 16
        assert graph.num_nodes == 2

    def test_worked_example_degree1(self):
        """The level-2 node re-counts its parent: 10 + (6 + 10) = 26."""
        graph, score = select_subgraph(SPEC_TABLE, 2, "degree1")
        assert score == 26
        assert graph.num_nodes == 2

    def test_worked_example_total(self):
        _, score = select_subgraph(SPEC_TABLE, 2, "total")
        assert score == 26

    def test_budget_one_keeps_top_level1(self):
        graph, score = select_subgraph(SPEC_TABLE, 1, "degree0")
        assert score == 10
        assert [f.format() for f in graph.nodes] == ["1:1"]

    def test_returned_graph_carries_budget_and_tpl(self):
        graph, _ = select_subgraph(_table([(1, [(1, 1), (2, 1)], 3)], tokens_per_level=2), 4, "degree0")
        assert graph.budget == 4
        assert graph.tokens_per_level == 2

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            select_subgraph(SPEC_TABLE, 2, "degree2")
        assert STRATEGIES == ("degree0", "degree1", "total")

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="budget must be >= 1, got 0"):
            select_subgraph(SPEC_TABLE, 0, "degree0")

    def test_negative_count_rejected(self):
        table = _table([(1, [(1, 1)], 10), (2, [(1, 1), (2, 1)], -1)])
        with pytest.raises(ValueError, match="count of 1:1 2:1 is -1; counts must be >= 0"):
            select_subgraph(table, 2, "degree0")

    def test_no_level1_candidates_give_the_empty_graph(self):
        """No draft can enter without a level-1 node, so every strategy
        returns the empty graph, scored 0, at the requested budget."""
        tables = (
            _table([(2, [(1, 1), (2, 1)], 6)], lookahead_max=2),
            CandidateTable(entries=(), tokens_per_level=2, lookahead_max=3),
        )
        for table in tables:
            for strategy in STRATEGIES:
                graph, score = select_subgraph(table, 2, strategy)
                assert (graph.nodes, score) == ((), 0)
                assert (graph.budget, graph.tokens_per_level) == (2, table.tokens_per_level)

    def test_full_chain_wins_under_every_strategy(self):
        table = _table(
            [
                (1, [(1, 1)], 10),
                (2, [(1, 1), (2, 1)], 6),
                (3, [(1, 1), (2, 1), (3, 1)], 3),
            ]
        )
        for strategy in STRATEGIES:
            graph, _ = select_subgraph(table, 3, strategy)
            assert graph.num_nodes == 3


class TestSelectVsBruteForce:
    def test_matches_oracle_on_random_tables(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            table = _random_table(rng)
            for strategy in STRATEGIES:
                for budget in (2, 4):
                    graph, score = select_subgraph(table, budget, strategy)
                    want_score, want_nodes = _oracle_best(table, budget, strategy)
                    assert score == want_score
                    assert frozenset(graph.nodes) == want_nodes

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_oracle_on_generated_tables(self, data):
        """Generated tables mix both tokens_per_level values, zero counts,
        formulas listed twice and nodes without an in-table parent; the
        selected graph must match the oracle's score and file bytes."""
        tpl = data.draw(st.sampled_from((1, 2)))
        levels = data.draw(st.integers(1, 3))
        positions = levels * tpl + data.draw(st.integers(0, 2))

        def row(level):
            ranks = data.draw(
                st.lists(st.integers(1, positions), min_size=level * tpl, max_size=level * tpl, unique=True)
            )
            pairs = [(i, data.draw(st.integers(1, 2))) for i in ranks]
            return level, pairs, data.draw(st.integers(0, 11))

        rows = [row(1)] + [row(data.draw(st.integers(1, levels))) for _ in range(data.draw(st.integers(0, 7)))]
        table = _table(rows, tokens_per_level=tpl, lookahead_max=levels)
        budget = data.draw(st.integers(1, 6))
        strategy = data.draw(st.sampled_from(STRATEGIES))
        graph, score = select_subgraph(table, budget, strategy)
        want_score, want_nodes = _oracle_best(table, budget, strategy)
        assert score == want_score
        want = build_graph(sorted(want_nodes, key=lambda f: (f.size, f.pairs)), tpl, budget=budget)
        assert format_graph(graph) == format_graph(want)

    def test_score_monotone_in_budget(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            table = _random_table(rng)
            for strategy in STRATEGIES:
                scores = [select_subgraph(table, d, strategy)[1] for d in (1, 2, 3, 4)]
                assert scores == sorted(scores)


class TestWideTable:
    """Lookahead 6, width 4 and budget 12 at the README settings give 20
    candidates.  The pins (score and sha256 of the graph file) come from
    enumerating every subset, which needs about 45 s for the three
    strategies; the time bound is loose on purpose."""

    PINS = {
        "degree0": (2203, "7a2d6b104942e77a6c853d8ac758f849112e03705f5a3bb69b4472af1cb3d8d6"),
        "degree1": (7022, "542737b4f98b5a78e16a8d00f8312279743a7583114dddcbdb475781ae25e40b"),
        "total": (37214, "0979f47b596773b5acaaa0f2684b2c8fe80905924a569359007553565123b3dd"),
    }

    def test_pinned_graphs_within_time(self, model, prompts):
        records = collect_records(model, prompts, make_config("fixed:1"), 6)
        table = build_table(records, 6, 1, width=4)
        assert (len(records), len(table.entries)) == (2615, 20)
        start = time.perf_counter()
        selected = {strategy: select_subgraph(table, 12, strategy) for strategy in STRATEGIES}
        assert time.perf_counter() - start < 5.0
        for strategy, (graph, score) in selected.items():
            digest = hashlib.sha256(format_graph(graph).encode()).hexdigest()
            assert (score, digest) == self.PINS[strategy]


class TestCalibrateGraph:
    def test_pipeline_agrees_with_pieces(self, model, prompts):
        cfg = make_config("fixed:1", total_length=16, block_length=8)
        graph, table, records = calibrate_graph(
            model, prompts[:4], cfg, lookahead_max=3, budget=4, strategy="degree1"
        )
        assert records == collect_records(model, prompts[:4], cfg, 3)
        assert table == build_table(records, 3, 1, width=3)
        want, _ = select_subgraph(table, 4, "degree1")
        assert graph.nodes == want.nodes

    def test_fixed2_sets_tokens_per_level(self, model, prompts):
        cfg = make_config("fixed:2", total_length=16, block_length=8)
        graph, table, _ = calibrate_graph(
            model, prompts[:4], cfg, lookahead_max=2, budget=4
        )
        assert table.tokens_per_level == 2
        assert graph.tokens_per_level == 2
        assert all(f.size % 2 == 0 for f in graph.nodes)

    def test_calibrated_graph_spawns_acceptances(self, model, prompts):
        """The whole point: a graph calibrated on this corpus should get
        drafts accepted when decoding prompts from the same process."""
        from blockspec.engine import generate_speculative

        cfg = make_config("fixed:1")
        graph, _, _ = calibrate_graph(
            model, prompts[:8], cfg, lookahead_max=4, budget=8
        )
        total = sum(
            generate_speculative(model, p, cfg, graph).report.acceptances
            for p in prompts[8:14]
        )
        assert total > 0


class TestPinnedBytes:
    """Calibration output at the README settings (corpus seed 7, the first
    20 prompts of seed 11, W=32, L=8, top_k_vocab 3, degree1), pinned as
    the sha256 of records + table + graph text.  Any change to ranking,
    windowing, counting or selection shows up here."""

    @pytest.mark.parametrize(
        "schedule, lookahead, budget, n_records, n_entries, digest",
        [
            ("fixed:1", 4, 8, 2065, 10, "7263a826efecaec7211a94beae1875efe6750b187e2579b0d3af3a6093066301"),
            ("threshold:0.4", 4, 8, 1165, 8, "4b66f2fce16bb17213347f059389378afd0f9165ee55eec06781b1121cd0b18d"),
            ("fixed:2", 3, 6, 710, 7, "60ac9ce823221a5ef9b62da68a3f6563cd33c74932c5208c98f0b9a714fca488"),
        ],
        ids=["fixed1", "threshold0.4", "fixed2"],
    )
    def test_readme_calibration_bytes(self, model, prompts, schedule, lookahead, budget, n_records, n_entries, digest):
        cfg = make_config(schedule)
        graph, table, records = calibrate_graph(
            model, prompts, cfg, lookahead_max=lookahead, budget=budget, strategy="degree1", width=3
        )
        assert (len(records), len(table.entries)) == (n_records, n_entries)
        text = format_records(records) + format_table(table) + format_graph(graph)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
