"""Acceptance suite: the nine primary criteria, one test each.

Every test prints a single PASS line with the measured numbers once its
assertions hold, so a -v run reads as a checklist.  Runtime-budgeted
criteria (1 and 4) assert their own wall-clock limits.
"""

import itertools
import time

import numpy as np
import pytest
from conftest import make_config, scripted_report
from scalar_forward import one_hot_rows
from test_calibration import _oracle_best, _random_table

from blockspec import synthetic
from blockspec.batch import build_mask
from blockspec.calibration import STRATEGIES, calibrate_graph, select_subgraph
from blockspec.core import BlockState, GenerationConfig, SequenceState, UnmaskSchedule
from blockspec.drafting import DraftFormula, build_graph, export_dot
from blockspec.engine import check_lossless, generate_speculative, generate_vanilla
from blockspec.model import forward_batched, train_from_corpus
from test_calibration import SPEC_TABLE

SCHEDULES = ("fixed:1", "fixed:2", "fixed:4", "threshold:0.9", "threshold:0.7")


def _chain_graph(depth=3):
    nodes = [DraftFormula.of([(i, 1) for i in range(1, n + 1)]) for n in range(1, depth + 1)]
    return build_graph(nodes, 1)


def _six_node_graph():
    return build_graph(
        [
            DraftFormula.of([(1, 1)]),
            DraftFormula.of([(2, 1)]),
            DraftFormula.of([(1, 1), (2, 1)]),
            DraftFormula.of([(1, 1), (3, 1)]),
            DraftFormula.of([(2, 1), (3, 1)]),
            DraftFormula.of([(1, 1), (2, 1), (3, 1)]),
        ],
        1,
    )


@pytest.fixture(scope="module")
def calibrated_d10(model, prompts):
    graph, _, _ = calibrate_graph(
        model, prompts, make_config("fixed:1"), lookahead_max=5, budget=10
    )
    return graph


def test_criterion_1_losslessness_100_seeded_runs(model, prompts, calibrated_d10):
    """Speculative output token-identical to vanilla, trace a subsequence,
    across four graphs x five schedules x five prompts in under 60 s."""
    started = time.monotonic()
    graphs = {
        "empty": build_graph([], 1),
        "chain3": _chain_graph(),
        "six": _six_node_graph(),
        "calibrated": calibrated_d10,
    }
    test_prompts = synthetic.make_prompts(31, 5)
    runs = 0
    for name, graph in graphs.items():
        for schedule in SCHEDULES:
            for prompt in test_prompts:
                check = check_lossless(model, prompt, make_config(schedule), graph)
                assert check.ok, "%s/%s/%s: %s" % (name, schedule, prompt, check.message)
                runs += 1
    elapsed = time.monotonic() - started
    assert runs >= 100
    assert elapsed < 60.0
    print("PASS criterion 1: %d runs lossless (exact) in %.1f s" % (runs, elapsed))


def test_criterion_2_nfe_identity_under_fixed1(model, prompts, calibrated_d10):
    """total_nfe + M == baseline_nfe exactly; speedup == W/(W-M) to 1e-12."""
    runs = 0
    for graph in (_chain_graph(), _six_node_graph(), calibrated_d10):
        for prompt in prompts[:10]:
            report = generate_speculative(model, prompt, make_config("fixed:1"), graph).report
            m = report.acceptances
            assert report.total_nfe + m == report.baseline_nfe == 32
            assert abs(report.speedup_all - 32 / (32 - m)) < 1e-12
            runs += 1
    print("PASS criterion 2: identity exact on %d fixed:1 runs, speedup within 1e-12" % runs)


def test_criterion_3_batched_forward_bit_matches(model):
    """forward_batched == independent forwards, bit for bit, 1000+ cases."""
    rng = np.random.default_rng(2024)
    cases = 0
    checks = 0
    while cases < 1000:
        prompt = tuple(int(t) for t in rng.integers(1, 13, size=rng.integers(1, 4)))
        num_blocks = int(rng.integers(1, 4))
        block_length = int(rng.integers(2, 7))
        active = int(rng.integers(0, num_blocks))
        blocks = []
        for k in range(num_blocks):
            if k < active:
                blocks.append(BlockState(tokens=tuple(int(t) for t in rng.integers(1, 13, size=block_length))))
            elif k > active:
                blocks.append(BlockState.masked(block_length))
            else:
                tokens = [0] * block_length
                for n in range(block_length):
                    if rng.random() < 0.4:
                        tokens[n] = int(rng.integers(1, 13))
                if all(t != 0 for t in tokens):
                    tokens[int(rng.integers(0, block_length))] = 0
                blocks.append(BlockState(tokens=tuple(tokens)))
        state = SequenceState(prompt=prompt, blocks=tuple(blocks), active=active)
        drafts = []
        for _ in range(int(rng.integers(0, 5))):
            tokens = list(blocks[active].tokens)
            for n in range(block_length):
                if tokens[n] == 0 and rng.random() < 0.5:
                    tokens[n] = int(rng.integers(1, 13))
            drafts.append(BlockState(tokens=tuple(tokens)))
        target, *per_draft = forward_batched(model, state, [d.tokens for d in drafts])
        want_target = forward_batched(model, state, [])[0]
        assert np.array_equal(target, want_target)
        checks += 1
        for d, got in zip(drafts, per_draft):
            if d.is_complete:
                want = one_hot_rows(d, model.vocab_size)
            else:
                want = forward_batched(model, state.with_active_block(d), [])[0]
            assert np.array_equal(got, want)
            checks += 1
        cases += 1
    print("PASS criterion 3: %d batched calls, %d bit-exact comparisons" % (cases, checks))


def test_criterion_4_selection_matches_brute_force():
    """Exhaustive-search oracle agreement on tables of <= 9 formulas,
    D <= 5, all three strategies, under 30 s; plus the worked example."""
    started = time.monotonic()
    _, score0 = select_subgraph(SPEC_TABLE, 2, "degree0")
    _, score1 = select_subgraph(SPEC_TABLE, 2, "degree1")
    assert score0 == 16 and score1 == 26
    rng = np.random.default_rng(41)
    tables = 0
    for _ in range(25):
        table = _random_table(rng)
        assert len(table.entries) <= 9
        for strategy in STRATEGIES:
            for budget in (2, 5):
                graph, score = select_subgraph(table, budget, strategy)
                want_score, want_nodes = _oracle_best(table, budget, strategy)
                assert score == want_score
                assert frozenset(graph.nodes) == want_nodes
        tables += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(
        "PASS criterion 4: worked example scores 16/26; %d random tables x 3 "
        "strategies x D in {2,5} match brute force in %.1f s" % (tables, elapsed)
    )


def test_criterion_5_six_node_graph_structure():
    """The deepest node is reachable by three routes: three parents in the
    graph and in-degree 3 in the DOT export."""
    graph = _six_node_graph()
    level3 = [i for i in range(graph.num_nodes) if graph.level_of(i) == 3]
    assert len(level3) == 1
    assert len(graph.parents[level3[0]]) == 3
    dot = export_dot(graph)
    assert dot.count("-> n%d;" % level3[0]) == 3
    print("PASS criterion 5: level-3 node has 3 parents, DOT in-degree 3")


def test_criterion_6_multiplies_parallel_decoding(model):
    """Speculation on top of multi-token schedules: NFEs never higher than
    vanilla under the same schedule, strictly lower on >= 50% of prompts."""
    cal_prompts = synthetic.make_prompts(11, 20)
    test_prompts = synthetic.make_prompts(23, 20)
    lines = []
    for schedule in ("fixed:2", "fixed:4", "threshold:0.9"):
        config = make_config(schedule, total_length=48, block_length=16)
        graph, _, _ = calibrate_graph(
            model, cal_prompts, config, lookahead_max=5, budget=10, strategy="degree1"
        )
        wins = 0
        for prompt in test_prompts:
            vanilla = generate_vanilla(model, prompt, config)
            spec = generate_speculative(model, prompt, config, graph, baseline=vanilla.report)
            assert spec.report.total_nfe <= vanilla.report.total_nfe, (schedule, prompt)
            if spec.report.total_nfe < vanilla.report.total_nfe:
                wins += 1
        assert wins >= len(test_prompts) / 2, (schedule, wins)
        lines.append("%s %d/%d strict wins" % (schedule, wins, len(test_prompts)))
    print("PASS criterion 6: " + "; ".join(lines))


def test_criterion_7_calibration_strategy_ordering(model):
    """degree1 speedup >= degree0 speedup >= 1.0; 20- vs 50-prompt
    calibration differs by < 10% relative speedup."""
    config = make_config("fixed:1")
    test_prompts = synthetic.make_prompts(23, 20)

    def mean_speedup(graph):
        total = 0.0
        for prompt in test_prompts:
            total += generate_speculative(model, prompt, config, graph).report.speedup_all
        return total / len(test_prompts)

    speedups = {}
    for strategy in ("degree0", "degree1"):
        graph, _, _ = calibrate_graph(
            model,
            synthetic.make_prompts(11, 20),
            config,
            lookahead_max=5,
            budget=8,
            strategy=strategy,
        )
        speedups[strategy] = mean_speedup(graph)
    assert speedups["degree1"] >= speedups["degree0"] >= 1.0
    graph50, _, _ = calibrate_graph(
        model, synthetic.make_prompts(11, 50), config, lookahead_max=5, budget=8, strategy="degree1"
    )
    s20, s50 = speedups["degree1"], mean_speedup(graph50)
    relative = abs(s50 - s20) / s20
    assert relative < 0.10
    print(
        "PASS criterion 7: degree1 %.4f >= degree0 %.4f >= 1.0; 20 vs 50 prompts "
        "differ %.2f%%" % (speedups["degree1"], speedups["degree0"], 100 * relative)
    )


def test_criterion_8_mask_goldens():
    """Hand-enumerated 5x5 grid plus the closed-form row counts on 100+
    random shapes."""
    golden = (
        "11100\n"
        "11100\n"
        "11100\n"
        "10011\n"
        "10011\n"
    )
    mask = build_mask(1, 1, 2, 0, 1)
    got = "\n".join("".join("1" if x else "0" for x in row) for row in mask) + "\n"
    assert got == golden
    rng = np.random.default_rng(9)
    shapes = 0
    while shapes < 100:
        prompt_len = int(rng.integers(0, 5))
        num_blocks = int(rng.integers(1, 5))
        block_length = int(rng.integers(1, 6))
        active = int(rng.integers(0, num_blocks))
        num_drafts = int(rng.integers(0, 4))
        mask = build_mask(prompt_len, num_blocks, block_length, active, num_drafts)
        context = prompt_len + num_blocks * block_length
        for r in range(context):
            assert int(mask[r].sum()) == context
        block_lo = prompt_len + active * block_length
        for m in range(num_drafts):
            lo = context + m * block_length
            for r in range(lo, lo + block_length):
                # context minus the active block plus the draft's own copy:
                # the count equals context, but over different columns
                assert int(mask[r].sum()) == context
                assert not mask[r, block_lo : block_lo + block_length].any()
                assert mask[r, lo : lo + block_length].all()
        shapes += 1
    print("PASS criterion 8: 5x5 golden exact, row counts on %d random shapes" % shapes)


def test_criterion_9_eot_prefix_accounting():
    """Up-to-EOT speedup counts exactly blocks 0..3 when EOT lands in
    block 3 of 8, on a real run and on a scripted one."""
    chain_model = train_from_corpus([tuple(range(1, 17))], 16)
    config = GenerationConfig(
        total_length=32, block_length=4, schedule=UnmaskSchedule.fixed(1),
        top_k_vocab=3, eot_token=16,
    )
    result = generate_vanilla(chain_model, (1,), config)
    assert result.tokens[14] == 16
    assert result.report.eot_block == 3

    report = scripted_report((2, 4, 8, 1, 5, 5, 5, 5), 8, eot_block=3)
    assert (report.total_nfe, report.baseline_nfe, report.eot_block) == (35, 64, 3)
    assert report.speedup_to_eot == pytest.approx(32 / 15)
    assert report.speedup_all == pytest.approx(64 / 35)
    print("PASS criterion 9: EOT in block 3 of 8; prefix speedup 32/15 exact")
