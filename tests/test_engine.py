"""End-to-end generation tests: vanilla, speculative, lossless checks.

Oracles here lean on two models.  The session-scoped synthetic model
has sticky park tokens, so drafts chain deeply and acceptances are
plentiful.  A pure successor chain over sixteen tokens gives the
opposite regime (stale rankings always predict the previous anchor's
successor, so nothing is ever accepted) plus a deterministic EOT
position for the early-stop accounting.
"""

import re
import tracemalloc

import numpy as np
import pytest
from conftest import make_config, scripted_report
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspec import engine
from blockspec.calibration import calibrate_graph
from blockspec.core import MASK, BlockState, GenerationConfig, SequenceState, UnmaskSchedule
from blockspec.drafting import DraftFormula, build_graph, spawn_drafts
from blockspec.engine import (
    PerBlockStats,
    RunReport,
    check_lossless,
    generate_speculative,
    generate_vanilla,
    per_block_summary,
    profile_stages,
)
from blockspec.model import forward_batched, train_from_corpus
from blockspec.timing import StageTimer
from blockspec.verification import StepRecord


def _chain_graph(depth=3):
    nodes = [DraftFormula.of([(i, 1) for i in range(1, level + 1)]) for level in range(1, depth + 1)]
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
def chain16_model():
    """Bigram model trained on the single sequence 1 2 ... 16."""
    return train_from_corpus([tuple(range(1, 17))], 16)


def _chain16_config(schedule="fixed:1"):
    return GenerationConfig(
        total_length=32,
        block_length=4,
        schedule=UnmaskSchedule.parse(schedule),
        top_k_vocab=3,
        eot_token=16,
    )


# ---------------------------------------------------------------------------
# vanilla
# ---------------------------------------------------------------------------


class TestGenerateVanilla:
    def test_fixed1_one_call_per_token(self, model):
        res = generate_vanilla(model, (2, 3), make_config("fixed:1"))
        assert res.report.total_nfe == 32
        assert [b.nfe for b in res.report.per_block] == [8, 8, 8, 8]
        assert res.report.baseline_nfe == 32
        assert res.report.acceptances == 0
        assert res.report.speedup_all == 1.0

    def test_fixed2_halves_calls(self, model):
        res = generate_vanilla(model, (2, 3), make_config("fixed:2"))
        assert res.report.total_nfe == 16
        assert all(b.realized_s == (2, 2, 2, 2) for b in res.report.per_block)

    def test_threshold_bounded_by_width(self, model):
        res = generate_vanilla(model, (2, 3), make_config("threshold:0.9"))
        assert 4 <= res.report.total_nfe <= 32

    def test_output_is_full_width_without_masks(self, model):
        res = generate_vanilla(model, (2, 3), make_config())
        assert len(res.tokens) == 32
        assert all(1 <= t <= 12 for t in res.tokens)

    def test_calls_walk_one_step_at_a_time(self, model):
        res = generate_vanilla(model, (5, 6), make_config("fixed:1"))
        assert len(res.calls) == len(res.report.per_block)
        for calls, stats in zip(res.calls, res.report.per_block):
            assert len(calls) == stats.nfe
            assert all(len(call) == 1 for call in calls)
            counts = [call[-1].state_after.unmasked_count for call in calls]
            assert counts == list(range(1, 9))
        assert sum(map(len, res.calls)) == res.report.total_nfe

    def test_prompt_tokens_validated(self, model):
        with pytest.raises(ValueError, match="outside 1..12"):
            generate_vanilla(model, (0,), make_config())
        with pytest.raises(ValueError, match="outside 1..12"):
            generate_vanilla(model, (2, 13), make_config())

    @pytest.mark.parametrize(
        "prompt, message",
        [
            ([2.7, 3], "prompt token 2.7 is not an integer"),
            ([True, 2], "prompt token True is not an integer"),
            (["3", 4], "prompt token '3' is not an integer"),
            ([np.bool_(True), 2], "prompt token %r is not an integer" % np.bool_(True)),
        ],
    )
    def test_non_integer_prompt_tokens_rejected(self, model, prompt, message):
        """Floats, bools and strings are rejected, not converted to a
        different prompt."""
        cfg = make_config()
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            generate_vanilla(model, prompt, cfg)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            generate_speculative(model, prompt, cfg, _chain_graph())

    def test_numpy_integer_prompts_accepted(self, model):
        cfg = make_config()
        want = generate_vanilla(model, (3, 4), cfg)
        for prompt in (np.array([3, 4]), [np.int32(3), np.uint8(4)], iter((3, 4))):
            got = generate_vanilla(model, prompt, cfg)
            assert got.tokens == want.tokens

    def test_determinism(self, model):
        a = generate_vanilla(model, (7, 8), make_config())
        b = generate_vanilla(model, (7, 8), make_config())
        assert a.tokens == b.tokens
        assert a.report.per_block == b.report.per_block


# ---------------------------------------------------------------------------
# speculative
# ---------------------------------------------------------------------------


class TestGenerateSpeculative:
    @pytest.mark.parametrize("schedule", ["fixed:1", "fixed:2", "threshold:0.4"])
    def test_empty_graph_is_vanilla(self, model, schedule):
        cfg = make_config(schedule)
        vanilla = generate_vanilla(model, (3, 4, 5), cfg)
        spec = generate_speculative(model, (3, 4, 5), cfg, build_graph([], 1))
        assert spec.tokens == vanilla.tokens
        assert spec.report == vanilla.report
        assert spec.calls == vanilla.calls
        assert spec.report.acceptances == 0

    def test_fixed1_nfe_identity(self, model, prompts):
        """Every accepted step saves exactly one call under fixed:1."""
        cfg = make_config("fixed:1")
        graph = _chain_graph()
        for prompt in prompts[:8]:
            report = generate_speculative(model, prompt, cfg, graph).report
            assert report.baseline_nfe == 32
            assert report.total_nfe + report.acceptances == 32
            assert report.speedup_all == pytest.approx(32 / (32 - report.acceptances))

    def test_acceptances_happen_on_sticky_corpus(self, model):
        report = generate_speculative(model, (2, 2, 2), make_config("fixed:1"), _chain_graph()).report
        assert report.acceptances >= 8
        assert report.total_nfe < 32

    def test_chain_model_never_accepts(self, chain16_model):
        """Stale rankings on a pure successor chain always mispredict."""
        report = generate_speculative(chain16_model, (1,), _chain16_config(), _chain_graph()).report
        assert report.acceptances == 0
        assert report.total_nfe == report.baseline_nfe == 32

    def test_per_block_sums_match_totals(self, model):
        report = generate_speculative(model, (6, 7, 8), make_config("fixed:1"), _six_node_graph()).report
        assert sum(b.nfe for b in report.per_block) == report.total_nfe
        assert sum(b.baseline_nfe for b in report.per_block) == report.baseline_nfe
        assert sum(b.acceptances for b in report.per_block) == report.acceptances
        for b in report.per_block:
            # realized_s logs every step taken, accepted chain steps included
            assert len(b.realized_s) == b.nfe + b.acceptances
            assert sum(b.realized_s) == 8
        assert report.speedup_all == pytest.approx(report.baseline_nfe / report.total_nfe)

    def test_graph_needs_vocab_rank_within_topk(self, model):
        wide = build_graph([DraftFormula.of([(1, 4)])], 1)
        with pytest.raises(ValueError, match="^graph needs vocabulary rank 4, top_k_vocab is 3$"):
            generate_speculative(model, (2,), make_config(top_k_vocab=3), wide)

    def test_threshold_baseline_is_measured(self, model):
        cfg = make_config("threshold:0.9")
        vanilla = generate_vanilla(model, (2, 2, 2), cfg)
        spec = generate_speculative(model, (2, 2, 2), cfg, _chain_graph())
        assert spec.report.baseline_nfe == vanilla.report.total_nfe
        assert spec.tokens == vanilla.tokens

    def test_threshold_baseline_needs_no_vanilla_decode(self, model, monkeypatch):
        """The baseline is counted from the run's own steps."""
        cfg = make_config("threshold:0.9")
        want = generate_vanilla(model, (2, 2, 2), cfg)

        def no_vanilla(*args, **kwargs):
            raise AssertionError("generate_speculative ran a vanilla decode")

        monkeypatch.setattr(engine, "generate_vanilla", no_vanilla)
        spec = generate_speculative(model, (2, 2, 2), cfg, _chain_graph())
        assert spec.tokens == want.tokens
        assert spec.report.baseline_nfe == want.report.total_nfe

    def test_baseline_block_count_must_match(self, model):
        cfg = make_config("fixed:1")
        short = generate_vanilla(model, (5, 5), make_config("fixed:1", total_length=16)).report
        with pytest.raises(ValueError, match="baseline report has 2 blocks, config has 4"):
            generate_speculative(model, (5, 5), cfg, _chain_graph(), baseline=short)

    def test_supplied_baseline_is_reused(self, model):
        cfg = make_config("fixed:1")
        vanilla = generate_vanilla(model, (5, 5), cfg)
        spec = generate_speculative(model, (5, 5), cfg, _chain_graph(), baseline=vanilla.report)
        assert [b.baseline_nfe for b in spec.report.per_block] == [
            b.nfe for b in vanilla.report.per_block
        ]

    def test_calls_take_the_vanilla_steps(self, model):
        """Per block, the states after the speculative calls are a
        subsequence of vanilla's, and the steps are vanilla's steps."""
        cfg = make_config("fixed:1")
        vanilla = generate_vanilla(model, (6, 7, 8), cfg)
        spec = generate_speculative(model, (6, 7, 8), cfg, _six_node_graph())
        assert spec.report.acceptances > 0

        def is_subseq(short, long):
            it = iter(long)
            return all(any(x == y for y in it) for x in short)

        assert len(spec.calls) == len(vanilla.calls) == 4
        for v_calls, s_calls in zip(vanilla.calls, spec.calls):
            v = [call[-1].state_after.tokens for call in v_calls]
            s = [call[-1].state_after.tokens for call in s_calls]
            assert is_subseq(s, v)
            assert s[-1] == v[-1]
            assert [step for call in s_calls for step in call] == [step for call in v_calls for step in call]

    def test_determinism(self, model):
        cfg = make_config("fixed:2")
        a = generate_speculative(model, (3, 4), cfg, _six_node_graph())
        b = generate_speculative(model, (3, 4), cfg, _six_node_graph())
        assert a.tokens == b.tokens
        assert a.report.per_block == b.report.per_block


class TestScoredDrafts:
    """``verify`` never looks a complete state up, so a draft that fills
    every masked slot can never be accepted; ``spawn_drafts`` spawns
    none, and the speculative loop scores every draft it spawns.  The
    README runs keep their pinned counts."""

    @pytest.mark.parametrize(
        "schedule, counts",
        [("fixed:1", (640, 278, 362)), ("threshold:0.4", (415, 311, 104))],
    )
    def test_every_scored_draft_holds_a_mask(self, model, prompts, monkeypatch, schedule, counts):
        cfg = make_config(schedule)
        graph, _, _ = calibrate_graph(model, prompts, cfg, lookahead_max=4, budget=8)
        spawned, scored = [], []

        def spawn_counted(graph, positions, vocab, block):
            drafts = spawn_drafts(graph, positions, vocab, block)
            spawned.extend(drafts)
            return drafts

        def forward_checked(model, state, drafts):
            scored.extend(drafts)
            return forward_batched(model, state, drafts)

        monkeypatch.setattr(engine, "spawn_drafts", spawn_counted)
        monkeypatch.setattr(engine, "forward_batched", forward_checked)
        reports = [generate_speculative(model, prompt, cfg, graph).report for prompt in prompts]
        assert scored == spawned
        assert all(MASK in d for d in scored)
        assert (
            sum(r.baseline_nfe for r in reports),
            sum(r.total_nfe for r in reports),
            sum(r.acceptances for r in reports),
        ) == counts


# ---------------------------------------------------------------------------
# EOT accounting
# ---------------------------------------------------------------------------


class TestDecodeMemory:
    """A decode keeps no call's rows once the next call's drafts are
    ranked: its step records hold tokens and orders only, so its memory
    grows by far less than one call's (L, V) float64 rows per call."""

    VOCAB = 128
    BLOCK = 8

    @pytest.fixture(scope="class")
    def wide_model(self):
        """Runs of each of 128 tokens, so a token mostly follows itself
        and drafts along the chain are often accepted."""
        return train_from_corpus([(t,) * 6 for t in range(1, self.VOCAB + 1)], self.VOCAB)

    @staticmethod
    def _peak(decode):
        tracemalloc.start()
        try:
            report = decode().report
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("speculative", [False, True], ids=["vanilla", "speculative"])
    def test_memory_grows_by_less_than_a_call_of_rows(self, wide_model, speculative):
        graph = _chain_graph() if speculative else build_graph([], 1)

        def run(total_length):
            config = GenerationConfig(total_length, self.BLOCK, UnmaskSchedule.fixed(1), 3, self.VOCAB)
            return lambda: generate_speculative(wide_model, (5, 6, 7), config, graph)

        run(self.BLOCK)()  # warm the model's and the graph's cached tables
        short_peak, short = self._peak(run(64))
        long_peak, long = self._peak(run(256))
        if speculative:
            assert long.acceptances > 0
        per_call = (long_peak - short_peak) / (long.total_nfe - short.total_nfe)
        assert per_call < self.BLOCK * self.VOCAB * 8 / 4


class TestSequenceChecks:
    """A decode checks the block order once per block: ``initial`` and
    each ``advance_block`` run the state's constructor, and the states
    ``with_active_block`` makes within a block do not."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        check = SequenceState.__post_init__

        def post_init_counted(state):
            check(state)
            calls.append(state.active)

        monkeypatch.setattr(SequenceState, "__post_init__", post_init_counted)
        return calls

    def test_vanilla_checks_once_per_block(self, model, prompts, counted):
        result = generate_vanilla(model, prompts[0], make_config())
        assert result.report.total_nfe == 32
        assert counted == [0, 1, 2, 3]

    @pytest.mark.parametrize("schedule", ["fixed:1", "fixed:2", "threshold:0.4"])
    def test_speculative_checks_once_per_block(self, model, prompts, counted, schedule):
        result = generate_speculative(model, prompts[0], make_config(schedule), _six_node_graph())
        assert result.report.total_nfe > 4
        assert counted == [0, 1, 2, 3]


class TestEotAccounting:
    def test_chain_model_hits_eot_in_block_three(self, chain16_model):
        """Prompt (1,) continues 2, 3, ..., so token 16 lands at
        generated index 14, inside the fourth block of four."""
        res = generate_vanilla(chain16_model, (1,), _chain16_config())
        assert res.tokens[14] == 16
        assert res.report.eot_block == 3

    def test_speedup_to_eot_matches_prefix_recompute(self, chain16_model):
        report = generate_speculative(chain16_model, (1,), _chain16_config(), _chain_graph()).report
        assert report.eot_block == 3
        prefix = [b for b in report.per_block if b.index <= 3]
        want = sum(b.baseline_nfe for b in prefix) / sum(b.nfe for b in prefix)
        assert report.speedup_to_eot == pytest.approx(want)

    def test_no_eot_makes_both_speedups_equal(self, model):
        report = generate_speculative(model, (2, 2, 2), make_config("fixed:1"), _chain_graph()).report
        assert report.eot_block is None
        assert report.speedup_to_eot == report.speedup_all

    def test_prefix_speedup_on_handmade_report(self):
        """speedup_to_eot slices exactly the blocks up to the EOT one."""
        report = scripted_report((4, 8, 2, 8), 8, eot_block=1)
        assert (report.total_nfe, report.baseline_nfe, report.eot_block) == (22, 32, 1)
        assert report.speedup_to_eot == pytest.approx(16 / 12)
        assert report.speedup_all == pytest.approx(32 / 22)


EOT = 2


@st.composite
def call_scripts(draw):
    """A run as ``engine._report`` reads it: one to five blocks, each a
    list of one to four calls, each call one to four steps of one to
    three tokens; any state may hold the EOT token.  Half the time a
    vanilla report with as many blocks comes along as the baseline."""
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        calls = []
        for _ in range(draw(st.integers(1, 4))):
            calls.append(
                tuple(
                    StepRecord((), BlockState((draw(st.sampled_from((1, EOT))), 1)), draw(st.integers(1, 3)))
                    for _ in range(draw(st.integers(1, 4)))
                )
            )
        blocks.append(calls)
    baseline = None
    if draw(st.booleans()):
        nfes = draw(st.lists(st.integers(1, 12), min_size=len(blocks), max_size=len(blocks)))
        per_block = tuple(PerBlockStats(k, n, n, 0, (1,) * n) for k, n in enumerate(nfes))
        baseline = RunReport(sum(nfes), sum(nfes), 0, per_block, None, 1.0, 1.0)
    return blocks, baseline


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(call_scripts())
def test_report_sums_the_scripted_calls(script):
    """Every report field follows from the calls alone: a block's NFEs
    are its calls and its acceptances its steps beyond them, totals are
    the per-block sums, a run without a baseline counts its steps as its
    vanilla NFEs, and the EOT block is the first whose last state holds
    EOT, with both speedups equal when there is none."""
    blocks, baseline = script
    report = engine._report(blocks, EOT, baseline)
    assert len(report.per_block) == len(blocks)
    for k, (calls, stats) in enumerate(zip(blocks, report.per_block)):
        steps = [step for call in calls for step in call]
        assert (stats.index, stats.nfe, stats.acceptances) == (k, len(calls), len(steps) - len(calls))
        assert stats.realized_s == tuple(step.realized for step in steps)
        assert stats.baseline_nfe == (len(steps) if baseline is None else baseline.per_block[k].nfe)
    assert report.total_nfe == sum(b.nfe for b in report.per_block)
    assert report.baseline_nfe == sum(b.baseline_nfe for b in report.per_block)
    assert report.acceptances == sum(b.acceptances for b in report.per_block)
    if baseline is None:
        assert report.total_nfe + report.acceptances == report.baseline_nfe
    finals = [calls[-1][-1].state_after.tokens for calls in blocks]
    assert report.eot_block == next((k for k, tokens in enumerate(finals) if EOT in tokens), None)
    assert report.speedup_all == report.baseline_nfe / report.total_nfe
    if report.eot_block is None:
        assert report.speedup_to_eot == report.speedup_all
    else:
        prefix = report.per_block[: report.eot_block + 1]
        assert report.speedup_to_eot == sum(b.baseline_nfe for b in prefix) / sum(b.nfe for b in prefix)


# ---------------------------------------------------------------------------
# lossless checks and summaries
# ---------------------------------------------------------------------------


class TestCheckLossless:
    def test_passes_on_synthetic_prompts(self, model, prompts):
        for prompt in prompts[:5]:
            check = check_lossless(model, prompt, make_config("fixed:1"), _six_node_graph())
            assert check.ok, check.message
            assert check.vanilla.tokens == check.speculative.tokens
        assert "identical" in check.message

    def test_passes_under_threshold_schedule(self, model):
        check = check_lossless(model, (2, 2), make_config("threshold:0.9"), _chain_graph())
        assert check.ok, check.message


class TestSummaries:
    def test_vanilla_summary_is_flat(self, model):
        report = generate_vanilla(model, (2, 3), make_config()).report
        summary = per_block_summary([report])
        assert [s.index for s in summary] == [0, 1, 2, 3]
        assert all(s.runs == 1 for s in summary)
        assert all(s.mean_speedup == 1.0 for s in summary)
        assert all(s.mean_acceptance_rate == 0.0 for s in summary)

    def test_identical_reports_average_to_themselves(self, model):
        report = generate_speculative(model, (2, 2), make_config(), _chain_graph()).report
        one = per_block_summary([report])
        two = per_block_summary([report, report])
        assert [s.mean_speedup for s in one] == [s.mean_speedup for s in two]
        assert all(s.runs == 2 for s in two)

    def test_eot_run_contributes_prefix_only(self, chain16_model):
        report = generate_vanilla(chain16_model, (1,), _chain16_config()).report
        summary = per_block_summary([report])
        assert [s.index for s in summary] == [0, 1, 2, 3]

    def test_profile_normalizes_to_model_time(self, model):
        timer = StageTimer()
        generate_speculative(model, (2, 2), make_config(), _chain_graph(), timer=timer)
        profile = profile_stages(timer.seconds)
        assert profile["model"] == 100.0
        assert set(profile) == set(timer.seconds)
        assert all(v >= 0.0 for v in profile.values())

    def test_stage_seconds_only_with_a_timer(self, model):
        config = make_config()
        vanilla = StageTimer()
        generate_vanilla(model, (2, 2), config, timer=vanilla)
        assert set(vanilla.seconds) == {"model", "verify"}
        spec = StageTimer()
        generate_speculative(model, (2, 2), config, _chain_graph(), timer=spec)
        assert set(spec.seconds) == {"model", "ranking", "drafting", "verify"}

    @pytest.mark.parametrize("schedule", ["fixed:1", "threshold:0.4"])
    def test_timed_and_untimed_runs_report_alike(self, model, schedule):
        """A timer changes nothing a run returns: stage times stay in it."""
        config = make_config(schedule)
        graph = _chain_graph()
        assert generate_vanilla(model, (2, 2), config, timer=StageTimer()) == generate_vanilla(model, (2, 2), config)
        timed_spec = generate_speculative(model, (2, 2), config, graph, timer=StageTimer())
        assert timed_spec == generate_speculative(model, (2, 2), config, graph)
        assert timed_spec.report.acceptances > 0

    def test_profile_requires_model_time(self):
        with pytest.raises(ValueError, match="model stage"):
            profile_stages({})
