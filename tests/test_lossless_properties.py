"""Losslessness as a property of generated inputs.

Corpora, W/L splits, schedules, prompts (empty included), ``top_k_vocab``
and draft graphs are all generated.  Graphs are valid but otherwise
arbitrary: ranks may point past the block or the vocabulary view (those
drafts are skipped), and ``tokens_per_level`` need not match the
schedule.  For every case the speculative decoder must take the vanilla
steps block by block, so it produces the vanilla tokens, and every step
it takes is either its own call or an accepted draft, so
``total_nfe + acceptances == baseline_nfe``.  The baseline is counted
from the run's own steps, so it is checked against the vanilla run and,
under fixed:s, against ceil(L / s) calls per block.
"""

from math import ceil

from hypothesis import given, settings
from hypothesis import strategies as st

from blockspec.core import GenerationConfig, UnmaskSchedule
from blockspec.drafting import DraftFormula, build_graph
from blockspec.engine import check_lossless, generate_speculative
from blockspec.model import train_from_corpus

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, block_length, top_k, schedule):
    """A rooted graph grown level by level: every node above level 1
    extends a node of the level below by tokens_per_level new ranks.
    tokens_per_level mostly matches the schedule's tokens per step."""
    tokens_per_level = draw(st.sampled_from((schedule.tokens_per_step or 1, 1, 2)))
    # mostly top ranks, which are the drafts that get accepted
    ranks = st.tuples(
        st.one_of(st.integers(1, 2), st.integers(1, block_length + 1)),
        st.one_of(st.just(1), st.integers(1, top_k)),
    )
    levels = [[]]
    for _ in range(draw(st.integers(1, 3))):
        below = levels[-1]
        level = []
        for _ in range(draw(st.integers(1, 3))):
            pairs = dict(draw(st.sampled_from(below)).pairs) if below else {}
            grown = dict(pairs)
            while len(grown) < len(pairs) + tokens_per_level:
                i, j = draw(ranks)
                grown.setdefault(i, j)
            node = DraftFormula.of(grown.items())
            if node not in level:
                level.append(node)
        levels.append(level)
    nodes = [node for level in levels for node in level]
    return build_graph(nodes, tokens_per_level)


fixed_schedules = st.integers(1, 3).map(UnmaskSchedule.fixed)
any_schedules = st.one_of(
    fixed_schedules, st.sampled_from((0.3, 0.6, 0.9, 1.0)).map(UnmaskSchedule.at_threshold)
)


@st.composite
def cases(draw, schedules):
    vocab = draw(st.integers(2, 8))
    tokens = st.integers(1, vocab)
    # runs of repeated tokens give a peaked model whose drafts get accepted
    runs = st.lists(st.tuples(tokens, st.integers(1, 6)), min_size=1, max_size=4)
    repeated = runs.map(lambda rs: [t for t, n in rs for _ in range(n)])
    sequence = st.one_of(repeated, st.lists(tokens, min_size=1, max_size=12))
    corpus = draw(st.lists(sequence, min_size=1, max_size=6))
    model = train_from_corpus(corpus, vocab)
    block_length = draw(st.sampled_from((8, 6, 4, 5, 3, 7, 2, 1)))
    schedule = draw(schedules)
    top_k = draw(st.integers(1, 4))
    config = GenerationConfig(
        total_length=block_length * draw(st.integers(1, 3)),
        block_length=block_length,
        schedule=schedule,
        top_k_vocab=top_k,
        eot_token=draw(tokens),
    )
    prompt = tuple(draw(st.lists(tokens, max_size=4)))
    return model, prompt, config, draw(graphs(block_length, top_k, schedule))


@PROPERTY
@given(cases(any_schedules))
def test_speculative_decoding_is_lossless(case):
    model, prompt, config, graph = case
    result = check_lossless(model, prompt, config, graph)
    assert result.ok, result.message
    report = result.speculative.report
    assert report.total_nfe + report.acceptances == report.baseline_nfe
    assert [b.baseline_nfe for b in report.per_block] == [b.nfe for b in result.vanilla.report.per_block]


@PROPERTY
@given(cases(fixed_schedules))
def test_fixed_schedule_identity_holds_without_a_measured_baseline(case):
    """Under fixed:s vanilla takes ceil(L / s) calls per block, so the
    counted baseline must equal that."""
    model, prompt, config, graph = case
    report = generate_speculative(model, prompt, config, graph).report
    calls = ceil(config.block_length / config.schedule.tokens_per_step)
    assert report.baseline_nfe == config.num_blocks * calls
    assert report.total_nfe + report.acceptances == report.baseline_nfe
