"""One ranking per denoising step.

``verification.advance`` ranks the block it commits to and hands the
order on in the step it returns, and vanilla decoding, verification and
calibration all step through it: decoding through ``verify``, which
passes ``advance`` the per-step ``top1`` and ``columns`` lists it reads
off one (L, V) slice of its call's rows, calibration on the lists it
reads once per lockstep model call, over every row of that call.  So
``order_positions`` runs exactly once per step taken, whoever takes the
step.  Calibration ranks the vocabulary once per lockstep model call
too, over every row of that call."""

import pytest
from conftest import make_config

from blockspec import calibration, drafting, verification
from blockspec.calibration import collect_records
from blockspec.drafting import DraftFormula, build_graph, order_positions
from blockspec.model import forward_many
from blockspec.engine import generate_speculative, generate_vanilla

CHAIN = build_graph([DraftFormula.of([(i, 1) for i in range(1, n + 1)]) for n in (1, 2, 3)], 1)


@pytest.fixture()
def rankings(monkeypatch):
    """The blocks ranked through ``verification.order_positions``."""
    ranked = []

    def counted(top1, block):
        ranked.append(block)
        return order_positions(top1, block)

    monkeypatch.setattr(verification, "order_positions", counted)
    return ranked


@pytest.mark.parametrize("schedule", ["fixed:1", "fixed:2", "threshold:0.4"])
def test_each_decoder_ranks_once_per_step(model, prompts, rankings, schedule):
    config = make_config(schedule)
    accepted = 0
    for prompt in prompts[:5]:
        rankings.clear()
        vanilla = generate_vanilla(model, prompt, config).report
        assert len(rankings) == vanilla.baseline_nfe
        rankings.clear()
        spec = generate_speculative(model, prompt, config, CHAIN).report
        assert len(rankings) == spec.baseline_nfe == vanilla.baseline_nfe
        accepted += spec.acceptances
    assert accepted > 0  # some steps came from adopted drafts, not fresh calls


def test_calibration_ranks_once_per_replayed_step(model, prompts, rankings):
    """The README prompts hold 15 distinct ones, each replayed once over
    32 one-token steps under fixed:1."""
    collect_records(model, prompts, make_config("fixed:1"), 4)
    assert len(rankings) == 480


def test_calibration_ranks_the_steps_vanilla_takes(model, prompts, rankings):
    config = make_config("threshold:0.4")
    steps = sum(generate_vanilla(model, prompt, config).report.baseline_nfe for prompt in set(prompts))
    rankings.clear()
    collect_records(model, prompts, config, 4)
    assert len(rankings) == steps


def test_calibration_ranks_vocabularies_once_per_model_call(model, prompts, monkeypatch):
    """Under fixed:1 the 15 distinct README prompts take 32 lockstep
    calls, and each call's rows are ranked together: 32 rankings, not one
    per replayed step (480).  ``drafting``'s binding is counted too, so a
    ranking through ``order_vocab`` would show."""
    calls, ranked = [], []
    vocab_ranking = drafting.vocab_ranking

    def counted_forward(model, states):
        calls.append(len(states))
        return forward_many(model, states)

    def counted_ranking(rows, top_k):
        ranked.append(rows.shape[:-2])
        return vocab_ranking(rows, top_k)

    monkeypatch.setattr(calibration, "forward_many", counted_forward)
    monkeypatch.setattr(calibration, "vocab_ranking", counted_ranking)
    monkeypatch.setattr(drafting, "vocab_ranking", counted_ranking)
    collect_records(model, prompts, make_config("fixed:1"), 4)
    assert len(calls) == 32
    assert ranked == [(n,) for n in calls]
