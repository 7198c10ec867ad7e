"""Generation loop and NFE accounting.

One block loop decodes: every model call scores the true state together
with a graph of draft blocks, and verification chains through accepted
drafts, so one call can commit several scheduled steps.
``generate_speculative`` runs it with a calibrated graph;
``generate_vanilla`` runs it with the empty graph, where each call takes
exactly one step, just as speculative decoding with no drafts is plain
decoding.  Outputs are identical by construction; only the number of
function evaluations (NFEs) differs, and since both take the same steps,
the steps a run took count its vanilla NFEs.

Drafts for a call are ranked from the last step of the previous call:
the rows it read (the fresh target's, or the last accepted draft's) over
its remaining order, the masked positions that step ranked but left
uncommitted.  So only the vocabulary is ranked here.  That distribution
is one step behind the committed state; a draft is accepted exactly
when the continuation it guessed from it is what the fresh target
realizes.  Each block opens with a draft-free call since no
distribution exists for it yet.  Every spawned draft is scored;
``spawn_drafts`` spawns none that fills every masked slot.

A call's record is the tuple of steps ``verify`` took from the rows
``forward_batched`` returned: ``(step,)`` when no draft was accepted.
A record keeps no rows: only the last call's array stays alive, for the
next call's drafts.  A decode returns every block's calls, and its
report is ``_report``, a pure function of them.  ``check_lossless``
compares the steps of two decodes block by block.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import verification
from .core import GenerationConfig, SequenceState
from .drafting import DraftGraphSpec, build_graph, order_vocab, spawn_drafts
from .model import ToyDenoiser, check_prompt, forward_batched
from .timing import StageTimer, timed
from .verification import StepRecord


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class PerBlockStats:
    """Accounting for one block.

    ``realized_s`` logs the token count of every step taken, accepted
    chain steps included, so ``acceptances`` is its length less ``nfe``.
    A lossless run takes exactly the vanilla steps, so ``baseline_nfe``
    is counted as that length unless a vanilla report was supplied.
    """

    index: int
    nfe: int
    baseline_nfe: int
    acceptances: int
    realized_s: Tuple[int, ...]


@dataclass(frozen=True)
class RunReport:
    """Accounting for one generation run.

    ``baseline_nfe`` is the vanilla NFE count: the steps the run took,
    unless a vanilla report was supplied as the baseline.
    ``speedup_all`` is baseline NFEs over actual NFEs across every
    block; ``speedup_to_eot`` restricts both sums to blocks up to and
    including the one holding the first EOT token (equal to speedup_all
    when no EOT appeared).  Every field is deterministic: stage times
    stay in the ``StageTimer`` the caller passed to the decoder.
    """

    total_nfe: int
    baseline_nfe: int
    acceptances: int
    per_block: Tuple[PerBlockStats, ...]
    eot_block: Optional[int]
    speedup_all: float
    speedup_to_eot: float


@dataclass(frozen=True)
class GenerationResult:
    """``calls[k]`` is block k's calls in order, each the steps it took."""

    tokens: Tuple[int, ...]
    report: RunReport
    calls: Tuple[Tuple[Tuple[StepRecord, ...], ...], ...]


def _speedup(per_block: Sequence[PerBlockStats], last_block: Optional[int]) -> float:
    """Baseline over actual NFEs for blocks up to ``last_block`` (all when None)."""
    blocks = [b for b in per_block if last_block is None or b.index <= last_block]
    actual = sum(b.nfe for b in blocks)
    baseline = sum(b.baseline_nfe for b in blocks)
    return baseline / actual


def _report(
    blocks: Sequence[Sequence[Tuple[StepRecord, ...]]], eot_token: int, baseline: Optional[RunReport]
) -> RunReport:
    """The report of a run whose block k made the calls ``blocks[k]``,
    each the steps it took.  A block's EOT is looked up in the state
    after its last step; ``baseline``, when given, supplies each block's
    baseline NFEs instead of its step count."""
    per_block: List[PerBlockStats] = []
    for k, calls in enumerate(blocks):
        realized = tuple(step.realized for steps in calls for step in steps)
        per_block.append(
            PerBlockStats(
                index=k,
                nfe=len(calls),
                baseline_nfe=len(realized) if baseline is None else baseline.per_block[k].nfe,
                acceptances=len(realized) - len(calls),
                realized_s=realized,
            )
        )
    eot_block = next((k for k, calls in enumerate(blocks) if eot_token in calls[-1][-1].state_after.tokens), None)
    return RunReport(
        total_nfe=sum(b.nfe for b in per_block),
        baseline_nfe=sum(b.baseline_nfe for b in per_block),
        acceptances=sum(b.acceptances for b in per_block),
        per_block=tuple(per_block),
        eot_block=eot_block,
        speedup_all=_speedup(per_block, None),
        speedup_to_eot=_speedup(per_block, eot_block),
    )


# ---------------------------------------------------------------------------
# decoding


def check_graph(graph: DraftGraphSpec, config: GenerationConfig) -> None:
    """The one rule a graph and a config must agree on: no formula may
    address a vocabulary rank past ``top_k_vocab``.  Raises ValueError
    otherwise."""
    if graph.max_vocab_rank() > config.top_k_vocab:
        raise ValueError(
            "graph needs vocabulary rank %d, top_k_vocab is %d" % (graph.max_vocab_rank(), config.top_k_vocab)
        )


def generate_speculative(
    model: ToyDenoiser,
    prompt: Sequence[int],
    config: GenerationConfig,
    graph: DraftGraphSpec,
    *,
    baseline: Optional[RunReport] = None,
    timer: Optional[StageTimer] = None,
) -> GenerationResult:
    """Speculative decode with a calibrated draft graph.

    Every loop iteration makes exactly one batched model call (one NFE)
    and commits at least one step; accepted drafts commit more.  The
    result's ``calls`` keeps each call's steps: a lossless run's are
    vanilla's, in fewer calls.  Each block's baseline NFEs are its steps
    taken, or ``baseline``'s per-block NFEs when a vanilla report is
    given.  Stage times accumulate in ``timer``, when one is given.
    """
    prompt = check_prompt(model, prompt)
    check_graph(graph, config)
    if baseline is not None and len(baseline.per_block) != config.num_blocks:
        raise ValueError(
            "baseline report has %d blocks, config has %d" % (len(baseline.per_block), config.num_blocks)
        )

    rank_vocab = timed(timer, "ranking", order_vocab)
    spawn = timed(timer, "drafting", spawn_drafts)
    forward = timed(timer, "model", forward_batched)
    verify = timed(timer, "verify", verification.verify)

    has_drafts = graph.num_nodes > 0
    state = SequenceState.initial(prompt, config.num_blocks, config.block_length)
    blocks: List[Tuple[Tuple[StepRecord, ...], ...]] = []
    for k in range(config.num_blocks):
        if k:
            state = state.advance_block()
        calls: List[Tuple[StepRecord, ...]] = []
        block = state.active_block
        while not block.is_complete:
            drafts: List[Tuple[int, ...]] = []
            if calls and has_drafts:
                last = calls[-1][-1]
                positions = last.ordered[last.realized :]
                drafts = spawn(graph, positions, rank_vocab(last_rows, positions, config.top_k_vocab), block)
            steps, last_rows = verify(block, drafts, forward(model, state, drafts), config.schedule)
            calls.append(steps)
            block = steps[-1].state_after
            state = state.with_active_block(block)
        blocks.append(tuple(calls))
    return GenerationResult(
        tokens=state.generated_tokens(), report=_report(blocks, config.eot_token, baseline), calls=tuple(blocks)
    )


_NO_DRAFTS = build_graph(())


def generate_vanilla(
    model: ToyDenoiser,
    prompt: Sequence[int],
    config: GenerationConfig,
    *,
    timer: Optional[StageTimer] = None,
) -> GenerationResult:
    """Reference decode: ``generate_speculative`` with an empty graph, so
    each model call takes exactly one step; baseline equals actual,
    speedup 1.0, M = 0.  Stage times accumulate in ``timer``, when one
    is given."""
    return generate_speculative(model, prompt, config, _NO_DRAFTS, timer=timer)


# ---------------------------------------------------------------------------
# lossless check


@dataclass(frozen=True)
class LosslessCheck:
    ok: bool
    message: str
    vanilla: GenerationResult
    speculative: GenerationResult


def check_lossless(
    model: ToyDenoiser,
    prompt: Sequence[int],
    config: GenerationConfig,
    graph: DraftGraphSpec,
) -> LosslessCheck:
    """Run both decoders; pass when, block by block, the speculative run
    took exactly vanilla's steps, only grouped into fewer calls.  That
    implies equal tokens, call-end states that are a subsequence of
    vanilla's, and ``total_nfe + acceptances`` equal to vanilla's NFEs.
    A failure names the block and the first step that differs.
    """
    vanilla = generate_vanilla(model, prompt, config)
    spec = generate_speculative(model, prompt, config, graph)
    for k, (v_calls, s_calls) in enumerate(zip(vanilla.calls, spec.calls)):
        v_steps = [step for call in v_calls for step in call]
        s_steps = [step for call in s_calls for step in call]
        if s_steps != v_steps:
            shorter = min(len(v_steps), len(s_steps))
            first = next((i for i in range(shorter) if v_steps[i] != s_steps[i]), shorter)
            message = "block %d: speculative step %d differs from vanilla's (%d steps against %d)"
            message %= (k, first, len(s_steps), len(v_steps))
            return LosslessCheck(ok=False, message=message, vanilla=vanilla, speculative=spec)
    return LosslessCheck(ok=True, message="outputs identical, traces consistent", vanilla=vanilla, speculative=spec)


# ---------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class BlockSummary:
    index: int
    runs: int
    mean_speedup: float
    mean_acceptance_rate: float


def per_block_summary(reports: Sequence[RunReport]) -> List[BlockSummary]:
    """Average per-block speedup and acceptances-per-call across runs.

    Each run contributes its blocks up to and including the EOT block
    (all blocks when no EOT appeared).
    """
    speedups: Dict[int, List[float]] = {}
    rates: Dict[int, List[float]] = {}
    for report in reports:
        for b in report.per_block:
            if report.eot_block is not None and b.index > report.eot_block:
                continue
            speedups.setdefault(b.index, []).append(b.baseline_nfe / b.nfe)
            rates.setdefault(b.index, []).append(b.acceptances / b.nfe)
    out = []
    for index in sorted(speedups):
        values = speedups[index]
        out.append(
            BlockSummary(
                index=index,
                runs=len(values),
                mean_speedup=sum(values) / len(values),
                mean_acceptance_rate=sum(rates[index]) / len(rates[index]),
            )
        )
    return out


def profile_stages(stage_seconds: Mapping[str, float]) -> Dict[str, float]:
    """Stage overheads as a percentage of model time.

    ``stage_seconds`` is a ``StageTimer``'s ``seconds``: the stage totals
    of every decode that was given that timer.
    """
    model_time = stage_seconds.get("model", 0.0)
    if model_time <= 0.0:
        raise ValueError("model stage time is zero; nothing to normalize against")
    out = {}
    for name, seconds in sorted(stage_seconds.items()):
        out[name] = 100.0 * seconds / model_time
    return out
