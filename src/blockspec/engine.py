"""Generation loops and NFE accounting.

Two entry points share all mechanics: ``generate_vanilla`` denoises each
block one scheduled step per model call; ``generate_speculative`` runs
the same schedule but sends a graph of draft blocks along with every
call and lets verification chain through accepted drafts, so one call
can commit several steps.  Outputs are identical by construction; only
the number of function evaluations (NFEs) differs.

Drafts for a call are ranked from the most recent distribution in hand:
the marginals adopted from the last accepted draft, or the previous
fresh target otherwise.  Either way that source is one step behind the
committed state; a draft is accepted exactly when the continuation it
guessed from the older distribution is what the fresh target realizes.
The position order comes with it: it is the suffix that verification's
last advance left uncommitted, so only the vocabulary is ranked here.
Each block opens with a draft-free call since no distribution exists
for it yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import verification
from .core import BlockState, GenerationConfig, Marginals, SequenceState
from .drafting import DraftGraphSpec, RankingView, order_positions, order_vocab, spawn_drafts
from .model import ToyDenoiser, forward_batched
from .timing import StageTimer, maybe_stage


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class PerBlockStats:
    index: int
    nfe: int
    baseline_nfe: int
    acceptances: int
    realized_s: Tuple[int, ...]
    accepted_s: Tuple[int, ...]


@dataclass(frozen=True)
class RunReport:
    """Accounting for one generation run.

    ``speedup_all`` is baseline NFEs over actual NFEs across every
    block; ``speedup_to_eot`` restricts both sums to blocks up to and
    including the one holding the first EOT token (equal to speedup_all
    when no EOT appeared).  ``stage_seconds`` holds wall-clock stage
    totals when the run was given a timer (empty otherwise) and is the
    only non-deterministic field.
    """

    total_nfe: int
    baseline_nfe: int
    acceptances: int
    per_block: Tuple[PerBlockStats, ...]
    eot_block: Optional[int]
    speedup_all: float
    speedup_to_eot: float
    stage_seconds: Mapping[str, float]


@dataclass(frozen=True)
class GenerationResult:
    tokens: Tuple[int, ...]
    state: SequenceState
    report: RunReport
    trace: Optional[Tuple[Tuple[int, BlockState], ...]]


def compute_speedup(report: RunReport, *, up_to_eot: bool) -> float:
    """Baseline over actual NFEs, optionally filtered to the EOT prefix."""
    return _speedup(report.per_block, report.eot_block if up_to_eot else None)


def _speedup(per_block: Sequence[PerBlockStats], last_block: Optional[int]) -> float:
    """Baseline over actual NFEs for blocks up to ``last_block`` (all when None)."""
    blocks = [b for b in per_block if last_block is None or b.index <= last_block]
    actual = sum(b.nfe for b in blocks)
    baseline = sum(b.baseline_nfe for b in blocks)
    assert actual > 0
    return baseline / actual


def _finish_report(
    per_block: List[PerBlockStats],
    eot_block: Optional[int],
    timer: Optional[StageTimer],
) -> RunReport:
    return RunReport(
        total_nfe=sum(b.nfe for b in per_block),
        baseline_nfe=sum(b.baseline_nfe for b in per_block),
        acceptances=sum(b.acceptances for b in per_block),
        per_block=tuple(per_block),
        eot_block=eot_block,
        speedup_all=_speedup(per_block, None),
        speedup_to_eot=_speedup(per_block, eot_block),
        stage_seconds=timer.snapshot() if timer is not None else {},
    )


def _find_eot(block: BlockState, eot_token: int) -> bool:
    return eot_token in block.tokens


def _check_prompt(model: ToyDenoiser, prompt: Sequence[int]) -> Tuple[int, ...]:
    out = tuple(int(t) for t in prompt)
    for t in out:
        if not (1 <= t <= model.vocab_size):
            raise ValueError("prompt token %d outside 1..%d" % (t, model.vocab_size))
    return out


# ---------------------------------------------------------------------------
# vanilla


@dataclass(frozen=True)
class StepRecord:
    """One vanilla denoising step inside a block (used by calibration).

    ``ordered`` is the step's position ranking,
    ``order_positions(marginals, state_before)``.
    """

    state_before: BlockState
    marginals: Marginals
    ordered: Tuple[int, ...]
    state_after: BlockState
    realized: int


def vanilla_block_steps(
    model: ToyDenoiser,
    state: SequenceState,
    config: GenerationConfig,
    *,
    timer: Optional[StageTimer] = None,
) -> Tuple[SequenceState, List[StepRecord]]:
    """Denoise the active block to completion, one call per step."""
    steps: List[StepRecord] = []
    while not state.active_block.is_complete:
        before = state.active_block
        target, _ = forward_batched(model, state, [], timer=timer)
        with maybe_stage(timer, "ranking"):
            ordered = order_positions(target, before)
        after, realized = verification.advance(before, target, ordered, config.schedule)
        steps.append(
            StepRecord(state_before=before, marginals=target, ordered=ordered, state_after=after, realized=realized)
        )
        state = state.with_active_block(after)
    return state, steps


def generate_vanilla(
    model: ToyDenoiser,
    prompt: Sequence[int],
    config: GenerationConfig,
    *,
    record_trace: bool = False,
    timer: Optional[StageTimer] = None,
) -> GenerationResult:
    """Reference decode: baseline equals actual, speedup 1.0, M = 0.

    Stage times go to ``timer`` when one is given."""
    prompt = _check_prompt(model, prompt)
    state = SequenceState.initial(prompt, config.num_blocks, config.block_length)
    per_block: List[PerBlockStats] = []
    trace: List[Tuple[int, BlockState]] = []
    eot_block: Optional[int] = None
    for k in range(config.num_blocks):
        state, steps = vanilla_block_steps(model, state, config, timer=timer)
        if record_trace:
            trace.extend((k, s.state_after) for s in steps)
        per_block.append(
            PerBlockStats(
                index=k,
                nfe=len(steps),
                baseline_nfe=len(steps),
                acceptances=0,
                realized_s=tuple(s.realized for s in steps),
                accepted_s=(),
            )
        )
        if eot_block is None and _find_eot(state.active_block, config.eot_token):
            eot_block = k
        if k + 1 < config.num_blocks:
            state = state.advance_block()
    report = _finish_report(per_block, eot_block, timer)
    return GenerationResult(
        tokens=state.generated_tokens(),
        state=state,
        report=report,
        trace=tuple(trace) if record_trace else None,
    )


# ---------------------------------------------------------------------------
# speculative


def _baseline_per_block(
    model: ToyDenoiser,
    prompt: Tuple[int, ...],
    config: GenerationConfig,
    baseline: Optional[RunReport],
) -> List[int]:
    if baseline is not None:
        assert len(baseline.per_block) == config.num_blocks
        return [b.nfe for b in baseline.per_block]
    if config.schedule.kind == "fixed":
        calls = math.ceil(config.block_length / config.schedule.tokens_per_step)
        return [calls] * config.num_blocks
    # threshold steps are data dependent, so the baseline is measured by
    # actually running the vanilla schedule once
    vanilla = generate_vanilla(model, prompt, config)
    return [b.nfe for b in vanilla.report.per_block]


def generate_speculative(
    model: ToyDenoiser,
    prompt: Sequence[int],
    config: GenerationConfig,
    graph: DraftGraphSpec,
    *,
    record_trace: bool = False,
    baseline: Optional[RunReport] = None,
    timer: Optional[StageTimer] = None,
) -> GenerationResult:
    """Speculative decode with a calibrated draft graph.

    Every loop iteration makes exactly one batched model call (one NFE)
    and commits at least one step; accepted drafts commit more.  The
    trace, when recorded, holds the state after each call, which is a
    subsequence of the vanilla per-step trajectory.  Stage times go to
    ``timer`` when one is given.
    """
    prompt = _check_prompt(model, prompt)
    if graph.max_vocab_rank() > config.top_k_vocab:
        raise ValueError(
            "graph/schedule mismatch: graph needs vocabulary rank %d, top_k_vocab is %d"
            % (graph.max_vocab_rank(), config.top_k_vocab)
        )
    baselines = _baseline_per_block(model, prompt, config, baseline)
    state = SequenceState.initial(prompt, config.num_blocks, config.block_length)
    per_block: List[PerBlockStats] = []
    trace: List[Tuple[int, BlockState]] = []
    eot_block: Optional[int] = None
    for k in range(config.num_blocks):
        nfe = 0
        acceptances = 0
        realized: List[int] = []
        accepted_s: List[int] = []
        rank_source: Optional[Marginals] = None
        positions: Tuple[int, ...] = ()
        while not state.active_block.is_complete:
            block = state.active_block
            if rank_source is None or graph.num_nodes == 0:
                drafts = []
            else:
                with maybe_stage(timer, "ranking"):
                    vocab = order_vocab(rank_source, positions, config.top_k_vocab)
                ranking = RankingView(ordered_positions=positions, vocab_by_position=vocab)
                with maybe_stage(timer, "drafting"):
                    drafts = spawn_drafts(graph, ranking, block)
            target, draft_rows = forward_batched(model, state, [d.tokens for d in drafts], timer=timer)
            nfe += 1
            with maybe_stage(timer, "verify"):
                outcome = verification.verify(block, target, drafts, draft_rows, config.schedule)
            state = state.with_active_block(outcome.new_block)
            if record_trace:
                trace.append((k, outcome.new_block))
            acceptances += len(outcome.accepted_levels)
            realized.extend(outcome.realized_s)
            accepted_s.extend(outcome.realized_s[1:])
            rank_source = outcome.adopted_marginals if outcome.adopted_marginals is not None else target
            positions = outcome.remaining_order
        per_block.append(
            PerBlockStats(
                index=k,
                nfe=nfe,
                baseline_nfe=baselines[k],
                acceptances=acceptances,
                realized_s=tuple(realized),
                accepted_s=tuple(accepted_s),
            )
        )
        if eot_block is None and _find_eot(state.active_block, config.eot_token):
            eot_block = k
        if k + 1 < config.num_blocks:
            state = state.advance_block()
    report = _finish_report(per_block, eot_block, timer)
    return GenerationResult(
        tokens=state.generated_tokens(),
        state=state,
        report=report,
        trace=tuple(trace) if record_trace else None,
    )


# ---------------------------------------------------------------------------
# lossless check


@dataclass(frozen=True)
class LosslessCheck:
    ok: bool
    message: str
    vanilla: GenerationResult
    speculative: GenerationResult


def _is_subsequence(short: Sequence, long: Sequence) -> bool:
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def check_lossless(
    model: ToyDenoiser,
    prompt: Sequence[int],
    config: GenerationConfig,
    graph: DraftGraphSpec,
) -> LosslessCheck:
    """Run both decoders and compare outputs and trajectories.

    Passes when the final tokens are exactly equal and, per block, the
    speculative checkpoint states form a subsequence of the vanilla
    per-step states.
    """
    vanilla = generate_vanilla(model, prompt, config, record_trace=True)
    spec = generate_speculative(model, prompt, config, graph, record_trace=True, baseline=vanilla.report)
    if vanilla.tokens != spec.tokens:
        first = next(i for i, (a, b) in enumerate(zip(vanilla.tokens, spec.tokens)) if a != b)
        message = "output mismatch at generated position %d: vanilla %d, speculative %d" % (
            first,
            vanilla.tokens[first],
            spec.tokens[first],
        )
        return LosslessCheck(ok=False, message=message, vanilla=vanilla, speculative=spec)
    for k in range(config.num_blocks):
        v_states = [s.tokens for i, s in vanilla.trace if i == k]
        s_states = [s.tokens for i, s in spec.trace if i == k]
        if not _is_subsequence(s_states, v_states):
            return LosslessCheck(
                ok=False,
                message="block %d: speculative trace is not a subsequence of the vanilla trace" % k,
                vanilla=vanilla,
                speculative=spec,
            )
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

    ``stage_seconds`` is one report's ``stage_seconds`` or the per-stage
    sum over several reports.
    """
    model_time = stage_seconds.get("model", 0.0)
    if model_time <= 0.0:
        raise ValueError("model stage time is zero; nothing to normalize against")
    out = {}
    for name, seconds in sorted(stage_seconds.items()):
        out[name] = 100.0 * seconds / model_time
    return out
