"""Generation loops and NFE accounting.

Two entry points share one block loop: ``generate_vanilla`` denoises
each block one scheduled step per model call; ``generate_speculative``
runs the same schedule but sends a graph of draft blocks along with
every call and lets verification chain through accepted drafts, so one
call can commit several steps.  Outputs are identical by construction;
only the number of function evaluations (NFEs) differs, and since both
take the same steps, the steps a run took count its vanilla NFEs.

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

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import verification
from .core import BlockState, GenerationConfig, Marginals, SequenceState, UnmaskSchedule, is_integer
from .drafting import DraftGraphSpec, RankingView, order_positions, order_vocab, spawn_drafts
from .model import ToyDenoiser, forward_batched
from .timing import StageTimer, timed


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


def _speedup(per_block: Sequence[PerBlockStats], last_block: Optional[int]) -> float:
    """Baseline over actual NFEs for blocks up to ``last_block`` (all when None)."""
    blocks = [b for b in per_block if last_block is None or b.index <= last_block]
    actual = sum(b.nfe for b in blocks)
    baseline = sum(b.baseline_nfe for b in blocks)
    assert actual > 0
    return baseline / actual


def check_prompt(model: ToyDenoiser, prompt: Sequence[int]) -> Tuple[int, ...]:
    """``prompt`` as a tuple of ints, each in 1..vocab_size.  Python and
    numpy integers are accepted; anything else (a bool, a float, a
    string) is rejected, not converted."""
    tokens = tuple(prompt)
    for t in tokens:
        if not is_integer(t):
            raise ValueError("prompt token %r is not an integer" % (t,))
        if not (1 <= t <= model.vocab_size):
            raise ValueError("prompt token %d outside 1..%d" % (t, model.vocab_size))
    return tuple(map(int, tokens))


# One model call: the block after it and the token count of every step it took.
CallRecord = Tuple[BlockState, Tuple[int, ...]]


def _decode_blocks(
    prompt: Tuple[int, ...],
    config: GenerationConfig,
    denoise_block: Callable[[SequenceState], Tuple[SequenceState, List[CallRecord]]],
    record_trace: bool,
    baseline: Optional[RunReport],
    timer: Optional[StageTimer],
) -> GenerationResult:
    """The block loop both decoders share.

    ``denoise_block`` completes the active block and returns one record
    per model call; every report field and the trace come from those.
    """
    if baseline is not None and len(baseline.per_block) != config.num_blocks:
        raise ValueError(
            "baseline report has %d blocks, config has %d" % (len(baseline.per_block), config.num_blocks)
        )
    state = SequenceState.initial(prompt, config.num_blocks, config.block_length)
    per_block: List[PerBlockStats] = []
    trace: List[Tuple[int, BlockState]] = []
    eot_block: Optional[int] = None
    for k in range(config.num_blocks):
        state, calls = denoise_block(state)
        realized = tuple(s for _, steps in calls for s in steps)
        if record_trace:
            trace.extend((k, block) for block, _ in calls)
        per_block.append(
            PerBlockStats(
                index=k,
                nfe=len(calls),
                baseline_nfe=len(realized) if baseline is None else baseline.per_block[k].nfe,
                acceptances=len(realized) - len(calls),
                realized_s=realized,
            )
        )
        if eot_block is None and config.eot_token in state.active_block.tokens:
            eot_block = k
        if k + 1 < config.num_blocks:
            state = state.advance_block()
    report = RunReport(
        total_nfe=sum(b.nfe for b in per_block),
        baseline_nfe=sum(b.baseline_nfe for b in per_block),
        acceptances=sum(b.acceptances for b in per_block),
        per_block=tuple(per_block),
        eot_block=eot_block,
        speedup_all=_speedup(per_block, None),
        speedup_to_eot=_speedup(per_block, eot_block),
        stage_seconds=timer.snapshot() if timer is not None else {},
    )
    return GenerationResult(
        tokens=state.generated_tokens(),
        state=state,
        report=report,
        trace=tuple(trace) if record_trace else None,
    )


# ---------------------------------------------------------------------------
# vanilla


class StepRecord(NamedTuple):
    """One vanilla denoising step inside a block (used by calibration); a
    tuple record, since one is built per step.

    ``ordered`` is the step's position ranking: ``order_positions`` of
    ``marginals`` over the block before the step.
    """

    marginals: Marginals
    ordered: Tuple[int, ...]
    state_after: BlockState
    realized: int


def vanilla_step(
    block: BlockState,
    target: Marginals,
    schedule: UnmaskSchedule,
    rank_positions: Callable[[Marginals, BlockState], Tuple[int, ...]] = order_positions,
) -> StepRecord:
    """One vanilla denoising step of ``block`` under ``target``, the model's
    marginals for it: rank the masked positions, then commit the scheduled
    prefix.  ``rank_positions`` is ``order_positions``, timed or not."""
    ordered = rank_positions(target, block)
    after, realized = verification.advance(block, target, ordered, schedule)
    return StepRecord(target, ordered, after, realized)


def vanilla_block_steps(
    model: ToyDenoiser,
    state: SequenceState,
    config: GenerationConfig,
    *,
    timer: Optional[StageTimer] = None,
) -> Tuple[SequenceState, List[StepRecord]]:
    """Denoise the active block to completion, one call per step."""
    forward = timed(timer, "model", forward_batched)
    rank_positions = timed(timer, "ranking", order_positions)
    schedule = config.schedule
    steps: List[StepRecord] = []
    block = state.active_block
    while not block.is_complete:
        target, _ = forward(model, state, [])
        step = vanilla_step(block, target, schedule, rank_positions)
        steps.append(step)
        block = step.state_after
        state = state.with_active_block(block)
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
    prompt = check_prompt(model, prompt)

    def denoise_block(state: SequenceState) -> Tuple[SequenceState, List[CallRecord]]:
        state, steps = vanilla_block_steps(model, state, config, timer=timer)
        return state, [(s.state_after, (s.realized,)) for s in steps]

    return _decode_blocks(prompt, config, denoise_block, record_trace, None, timer)


# ---------------------------------------------------------------------------
# speculative


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
    subsequence of the vanilla per-step trajectory.  Each block's
    baseline NFEs are its steps taken, or ``baseline``'s per-block NFEs
    when a vanilla report is given.  Stage times go to ``timer`` when
    one is given.
    """
    prompt = check_prompt(model, prompt)
    if graph.max_vocab_rank() > config.top_k_vocab:
        raise ValueError(
            "graph/schedule mismatch: graph needs vocabulary rank %d, top_k_vocab is %d"
            % (graph.max_vocab_rank(), config.top_k_vocab)
        )

    rank_vocab = timed(timer, "ranking", order_vocab)
    spawn = timed(timer, "drafting", spawn_drafts)
    forward = timed(timer, "model", forward_batched)
    verify = timed(timer, "verify", verification.verify)

    def denoise_block(state: SequenceState) -> Tuple[SequenceState, List[CallRecord]]:
        calls: List[CallRecord] = []
        rank_source: Optional[Marginals] = None
        positions: Tuple[int, ...] = ()
        block = state.active_block
        while not block.is_complete:
            if rank_source is None or graph.num_nodes == 0:
                drafts = []
            else:
                vocab = rank_vocab(rank_source, positions, config.top_k_vocab)
                drafts = spawn(graph, RankingView(positions, vocab), block)
            target, draft_rows = forward(model, state, [d.tokens for d in drafts])
            outcome = verify(block, target, drafts, draft_rows, config.schedule)
            block = outcome.new_block
            state = state.with_active_block(block)
            calls.append((block, outcome.realized_s))
            rank_source = outcome.adopted_marginals if outcome.adopted_marginals is not None else target
            positions = outcome.remaining_order
        return state, calls

    return _decode_blocks(prompt, config, denoise_block, record_trace, baseline, timer)


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
