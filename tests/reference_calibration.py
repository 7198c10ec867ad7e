"""Reference for ``blockspec.calibration.collect_records``.

This is the record collection the incremental one replaced: every prompt
is replayed on its own, repeats included, one ``forward_batched`` and
one ``advance`` per step, and every (origin, lookahead) window re-scans
the whole block after its last step against the origin step's ranking,
giving up on the window when any committed token falls outside the
top-k view.  Tests compare the two record for record.
"""

from typing import List, Optional, Sequence

from blockspec.calibration import CalibrationRecord
from blockspec.core import MASK, GenerationConfig, SequenceState
from blockspec.drafting import order_vocab
from blockspec.model import ToyDenoiser, forward_batched
from blockspec.verification import StepRecord
from conftest import advance_on_rows

from reference_speculation import RankingView


def reference_window_record(
    steps: Sequence[StepRecord],
    origin: int,
    lookahead: int,
    sample_id: int,
    ranking: RankingView,
) -> Optional[CalibrationRecord]:
    after = steps[origin + lookahead - 1].state_after
    pairs = []
    for i, n in enumerate(ranking.ordered_positions, start=1):
        token = after.tokens[n]
        if token == MASK:
            continue
        vocab = ranking.vocab_by_position[i - 1]
        if token not in vocab:
            return None
        pairs.append((i, vocab.index(token) + 1))
    return CalibrationRecord(
        sample_id=sample_id,
        origin_step=origin,
        lookahead=lookahead,
        pairs=tuple(pairs),
    )


def reference_collect_records(
    model: ToyDenoiser,
    prompts: Sequence[Sequence[int]],
    config: GenerationConfig,
    lookahead_max: int,
) -> List[CalibrationRecord]:
    records: List[CalibrationRecord] = []
    for sample_id, prompt in enumerate(prompts):
        state = SequenceState.initial(tuple(prompt), config.num_blocks, config.block_length)
        for k in range(config.num_blocks):
            steps: List[StepRecord] = []
            step_rows = []
            while not state.active_block.is_complete:
                step_rows.append(forward_batched(model, state, [])[0])
                steps.append(advance_on_rows(state.active_block, step_rows[-1], config.schedule))
                state = state.with_active_block(steps[-1].state_after)
            for origin, (step, rows) in enumerate(zip(steps, step_rows)):
                ranking = RankingView(
                    ordered_positions=step.ordered,
                    vocab_by_position=order_vocab(rows, step.ordered, config.top_k_vocab),
                )
                for ell in range(1, lookahead_max + 1):
                    if origin + ell > len(steps):
                        break
                    record = reference_window_record(steps, origin, ell, sample_id, ranking)
                    if record is not None:
                        records.append(record)
            if k + 1 < config.num_blocks:
                state = state.advance_block()
    return records
