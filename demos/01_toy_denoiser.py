"""Walk through the toy masked denoiser on the bundled synthetic corpus.

The model is a smoothed bigram mixture: each masked position blends the
nearest unmasked neighbor's left/right bigram rows (decayed by distance)
with the unigram distribution.  It stands in for a diffusion LM: one
call returns a full distribution for every position of the active
block, committed positions come back one-hot, and outputs depend only
on unmasked content, never on how many MASKs surround it.

Run: python3 demos/01_toy_denoiser.py
"""

import numpy as np

from blockspec import synthetic
from blockspec.core import GenerationConfig, SequenceState, UnmaskSchedule
from blockspec.engine import generate_vanilla
from blockspec.model import forward_batched, train_from_corpus


def main() -> None:
    corpus = synthetic.make_corpus(synthetic.DEFAULT_SEED)
    vocab_size = max(t for seq in corpus for t in seq)
    print("corpus: %d sequences, %d tokens, vocabulary 1..%d (EOT = %d)" % (
        len(corpus), sum(len(s) for s in corpus), vocab_size, synthetic.eot_id()))
    print("park tokens (self-loop heavy):", synthetic.PARK_TOKENS)

    model = train_from_corpus(corpus, vocab_size)

    # One forward call on a fresh two-block state: the active block is
    # all MASK, so every row is a genuine prediction.
    state = SequenceState.initial((2, 2), num_blocks=2, block_length=4)
    rows = forward_batched(model, state, [])[0]
    print("\nmarginals for the active block after prompt '2 2':")
    for n in range(4):
        row = rows[n]
        top = np.argsort(-row)[:3]
        shown = ", ".join("%d:%.3f" % (t + 1, row[t]) for t in top)
        print("  position %d: %s" % (n, shown))
    print("position 0 hugs the park token; far positions drift to the unigram.")

    # Block-wise vanilla decoding, one model call per committed token.
    config = GenerationConfig(
        total_length=16, block_length=4, schedule=UnmaskSchedule.fixed(1),
        top_k_vocab=3, eot_token=synthetic.eot_id(),
    )
    result = generate_vanilla(model, (5, 6), config)
    print("\nvanilla decode of prompt '5 6' (fixed:1):")
    print("  output:", " ".join(str(t) for t in result.tokens))
    print("  NFEs: %d (one per token; four blocks of four)" % result.report.total_nfe)
    print("  mover prefix walks 7 8, then parks on 8.")

    # The steps a run takes count its vanilla NFEs: the baseline that
    # speculation is measured against.
    print("  baseline_nfe (steps taken): %d" % result.report.baseline_nfe)

    # Threshold scheduling commits every confident position at once.
    config_thr = GenerationConfig(
        total_length=16, block_length=4, schedule=UnmaskSchedule.at_threshold(0.35),
        top_k_vocab=3, eot_token=synthetic.eot_id(),
    )
    result_thr = generate_vanilla(model, (5, 6), config_thr)
    print("\nthreshold:0.35 on the same prompt: %d NFEs for the same 16 tokens"
          % result_thr.report.total_nfe)
    print("  realized step sizes per block:",
          [list(b.realized_s) for b in result_thr.report.per_block])
    print("  once the block parks, all four positions clear the bar together.")


if __name__ == "__main__":
    main()
