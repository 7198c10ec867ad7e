"""The block attention mask that makes one call score many drafts.

Batching the true state with D draft blocks only works if each draft
sees the context as if its block were really in place: every draft row
attends to the prompt and committed blocks, is blinded to the active
block's original columns, and sees its own L columns instead.  Drafts
never attend to each other, so the batched call factorizes into D + 1
independent forwards, bit for bit.

Run: python3 demos/05_attention_mask.py
"""

import numpy as np

from blockspec import synthetic
from blockspec.batch import build_mask, build_position_ids, format_mask
from blockspec.core import BlockState, SequenceState
from blockspec.model import forward_batched, train_from_corpus


def show(mask: np.ndarray, row_labels) -> None:
    for label, row in zip(row_labels, format_mask(mask).splitlines()):
        print("  %-9s %s" % (label, row))


def main() -> None:
    # The hand-checkable case: prompt of 1, one block of 2, one draft.
    print("prompt_len=1, one block of L=2, one draft (5x5):")
    mask = build_mask(1, 1, 2, 0, 1)
    show(mask, ["prompt", "block", "block", "draft", "draft"])
    print("  draft rows drop the active block's columns (2, 3) and add their own.")

    # A fuller shape: two blocks with the second active, two drafts.
    print("\nprompt_len=2, two blocks of L=3, active=1, two drafts:")
    mask = build_mask(2, 2, 3, 1, 2)
    labels = ["ctx"] * 8 + ["draft0"] * 3 + ["draft1"] * 3
    show(mask, labels)
    ids = build_position_ids(2, 2, 3, 1, 2)
    print("  position ids:", [int(x) for x in ids])
    print("  each draft repeats the active block's absolute positions 5 6 7.")

    # The contract this buys: batched scoring equals independent calls.
    corpus = synthetic.make_corpus(synthetic.DEFAULT_SEED)
    model = train_from_corpus(corpus, max(t for s in corpus for t in s))
    state = SequenceState.initial((2, 2), num_blocks=1, block_length=4)
    drafts = [
        BlockState(tokens=(2, 0, 0, 0)),
        BlockState(tokens=(2, 2, 0, 0)),
        BlockState(tokens=(2, 2, 2, 2)),  # complete: scored one-hot
    ]
    target, *per_draft = forward_batched(model, state, [d.tokens for d in drafts])
    reference = forward_batched(model, state, [])[0]
    print("\nbatched target equals the plain forward:",
          np.array_equal(target, reference))
    for i, (draft, got) in enumerate(zip(drafts, per_draft)):
        if draft.is_complete:
            print("  draft %d is complete, rows one-hot: %s"
                  % (i, bool((got.max(axis=1) == 1.0).all())))
        else:
            want = forward_batched(model, state.with_active_block(draft), [])[0]
            print("  draft %d bit-matches an independent forward: %s"
                  % (i, np.array_equal(got, want)))


if __name__ == "__main__":
    main()
