"""Speculative decoding end to end: same tokens, fewer model calls.

One speculative iteration batches the true block state with every
spawned draft into a single model call.  Verification advances with
the fresh target distribution, then chains through drafts that match
the reached state exactly; each accepted draft hands over its own
(already computed) distribution, saving one future call.  Rejections
cost nothing: the step already paid for itself with the target.

Run: python3 demos/03_lossless_speculation.py
"""

from blockspec import synthetic
from blockspec.core import GenerationConfig, UnmaskSchedule
from blockspec.drafting import DraftFormula, build_graph
from blockspec.engine import check_lossless, generate_speculative, generate_vanilla
from blockspec.model import train_from_corpus


def main() -> None:
    corpus = synthetic.make_corpus(synthetic.DEFAULT_SEED)
    vocab_size = max(t for seq in corpus for t in seq)
    model = train_from_corpus(corpus, vocab_size)
    config = GenerationConfig(
        total_length=32, block_length=8, schedule=UnmaskSchedule.fixed(1),
        top_k_vocab=3, eot_token=synthetic.eot_id(),
    )
    graph = build_graph(
        [DraftFormula.of([(i, 1) for i in range(1, n + 1)]) for n in (1, 2, 3)],
        tokens_per_level=1,
    )
    print("draft graph: a depth-3 chain (%d nodes)" % graph.num_nodes)

    prompt = (2, 2, 2)
    vanilla = generate_vanilla(model, prompt, config)
    spec = generate_speculative(model, prompt, config, graph)
    print("\nprompt %s:" % (prompt,))
    print("  vanilla:     %2d NFEs" % vanilla.report.total_nfe)
    print("  speculative: %2d NFEs, %d accepted drafts, speedup %.2fx"
          % (spec.report.total_nfe, spec.report.acceptances, spec.report.speedup_all))
    print("  outputs identical:", spec.tokens == vanilla.tokens)
    print("  NFE identity: %d + %d == %d"
          % (spec.report.total_nfe, spec.report.acceptances, vanilla.report.total_nfe))

    # Acceptance is content dependent.  Trajectories that park on the
    # majority park token chain deepest; parking on the minority park
    # leaves the stale ranking tugged toward the unigram mode, so its
    # chains break earlier.
    print("\nper-prompt behavior across the corpus:")
    for prompt in synthetic.make_prompts(11, 6):
        report = generate_speculative(model, prompt, config, graph).report
        print("  %-12s nfe %2d  accepted %2d  speedup %.2fx"
              % (prompt, report.total_nfe, report.acceptances, report.speedup_all))

    # The formal check: block by block, the speculative run took exactly
    # the vanilla steps, only grouped into fewer calls.  So the tokens are
    # identical and every call ends on a state vanilla passed through.
    check = check_lossless(model, (5, 6, 7), config, graph)
    print("\ncheck_lossless on a mover prompt: ok=%s (%s)" % (check.ok, check.message))

    # Losslessness is schedule independent, including threshold runs.
    config_thr = GenerationConfig(
        total_length=32, block_length=8, schedule=UnmaskSchedule.at_threshold(0.9),
        top_k_vocab=3, eot_token=synthetic.eot_id(),
    )
    check_thr = check_lossless(model, (2, 2, 2), config_thr, graph)
    print("under threshold:0.9 as well: ok=%s" % check_thr.ok)


if __name__ == "__main__":
    main()
