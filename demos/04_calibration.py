"""Calibrating a draft graph from rewound vanilla generations.

Calibration replays vanilla decoding over a handful of prompts and, for
every step, asks: under the distribution the model held at that moment,
which ranked candidates (i, j) did the next few steps actually commit?
Counting those pair sets per lookahead depth gives a candidate table;
a pruned search over root-reachable subsets then picks the subgraph of
at most D formulas that a chosen strategy scores highest.

Run: python3 demos/04_calibration.py
"""

from blockspec import synthetic
from blockspec.calibration import (
    STRATEGIES,
    build_table,
    calibrate_graph,
    collect_records,
    select_subgraph,
)
from blockspec.core import GenerationConfig, UnmaskSchedule
from blockspec.engine import generate_speculative
from blockspec.model import train_from_corpus


def main() -> None:
    corpus = synthetic.make_corpus(synthetic.DEFAULT_SEED)
    vocab_size = max(t for seq in corpus for t in seq)
    model = train_from_corpus(corpus, vocab_size)
    config = GenerationConfig(
        total_length=32, block_length=8, schedule=UnmaskSchedule.fixed(1),
        top_k_vocab=3, eot_token=synthetic.eot_id(),
    )
    cal_prompts = synthetic.make_prompts(11, 20)

    # Step 1: records.  Each one is a (origin step, lookahead) window
    # with the committed candidates ranked under the origin distribution.
    records = collect_records(model, cal_prompts, config, lookahead_max=4)
    print("collected %d records from %d prompts" % (len(records), len(cal_prompts)))
    example = next(r for r in records if r.lookahead == 2)
    print("  example: sample %d, origin step %d, lookahead %d, pairs %s"
          % (example.sample_id, example.origin_step, example.lookahead, example.pairs))

    # Step 2: the candidate table keeps the most frequent pair sets per level.
    table = build_table(records, lookahead_max=4, tokens_per_level=1, width=3)
    print("\ncandidate table (top 3 per level):")
    for entry in table.entries:
        print("  level %d  %-22s count %d"
              % (entry.level, entry.formula.format(), entry.count))

    # Step 3: subgraph selection under each scoring strategy.  The search
    # only grows root-reachable sets and cuts branches that cannot reach
    # the best score, yet returns what trying every subset would.
    print("\nselected subgraphs with budget D=6:")
    for strategy in STRATEGIES:
        graph, score = select_subgraph(table, 6, strategy)
        nodes = ", ".join(f.format() for f in graph.nodes)
        print("  %-8s score %5d  nodes: %s" % (strategy, score, nodes))

    # Measured speedups on held-out prompts.  degree1 rewards shared
    # parents, which tends to buy deeper acceptance chains at decode time.
    test_prompts = synthetic.make_prompts(23, 20)
    print("\nmean speedup over %d held-out prompts:" % len(test_prompts))
    for strategy in STRATEGIES:
        graph, _, _ = calibrate_graph(
            model, cal_prompts, config, lookahead_max=4, budget=6, strategy=strategy
        )
        total = sum(
            generate_speculative(model, p, config, graph).report.speedup_all
            for p in test_prompts
        )
        print("  %-8s %.4fx" % (strategy, total / len(test_prompts)))

    # Data efficiency: 20 calibration prompts already saturate this corpus.
    for count in (5, 20, 50):
        graph, _, _ = calibrate_graph(
            model, synthetic.make_prompts(11, count), config, lookahead_max=4, budget=6
        )
        total = sum(
            generate_speculative(model, p, config, graph).report.speedup_all
            for p in test_prompts
        )
        print("calibrated on %2d prompts: %.4fx" % (count, total / len(test_prompts)))


if __name__ == "__main__":
    main()
