"""Command line interface.

Subcommands: calibrate, generate, bench, check-lossless, and graph
(export-dot | validate | show).  Exit codes: 0 on success, 1 when a
check fails (lossless divergence), 2 on usage or input errors.  Given
the same files and flags every subcommand writes byte-identical
outputs; stage timings are nondeterministic and only enter a report
under --profile.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional, Sequence, Tuple

from . import calibration, drafting, engine
from .core import GenerationConfig, UnmaskSchedule, ascii_split, parse_config, parse_int
from .model import ToyDenoiser, check_block_size, parse_corpus, train_from_corpus
from .timing import StageTimer

_DEFAULTS = dict(total_length=32, block_length=8, top_k_vocab=3)


def _read(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc.strerror))
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(ascii_split(data[: exc.start].decode("utf-8"), "\n"))
        raise ValueError("%s:%d: not UTF-8 text (byte 0x%02x)" % (path, lineno, data[exc.start]))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (path, exc.strerror))


def _load_setup(args) -> Tuple[ToyDenoiser, List[Tuple[int, ...]], GenerationConfig]:
    corpus = parse_corpus(_read(args.corpus), source=args.corpus)
    if not corpus:
        raise ValueError("%s: empty corpus" % args.corpus)
    vocab_size = max(t for seq in corpus for t in seq)
    prompts = parse_corpus(_read(args.prompts), source=args.prompts, vocab_size=vocab_size)
    if not prompts:
        raise ValueError("%s: no prompts" % args.prompts)
    model = train_from_corpus(corpus, vocab_size)
    if args.config is not None:
        config = parse_config(_read(args.config), source=args.config)
        if not (1 <= config.eot_token <= vocab_size):
            raise ValueError(
                "%s: eot_token %d outside corpus vocabulary 1..%d" % (args.config, config.eot_token, vocab_size)
            )
        try:
            check_block_size(model, config.block_length)
        except ValueError as exc:
            raise ValueError("%s: %s" % (args.config, exc))
    else:
        config = GenerationConfig(
            schedule=UnmaskSchedule.fixed(1), eot_token=vocab_size, **_DEFAULTS
        )
    if args.schedule is not None:
        try:
            schedule = UnmaskSchedule.parse(args.schedule)
        except ValueError as exc:
            raise ValueError("--schedule %s: %s" % (args.schedule, exc))
        config = dataclasses.replace(config, schedule=schedule)
    return model, prompts, config


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError("%s must be >= %d, got %d" % (flag, least, value))


def _first(prompts: List[Tuple[int, ...]], limit: Optional[int]) -> List[Tuple[int, ...]]:
    """The first ``limit`` prompts, or all of them when no limit is given."""
    if limit is None:
        return prompts
    _at_least("--limit", limit, 0)
    return prompts[:limit]


def _load_graph(
    path: str, config: Optional[GenerationConfig] = None, config_path: Optional[str] = None
) -> drafting.DraftGraphSpec:
    """The graph in ``path``; one that cannot decode under ``config``,
    when given, is an input error naming the file, and ``config_path``
    too when a config file set ``config``."""
    graph = drafting.parse_graph(_read(path), source=path)
    if config is not None:
        try:
            engine.check_graph(graph, config)
        except ValueError as exc:
            where = "" if config_path is None else " in %s" % config_path
            raise ValueError("%s: %s%s" % (path, exc, where))
    return graph


# ---------------------------------------------------------------------------
# subcommands


def _cmd_calibrate(args) -> int:
    model, prompts, config = _load_setup(args)
    prompts = _first(prompts, args.limit)
    if not prompts:
        raise ValueError("no prompts to calibrate from")
    for flag, value in (("--lookahead", args.lookahead), ("--width", args.width), ("--budget", args.budget)):
        _at_least(flag, value, 1)
    graph, table, records = calibration.calibrate_graph(
        model,
        prompts,
        config,
        lookahead_max=args.lookahead,
        budget=args.budget,
        strategy=args.strategy,
        width=args.width,
    )
    _write(args.out, drafting.format_graph(graph))
    if args.records is not None:
        _write(args.records, calibration.format_records(records))
    if args.table is not None:
        _write(args.table, calibration.format_table(table))
    print(
        "calibrated graph: %d nodes, depth %d, budget %d (%d records, %d prompts)"
        % (graph.num_nodes, graph.depth, graph.budget, len(records), len(prompts))
    )
    return 0


def _cmd_generate(args) -> int:
    model, prompts, config = _load_setup(args)
    if not (0 <= args.index < len(prompts)):
        raise ValueError("--index %d out of range (%d prompts)" % (args.index, len(prompts)))
    prompt = prompts[args.index]
    timer = StageTimer() if args.profile else None
    if args.graph is not None:
        graph = _load_graph(args.graph, config, args.config)
        result = engine.generate_speculative(model, prompt, config, graph, timer=timer)
    else:
        result = engine.generate_vanilla(model, prompt, config, timer=timer)
    print(" ".join(str(t) for t in result.tokens))
    if args.out is not None:
        doc = dataclasses.asdict(result.report)
        if timer is not None:
            doc["stage_percent"] = engine.profile_stages(timer.seconds)
        _write(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_bench(args) -> int:
    model, prompts, config = _load_setup(args)
    graph = _load_graph(args.graph, config, args.config)
    prompts = _first(prompts, args.limit)
    if not prompts:
        raise ValueError("no prompts to bench")
    runs = []
    reports = []
    timer = StageTimer() if args.profile else None
    for index, prompt in enumerate(prompts):
        report = engine.generate_speculative(model, prompt, config, graph, timer=timer).report
        reports.append(report)
        runs.append(
            {
                "prompt_index": index,
                "nfe": report.total_nfe,
                "baseline_nfe": report.baseline_nfe,
                "acceptances": report.acceptances,
                "speedup": report.speedup_all,
                "speedup_to_eot": report.speedup_to_eot,
                "eot_block": report.eot_block,
            }
        )
    mean_speedup = sum(r["speedup"] for r in runs) / len(runs)
    mean_to_eot = sum(r["speedup_to_eot"] for r in runs) / len(runs)
    summary = engine.per_block_summary(reports)
    doc = {
        "schedule": config.schedule.format(),
        "prompts": len(runs),
        "graph_nodes": graph.num_nodes,
        "total_nfe": sum(r["nfe"] for r in runs),
        "baseline_nfe": sum(r["baseline_nfe"] for r in runs),
        "acceptances": sum(r["acceptances"] for r in runs),
        "mean_speedup": mean_speedup,
        "mean_speedup_to_eot": mean_to_eot,
        "per_block": [dataclasses.asdict(s) for s in summary],
        "runs": runs,
    }
    if timer is not None:
        doc["stage_percent"] = engine.profile_stages(timer.seconds)
    print(
        "%d prompts, schedule %s: mean speedup %.4f (up to EOT %.4f), %d acceptances"
        % (len(runs), config.schedule.format(), mean_speedup, mean_to_eot, doc["acceptances"])
    )
    if args.report is not None:
        _write(args.report, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if args.csv is not None:
        lines = ["run,block,nfe,baseline_nfe,acceptances"]
        for index, report in enumerate(reports):
            for b in report.per_block:
                lines.append("%d,%d,%d,%d,%d" % (index, b.index, b.nfe, b.baseline_nfe, b.acceptances))
        _write(args.csv, "\n".join(lines) + "\n")
    return 0


def _cmd_check_lossless(args) -> int:
    model, prompts, config = _load_setup(args)
    graph = _load_graph(args.graph, config, args.config)
    _at_least("--trials", args.trials, 1)
    if args.trials > len(prompts):
        raise ValueError("--trials %d requested but only %d prompts available" % (args.trials, len(prompts)))
    for index in range(args.trials):
        check = engine.check_lossless(model, prompts[index], config, graph)
        if not check.ok:
            spec = check.speculative.report
            print("prompt %d DIVERGED: %s" % (index, check.message))
            print(
                "vanilla nfe %d, speculative nfe %d, acceptances %d"
                % (check.vanilla.report.total_nfe, spec.total_nfe, spec.acceptances)
            )
            return 1
    print("%d trials, all lossless (schedule %s)" % (args.trials, config.schedule.format()))
    return 0


def _cmd_graph(args) -> int:
    if args.graph_command == "export-dot":
        graph = _load_graph(args.graph)
        _write(args.out, drafting.export_dot(graph))
        print("wrote %s (%d nodes)" % (args.out, graph.num_nodes))
        return 0
    if args.graph_command == "validate":
        graph = _load_graph(args.graph)
        print(
            "valid graph: %d nodes, depth %d, tokens_per_level %d, budget %d"
            % (graph.num_nodes, graph.depth, graph.tokens_per_level, graph.budget)
        )
        return 0
    # show: argparse requires one of the three graph subcommands
    graph = _load_graph(args.graph)
    print("budget D = %d, tokens_per_level = %d" % (graph.budget, graph.tokens_per_level))
    for idx, node in enumerate(graph.nodes):
        parents = graph.parents[idx]
        shown = ", ".join(graph.nodes[p].format() for p in parents) if parents else "root"
        print("  level %d: %s  <- %s" % (graph.level_of(idx), node.format(), shown))
    return 0


# ---------------------------------------------------------------------------
# parser


def _int_flag(text: str) -> int:
    """An integer flag value by ``parse_int``'s rule, rejected with the
    message argparse gives for ``type=int``."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockspec",
        description="Lossless speculative decoding for block-wise masked-diffusion LMs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_setup(p):
        p.add_argument("--corpus", required=True, help="training corpus (ids, one sequence per line)")
        p.add_argument("--prompts", required=True, help="prompt file (same format)")
        p.add_argument("--config", default=None, help="generation config file")
        p.add_argument("--schedule", default=None, help="override schedule, e.g. fixed:2 or threshold:0.9")

    p = sub.add_parser("calibrate", help="calibrate a draft graph from prompts")
    add_setup(p)
    p.add_argument("--lookahead", type=_int_flag, required=True, help="max lookahead depth (graph levels)")
    p.add_argument("--budget", type=_int_flag, required=True, help="draft budget D")
    p.add_argument("--strategy", choices=calibration.STRATEGIES, default="degree1")
    p.add_argument("--width", type=_int_flag, default=3, help="candidates kept per level")
    p.add_argument("--limit", type=_int_flag, default=None, help="use only the first N prompts")
    p.add_argument("--out", required=True, help="output graph file")
    p.add_argument("--records", default=None, help="also dump calibration records here")
    p.add_argument("--table", default=None, help="also dump the candidate table here")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("generate", help="generate from one prompt")
    add_setup(p)
    p.add_argument("--graph", default=None, help="draft graph file (omit for vanilla decoding)")
    p.add_argument("--index", type=_int_flag, default=0, help="prompt index")
    p.add_argument("--out", default=None, help="write the run report here (json)")
    p.add_argument("--profile", action="store_true", help="include stage timings in the report")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="compare speculative vs vanilla over prompts")
    add_setup(p)
    p.add_argument("--graph", required=True, help="draft graph file")
    p.add_argument("--limit", type=_int_flag, default=None, help="use only the first N prompts")
    p.add_argument("--report", default=None, help="write the benchmark report here (json)")
    p.add_argument("--csv", default=None, help="write per-block rows here (csv)")
    p.add_argument("--profile", action="store_true", help="include stage timings in the report")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("check-lossless", help="verify speculative output equals vanilla")
    add_setup(p)
    p.add_argument("--graph", required=True, help="draft graph file")
    p.add_argument("--trials", type=_int_flag, required=True, help="number of prompts to check")
    p.set_defaults(func=_cmd_check_lossless)

    p = sub.add_parser("graph", help="inspect draft graph files")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    g = gsub.add_parser("export-dot", help="write a graphviz document")
    g.add_argument("--graph", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_graph)
    g = gsub.add_parser("validate", help="parse and validate a graph file")
    g.add_argument("--graph", required=True)
    g.set_defaults(func=_cmd_graph)
    g = gsub.add_parser("show", help="print nodes, levels, and parents")
    g.add_argument("--graph", required=True)
    g.set_defaults(func=_cmd_graph)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
