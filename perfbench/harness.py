"""One benchmark run: rounds of set-up, calibration and decoding, all checked.

The run is a single-threaded closed loop over the library's public entry
points.  Each round sets up (``synthetic.make_corpus``, ``make_prompts``,
``model.train_from_corpus``), calibrates the workload's graph
(``calibration.calibrate_graph``) and decodes the prompt stream once, one
prompt at a time: ``engine.generate_vanilla`` and then
``engine.generate_speculative`` with the vanilla report as its baseline,
back to back, so that both decoders see the same machine conditions.
Rounds repeat until the run's seconds are spent.

Identical prompts cost the same, so a pass decodes each distinct prompt
of the stream once and the latency percentiles count it as often as it
occurs.  A prompt's latency is its best time over the passes: what the
program costs, with the stretches in which a shared machine runs the
process slower filtered out.  Set-up time is the median over rounds,
calibration time the best.

Every operation is checked.  A timed prompt must decode to the same
tokens both ways and, under ``fixed:1``, satisfy
``total_nfe + acceptances == baseline_nfe``; every pass must repeat the
first pass's tokens and counts; every calibration must reproduce the
pinned graph, record count and candidate count.  Outside the timed
rounds, ``engine.check_lossless`` runs on every calibration prompt and
every distinct stream prompt, and the calibration prompts' counts and
token hash must equal the pins.

With tracing on, one round runs with spans recorded (see ``spans.py``)
and the run reports per-layer metrics instead of end-to-end ones; the
untraced rounds around it give the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from blockspec import calibration, drafting, engine, model, synthetic
from blockspec.core import GenerationConfig, UnmaskSchedule

from spans import NameStats, Span, SpanRecorder, by_name, draft_bucket, self_times
from workloads import (
    BLOCK_LENGTH,
    CALIBRATION_PROMPTS,
    CALIBRATION_SEED,
    CORPUS_SEED,
    STRATEGY,
    TOP_K_VOCAB,
    TOTAL_LENGTH,
    Workload,
)

STREAM_SIZE = 2000  # prompts in the stream; about 280 of them are distinct
MAX_PROBED_CPUS = 8
TRACED_ROUND = 1  # with tracing on, the round recorded; round 0 warms up untraced

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Tally:
    """Operations attempted and the ones that failed a check."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class RunResult:
    attempted: int
    failures: List[str]
    metrics: Metrics
    summary: str


@dataclass(frozen=True)
class Inputs:
    model: model.ToyDenoiser
    calibration_prompts: List[Tuple[int, ...]]
    stream: Dict[Tuple[int, ...], int]  # distinct prompt -> occurrences, in first-seen order


@dataclass
class PassResult:
    vanilla_s: List[float]  # per distinct prompt
    spec_s: List[float]
    nfe: List[int]  # speculative NFE per distinct prompt
    baseline_nfe: List[int]
    counts: Tuple[int, int, int, str]  # baseline NFE, NFE, acceptances, tokens sha256
    wall_s: float


def make_config(workload: Workload) -> GenerationConfig:
    return GenerationConfig(
        total_length=TOTAL_LENGTH,
        block_length=BLOCK_LENGTH,
        schedule=UnmaskSchedule.parse(workload.schedule),
        top_k_vocab=TOP_K_VOCAB,
        eot_token=synthetic.eot_id(),
    )


def set_up(seed: int, stream_size: int) -> Inputs:
    corpus = synthetic.make_corpus(CORPUS_SEED)
    calibration_prompts = synthetic.make_prompts(CALIBRATION_SEED, CALIBRATION_PROMPTS)
    stream = Counter(synthetic.make_prompts(seed, stream_size))
    trained = model.train_from_corpus(corpus, synthetic.DEFAULT_VOCAB)
    return Inputs(model=trained, calibration_prompts=calibration_prompts, stream=dict(stream))


def tokens_sha256(outputs: Sequence[Sequence[int]]) -> str:
    digest = hashlib.sha256()
    for tokens in outputs:
        digest.update((" ".join(str(t) for t in tokens) + "\n").encode())
    return digest.hexdigest()


def nfe_identity_ok(config: GenerationConfig, report: engine.RunReport) -> bool:
    """``total_nfe + acceptances == baseline_nfe``, which holds under fixed:1 only."""
    if config.schedule.kind != "fixed" or config.schedule.tokens_per_step != 1:
        return True
    return report.total_nfe + report.acceptances == report.baseline_nfe


def totals(reports: Sequence[engine.RunReport], outputs: Sequence[Sequence[int]]) -> Tuple[int, int, int, str]:
    return (
        sum(r.baseline_nfe for r in reports),
        sum(r.total_nfe for r in reports),
        sum(r.acceptances for r in reports),
        tokens_sha256(outputs),
    )


@contextmanager
def tracing(recorder: Optional[SpanRecorder], phase: str, op: int) -> Iterator[None]:
    if recorder is None:
        yield
        return
    recorder.at(phase, op)
    with recorder.installed():
        yield


def pin_to_fastest_cpu(cpus: Sequence[int]) -> None:
    """Move this process to the CPU, of ``cpus``, that runs a short probe fastest.

    On a shared machine one core can be slowed for minutes by work on
    its sibling; the scheduler rarely moves a lone busy thread off it.
    """
    if len(cpus) < 2:
        return
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            sum(i * i for i in range(20000))
            best = min(best, perf_counter() - t0)
        timings.append((best, cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def weighted(values: Sequence[float], inputs: Inputs) -> List[float]:
    """One value per stream occurrence, from one value per distinct prompt."""
    return [v for v, n in zip(values, inputs.stream.values()) for _ in range(n)]


def decode_pass(
    inputs: Inputs,
    config: GenerationConfig,
    graph: drafting.DraftGraphSpec,
    tally: Tally,
    recorder: Optional[SpanRecorder],
) -> PassResult:
    vanilla_s: List[float] = []
    spec_s: List[float] = []
    reports: List[engine.RunReport] = []
    outputs: List[Tuple[int, ...]] = []
    started = perf_counter()
    with tracing(recorder, "decode", 0):
        for i, prompt in enumerate(inputs.stream):
            if recorder is not None:
                recorder.at("decode", i)
            t0 = perf_counter()
            vanilla = engine.generate_vanilla(inputs.model, prompt, config)
            t1 = perf_counter()
            spec = engine.generate_speculative(inputs.model, prompt, config, graph, baseline=vanilla.report)
            t2 = perf_counter()
            vanilla_s.append(t1 - t0)
            spec_s.append(t2 - t1)
            tally.check(
                spec.tokens == vanilla.tokens and nfe_identity_ok(config, spec.report),
                "stream prompt %d: speculative tokens or NFE identity differ from vanilla" % i,
            )
            reports.append(spec.report)
            outputs.append(spec.tokens)
    wall = perf_counter() - started
    return PassResult(
        vanilla_s,
        spec_s,
        [r.total_nfe for r in reports],
        [r.baseline_nfe for r in reports],
        totals(reports, outputs),
        wall,
    )


def check_prompts(
    inputs: Inputs,
    prompts: Sequence[Tuple[int, ...]],
    config: GenerationConfig,
    graph: drafting.DraftGraphSpec,
    tally: Tally,
    label: str,
) -> Tuple[int, int, int, str]:
    """``engine.check_lossless`` on each prompt; returns the speculative totals."""
    reports = []
    outputs = []
    for i, prompt in enumerate(prompts):
        result = engine.check_lossless(inputs.model, prompt, config, graph)
        tally.check(
            result.ok and nfe_identity_ok(config, result.speculative.report),
            "%s prompt %d: %s" % (label, i, result.message),
        )
        reports.append(result.speculative.report)
        outputs.append(result.speculative.tokens)
    return totals(reports, outputs)


def p90(samples: Sequence[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1]


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    stream_size: Optional[int] = None,
) -> Tuple[RunResult, Optional[SpanRecorder]]:
    """Run rounds of set-up, calibration and one decode pass for ``seconds``.

    Repeating every stage in each round spreads its samples over the
    whole run, so a stretch in which a shared machine runs the process
    slower reaches only some of them.  A first, untimed round checks the
    pins and warms the decode path; the lossless check of the stream
    runs after the last round.
    """
    stream_size = stream_size or STREAM_SIZE
    tally = Tally()
    pins = workload.pins
    config = make_config(workload)
    recorder = SpanRecorder() if trace else None

    def calibrate(inputs: Inputs, label: str) -> Tuple[drafting.DraftGraphSpec, int, int]:
        graph, table, records = calibration.calibrate_graph(
            inputs.model,
            inputs.calibration_prompts,
            config,
            lookahead_max=workload.lookahead,
            budget=workload.budget,
            strategy=STRATEGY,
            width=workload.width,
        )
        counts = (len(records), len(table.entries))
        tally.check(
            drafting.format_graph(graph) == pins.graph and counts == (pins.records, pins.candidates),
            "%s: graph, or (records, candidates) %r, differ from the pins" % (label, counts),
        )
        return (graph, *counts)

    inputs = set_up(seed, stream_size)
    graph, records, candidates = calibrate(inputs, "untimed calibration")
    pinned = (pins.baseline_nfe, pins.nfe, pins.acceptances, pins.tokens_sha256)
    observed = check_prompts(inputs, inputs.calibration_prompts, config, graph, tally, "calibration")
    tally.check(observed == pinned, "calibration prompts: counts and tokens %r, pinned %r" % (observed, pinned))

    setup_s: List[float] = []
    calibrate_s: List[float] = []
    passes: List[PassResult] = []
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    gc.collect()
    started = perf_counter()
    while len(passes) <= (TRACED_ROUND if trace else 0) or perf_counter() - started < seconds:
        rnd = len(passes)
        pin_to_fastest_cpu(cpus[:MAX_PROBED_CPUS])
        round_recorder = recorder if rnd == TRACED_ROUND else None
        with tracing(round_recorder, "setup", rnd):
            t0 = perf_counter()
            inputs = set_up(seed, stream_size)
            setup_s.append(perf_counter() - t0)
        with tracing(round_recorder, "calibrate", rnd):
            t0 = perf_counter()
            graph, records, candidates = calibrate(inputs, "calibration %d" % rnd)
            calibrate_s.append(perf_counter() - t0)
        passes.append(decode_pass(inputs, config, graph, tally, round_recorder))
        tally.check(
            passes[-1].counts == passes[0].counts,
            "decode pass %d: counts and tokens %r, first pass %r" % (rnd, passes[-1].counts, passes[0].counts),
        )

    if cpus:
        os.sched_setaffinity(0, cpus)
    check_prompts(inputs, list(inputs.stream), config, graph, tally, "stream")

    vanilla = weighted([min(times) for times in zip(*(p.vanilla_s for p in passes))], inputs)
    spec = weighted([min(times) for times in zip(*(p.spec_s for p in passes))], inputs)
    stream_nfe = sum(weighted(passes[0].nfe, inputs))
    stream_baseline_nfe = sum(weighted(passes[0].baseline_nfe, inputs))
    baseline_nfe, nfe, acceptances, _ = passes[0].counts
    summary = "%d rounds; each decodes the %d distinct prompts of a %d-prompt stream" % (
        len(passes),
        len(inputs.stream),
        len(vanilla),
    )
    if not trace:
        metrics: Metrics = {
            "vanilla_ms.p50": (statistics.median(vanilla) * 1e3, "ms"),
            "vanilla_ms.p90": (p90(vanilla) * 1e3, "ms"),
            "spec_ms.p50": (statistics.median(spec) * 1e3, "ms"),
            "spec_ms.p90": (p90(spec) * 1e3, "ms"),
            "wall_speedup": (statistics.median(vanilla) / statistics.median(spec), "ratio"),
            "nfe_speedup": (stream_baseline_nfe / stream_nfe, "ratio"),
            "calibrate_s": (min(calibrate_s), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        plain_wall = min(p.wall_s for rnd, p in enumerate(passes) if rnd != TRACED_ROUND)
        metrics = per_layer_metrics(
            recorder.finished(),
            counts=(baseline_nfe, nfe, acceptances),
            records=records,
            candidates=candidates,
            overhead=passes[TRACED_ROUND].wall_s / plain_wall - 1.0,
        )
    return RunResult(tally.attempted, tally.failures, metrics, summary), recorder


def per_layer_metrics(
    spans: Sequence[Span],
    *,
    counts: Tuple[int, int, int],
    records: int,
    candidates: int,
    overhead: float,
) -> Metrics:
    """Per-layer metrics from the spans of one traced run.

    Everything covers the one traced round.  ``.calls`` and counts are
    per decode pass, ``.us`` is the mean inclusive time per call (self
    time for ``verification.verify``), ``.s`` the time of the one set-up
    or calibration call, and ``.self_share`` a layer's self time over the
    decode wall time (the summed durations of the root spans).
    """
    selfs = self_times(spans)
    decode = [s for s in spans if s.phase == "decode"]
    stats = by_name(decode, selfs)
    layers = by_name(decode, selfs, key=lambda s: s.layer)
    batched = [s for s in decode if s.name == "model.forward_batched"]
    buckets = by_name(batched, selfs, key=lambda s: draft_bucket(s.drafts))
    wall_ns = sum(s.duration_ns for s in decode if s.parent < 0)

    def named(name: str) -> NameStats:
        return stats.get(name, NameStats())

    def seconds_in(phase: str, name: str) -> float:
        return sum(s.duration_ns for s in spans if s.phase == phase and s.name == name) / 1e9

    def share(ns: int, of_ns: int) -> float:
        return ns / of_ns if of_ns else 0.0

    baseline_nfe, nfe, acceptances = counts
    drafts_scored = sum(s.drafts for s in batched)
    mask_ns = named("batch.build_mask").total_ns + named("batch.build_position_ids").total_ns
    metrics: Metrics = {
        "model.forward_batched.calls": (named("model.forward_batched").calls, "count"),
        "model.forward_batched.us.d0": (buckets.get("d0", NameStats()).mean_us(), "us"),
        "model.forward_batched.us.d1-4": (buckets.get("d1-4", NameStats()).mean_us(), "us"),
        "model.forward_batched.us.d5plus": (buckets.get("d5plus", NameStats()).mean_us(), "us"),
        "model.forward.calls": (named("model.forward").calls, "count"),
        "model.forward.us": (named("model.forward").mean_us(), "us"),
        "model.train_from_corpus.s": (seconds_in("setup", "model.train_from_corpus"), "s"),
        "batch.build_mask.us": (named("batch.build_mask").mean_us(), "us"),
        "batch.build_position_ids.us": (named("batch.build_position_ids").mean_us(), "us"),
        "batch.share_of_model": (share(mask_ns, named("model.forward_batched").total_ns), "ratio"),
        "drafting.order_positions.us": (named("drafting.order_positions").mean_us(), "us"),
        "drafting.order_vocab.us": (named("drafting.order_vocab").mean_us(), "us"),
        "drafting.spawn_drafts.us": (named("drafting.spawn_drafts").mean_us(), "us"),
        "drafting.drafts_scored": (drafts_scored, "count"),
        "verification.verify.us": (named("verification.verify").mean_us(own=True), "us"),
        "verification.advance.calls": (named("verification.advance").calls, "count"),
        "verification.advance.us": (named("verification.advance").mean_us(), "us"),
        "verification.useful_draft_ratio": (share(acceptances, drafts_scored), "ratio"),
        "verification.accepted_per_nfe": (share(acceptances, nfe), "ratio"),
        "engine.nfe": (nfe, "count"),
        "engine.baseline_nfe": (baseline_nfe, "count"),
        "engine.acceptances": (acceptances, "count"),
        "calibration.collect_records.s": (seconds_in("calibrate", "calibration.collect_records"), "s"),
        "calibration.records": (records, "count"),
        "calibration.build_table.s": (seconds_in("calibrate", "calibration.build_table"), "s"),
        "calibration.select_subgraph.s": (seconds_in("calibrate", "calibration.select_subgraph"), "s"),
        "calibration.candidates": (candidates, "count"),
        "synthetic.make_corpus.s": (seconds_in("setup", "synthetic.make_corpus"), "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    for layer in ("engine", "model", "batch", "drafting", "verification"):
        metrics[layer + ".self_share"] = (share(layers.get(layer, NameStats()).self_ns, wall_ns), "ratio")
    return metrics
