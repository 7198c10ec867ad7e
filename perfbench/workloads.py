"""The benchmark's workloads and the values pinned for them.

Every workload trains the toy denoiser on the synthetic corpus with seed
``CORPUS_SEED`` and calibrates its draft graph (strategy ``degree1``) on
the first ``CALIBRATION_PROMPTS`` prompts of the stream with seed
``CALIBRATION_SEED``: the README's calibrate settings.  The prompts that
are decoded and timed come from the benchmark's ``--seed``, so a claim
made on one seed can be re-checked on another.

The pins were measured at the commit that introduced the benchmark.
They fix the calibrated graph's bytes (``drafting.format_graph``), the
record and candidate counts of calibration, and, over the calibration
prompts decoded with that graph, the exact NFE counts and the sha256 of
every generated token.  A change that alters any of them changes what
the program computes, not how fast, and fails the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

CORPUS_SEED = 7
CALIBRATION_SEED = 11
CALIBRATION_PROMPTS = 20
TOTAL_LENGTH = 32  # W
BLOCK_LENGTH = 8  # L
TOP_K_VOCAB = 3
STRATEGY = "degree1"


@dataclass(frozen=True)
class Pins:
    graph: str
    records: int
    candidates: int
    baseline_nfe: int
    nfe: int
    acceptances: int
    tokens_sha256: str


@dataclass(frozen=True)
class Workload:
    name: str
    schedule: str
    lookahead: int
    budget: int
    width: int
    pins: Pins


README_GRAPH = """D 8
tokens_per_level 1
1:1
1:1 2:1
1:1 4:2
1:1 5:2
1:1 2:1 3:1
1:1 2:1 3:2
1:1 2:1 4:2
1:1 2:1 3:1 4:1
"""

THRESHOLD_GRAPH = """D 8
tokens_per_level 1
1:1
1:1 2:1
1:1 2:1 3:2
1:1 2:1 4:2
1:1 2:1 5:2
1:1 2:1 3:2 4:2
1:1 2:1 4:2 5:2
1:1 2:1 5:2 6:2
"""

WIDE_GRAPH = """D 10
tokens_per_level 1
1:1
1:1 2:1
1:1 4:2
1:1 5:2
1:1 2:1 3:1
1:1 2:1 3:2
1:1 2:1 4:2
1:1 2:1 5:2
1:1 2:1 3:1 4:1
1:1 2:1 3:1 4:1 5:1
"""

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="readme-fixed1",
            schedule="fixed:1",
            lookahead=4,
            budget=8,
            width=3,
            pins=Pins(
                graph=README_GRAPH,
                records=2065,
                candidates=10,
                baseline_nfe=640,
                nfe=278,
                acceptances=362,
                tokens_sha256="89b1263a90798cc603883e10c07a5232d5d119ffdeaf685556389b8fd694de8b",
            ),
        ),
        Workload(
            name="threshold-0.4",
            schedule="threshold:0.4",
            lookahead=4,
            budget=8,
            width=3,
            pins=Pins(
                graph=THRESHOLD_GRAPH,
                records=1165,
                candidates=8,
                baseline_nfe=415,
                nfe=311,
                acceptances=104,
                tokens_sha256="89b1263a90798cc603883e10c07a5232d5d119ffdeaf685556389b8fd694de8b",
            ),
        ),
        Workload(
            name="calibrate-wide",
            schedule="fixed:1",
            lookahead=5,
            budget=10,
            width=4,
            pins=Pins(
                graph=WIDE_GRAPH,
                records=2380,
                candidates=16,
                baseline_nfe=640,
                nfe=277,
                acceptances=363,
                tokens_sha256="89b1263a90798cc603883e10c07a5232d5d119ffdeaf685556389b8fd694de8b",
            ),
        ),
    )
}
