#!/usr/bin/env python3
"""blockspec benchmark: decode latency, wall-vs-NFE speedup and calibration time.

    python3 perfbench/run.py --workload readme-fixed1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 11 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run and writes its
spans to ``.bench_out/spans-<workload>.jsonl``.  The last line of a
workload's output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every check passed,
1 when one failed, 2 on bad usage or when the checkout has no
``src/blockspec``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".bench_out"


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path and import blockspec from it."""
    src = ROOT / "src"
    if not (src / "blockspec" / "__init__.py").is_file():
        usage_error("%s/blockspec not found; run the benchmark inside a blockspec checkout" % src)
    sys.path.insert(0, str(src))
    import blockspec

    if Path(blockspec.__file__).resolve().parent != src / "blockspec":
        usage_error("blockspec was imported from %s, not from %s" % (blockspec.__file__, src))


def usage_error(message: str) -> None:
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"], help="'all' runs each workload in turn"
    )
    parser.add_argument("--seed", type=int, required=True, help="seed of the decoded prompt stream (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, one after another."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(command).returncode)
    return worst


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_package()
    from harness import run_workload
    from workloads import WORKLOADS

    result, recorder = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, trace=bool(args.trace))
    if recorder is not None:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / ("spans-%s.jsonl" % args.workload)
        recorder.write_jsonl(path)
        print("spans written to %s" % path.relative_to(ROOT))

    failed = len(result.failures)
    lines: List[str] = [
        "%s, seed %d: %s" % (args.workload, args.seed, result.summary),
        "  %-34s %d / %d = %.6g" % ("failed_frac", failed, result.attempted, failed / result.attempted),
    ]
    lines += ["  %-34s %.6g %s" % (name, value, unit) for name, (value, unit) in result.metrics.items()]
    lines += ["FAILED: " + what for what in result.failures]
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
